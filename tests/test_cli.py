"""Command-line behavior: exit codes, determinism, manifests, replay."""

import hashlib
import inspect
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from eccrng import cli
from eccrng.bitio import load_manifest, manifest_path_for, read_bit_file
from eccrng.cli import build_parser, main
from eccrng.source import calibrate_current
from eccrng.stats import parse_report


README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv):
    return main(list(argv))


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.bits"
    b = tmp_path / "b.bits"
    assert run("generate", "--preset", "data-b", "--bits", "10000", "--seed", "7",
               "--output", str(a)) == 0
    assert run("generate", "--preset", "data-b", "--bits", "10000", "--seed", "7",
               "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    bits = read_bit_file(str(a), bit_count=10000)
    assert bits.size == 10000
    assert float(bits.mean()) == pytest.approx(0.276, abs=0.02)


def test_generate_source_flags_are_exclusive(tmp_path):
    out = str(tmp_path / "x.bits")
    assert run("generate", "--bits", "10", "--output", out) == 1
    assert run("generate", "--preset", "data-a", "--bernoulli", "0.5",
               "--bits", "10", "--output", out) == 1
    assert run("generate", "--bernoulli", "1.5", "--bits", "10", "--output", out) == 1


def test_generate_markov_and_current_sources(tmp_path):
    out = tmp_path / "m.bits"
    assert run("generate", "--markov", "0.5,0.2", "--bits", "5000",
               "--output", str(out)) == 0
    assert read_bit_file(str(out), bit_count=5000).size == 5000
    assert run("generate", "--markov", "0.9,-0.5", "--bits", "10",
               "--output", str(out)) == 1  # infeasible pair
    out2 = tmp_path / "c.bits"
    assert run("generate", "--current", "100", "--t-write", "30",
               "--bits", "5000", "--output", str(out2)) == 0
    bits = read_bit_file(str(out2), bit_count=5000)
    assert float(bits.mean()) == pytest.approx(0.5, abs=0.03)
    # without --t-write, --current drives the 30 ns curve
    assert run("generate", "--current", "100", "--bits", "10", "--output", str(out2)) == 0
    assert load_manifest(manifest_path_for(str(out2))).params["t_write_ns"] == 30.0


def test_postprocess_pipeline_and_order(tmp_path):
    raw = tmp_path / "raw.bits"
    assert run("generate", "--bernoulli", "0.5", "--bits", "9920", "--seed", "1",
               "--output", str(raw)) == 0
    out1 = tmp_path / "le.bits"
    assert run("postprocess", str(raw), "--lfsr", "3,1,0", "--ecc", "31,16,3",
               "--output", str(out1)) == 0
    m1 = load_manifest(manifest_path_for(str(out1)))
    assert m1.output_bits == (9920 // 31) * 16
    assert m1.params["stages"] == ["lfsr(3,1,0)", "ecc(31,16,3)"]
    # absent register flags are recorded as the stage's defaults
    assert (m1.params["lfsr_seed"], m1.params["injection"]) == (1, "feedback")

    out2 = tmp_path / "el.bits"
    assert run("postprocess", str(raw), "--ecc", "31,16,3", "--lfsr", "3,1,0",
               "--output", str(out2)) == 0
    m2 = load_manifest(manifest_path_for(str(out2)))
    assert m2.params["stages"] == ["ecc(31,16,3)", "lfsr(3,1,0)"]
    assert out1.read_bytes() != out2.read_bytes()  # order matters


def test_postprocess_requires_stages_and_known_codes(tmp_path):
    raw = tmp_path / "raw.bits"
    run("generate", "--bernoulli", "0.5", "--bits", "1000", "--seed", "1",
        "--output", str(raw))
    assert run("postprocess", str(raw), "--output", str(tmp_path / "o.bits")) == 1
    assert run("postprocess", str(raw), "--ecc", "33,11,2",
               "--output", str(tmp_path / "o.bits")) == 1
    assert run("postprocess", str(raw), "--lfsr", "banana",
               "--output", str(tmp_path / "o.bits")) == 1
    assert run("postprocess", str(raw), "--ecc", "31,16,3", "--route", "matrix",
               "--output", str(tmp_path / "o.bits")) == 1


def test_postprocess_rejection_stage(tmp_path):
    raw = tmp_path / "raw.bits"
    run("generate", "--bernoulli", "0.276", "--bits", "20000", "--seed", "2",
        "--output", str(raw))
    out = tmp_path / "vn.bits"
    assert run("postprocess", str(raw), "--rejection", "--output", str(out)) == 0
    m = load_manifest(manifest_path_for(str(out)))
    assert m.params["stages"] == ["rejection"]
    assert (m.params["lfsr_seed"], m.params["injection"]) == (1, "feedback")
    assert 0.15 < m.output_bits / 20000 < 0.25


def test_missing_input_is_io_error(tmp_path):
    assert run("postprocess", str(tmp_path / "nope.bits"), "--rejection",
               "--output", str(tmp_path / "o.bits")) == 2
    assert run("test", str(tmp_path / "nope.bits")) == 2


def test_input_that_disagrees_with_its_manifest_is_io_error(tmp_path):
    raw = tmp_path / "raw.bits"
    assert run("generate", "--bernoulli", "0.5", "--bits", "1000", "--seed", "1",
               "--output", str(raw)) == 0
    raw.write_bytes(np.random.default_rng(2).bytes(1000))  # 8000 bits, stale sidecar
    out = str(tmp_path / "o.bits")
    assert run("postprocess", str(raw), "--rejection", "--output", out) == 2
    assert run("test", str(raw), "--allow-short", "--input-encoding", "packed") == 2
    # with the encoding and the bit count given, the sidecar is not consulted
    assert run("postprocess", str(raw), "--rejection", "--input-encoding", "packed",
               "--bits", "8000", "--output", out) == 0
    assert load_manifest(manifest_path_for(out)).params["input_bits"] == 8000


def test_bits_past_the_sidecar_count_are_an_io_error(tmp_path, capsys):
    # 1,001 bits pack into 126 bytes, so the payload holds 7 bits of padding
    raw = tmp_path / "raw.bits"
    assert run("generate", "--bernoulli", "0.5", "--bits", "1001", "--seed", "1",
               "--output", str(raw)) == 0
    out = str(tmp_path / "o.bits")
    assert run("postprocess", str(raw), "--rejection", "--bits", "1001", "--output", out) == 0
    assert load_manifest(manifest_path_for(out)).params["input_bits"] == 1001
    capsys.readouterr()
    for bits in ("1002", "1008"):
        assert run("postprocess", str(raw), "--rejection", "--bits", bits, "--output", out) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {raw}: bit count {bits} outside the 0..1001 bits in the file\n"
        )
    assert run("test", str(raw), "--allow-short", "--bits", "1002") == 2


def test_unwritable_output_is_io_error(tmp_path):
    raw = tmp_path / "raw.bits"
    run("generate", "--bernoulli", "0.5", "--bits", "1000", "--seed", "1",
        "--output", str(raw))
    assert run("postprocess", str(raw), "--rejection",
               "--output", str(tmp_path / "no" / "dir" / "o.bits")) == 2


@pytest.mark.parametrize("argv, sidecar", [
    (["generate", "--bernoulli", "0.5", "--bits", "100", "--output", "o.bin"],
     "o.bin.manifest.json"),
    (["test", "a.txt", "--allow-short"], "a.txt.report.manifest.json"),
], ids=["generate", "test"])
def test_unwritable_sidecar_is_io_error(tmp_path, capsys, monkeypatch, argv, sidecar):
    monkeypatch.chdir(tmp_path)
    assert run("generate", "--bernoulli", "0.5", "--bits", "2000", "--seed", "4",
               "--encoding", "ascii", "--output", "a.txt") == 0
    Path(sidecar).mkdir()
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {sidecar}: Is a directory\n"
    # the file the manifest would have described is removed again
    assert not Path(sidecar.removesuffix(".manifest.json")).exists()


def test_out_of_memory_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    def generate_stream(cfg):
        raise MemoryError(f"Unable to allocate {cfg.length} bits")

    monkeypatch.setattr(cli, "generate_stream", generate_stream)
    assert run("generate", "--bernoulli", "0.5", "--bits", "100",
               "--output", str(tmp_path / "o.bin")) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 100 bits\n"


def test_battery_command_exit_codes(tmp_path, capsys):
    raw = tmp_path / "biased.bits"
    run("generate", "--preset", "data-b", "--bits", "150000", "--seed", "3",
        "--output", str(raw))
    # too short without the override
    assert run("test", str(raw)) == 1
    assert run("test", str(raw), "--allow-short") == 3  # biased stream fails
    report = parse_report((tmp_path / "biased.bits.report").read_text())
    assert report["verdict"] == "Fail"

    clean = tmp_path / "clean.bits"
    run("postprocess", str(raw), "--lfsr", "3,1,0", "--ecc", "31,16,3",
        "--output", str(clean))
    capsys.readouterr()
    assert run("test", str(clean), "--allow-short") == 0
    out = capsys.readouterr().out
    assert "verdict Pass" in out
    report = parse_report((tmp_path / "clean.bits.report").read_text())
    assert report["verdict"] == "Pass"
    assert report["test_count"] == 9


def test_battery_report_path_and_manifest(tmp_path):
    raw = tmp_path / "r.bits"
    run("generate", "--bernoulli", "0.5", "--bits", "120000", "--seed", "9",
        "--output", str(raw))
    report_path = tmp_path / "custom.report"
    assert run("test", str(raw), "--allow-short", "--report", str(report_path)) in (0, 3)
    assert report_path.exists()
    m = load_manifest(manifest_path_for(str(report_path)))
    assert m.command == "test"
    assert m.input_path == str(raw)


def test_battery_rejects_bad_alpha(tmp_path):
    raw = tmp_path / "r.bits"
    run("generate", "--bernoulli", "0.5", "--bits", "2000", "--seed", "9",
        "--output", str(raw))
    assert run("test", str(raw), "--allow-short", "--alpha", "2.0") == 1


def test_speed_table(capsys):
    assert run("speed", "--read-ns", "10", "--clocks-per-bit", "4") == 0
    out = capsys.readouterr().out
    assert "estimated_mhz 25" in out
    assert re.search(r"rtn-reference-a\s+2\b", out)
    assert re.search(r"rtn-reference-b\s+0\.2\b", out)
    assert run("speed", "--read-ns", "0") == 1
    assert run("speed", "--clocks-per-bit", "0") == 1


def test_calibrate_command(capsys):
    assert run("calibrate", "--t-write", "30", "--target", "0.276") == 0
    out = capsys.readouterr().out
    current = float(re.search(r"current_ua ([-\d.]+)", out).group(1))
    prob = float(re.search(r"curve_probability ([\d.]+)", out).group(1))
    assert prob == pytest.approx(0.276, abs=1e-6)
    assert current < 100.0  # below the 30 ns midpoint for a sub-half target
    assert run("calibrate", "--t-write", "17") == 1  # no such model


def test_bench_stage_lines_and_shares(capsys):
    assert run("bench", "--bits", "50000") == 0
    text = capsys.readouterr().out
    # one line per timed stage, and no reference-oracle run beside them
    stages = re.findall(r"^stage=(\S+) ", text, re.MULTILINE)
    assert stages == ["generate", "lfsr(3,1,0)", "ecc(31,16,3)"]
    assert "selfcheck=" not in text
    shares = [float(s) for s in re.findall(r"share=([\d.]+)%", text)]
    assert shares and sum(shares) <= 100.5
    assert "throughput_mbit_s" in text


@pytest.mark.parametrize(
    "argv, command, params",
    [
        (["test", "{raw}", "--allow-short", "--report", "{artifact}"], "test",
         {"alpha", "fail_threshold", "block_size", "pattern_length", "input_bits"}),
    ],
    ids=["test"],
)
def test_text_artifact_is_what_was_printed(tmp_path, capsys, argv, command, params):
    paths = {"raw": tmp_path / "raw.bits", "artifact": tmp_path / "out.txt"}
    assert run("generate", "--bernoulli", "0.5", "--bits", "20000", "--seed", "3",
               "--output", str(paths["raw"])) == 0
    capsys.readouterr()
    assert run(*(a.format(**paths) for a in argv)) in (0, 3)
    assert paths["artifact"].read_bytes() == capsys.readouterr().out.encode("utf-8")
    manifest = load_manifest(manifest_path_for(str(paths["artifact"])))
    assert (manifest.command, set(manifest.params)) == (command, params)
    assert (manifest.encoding, manifest.output_bits) == ("text", 0)


@pytest.mark.parametrize("command", ["generate", "postprocess", "test", "calibrate", "speed",
                                     "bench"])
def test_help_exits_zero_without_a_traceback(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: eccrng {command} ")
    assert "Traceback" not in out + err


def test_only_the_capture_chain_declares_a_file_flag(capsys):
    # every file eccrng writes is a link that replays: a generate -> postprocess -> test chain
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{(\w+(?:,\w+)+)\}", capsys.readouterr().out)[1].split(",")
    writers = set()
    for command in commands:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        if re.search(r"--output|--report", capsys.readouterr().out):
            writers.add(command)
    assert {"calibrate", "speed", "bench"} <= set(commands)
    assert writers == {"generate", "postprocess", "test"}


def test_calibrate_flags_repeat_the_library_defaults(capsys):
    # --target's default is printed, so it stays a copy; --tol's is only named in its help
    defaults = inspect.signature(calibrate_current).parameters
    assert build_parser().parse_args(["calibrate"]).target == defaults["target"].default
    with pytest.raises(SystemExit):
        main(["calibrate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    tol = re.search(r"--tol TOL default (\S+)", help_text)
    assert tol is not None
    assert float(tol[1]) == defaults["tol"].default


def test_bench_rejects_bad_source(capsys):
    assert run("bench", "--bits", "100", "--preset", "nope") == 1
    assert "unknown preset 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--preset", "data-b"], ["--markov", "0.4,0.1"]],
                         ids=["default", "preset", "markov"])
def test_bench_names_its_source_as_generate_does(tmp_path, capsys, flags):
    # bench takes generate's source flags and, without one, measures bernoulli 0.5
    out = tmp_path / "g.bits"
    assert run("generate", *(flags or ["--bernoulli", "0.5"]), "--bits", "1000", "--seed", "2",
               "--output", str(out)) == 0
    source = load_manifest(manifest_path_for(str(out))).params["source"]
    capsys.readouterr()
    assert run("bench", *flags, "--bits", "1000", "--seed", "2") == 0
    assert capsys.readouterr().out.splitlines()[1] == f"source {source} seed=2 bits=1000"


# flags a command no longer declares
REMOVED_FLAGS = {"bench": {"--source", "--output"},
                 "calibrate": {"--empirical", "--batch-bits", "--seed", "--output"},
                 "speed": {"--output"}}

# the whole stderr of some bad-argv cases, by argv as written in the list below
BAD_ARGV_ERRORS = {
    "bench --bits 1000 --bernoulli 0.5 --markov 0.4,0.1":
        "error: choose exactly one source: --preset, --bernoulli or --markov\n",
    "bench --bits 1000 --bernoulli 0.5 --model-config x":
        "error: --model-config applies to --preset only, not to --bernoulli\n",
    "generate --bernoulli 0.5 --markov 0.4,0.1 --bits 10 --output {out}":
        "error: choose exactly one source: --preset, --bernoulli, --markov or --current\n",
    "generate --bernoulli 0.5 --model-config {far} --bits 10 --output {out}":
        "error: --model-config applies to --preset and --current only, not to --bernoulli\n",
    "postprocess {ascii} --ecc 7,4,1 --lfsr-seed 5 --injection output-xor --output {out}":
        "error: --lfsr-seed applies to --lfsr stages only, and no --lfsr is given\n",
    "postprocess {ascii} --rejection --injection feedback --output {out}":
        "error: --injection applies to --lfsr stages only, and no --lfsr is given\n",
    "calibrate --empirical --seed -2":
        "error: eccrng: unrecognized arguments: --empirical --seed -2\n",
    "generate --bernoulli 0.5 --bits 10 --seed -1 --output {out}":
        "error: --seed must be a non-negative integer, got -1\n",
    "bench --bits 1000 --seed -1":
        "error: --seed must be a non-negative integer, got -1\n",
    "generate --bernoulli 0.5 --bits 10 --seed x --output {out}":
        "error: eccrng generate: argument --seed: invalid int value: 'x'\n",
    "calibrate --target 0.5 --output {out}":
        "error: eccrng: unrecognized arguments: --output {out}\n",
    "speed --read-ns 3 --output {out}":
        "error: eccrng: unrecognized arguments: --output {out}\n",
    "bench --bits 100 --seed 2 --output {out}":
        "error: eccrng: unrecognized arguments: --output {out}\n",
    "speed --clocks-per-bit 1" + "0" * 400:
        "error: --read-ns 10.0 at --clocks-per-bit 1" + "0" * 400
        + " gives a rate of 0 MHz; it must be finite and positive\n",
    "speed --read-ns 1e-320":
        "error: --read-ns 1e-320 at --clocks-per-bit 4 gives a rate of inf MHz;"
        " it must be finite and positive\n",
    "speed --read-ns 1e308 --clocks-per-bit 10":
        "error: --read-ns 1e+308 at --clocks-per-bit 10 gives a rate of 0 MHz;"
        " it must be finite and positive\n",
    "generate --bernoulli 0.5 --bits 1" + "0" * 37 + " --output {out}":
        f"error: length must be at most {sys.maxsize}, got 1" + "0" * 37 + "\n",
    "generate --markov 0.5,0.1 --bits 1" + "0" * 37 + " --output {out}":
        f"error: length must be at most {sys.maxsize}, got 1" + "0" * 37 + "\n",
    "bench --bits 1" + "0" * 37:
        f"error: length must be at most {sys.maxsize}, got 1" + "0" * 37 + "\n",
    "postprocess {bom} --ecc 7,4,1 --output {out}":
        "error: no sidecar names the encoding of {bom}; pass --input-encoding packed or ascii\n",
    "postprocess {report} --ecc 7,4,1 --output {out}":
        "error: no sidecar names the encoding of {report};"
        " pass --input-encoding packed or ascii\n",
}


def bad_argv_inputs(directory):
    """Write the files the bad-argv cases name into directory; their paths, by placeholder."""
    paths = {name: directory / file for name, file in (
        ("ascii", "a.txt"), ("packed", "p.bits"), ("out", "o"), ("far", "far.cfg"),
        ("nan", "nan.cfg"), ("bom", "bom.txt"), ("comma", "comma.txt"), ("one", "one.bits"))}
    # a curve no float current resolves, and a non-finite midpoint
    paths["far"].write_text("t30.i50_ua = 1e20\nt30.slope_scale_ua = 1e-3\n")
    paths["nan"].write_text("t30.i50_ua = nan\nt30.slope_scale_ua = 5\n")
    assert run("generate", "--bernoulli", "0.5", "--bits", "2000", "--seed", "4",
               "--encoding", "ascii", "--output", str(paths["ascii"])) == 0
    # its battery report, whose sidecar names the encoding "text"
    assert run("test", str(paths["ascii"]), "--allow-short") == 0
    paths["report"] = Path(f"{paths['ascii']}.report")
    # files with no sidecar: a packed one, ascii digits behind a UTF-8 BOM or with a
    # stray comma, and the one byte b"1"
    paths["packed"].write_bytes(b"\x9c\x22\x01")
    digits = paths["ascii"].read_bytes().replace(b"\n", b"")
    paths["bom"].write_bytes(b"\xef\xbb\xbf" + digits + b"\n")
    paths["comma"].write_bytes(digits[:1000] + b"," + digits[1000:] + b"\n")
    paths["one"].write_bytes(b"1")
    return paths


BAD_ARGVS = [
    (["bench", "--bits", "100", "--markov", "0.9,-0.5"], 1),
    (["bench", "--bits", "100", "--bernoulli", "2"], 1),
    (["bench", "--bits", "100", "--lfsr-seed", "99"], 1),
    (["bench", "--bits", "100", "--lfsr", "3,1,0", "--lfsr-seed", "99"], 1),
    (["postprocess", "{ascii}", "--lfsr", "3,1,0", "--lfsr-seed", "99",
      "--output", "{out}"], 1),
    (["postprocess", "{ascii}", "--rejection", "--bits", "-1", "--output", "{out}"], 1),
    (["postprocess", "{ascii}", "--rejection", "--input-encoding", "ascii",
      "--bits", "2001", "--output", "{out}"], 2),
    (["postprocess", "{ascii}", "--rejection", "--bits", "2001", "--output", "{out}"], 2),
    (["test", "{ascii}", "--allow-short", "--bits", "5000"], 2),
    (["postprocess", "{packed}", "--rejection", "--input-encoding", "ascii",
      "--output", "{out}"], 2),
    (["generate", "--bernoulli", "0.5", "--bits", "10", "--seed", "-1",
      "--output", "{out}"], 1),
    (["bench", "--bits", "1000", "--seed", "-1"], 1),
    (["generate", "--bernoulli", "0.5", "--bits", "10", "--seed", "x",
      "--output", "{out}"], 1),
    (["calibrate", "--empirical", "--seed", "-2"], 1),
    (["speed", "--read-ns", "nan"], 1),
    (["speed", "--read-ns", "inf"], 1),
    (["generate", "--current", "nan", "--bits", "10", "--output", "{out}"], 1),
    (["generate", "--current", "inf", "--bits", "10", "--output", "{out}"], 1),
    (["generate", "--preset", "data-b", "--model-config", "{far}", "--bits", "100",
      "--output", "{out}"], 1),
    (["bench", "--bits", "100", "--preset", "data-b", "--model-config", "{far}"], 1),
    (["generate", "--current", "100", "--model-config", "{nan}", "--bits", "10",
      "--output", "{out}"], 2),
    (["calibrate", "--target", "0.276", "--tol", "inf"], 1),
    (["calibrate", "--empirical", "--tol", "inf"], 1),
    (["calibrate", "--tol", "nan"], 1),
    # a bit order has no meaning for ascii input, named by the sidecar or by the flag
    (["test", "{ascii}", "--allow-short", "--bit-order", "lsb"], 1),
    (["postprocess", "{ascii}", "--rejection", "--bit-order", "lsb", "--output", "{out}"], 1),
    (["postprocess", "{ascii}", "--rejection", "--input-encoding", "ascii",
      "--bit-order", "msb", "--output", "{out}"], 1),
    # values the CLI only parses, and SourceConfig or run_battery refuses
    (["generate", "--bernoulli", "nan", "--bits", "10", "--output", "{out}"], 1),
    (["generate", "--markov", "1.5,0.1", "--bits", "10", "--output", "{out}"], 1),
    (["generate", "--markov", "0.5,x", "--bits", "10", "--output", "{out}"], 1),
    (["generate", "--preset", "nope", "--bits", "10", "--output", "{out}"], 1),
    # a source flag may be given once, even the same one
    (["generate", "--preset", "data-a", "--preset", "data-b", "--bits", "10",
      "--output", "{out}"], 1),
    (["test", "{ascii}", "--allow-short", "--fail-threshold", "-1"], 1),
    (["test", "{ascii}", "--allow-short", "--alpha", "0"], 1),
    # a source flag that the chosen source does not read is refused, not ignored
    (["generate", "--bernoulli", "0.5", "--t-write", "10", "--bits", "10",
      "--output", "{out}"], 1),
    (["generate", "--markov", "0.4,0.1", "--t-write", "10", "--bits", "10",
      "--output", "{out}"], 1),
    (["generate", "--preset", "data-b", "--t-write", "10", "--bits", "10",
      "--output", "{out}"], 1),
    (["generate", "--bernoulli", "0.5", "--model-config", "{far}", "--bits", "10",
      "--output", "{out}"], 1),
    (["generate", "--markov", "0.4,0.1", "--model-config", "{far}", "--bits", "10",
      "--output", "{out}"], 1),
    (["bench", "--bits", "100", "--bernoulli", "0.5", "--model-config", "{far}"], 1),
    (["bench", "--bits", "100", "--markov", "0.4,0.1", "--model-config", "{far}"], 1),
    (["bench", "--bits", "100", "--model-config", "{far}"], 1),  # the default bernoulli
    # bench names its source with generate's flags; --source is gone
    (["bench", "--bits", "100", "--source", "data-b"], 1),
    # bench's messages name only the source flags bench declares
    (["bench", "--bits", "1000", "--bernoulli", "0.5", "--markov", "0.4,0.1"], 1),
    (["bench", "--bits", "1000", "--bernoulli", "0.5", "--model-config", "x"], 1),
    (["generate", "--bernoulli", "0.5", "--markov", "0.4,0.1", "--bits", "10",
      "--output", "{out}"], 1),
    # the register's options are refused when no --lfsr stage reads them
    (["postprocess", "{ascii}", "--ecc", "7,4,1", "--lfsr-seed", "5",
      "--injection", "output-xor", "--output", "{out}"], 1),
    (["postprocess", "{ascii}", "--rejection", "--injection", "feedback",
      "--output", "{out}"], 1),
    (["bench", "--bits", "100", "--ecc", "7,4,1", "--lfsr-seed", "5",
      "--injection", "output-xor"], 1),
    (["bench", "--bits", "100", "--rejection", "--injection", "output-xor"], 1),
    # only the capture chain writes files: these three commands print
    (["calibrate", "--target", "0.5", "--output", "{out}"], 1),
    (["speed", "--read-ns", "3", "--output", "{out}"], 1),
    (["bench", "--bits", "100", "--seed", "2", "--output", "{out}"], 1),
    # a rate that is not finite and positive, from inputs that each pass their check
    (["speed", "--clocks-per-bit", "1" + "0" * 400], 1),
    (["speed", "--read-ns", "1e-320"], 1),
    (["speed", "--read-ns", "1e308", "--clocks-per-bit", "10"], 1),
    # a length no array can index is refused before anything is allocated
    (["generate", "--bernoulli", "0.5", "--bits", "1" + "0" * 37, "--output", "{out}"], 1),
    (["generate", "--markov", "0.5,0.1", "--bits", "1" + "0" * 37, "--output", "{out}"], 1),
    (["bench", "--bits", "1" + "0" * 37], 1),
    # without --input-encoding a file is read in the encoding its sidecar names, and
    # these have no sidecar, or one that names "text"
    (["test", "{bom}", "--allow-short"], 1),
    (["postprocess", "{bom}", "--ecc", "7,4,1", "--output", "{out}"], 1),
    (["postprocess", "{comma}", "--ecc", "7,4,1", "--output", "{out}"], 1),
    (["postprocess", "{report}", "--ecc", "7,4,1", "--output", "{out}"], 1),
    (["postprocess", "{one}", "--rejection", "--output", "{out}"], 1),
]


@pytest.mark.parametrize("argv, code", BAD_ARGVS)
def test_bad_argv_is_an_error_not_a_traceback(tmp_path, capsys, argv, code):
    paths = bad_argv_inputs(tmp_path)
    capsys.readouterr()
    # an exception escaping main is the traceback the entry point would print
    assert run(*(a.format(**paths) for a in argv)) == code
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    # every case but a removed flag is refused by the CLI's own rules, not by argparse
    removed = REMOVED_FLAGS.get(argv[0], set()) & set(argv)
    assert ("unrecognized arguments" in err) == bool(removed)
    assert err == BAD_ARGV_ERRORS.get(" ".join(argv), err).format(**paths)


def test_input_digest_and_bit_count_follow_the_file(tmp_path):
    for encoding in ("packed", "ascii"):
        capture = tmp_path / f"cap-{encoding}"
        assert run("generate", "--bernoulli", "0.5", "--bits", "2000", "--seed", "4",
                   "--encoding", encoding, "--output", str(capture)) == 0
        produced = load_manifest(manifest_path_for(str(capture))).output_sha256
        out = tmp_path / f"out-{encoding}"
        assert run("postprocess", str(capture), "--rejection", "--output", str(out)) == 0
        assert load_manifest(manifest_path_for(str(out))).input_sha256 == produced
        report = tmp_path / f"rep-{encoding}"
        assert run("test", str(capture), "--allow-short", "--report", str(report)) in (0, 3)
        assert load_manifest(manifest_path_for(str(report))).input_sha256 == produced

    ascii_capture = str(tmp_path / "cap-ascii")
    out = str(tmp_path / "prefix")
    whole = str(tmp_path / "whole")
    # --bits takes a prefix of an ascii file, as it does of a packed one
    assert run("postprocess", ascii_capture, "--lfsr", "3,1,0", "--input-encoding", "ascii",
               "--bits", "100", "--output", out) == 0
    assert run("postprocess", ascii_capture, "--lfsr", "3,1,0", "--output", whole) == 0
    assert load_manifest(manifest_path_for(out)).params["input_bits"] == 100
    assert np.array_equal(read_bit_file(out, bit_count=100),
                          read_bit_file(whole, bit_count=2000)[:100])
    # the sidecar's bit count describes the ascii reading, not a packed one
    assert run("postprocess", ascii_capture, "--rejection", "--input-encoding", "packed",
               "--output", out) == 0
    payload_bits = 8 * (tmp_path / "cap-ascii").stat().st_size
    assert load_manifest(manifest_path_for(out)).params["input_bits"] == payload_bits


def test_bit_order_lsb_reads_packed_input(tmp_path, capsys):
    msb = tmp_path / "msb.bits"
    assert run("generate", "--bernoulli", "0.5", "--bits", "2000", "--seed", "6",
               "--output", str(msb)) == 0
    raw = np.frombuffer(msb.read_bytes(), dtype=np.uint8)
    lsb = tmp_path / "lsb.bits"  # the same bits, packed the other way, with no sidecar
    lsb.write_bytes(np.packbits(np.unpackbits(raw), bitorder="little").tobytes())
    outs = {}
    for path, order in ((msb, []), (lsb, ["--input-encoding", "packed", "--bit-order", "lsb"])):
        outs[path] = tmp_path / f"{path.stem}.out"
        assert run("postprocess", str(path), "--lfsr", "3,1,0", *order,
                   "--output", str(outs[path])) == 0
        capsys.readouterr()
        assert run("test", str(path), "--allow-short", *order) in (0, 3)
        outs[path, "report"] = capsys.readouterr().out
    assert outs[msb].read_bytes() == outs[lsb].read_bytes()
    assert outs[msb, "report"] == outs[lsb, "report"]


def test_manifest_replay_reproduces_bytes(tmp_path, monkeypatch):
    # each chain runs on relative paths in one directory, and is replayed step by step
    # from its stored argvs in a fresh one; the manifest stores the argv as typed
    chains = {
        "flag": [["generate", "--preset", "data-c", "--bits", "30000", "--seed", "5",
                  "--output", "cap.bits"]],
        "default": [["generate", "--preset", "data-c", "--bits", "30000",
                     "--output", "cap.bits"]],
        "chain": [["generate", "--markov", "0.4,0.1", "--bits", "30000", "--seed", "3",
                   "--output", "cap.bits"],
                  ["postprocess", "cap.bits", "--lfsr", "3,1,0", "--ecc", "31,16,3",
                   "--output", "clean.bits"],
                  ["test", "clean.bits", "--allow-short"]],
    }
    for name, steps in chains.items():
        first = tmp_path / name / "one"
        second = tmp_path / name / "two"
        first.mkdir(parents=True)
        second.mkdir()
        monkeypatch.chdir(first)
        recorded = []  # (exit code, manifest) of each step, in order
        for typed in steps:
            before = set(first.glob("*.manifest.json"))
            code = run(*typed)
            (new,) = set(first.glob("*.manifest.json")) - before
            recorded.append((code, json.loads(new.read_text())))
            assert recorded[-1][1]["argv"] == typed
        monkeypatch.chdir(second)
        produced = {}
        for code, manifest in recorded:
            assert run(*manifest["argv"]) == code
            output = manifest["output_path"]
            digest = hashlib.sha256((second / output).read_bytes()).hexdigest()
            assert digest == manifest["output_sha256"], (name, output)
            if manifest["input_path"] is not None:
                assert manifest["input_sha256"] == produced[manifest["input_path"]], (name, output)
            produced[output] = digest


def test_ascii_encoding_flows_through(tmp_path):
    raw = tmp_path / "a.txt"
    assert run("generate", "--bernoulli", "0.5", "--bits", "600", "--seed", "8",
               "--encoding", "ascii", "--output", str(raw)) == 0
    text = raw.read_text()
    assert set(text) <= {"0", "1", "\n"}
    out = tmp_path / "b.bits"
    # the sidecar names the encoding on the way back in, and the manifest records it
    assert run("postprocess", str(raw), "--lfsr", "2,1,0", "--output", str(out)) == 0
    m = load_manifest(manifest_path_for(str(out)))
    assert m.params["input_encoding"] == "ascii"
    assert m.output_bits == 600


def test_ascii_without_a_sidecar_is_read_only_when_named(tmp_path):
    raw = tmp_path / "ff.txt"
    raw.write_bytes(b"".join(b"01" * 32 + b"\f\n" for _ in range(40)))  # no sidecar
    out = tmp_path / "o.bits"
    assert run("postprocess", str(raw), "--rejection", "--output", str(out)) == 1
    assert run("postprocess", str(raw), "--rejection", "--input-encoding", "ascii",
               "--output", str(out)) == 0
    m = load_manifest(manifest_path_for(str(out)))
    assert m.params["input_encoding"] == "ascii"
    assert m.params["input_bits"] == 2560


@pytest.mark.parametrize("field, value", [("output_bits", "1001"), ("output_bits", True),
                                          ("output_sha256", None), ("encoding", 7)])
def test_mistyped_sidecar_is_ignored_not_a_traceback(tmp_path, capsys, field, value):
    raw = tmp_path / "raw.bits"
    assert run("generate", "--bernoulli", "0.5", "--bits", "1001", "--seed", "1",
               "--output", str(raw)) == 0
    sidecar = Path(manifest_path_for(str(raw)))
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), field: value}))
    out = tmp_path / "o.bits"
    capsys.readouterr()
    # a damaged sidecar names no encoding, so the read needs the flag
    assert run("postprocess", str(raw), "--rejection", "--output", str(out)) == 1
    assert "Traceback" not in capsys.readouterr().err
    # with it, the damaged sidecar is not consulted: the packed file is read whole
    assert run("postprocess", str(raw), "--rejection", "--input-encoding", "packed",
               "--output", str(out)) == 0
    assert load_manifest(manifest_path_for(str(out))).params["input_bits"] == 1008


def test_readme_report_is_what_its_commands_print(tmp_path, capsys, monkeypatch):
    text = README.read_text(encoding="utf-8")
    # each example: an "eccrng ..." line, then the "# " lines of what it prints
    examples, argv = {}, None
    for line in text.splitlines():
        if line.startswith("eccrng "):
            argv = shlex.split(line)[1:]
            examples[argv[0]] = (argv, [])
        elif argv and line.startswith("# "):
            examples[argv[0]][1].append(line[2:])
        else:
            argv = None
    report = text.split("## Battery report format", 1)[1].split("```\n", 2)[1]
    monkeypatch.chdir(tmp_path)
    # bench prints timings, so its example is not checked
    for command in ("generate", "postprocess", "calibrate", "speed"):
        argv, shown = examples[command]
        assert run(*argv) == 0
        printed = capsys.readouterr().out.splitlines()
        assert shown and set(shown) <= set(printed), (command, shown, printed)
    argv, _ = examples["test"]
    assert argv == ["test", "clean.bin", "--allow-short"]
    assert run(*argv) == 0
    assert capsys.readouterr().out == report
