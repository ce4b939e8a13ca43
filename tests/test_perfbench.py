"""The benchmark's jobs on small captures: on every workload, the in-process
job's traced and untraced passes agree, and they and the CLI chain give the
bits and the file bytes of the benchmark's independent reference pipeline.
At full length, each workload's seed-0 capture has the digest the benchmark
checks, its seed-1 job and set-up probe pass the checks the benchmark makes
at seed 1 before it times anything, its seed-1 CLI chain, run as child
processes, passes the checks the benchmark makes on every chain, and the
workloads' copies of CLI defaults equal the CLI's."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import LFSR_SEED, PRESET_CALIBRATION_TOL, WORKLOADS  # noqa: E402

from eccrng import cli, stats  # noqa: E402
from eccrng.bitio import load_manifest, manifest_path_for  # noqa: E402
from eccrng.cli import main  # noqa: E402
from eccrng.source import generate_stream  # noqa: E402

REFERENCES = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))


def _child_env() -> dict:
    # what run.py hands its children: this tree's src first, and no seed from the environment
    env = {k: v for k, v in os.environ.items() if k != "ECCRNG_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PERFBENCH.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_in_process_job_matches_the_reference(tmp_path, name):
    w = dataclasses.replace(WORKLOADS[name], bits=40_000, battery_bits=None)
    cfg = jobs.source_config(w, 3, w.bits)
    spec = jobs.pipeline_spec(w)
    plain = jobs.run_job(w, cfg, spec, tmp_path / "plain.out")
    traced = jobs.run_traced_job(w, cfg, spec, tmp_path / "traced.out", spans.Tracer())

    expected = oracle.pipeline(w.stages, plain.capture, LFSR_SEED)
    expected_sha = hashlib.sha256(oracle.encode(expected, w.encoding)).hexdigest()
    for job in (plain, traced):
        assert np.array_equal(job.output, expected)
        assert job.output_sha == expected_sha
        assert job.readback_ok
    assert np.array_equal(traced.capture, plain.capture)
    assert (traced.report_sha, traced.verdict, traced.failure_count) == (
        plain.report_sha, plain.verdict, plain.failure_count)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cli_chain_matches_the_reference(tmp_path, monkeypatch, capsys, name):
    w = dataclasses.replace(WORKLOADS[name], bits=40_000, battery_bits=None)
    monkeypatch.delenv("ECCRNG_SEED", raising=False)
    enc = w.encoding
    capture, output, report = tmp_path / "capture", tmp_path / "output", tmp_path / "output.report"
    # the argv of the benchmark's chain; --allow-short because the capture is small
    assert main(["generate", *w.source, "--bits", str(w.bits), "--seed", "1",
                 "--output", str(capture), "--encoding", enc]) == 0
    assert main(["postprocess", str(capture), "--input-encoding", enc, *w.stage_flags(),
                 "--output", str(output), "--encoding", enc]) == 0
    capsys.readouterr()
    code = main(["test", str(output), "--input-encoding", enc, "--report", str(report),
                 "--allow-short"])

    bits = generate_stream(jobs.source_config(w, 1, w.bits))
    expected = oracle.pipeline(w.stages, bits, LFSR_SEED)
    battery = stats.run_battery(expected)
    assert capture.read_bytes() == oracle.encode(bits, enc)
    assert output.read_bytes() == oracle.encode(expected, enc)
    text = stats.render_report(battery)
    assert report.read_text(encoding="utf-8") == text
    assert capsys.readouterr().out == text
    assert code == (0 if battery.passed else 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_full_length_capture_matches_the_reference(name):
    # the benchmark refuses a run whose capture digest differs from this one
    w = WORKLOADS[name]
    capture = generate_stream(jobs.source_config(w, 0, w.bits))
    sha = hashlib.sha256(oracle.encode(capture, w.encoding)).hexdigest()
    assert sha == REFERENCES[name]["0"]["capture_sha"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_1_job_and_probe_pass_the_benchmark_checks(tmp_path, name):
    # run.py --seed 1 exits 1 if its warm-up job or its set-up probe fails these
    w = WORKLOADS[name]
    job = jobs.run_job(w, jobs.source_config(w, 1, w.bits), jobs.pipeline_spec(w),
                       tmp_path / "job.out")
    expected = REFERENCES[name]["1"]
    got = {
        "capture_sha": hashlib.sha256(oracle.encode(job.capture, w.encoding)).hexdigest(),
        "output_sha": job.output_sha,
        "output_bits": int(job.output.size),
        "report_sha": job.report_sha,
        "verdict": job.verdict,
        "failure_count": job.failure_count,
    }
    assert got == {k: expected[k] for k in got}
    assert job.readback_ok

    probe = subprocess.run([sys.executable, str(PERFBENCH / "probe.py"), name, "1"],
                           env=_child_env(), capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split()[-1:] == [str(int(job.capture[0]))]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_1_cli_chain_passes_the_benchmark_checks(tmp_path, name):
    # run.py's three chain steps at seed 1 and full length, each in a fresh
    # interpreter as run.py starts them; rejection-wide's test step takes the
    # spectral count's second thread at 2,280,011 bits
    w, expected = WORKLOADS[name], REFERENCES[name]["1"]
    enc, ext = w.encoding, "txt" if w.encoding == "ascii" else "bin"
    capture, output = tmp_path / f"capture.{ext}", tmp_path / f"output.{ext}"
    report = tmp_path / "output.report"
    steps = (
        (["generate", *w.source, "--bits", str(w.bits), "--seed", "1",
          "--output", str(capture), "--encoding", enc], capture, "capture_sha", w.bits),
        (["postprocess", str(capture), "--input-encoding", enc, *w.stage_flags(),
          "--output", str(output), "--encoding", enc],
         output, "output_sha", expected["output_bits"]),
        (["test", str(output), "--input-encoding", enc, "--report", str(report)]
         + (["--bits", str(w.battery_bits)] if w.battery_bits else []), report, "report_sha", 0),
    )
    for argv, artifact, key, bits in steps:
        done = subprocess.run([sys.executable, "-m", "eccrng.cli", *argv], env=_child_env(),
                              cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv[0], done.stdout, done.stderr)
        sha = hashlib.sha256(artifact.read_bytes()).hexdigest()
        manifest = load_manifest(manifest_path_for(str(artifact)))
        assert (sha, manifest.output_sha256, manifest.output_bits) == (expected[key], sha, bits)


def test_workload_defaults_are_the_cli_defaults():
    # the workloads leave --lfsr-seed unset, and presets calibrate at the CLI's tolerance
    args = cli.build_parser().parse_args(["postprocess", "in", "--lfsr", "3,1,0",
                                          "--output", "out"])
    (stage,) = cli._build_stages(args).stages
    assert LFSR_SEED == stage.seed
    assert PRESET_CALIBRATION_TOL == cli.PRESET_CALIBRATION_TOL
