"""The CLI golden corpus: what each argv of `eccrng` prints, exits with and writes.

Each argv runs in process through `eccrng.cli.main`, in a fresh directory
that holds copies of the same input files under relative names, with
COLUMNS=80 so that help text wraps the same everywhere. Its record is the
exit code, the SHA-256 of stdout and of stderr, and the SHA-256 of each file
it wrote. A manifest is hashed with its `created_utc` masked, and `bench`'s
timings are masked in its stdout.

`tests/cli_golden.json` holds the records, with the Python and numpy
versions they were made under; `tests/test_cli_golden.py` compares them in
tier-1, and `tests/regen_cli_golden.py` rewrites them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shlex
import shutil
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from eccrng.cli import main
from test_cli import BAD_ARGVS, bad_argv_inputs

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

# every subcommand, accepted and refused, with small --bits; the bad-argv cases of
# test_cli follow. Inputs (bad_argv_inputs and make_inputs): a.txt, an ascii capture,
# and cap.bits, a packed one, each with its sidecar; a.txt.report, a report whose
# sidecar names "text"; p.bits, bom.txt, comma.txt and one.bits, with no sidecar;
# d.bits.manifest.json, a directory
ARGVS = [
    [], ["--help"], ["--version"], ["nope"],
    *([command, "--help"] for command in
      ("generate", "postprocess", "test", "calibrate", "speed", "bench")),
    # generate: each source and encoding
    ["generate", "--preset", "data-a", "--bits", "1000", "--seed", "1", "--output", "g.bits"],
    ["generate", "--preset", "data-b", "--bits", "1001", "--seed", "1", "--output", "g.bits"],
    ["generate", "--preset", "data-c", "--bits", "1000", "--output", "g.bits"],
    ["generate", "--bernoulli", "0.3", "--bits", "777", "--seed", "2", "--output", "g.bits"],
    ["generate", "--bernoulli", "0.5", "--bits", "1000", "--encoding", "ascii",
     "--output", "g.txt"],
    ["generate", "--bernoulli", "0.5", "--bits", "0", "--output", "g.bits"],
    ["generate", "--markov", "0.4,0.1", "--bits", "1000", "--seed", "3", "--output", "g.bits"],
    ["generate", "--current", "100", "--bits", "500", "--output", "g.bits"],
    ["generate", "--current", "110", "--t-write", "10", "--bits", "500", "--output", "g.bits"],
    ["generate", "--preset", "data-b", "--bits", "100", "--model-config", "nan.cfg",
     "--output", "g.bits"],
    ["generate", "--bernoulli", "0.5", "--bits", "-1", "--output", "g.bits"],
    ["generate", "--bernoulli", "0.5", "--bits", "10"],
    ["generate", "--bernoulli", "0.5", "--bits", "10", "--output", "nodir/g.bits"],
    ["generate", "--current", "100", "--bits", "10", "--model-config", "missing.cfg",
     "--output", "g.bits"],
    ["generate", "--bernoulli", "0.5", "--bits", "100", "--output", "d.bits"],
    # postprocess: inputs read by their sidecar
    ["postprocess", "cap.bits", "--lfsr", "3,1,0", "--ecc", "31,16,3", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--ecc", "31,16,3", "--lfsr", "3,1,0", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--rejection", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--rejection", "--ecc", "127,99,4", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--ecc", "7,4,1", "--encoding", "ascii", "--output", "c.txt"],
    ["postprocess", "cap.bits", "--lfsr", "3,1,0", "--lfsr-seed", "5", "--injection",
     "output-xor", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--lfsr", "7,6,0", "--lfsr-seed", "0", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--rejection", "--bits", "2000", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--rejection", "--bits", "3002", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--rejection", "--bit-order", "lsb", "--output", "c.bits"],
    ["postprocess", "a.txt", "--lfsr", "3,1,0", "--output", "c.bits"],
    ["postprocess", "a.txt", "--rejection", "--bits", "100", "--output", "c.bits"],
    ["postprocess", "a.txt", "--rejection", "--input-encoding", "packed", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--rejection", "--input-encoding", "ascii", "--output", "c.bits"],
    # postprocess: inputs with no sidecar, or a sidecar that names no bit encoding
    ["postprocess", "p.bits", "--rejection", "--output", "c.bits"],
    ["postprocess", "p.bits", "--rejection", "--input-encoding", "packed", "--output", "c.bits"],
    ["postprocess", "p.bits", "--rejection", "--input-encoding", "packed", "--bit-order", "lsb",
     "--output", "c.bits"],
    ["postprocess", "bom.txt", "--rejection", "--input-encoding", "ascii", "--output", "c.bits"],
    ["postprocess", "comma.txt", "--rejection", "--input-encoding", "ascii", "--output", "c.bits"],
    ["postprocess", "comma.txt", "--rejection", "--input-encoding", "packed", "--output", "c.bits"],
    ["postprocess", "one.bits", "--rejection", "--input-encoding", "packed", "--output", "c.bits"],
    ["postprocess", "one.bits", "--rejection", "--input-encoding", "ascii", "--output", "c.bits"],
    ["postprocess", "a.txt.report", "--ecc", "7,4,1", "--input-encoding", "ascii",
     "--output", "c.bits"],
    ["postprocess", "a.txt.report", "--ecc", "7,4,1", "--input-encoding", "packed",
     "--output", "c.bits"],
    # postprocess: refused
    ["postprocess", "nope.bits", "--rejection", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--rejection", "--output", "nodir/c.bits"],
    ["postprocess", "cap.bits", "--ecc", "33,11,2", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--lfsr", "banana", "--output", "c.bits"],
    ["postprocess", "cap.bits", "--lfsr", "3,1,0", "--lfsr-seed", "0", "--output", "c.bits"],
    # test
    ["test", "a.txt", "--allow-short"],
    ["test", "a.txt", "--allow-short", "--report", "r.txt"],
    ["test", "a.txt", "--allow-short", "--alpha", "0.5", "--fail-threshold", "0"],
    ["test", "a.txt", "--allow-short", "--block-size", "64", "--pattern-length", "3"],
    ["test", "cap.bits", "--allow-short"],
    ["test", "cap.bits", "--allow-short", "--bits", "1500"],
    ["test", "cap.bits"],
    ["test", "p.bits", "--allow-short"],
    ["test", "p.bits", "--allow-short", "--input-encoding", "packed"],
    ["test", "comma.txt", "--allow-short"],
    ["test", "comma.txt", "--allow-short", "--input-encoding", "packed"],
    ["test", "one.bits", "--allow-short", "--input-encoding", "ascii"],
    ["test", "nope.bits"],
    ["test", "a.txt", "--allow-short", "--report", "nodir/r.txt"],
    ["test", "a.txt", "--allow-short", "--report", "d.bits"],
    # calibrate
    ["calibrate"],
    ["calibrate", "--t-write", "10", "--target", "0.363"],
    ["calibrate", "--target", "0.276", "--tol", "1e-6"],
    ["calibrate", "--target", "1.5"],
    ["calibrate", "--t-write", "17"],
    ["calibrate", "--model-config", "far.cfg"],
    ["calibrate", "--model-config", "missing.cfg"],
    # speed
    ["speed"],
    ["speed", "--read-ns", "10", "--clocks-per-bit", "4"],
    ["speed", "--read-ns", "3", "--clocks-per-bit", "1"],
    ["speed", "--read-ns", "0"],
    ["speed", "--clocks-per-bit", "0"],
    # bench
    ["bench", "--bits", "1000"],
    ["bench", "--bits", "1000", "--seed", "2", "--preset", "data-b"],
    ["bench", "--bits", "1000", "--markov", "0.4,0.1", "--rejection", "--ecc", "7,4,1"],
    ["bench", "--bits", "1000", "--lfsr", "3,1,0", "--lfsr-seed", "5", "--injection",
     "output-xor"],
    ["bench", "--bits", "0"],
    *(argv for argv, _ in BAD_ARGVS),
]

# bench's timing figures, which differ from run to run
_TIMINGS = re.compile(
    r"\b(seconds=|share=|mbit_s=|total_seconds |throughput_mbit_s )(?:[\d.]+|inf)")


def versions() -> dict:
    """The versions the records depend on: argparse's help text, numpy's random streams."""
    return {"python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__}


def make_inputs(directory: Path) -> dict[str, str]:
    """Write the input files into directory; the placeholders of BAD_ARGVS, by name."""
    with _inside(directory), redirect_stdout(io.StringIO()):
        paths = {name: str(path) for name, path in bad_argv_inputs(Path()).items()}
        assert main(["generate", "--preset", "data-b", "--bits", "3001", "--seed", "2",
                     "--output", "cap.bits"]) == 0
        Path("d.bits.manifest.json").mkdir()  # the sidecar of d.bits cannot be written
    for path in directory.iterdir():
        os.utime(path, ns=(0, 0))  # so a file an argv writes has a later mtime
    return paths


def run_corpus(workdir: Path) -> dict[str, dict]:
    """The record of each argv, by the argv as a shell line, in corpus order."""
    inputs = workdir / "inputs"
    inputs.mkdir()
    paths = make_inputs(inputs)
    records = {}
    for i, argv in enumerate(ARGVS):
        argv = [a.format(**paths) for a in argv]
        key = shlex.join(argv)
        if key in records:
            raise ValueError(f"{key} is in the corpus twice")
        cwd = workdir / str(i)
        shutil.copytree(inputs, cwd)
        records[key] = _record(cwd, argv)
    return records


def _record(cwd: Path, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with _inside(cwd), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and --version
            code = exc.code
        except Exception as exc:  # recorded, so that a traceback shows as a change
            code = f"raised {type(exc).__name__}"
    stdout = out.getvalue()
    if argv[:1] == ["bench"]:
        stdout = _TIMINGS.sub(r"\1#", stdout)
    files = {}
    for path in sorted(cwd.rglob("*")):
        if path.is_file() and path.stat().st_mtime_ns != 0:
            files[path.relative_to(cwd).as_posix()] = _file_digest(path)
    return {"exit": code, "stdout": _sha(stdout.encode()), "stderr": _sha(err.getvalue().encode()),
            "files": files}


def _file_digest(path: Path) -> str:
    payload = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(payload)
        manifest["created_utc"] = "masked"
        payload = json.dumps(manifest, sort_keys=True).encode()
    return _sha(payload)


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@contextmanager
def _inside(directory: Path):
    """Run a block with directory as cwd and COLUMNS=80, and restore both."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def differences(golden: dict[str, dict], now: dict[str, dict]) -> list[str]:
    """One line per argv whose record differs, naming the fields, in corpus order."""
    lines = [f"{argv}: removed" for argv in golden if argv not in now]
    for argv, record in now.items():
        if argv not in golden:
            lines.append(f"{argv}: added")
            continue
        fields = [_describe(field, golden[argv].get(field), value)
                  for field, value in record.items() if value != golden[argv].get(field)]
        if fields:
            lines.append(f"{argv}: {', '.join(fields)}")
    return lines


def _describe(field: str, old, new) -> str:
    """A changed field: the exit codes, the names of the changed files, or its name."""
    if field == "exit":
        return f"exit {old} -> {new}"
    if field == "files":
        names = {name for name, _ in (old or {}).items() ^ new.items()}
        return f"files ({', '.join(sorted(names))})"
    return field
