#!/usr/bin/env python3
"""Capture-to-verdict benchmark for eccrng.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is taken from ./src.  The
load is a closed loop from this one process: one job at a time, each started
when the previous one has finished.  A job is one of

* a CLI chain `generate` -> `postprocess` -> `test`, each step a fresh child
  (`python3 -m eccrng.cli`) timed from spawn to exit;
* the in-process job of jobs.py, after a warm-up;
* a set-up probe (probe.py) in a fresh interpreter.

Between jobs a helper child (calibrate.py), started before eccrng is
imported and never running any of its code, reads the machine's speed.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 a separate pass with spans (jobs.run_traced_job) reports the
per-layer ones.  Names and units come from BENCHMARK.json.  Every output
is checked: against references.json when it holds the seed, otherwise
against the independent pipeline in oracle.py and the public run_battery.
The last line of stdout is the JSON result; the exit code is 1 when any
check failed.  Full results and spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"

MIN_SAMPLES = 3        # of each kind of job per run, even past --seconds
# calibrate.py's loop takes about this long when this machine is not slowed
# by its neighbours; end-to-end times are scaled to that speed.
CALIBRATION_REF_S = 0.010
CHILD_TIMEOUT_S = 120
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def largest_prime_factor(n: int) -> int:
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n) if n > 1 else best


def median(values) -> float:
    return float(statistics.median(values))


def tail_summary(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if the count allows one."""
    n = len(samples)
    if n < 20:
        return f"n={n}; no percentile above the median has 10 samples beyond it (max {max(samples):.4f})"
    q = int(100 * (1 - 10 / n))
    return f"n={n}; p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4f}"


class Checks:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ECCRNG_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Calibrator:
    """The calibrate.py child: one reading of the machine's speed per call."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_child(argv: list[str], env: dict, log: Path) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def artifact_problems(path: Path, expected_sha: str, expected_bits: int) -> list[str]:
    """The file must match the reference digest and its sidecar manifest must match the file."""
    try:
        sha = sha256_hex(path.read_bytes())
        manifest = json.loads(Path(f"{path}.manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable artifact or manifest: {exc}"]
    problems = []
    if sha != expected_sha:
        problems.append(f"digest {sha[:16]} != reference {expected_sha[:16]}")
    if manifest.get("output_sha256") != sha:
        problems.append("manifest output_sha256 disagrees with the file")
    if manifest.get("output_bits") != expected_bits:
        problems.append(f"manifest output_bits {manifest.get('output_bits')} != {expected_bits}")
    return problems


def job_problems(job, expected: dict) -> list[str]:
    got = {
        "output_sha": job.output_sha,
        "output_bits": int(job.output.size),
        "report_sha": job.report_sha,
        "verdict": job.verdict,
        "failure_count": job.failure_count,
    }
    problems = [f"{k} {got[k]!r} != reference {expected[k]!r}" for k in got if got[k] != expected[k]]
    if not job.readback_ok:
        problems.append("read_bit_file did not return the bits written")
    return problems


class Bench:
    def __init__(self, w, seed: int, work: Path):
        import jobs
        import oracle
        from workloads import LFSR_SEED

        self.w, self.seed, self.work = w, seed, work
        self.env = child_env()
        self.checks = Checks()
        self.cfg = jobs.source_config(w, seed, w.bits)
        self.spec = jobs.pipeline_spec(w)
        self.job_path = work / "inproc.out"

        warm = jobs.run_job(w, self.cfg, self.spec, self.job_path)
        reference = oracle.pipeline(w.stages, warm.capture, LFSR_SEED)
        # No second battery exists: the CLI report and the traced job must
        # reproduce what the public run_battery gives on the same bits.
        self.observed = {
            "capture_sha": sha256_hex(oracle.encode(warm.capture, w.encoding)),
            "output_sha": sha256_hex(oracle.encode(reference, w.encoding)),
            "output_bits": int(reference.size),
            "report_sha": warm.report_sha,
            "verdict": warm.verdict,
            "failure_count": warm.failure_count,
        }
        stored = json.loads((HERE / "references.json").read_text())
        self.stored = stored.get(w.name, {}).get(str(seed))
        self.expected = dict(self.stored or self.observed, verdict="Pass")
        problems = job_problems(warm, self.expected)
        problems += [
            f"{k} of the independent pipeline {self.observed[k]!r} != reference {self.expected[k]!r}"
            for k in ("capture_sha", "output_sha", "output_bits")
            if self.observed[k] != self.expected[k]
        ]
        self.checks.op("in-process warm-up job", problems)
        self.first_bit = int(warm.capture[0])
        self.battery_bits = w.battery_bits or int(warm.output.size)

        ext = "txt" if w.encoding == "ascii" else "bin"
        capture, output, report = work / f"capture.{ext}", work / f"output.{ext}", work / "output.report"
        cli = [sys.executable, "-m", "eccrng.cli"]
        enc = w.encoding
        self.steps = (
            ("generate", cli + ["generate", *w.source, "--bits", str(w.bits), "--seed", str(seed),
                                "--output", str(capture), "--encoding", enc],
             capture, self.expected["capture_sha"], w.bits),
            ("postprocess", cli + ["postprocess", str(capture), "--input-encoding", enc,
                                   *w.stage_flags(), "--output", str(output), "--encoding", enc],
             output, self.expected["output_sha"], self.expected["output_bits"]),
            ("test", cli + ["test", str(output), "--input-encoding", enc, "--report", str(report)]
             + (["--bits", str(w.battery_bits)] if w.battery_bits else []),
             report, self.expected["report_sha"], 0),
        )

    def chain(self) -> dict:
        """One CLI chain; per-step wall time and max RSS, every step checked."""
        walls, rss = {}, []
        for name, argv, artifact, sha, bits in self.steps:
            wall, code, maxrss = run_child(argv, self.env, self.work / f"{name}.log")
            problems = [] if code == 0 else [f"exit code {code}"]
            self.checks.op(f"cli {name}", problems + artifact_problems(artifact, sha, bits))
            walls[name] = wall
            rss.append(maxrss)
        return {"steps": walls, "wall": sum(walls.values()), "peak_rss_kib": max(rss)}

    def job(self) -> float:
        import jobs

        result = jobs.run_job(self.w, self.cfg, self.spec, self.job_path)
        self.checks.op("in-process job", job_problems(result, self.expected))
        return result.seconds

    def traced_job(self, tracer) -> int:
        import jobs

        run_id = tracer.new_run()
        result = jobs.run_traced_job(self.w, self.cfg, self.spec, self.job_path, tracer)
        self.checks.op("traced job", job_problems(result, self.expected))
        self.traced_failure_count = result.failure_count
        return run_id

    def probe(self, argv: list[str], expect: str | None) -> float:
        log = self.work / "probe.log"
        wall, code, _ = run_child(argv, self.env, log)
        problems = [] if code == 0 else [f"exit code {code}"]
        if expect is not None:
            lines = log.read_text(errors="replace").split()
            if not lines or lines[-1] != expect:
                problems.append(f"first bit {lines[-1] if lines else None!r} != {expect!r}")
        self.checks.op("probe", problems)
        return wall

    def prober(self, argv: list[str], expect: str | None = None):
        """A probe job; the first, untimed, call fills the bytecode cache, which a
        user pays once and not on every run."""
        self.probe(argv, expect)
        return lambda: self.probe(argv, expect)


def closed_loop(deadline: float, kinds: dict, speed) -> tuple[dict[str, list], list[float]]:
    """Run the kinds of job in turn, one at a time, until `deadline` has
    passed and each kind has MIN_SAMPLES samples.

    Returns each kind's results, and the machine-speed readings taken with
    `speed()` before the first job and after each one.
    """
    samples = {k: [] for k in kinds}
    readings = [speed()]
    turn = 0
    while True:
        pool = [k for k in kinds if len(samples[k]) < MIN_SAMPLES]
        if time.perf_counter() < deadline:
            pool = list(kinds)
        elif not pool:
            return samples, readings
        kind = pool[turn % len(pool)]
        turn += 1
        samples[kind].append(kinds[kind]())
        readings.append(speed())


def end_to_end(b: Bench, seconds: float, speed) -> tuple[dict, dict]:
    start = time.perf_counter()
    probe = b.prober([sys.executable, str(HERE / "probe.py"), b.w.name, str(b.seed)],
                     expect=str(b.first_bit))
    samples, readings = closed_loop(start + seconds,
                                    {"chain": b.chain, "job": b.job, "probe": probe}, speed)
    chain_walls = [c["wall"] for c in samples["chain"]]
    rss = [c["peak_rss_kib"] / 1024 for c in samples["chain"]]
    # Plain wall-time medians, and the run's median machine-speed reading.
    unscaled = {
        "cli_wall_s": median(chain_walls),
        "raw_mbit_s": b.w.bits / median(samples["job"]) / 1e6,
        "setup_s": median(samples["probe"]),
    }
    calibration = median(readings)
    # At the reference speed: times shrink and rates grow by CALIBRATION_REF_S / calibration.
    speedup = CALIBRATION_REF_S / calibration
    metrics = {
        "cli_wall_s": unscaled["cli_wall_s"] * speedup,
        "raw_mbit_s": unscaled["raw_mbit_s"] / speedup,
        "setup_s": unscaled["setup_s"] * speedup,
        "peak_rss_mib": median(rss),
    }
    notes = {
        "cli_wall_s": f"median of {len(chain_walls)} chains; unscaled "
                      f"{unscaled['cli_wall_s']:.4f}, {tail_summary(chain_walls)}",
        "raw_mbit_s": f"{b.w.bits} capture bits / median of {len(samples['job'])} jobs; "
                      f"unscaled {unscaled['raw_mbit_s']:.4g}",
        "setup_s": f"median of {len(samples['probe'])} fresh processes; unscaled "
                   f"{unscaled['setup_s']:.4f}; calibration median {calibration * 1e3:.2f} ms "
                   f"of {len(readings)}",
        "peak_rss_mib": f"median over chains of the largest child max-RSS; max {max(rss):.1f}",
    }
    raw = {"chains": samples["chain"], "job_s": samples["job"], "setup_s": samples["probe"],
           "calibration_s": readings}
    return metrics, {"notes": notes, "unscaled": unscaled, "calibration_s": calibration,
                     "calibration_ref_s": CALIBRATION_REF_S, "samples": raw}


SPAN_TIMES = {
    "source.generate_s": "source.generate_stream",
    "whiten.lfsr_s": "whiten.lfsr_whiten",
    "whiten.von_neumann_s": "whiten.von_neumann",
    "codes.compress_s": "codes.compress_stream_matrix",
    "stats.battery_s": "stats.battery",
    "stats.monobit_s": "stats.monobit_test",
    "stats.block_frequency_s": "stats.block_frequency_test",
    "stats.runs_s": "stats.runs_test",
    "stats.longest_run_s": "stats.longest_run_test",
    "stats.cumulative_sums_forward_s": "stats.cumulative_sums_test:forward",
    "stats.cumulative_sums_backward_s": "stats.cumulative_sums_test:backward",
    "stats.serial_s": "stats.serial_test",
    "stats.approximate_entropy_s": "stats.approximate_entropy_test",
    "stats.spectral_s": "stats.spectral_test",
    "bitio.write_s": "bitio.write_bit_file",
    "bitio.read_s": "bitio.read_bit_file",
    "bitio.sha256_s": "bitio.sha256_hex",
}
LAYERS = ("source", "whiten", "codes", "bitio", "stats")


def per_run_layers(tracer, run_id: int) -> dict[str, float]:
    """Span durations, rates, counts and layer self times of one traced job."""
    spans = tracer.run_spans(run_id)
    own = tracer.self_times(run_id)
    by_name = {s.name: s for _, s in spans}

    def seconds(name):
        s = by_name.get(name)
        return s.end - s.start if s else 0.0

    def count(name, key):
        s = by_name.get(name)
        return s.counts[key] if s else 0

    out = {metric: seconds(name) for metric, name in SPAN_TIMES.items()}
    for metric, name in (("source.generate_mbit_s", "source.generate_stream"),
                         ("whiten.lfsr_mbit_s", "whiten.lfsr_whiten"),
                         ("codes.compress_mbit_s", "codes.compress_stream_matrix")):
        bits = count(name, "bits_out" if name.startswith("source") else "bits_in")
        out[metric] = bits / seconds(name) / 1e6 if by_name.get(name) else 0.0
    vn_in = count("whiten.von_neumann", "bits_in")
    out["whiten.von_neumann_yield"] = count("whiten.von_neumann", "bits_out") / vn_in if vn_in else 0.0
    out["bitio.bytes_written"] = count("bitio.write_bit_file", "bytes")
    out["bitio.bytes_read"] = count("bitio.read_bit_file", "bytes")
    out["stats.input_bits"] = count("stats.battery", "bits_in")
    root, root_span = next((i, s) for i, s in spans if s.parent is None)
    job = root_span.end - root_span.start
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[i] for i, s in spans if s.name.startswith(layer + "."))
    out["trace.job_s"] = job
    out["trace.unattributed_s"] = own[root]
    out["trace.accounted_share"] = sum(out[f"{layer}.self_s"] for layer in LAYERS) / job
    return out


def per_layer(b: Bench, seconds: float, speed) -> tuple[dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    probe = b.prober([sys.executable, "-c", "import eccrng"])
    samples, _ = closed_loop(
        start + seconds,
        {"chain": b.chain, "untraced": b.job, "traced": lambda: b.traced_job(tracer),
         "import": probe},
        speed,
    )
    imports = samples["import"]
    runs = [per_run_layers(tracer, run_id) for run_id in samples["traced"]]
    values = {k: median([r[k] for r in runs]) for k in runs[0]}
    chain_wall = median([c["wall"] for c in samples["chain"]])
    values["cli.import_s"] = median(imports)
    for step in ("generate", "postprocess", "test"):
        values[f"cli.{step}_s"] = median([c["steps"][step] for c in samples["chain"]])
    values["cli.startup_share"] = 3 * values["cli.import_s"] / chain_wall
    values["stats.fft_len_max_prime"] = largest_prime_factor(int(values["stats.input_bits"]))
    values["stats.failure_count"] = b.traced_failure_count
    values["trace.untraced_job_s"] = median(samples["untraced"])
    values["trace.overhead_s"] = values["trace.job_s"] - values["trace.untraced_job_s"]
    spans_path = RESULTS / f"spans-{b.w.name}-seed{b.seed}.json"
    spans_path.write_text(json.dumps(tracer.as_records()))
    notes = {"traced_jobs": len(runs), "chains": len(samples["chain"]), "spans": str(spans_path)}
    return values, {"notes": notes, "samples": {"import_s": imports, "chains": samples["chain"],
                                                  "untraced_job_s": samples["untraced"]}}


def metadata(w, why: str, output_bits: int, battery_bits: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_caps": {v: os.environ[v] for v in THREAD_CAP_VARS},
        "workload": {
            "source": " ".join(w.source),
            "capture_bits": w.bits,
            "encoding": w.encoding,
            "pipeline": w.label(),
            "output_bits": output_bits,
            "battery_input_bits": battery_bits,
            "why": why,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eccrng" / "__init__.py").is_file():
        print(f"perfbench: no eccrng sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_CAP_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {d["name"]: d["why"] for d in declared["workloads"]}
    if args.workload not in WORKLOADS or args.workload not in whys:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(whys)}",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    speed = Calibrator()
    try:
        b = Bench(w, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        values, detail = measure(b, args.seconds, speed)
    finally:
        speed.close()
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        print(f"perfbench: measured {sorted(set(values) ^ set(units))} do not match "
              "the metrics BENCHMARK.json declares", file=sys.stderr)
        return 2
    metrics = {k: (int(values[k]) if u == "count" else values[k], u) for k, u in units.items()}

    checks = b.checks
    failed = len(checks.failures)
    result = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(w, whys[w.name], b.observed["output_bits"], b.battery_bits),
        "reference": "references.json" if b.stored else "oracle.py + run_battery",
        "observed": b.observed,
        "failed_ratio": failed / checks.attempted,
        "failures": checks.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    (RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=float))

    meta = result["meta"]
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} "
          f"pipeline: {meta['workload']['source']} {w.bits} bits {w.encoding} -> {w.label()}")
    print("meta " + " ".join(f"{k}={meta[k]}" for k in ("python", "numpy", "scipy", "nproc"))
          + f" threads={nproc()} (OMP/OPENBLAS/MKL/NUMEXPR) cpu={meta['cpu_model']!r}")
    for name, (value, unit) in metrics.items():
        note = detail["notes"].get(name, "")
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:32s} {shown} {unit:7s} {note}")
    print(f"  {'failed_ratio':32s} {failed / checks.attempted:14.6g} {'ratio':7s} "
          f"{failed} failed / {checks.attempted} attempted")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
