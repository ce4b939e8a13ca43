#!/usr/bin/env python3
"""Run the benchmark over several seeds and record one point of the BENCH trajectory.

    python3 perfbench/record.py --out perfbench/results/BENCH_<name>.json

For every workload of BENCHMARK.json it makes one untraced run on each of
seeds 1-10 and one traced run on seed 1, one at a time, each of
BENCHMARK.json's run_seconds.  The file keeps every run's result line, with
the run's unscaled medians and machine-speed reading beside it, and, per
end-to-end metric, the median over the seeds, the quartiles and the spread
(interquartile range over median) that BENCHMARK.json's bounds are
compared with.  Compare two files only when their `meta` matches (same
machine, same versions).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(argv)} printed no result (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    if trace == 0:
        # The program's own wall-time figures, before scaling to the reference speed.
        detail = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json")
                            .read_text())
        for key in ("unscaled", "calibration_s", "calibration_ref_s"):
            result[key] = detail[key]
    print(f"{workload} seed={seed} trace={trace} exit={proc.returncode} correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if trace == 0),
          flush=True)
    return result


def program_digest() -> str:
    """sha256 over the program's sources, to tell which code a file measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    record = {"program_sha256": program_digest(), "seeds": SEEDS, "seconds": seconds,
              "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]}, "workloads": {}}
    for name in names:
        runs = [run(name, seed, seconds, 0) for seed in SEEDS]
        traced = run(name, SEEDS[0], seconds, 1)
        meta = json.loads((ROOT / ".perfbench_out" / f"{name}-seed{SEEDS[0]}-trace1.json")
                          .read_text())["meta"]
        metrics = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in record["bounds"]}
        unscaled = {m: statistics.median(r["unscaled"][m] for r in runs) for m in runs[0]["unscaled"]}
        record["workloads"][name] = {
            "meta": meta,
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": metrics,
            "unscaled_medians": unscaled,
            "runs": runs,
            "traced": traced,
        }
        for m, s in metrics.items():
            flag = "" if s["spread"] <= record["bounds"][m] / 3 else "  (above a third of the bound)"
            print(f"  {name} {m}: median {s['median']:.5g} spread {s['spread']:.3f}{flag}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(w["failed"] == 0 for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
