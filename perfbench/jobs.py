"""The in-process job, untraced and traced, through eccrng's public functions.

Job: generate_stream -> run_pipeline -> write_bit_file (+ sha256_hex, as the
CLI does for its manifest) -> read_bit_file -> run_battery.

The traced job makes the same calls one level lower: each pipeline stage
and each of the nine battery tests is called directly inside its own span.
Its output digest and verdict are checked against the untraced job, so the
breakdown cannot drift from the production path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from eccrng import bitio, codes, source, stats, whiten
from workloads import LFSR_SEED, PRESET_CALIBRATION_TOL, Workload


def source_config(w: Workload, seed: int, bits: int) -> source.SourceConfig:
    """The SourceConfig `eccrng generate` builds from the workload's flags."""
    kind, value = w.source_kind()
    if kind == "preset":
        p, t_write = source.PRESETS[value]
        model = source.load_switching_models(None)[t_write]
        current = source.calibrate_current(model, target=p, tol=PRESET_CALIBRATION_TOL)
        return source.SourceConfig("mtj", seed, bits, model=model, current_ua=current)
    if kind == "markov":
        p, rho = (float(v) for v in value.split(","))
        return source.SourceConfig("markov", seed, bits, p=p, rho=rho)
    raise ValueError(f"unsupported source {kind!r}")


def pipeline_spec(w: Workload) -> whiten.PipelineSpec:
    """The PipelineSpec `eccrng postprocess` builds from the workload's flags."""
    built = []
    for kind, value in w.stages:
        if kind == "rejection":
            built.append(whiten.RejectionStage())
        elif kind == "lfsr":
            spec = whiten.LfsrSpec(tuple(int(t) for t in value.split(",")))
            built.append(whiten.LfsrStage(spec, seed=LFSR_SEED))
        else:
            built.append(whiten.EccStage(codes.lookup_code(*(int(v) for v in value.split(",")))))
    return whiten.PipelineSpec(tuple(built))


@dataclass
class JobResult:
    seconds: float
    capture: np.ndarray
    output: np.ndarray
    output_sha: str
    report_sha: str
    verdict: str
    failure_count: int
    readback_ok: bool


def _finish(seconds, capture, out, payload, back, report) -> JobResult:
    text = stats.render_report(report)
    return JobResult(
        seconds=seconds,
        capture=capture,
        output=out,
        output_sha=bitio.sha256_hex(payload),
        report_sha=bitio.sha256_hex(text.encode("utf-8")),
        verdict=report.verdict,
        failure_count=report.failure_count,
        readback_ok=bool(np.array_equal(back, out[: back.size])),
    )


def run_job(w: Workload, cfg, spec, path) -> JobResult:
    t0 = time.perf_counter()
    capture = source.generate_stream(cfg)
    out = whiten.run_pipeline(spec, capture)
    payload = bitio.write_bit_file(str(path), out, w.encoding)
    bitio.sha256_hex(payload)
    back = bitio.read_bit_file(str(path), w.encoding, w.battery_bits or out.size)
    report = stats.run_battery(back)
    seconds = time.perf_counter() - t0
    return _finish(seconds, capture, out, payload, back, report)


# (span name, test function, extra keyword arguments) in run_battery's order
BATTERY = (
    ("stats.monobit_test", stats.monobit_test, {}),
    ("stats.block_frequency_test", stats.block_frequency_test,
     {"block_size": stats.DEFAULT_BLOCK_SIZE}),
    ("stats.runs_test", stats.runs_test, {}),
    ("stats.longest_run_test", stats.longest_run_test, {}),
    ("stats.cumulative_sums_test:forward", stats.cumulative_sums_test, {"reverse": False}),
    ("stats.cumulative_sums_test:backward", stats.cumulative_sums_test, {"reverse": True}),
    ("stats.serial_test", stats.serial_test, {"pattern_length": stats.DEFAULT_PATTERN_LENGTH}),
    ("stats.approximate_entropy_test", stats.approximate_entropy_test,
     {"pattern_length": stats.DEFAULT_PATTERN_LENGTH}),
    ("stats.spectral_test", stats.spectral_test, {}),
)


def run_traced_job(w: Workload, cfg, spec, path, tracer) -> JobResult:
    alpha = stats.DEFAULT_ALPHA
    threshold = stats.DEFAULT_FAIL_THRESHOLD
    with tracer.span("job") as root:
        with tracer.span("source.generate_stream") as s:
            capture = source.generate_stream(cfg)
        s.counts["bits_out"] = capture.size
        out = capture
        for stage in spec.stages:
            bits_in = out.size
            if isinstance(stage, whiten.RejectionStage):
                with tracer.span("whiten.von_neumann") as s:
                    out = whiten.von_neumann(out)
            elif isinstance(stage, whiten.LfsrStage):
                with tracer.span("whiten.lfsr_whiten") as s:
                    out = whiten.lfsr_whiten(stage.spec, stage.seed, out, stage.injection)
            else:
                # the workloads use the default (matrix) compression route
                with tracer.span("codes.compress_stream_matrix") as s:
                    out = codes.compress_stream_matrix(stage.code, out)
            s.counts.update(bits_in=bits_in, bits_out=out.size)
        with tracer.span("bitio.write_bit_file") as s:
            payload = bitio.write_bit_file(str(path), out, w.encoding)
        s.counts["bytes"] = len(payload)
        with tracer.span("bitio.sha256_hex"):
            bitio.sha256_hex(payload)
        with tracer.span("bitio.read_bit_file") as s:
            back = bitio.read_bit_file(str(path), w.encoding, w.battery_bits or out.size)
        s.counts["bytes"] = path.stat().st_size
        with tracer.span("stats.battery") as s:
            s.counts["bits_in"] = back.size
            results = []
            for name, test, kwargs in BATTERY:
                with tracer.span(name):
                    results.append(test(back, alpha, **kwargs))
            failure_count = sum(1 for r in results if r.passed is False)
            report = stats.BatteryReport(
                tuple(results),
                back.size,
                alpha,
                threshold,
                failure_count,
                sum(1 for r in results for p in r.p_values if p < alpha),
                "Pass" if failure_count <= threshold else "Fail",
            )
    return _finish(root.end - root.start, capture, out, payload, back, report)
