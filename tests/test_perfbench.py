"""The benchmark's in-process job on small captures: it runs on every
workload, its traced and untraced passes agree, and both give the bits and
the file bytes of the benchmark's independent reference pipeline."""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import LFSR_SEED, WORKLOADS  # noqa: E402


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
