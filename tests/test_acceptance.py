"""Acceptance gate for the toolkit.

One test per shipped acceptance criterion.  Each prints a single
"ACCEPTANCE <n> (<name>): PASS|FAIL" line on the real stdout (so the
verdicts are visible even under pytest capture) and then asserts.
Criteria carry explicit tolerances and runtime budgets; both are part
of the check.
"""

import time

import numpy as np
import pytest
from oracles import MAXIMAL_TAP_SETS, compress_stream_shiftreg, lfsr_free_run_period

from eccrng.cli import main as cli_main
from eccrng.codes import (
    bch_decode,
    bch_encode,
    code_registry,
    compress_stream_matrix,
    lookup_code,
)
from eccrng.source import (
    bernoulli_stream,
    calibrate_current,
    load_switching_models,
    mtj_stream,
    switching_probability,
)
from eccrng.stats import (
    block_frequency_test,
    monobit_test,
    run_battery,
    runs_test,
)
from eccrng.whiten import LfsrSpec, lfsr_whiten, von_neumann


@pytest.fixture()
def verdict(capsys):
    """Reporter that bypasses pytest capture so every criterion prints its line."""

    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            print("\n" + line, flush=True)
        assert ok, line

    return _report


def test_01_rejection_yield(verdict):
    points = [(0.276, 0.1998), (0.363, 0.2312), (0.511, 0.2499)]
    ok = True
    details = []
    for p, expect in points:
        t0 = time.perf_counter()
        bits = bernoulli_stream(p, 101, 1_000_000)
        got = von_neumann(bits).size / bits.size
        dt = time.perf_counter() - t0
        details.append(f"p={p}: {got:.4f} vs {expect} in {dt:.2f}s")
        ok = ok and abs(got - expect) <= 0.003 and dt < 1.0
    verdict(1, "von Neumann yield", ok, "; ".join(details))


def test_02_compression_ratios(verdict):
    table_codes = [c for c in code_registry() if c.n >= 31]
    ok = len(table_codes) == 12
    rng = np.random.default_rng(102)
    for code in table_codes:
        bits = rng.integers(0, 2, code.n * 40, dtype=np.uint8)
        out = compress_stream_matrix(code, bits)
        ok = ok and out.size * code.n == bits.size * code.k
    named = {
        (31, 21, 2): 0.6774,
        (63, 51, 2): 0.8095,
        (127, 113, 2): 0.8898,
    }
    for (n, k, t), want in named.items():
        code = lookup_code(n, k, t)
        ok = ok and round(code.k / code.n, 4) == want
    verdict(2, "compression ratios", ok,
             "12 codes exact; named ratios " + ", ".join(f"{v}" for v in named.values()))


def test_03_bias_reduction_law(verdict):
    # P(1) = 0.6 is an input imbalance of 0.2; a weight-3 parity filter
    # cubes it, so the output ones-fraction must sit at 0.5 + 0.2^3/2
    t0 = time.perf_counter()
    code = lookup_code(31, 26, 1)
    nblocks = 400_000
    bits = bernoulli_stream(0.6, 103, code.n * nblocks)
    out = compress_stream_matrix(code, bits)
    dt = time.perf_counter() - t0
    assert out.size == code.k * nblocks >= 10_000_000
    block_means = out.reshape(nblocks, code.k).mean(axis=1)
    mean = float(block_means.mean())
    se = float(block_means.std(ddof=1)) / np.sqrt(nblocks)
    ok = abs(mean - 0.504) <= 3.0 * se and dt < 30.0
    verdict(3, "bias reduction law", ok,
             f"mean={mean:.6f} target=0.504 within {3 * se:.6f} ({out.size} bits, {dt:.1f}s)")


def test_04_battery_orderings(verdict):
    t0 = time.perf_counter()
    raw = bernoulli_stream(0.276, 104, 1_000_000)
    raw_report = run_battery(raw)
    ok = raw_report.verdict == "Fail"
    details = [f"raw fails {raw_report.failure_count}/9"]

    spec = LfsrSpec((3, 1, 0))
    whitened = lfsr_whiten(spec, 1, raw)
    pipeline_report = run_battery(compress_stream_matrix(lookup_code(31, 16, 3), whitened))
    ok = ok and pipeline_report.verdict == "Pass"
    details.append(
        f"lfsr(3,1,0)+ecc(31,16,3) {pipeline_report.verdict} "
        f"({pipeline_report.failure_count} failures)"
    )

    for n in (31, 63, 127):
        codes = sorted(
            (c for c in code_registry() if c.n == n),
            key=lambda c: c.generator.bit_count(),
            reverse=True,
        )
        chain_found = None
        for code in codes:
            ecc_only = run_battery(compress_stream_matrix(code, raw)).failure_count
            lfsr_ecc = run_battery(compress_stream_matrix(code, whitened)).failure_count
            if raw_report.failure_count > ecc_only >= lfsr_ecc:
                chain_found = (code, ecc_only, lfsr_ecc)
                break
        if chain_found is None:
            ok = False
            details.append(f"n={n}: no code satisfies the ordering")
        else:
            code, e, le = chain_found
            details.append(f"n={n}: {code} gives {raw_report.failure_count}>{e}>={le}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    verdict(4, "battery failure ordering", ok, "; ".join(details) + f", {dt:.1f}s")


def test_05_codec_correctness(verdict):
    t0 = time.perf_counter()
    ok = True

    # exhaustive for the smallest code: every codeword, every <=1-bit corruption
    code7 = lookup_code(7, 4, 1)
    for m in range(16):
        msg = np.array([(m >> i) & 1 for i in range(4)], dtype=np.uint8)
        cw = bch_encode(code7, msg)
        for flip in range(-1, 7):
            noisy = cw.copy()
            if flip >= 0:
                noisy[flip] ^= 1
            res = bch_decode(code7, noisy)
            ok = ok and res.ok and np.array_equal(res.message, msg)

    # single-error sweep across random codewords of the long single-error code
    code31 = lookup_code(31, 26, 1)
    rng = np.random.default_rng(105)
    for _ in range(100):
        msg = rng.integers(0, 2, code31.k, dtype=np.uint8)
        cw = bch_encode(code31, msg)
        for flip in range(31):
            noisy = cw.copy()
            noisy[flip] ^= 1
            res = bch_decode(code31, noisy)
            ok = ok and res.ok and res.errors_corrected == 1 and np.array_equal(res.message, msg)

    # randomized <=t trials for every multi-error code
    trials = 10_000
    failures = 0
    for code in code_registry():
        if code.t < 2:
            continue
        crng = np.random.default_rng(code.n * 17 + code.t)
        for trial in range(trials):
            msg = crng.integers(0, 2, code.k, dtype=np.uint8)
            cw = bch_encode(code, msg)
            nerr = trial % (code.t + 1)
            if nerr:
                pos = crng.choice(code.n, size=nerr, replace=False)
                cw[pos] ^= 1
            res = bch_decode(code, cw)
            if not (res.ok and res.errors_corrected == nerr and np.array_equal(res.message, msg)):
                failures += 1
    ok = ok and failures == 0
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    verdict(5, "codec correctness", ok,
             f"exhaustive(7,4) + 100x31 sweeps + 9x{trials} randomized, "
             f"{failures} failures, {dt:.1f}s")


def test_06_route_equivalence(verdict):
    t0 = time.perf_counter()
    ok = True
    code7 = lookup_code(7, 4, 1)
    for word in range(128):
        block = np.array([(word >> i) & 1 for i in range(7)], dtype=np.uint8)
        ok = ok and np.array_equal(
            compress_stream_matrix(code7, block), compress_stream_shiftreg(code7, block)
        )
    mismatches = 0
    for code in code_registry():
        if code.n < 31:
            continue
        rng = np.random.default_rng(code.n + code.k)
        bits = rng.integers(0, 2, code.n * 10_000, dtype=np.uint8)
        if not np.array_equal(
            compress_stream_matrix(code, bits), compress_stream_shiftreg(code, bits)
        ):
            mismatches += 1
    ok = ok and mismatches == 0
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    verdict(6, "compressor route equivalence", ok,
             f"exhaustive n=7 + 12x10^4 blocks, {mismatches} mismatches, {dt:.1f}s")


def test_07_lfsr_maximality(verdict):
    ok = True
    for taps in MAXIMAL_TAP_SETS:
        spec = LfsrSpec(taps)
        want = (1 << spec.width) - 1
        for seed in range(1, 1 << spec.width):
            if lfsr_free_run_period(spec, seed) != want:
                ok = False
    verdict(7, "LFSR maximal periods", ok,
             "all six tap sets, every nonzero seed, period 2^N-1")


def test_08_statistical_calibration(verdict):
    t0 = time.perf_counter()
    vec_ok = (
        f"{monobit_test('1011010101', min_length=10).p_values[0]:.4g}" == "0.5271"
        and f"{runs_test('1001101011', min_length=10).p_values[0]:.4g}" == "0.1472"
        and f"{block_frequency_test('0110011010', block_size=3, min_length=10).p_values[0]:.4g}"
        == "0.8013"
    )

    seeds = 1000
    length = 1 << 17
    rejections: dict[tuple[str, int], int] = {}
    for seed in range(seeds):
        report = run_battery(bernoulli_stream(0.5, seed, length))
        for r in report.results:
            assert not r.skipped
            for idx, p in enumerate(r.p_values):
                key = (r.test_name, idx)
                rejections[key] = rejections.get(key, 0) + (1 if p < 0.01 else 0)
    rates = {k: v / seeds for k, v in rejections.items()}
    worst_key = max(rates, key=rates.get)
    calib_ok = all(rate <= 0.02 for rate in rates.values())
    dt = time.perf_counter() - t0
    ok = vec_ok and calib_ok and dt < 300.0
    verdict(8, "statistical-test calibration", ok,
             f"vectors {'ok' if vec_ok else 'BAD'}; {seeds} seeds x {length} bits, "
             f"worst slot {worst_key[0]}[{worst_key[1]}]={rates[worst_key]:.3f}, {dt:.1f}s")


def test_09_speed_estimate(verdict, capsys):
    assert 1000.0 / (10.0 * 4) == 25.0
    code = cli_main(["speed", "--read-ns", "10", "--clocks-per-bit", "4"])
    out = capsys.readouterr().out
    ok = (
        code == 0
        and "estimated_mhz 25" in out
        and "rtn-reference-a" in out
        and "rtn-reference-b" in out
        and " 2" in out.split("rtn-reference-a")[1].splitlines()[0]
        and "0.2" in out.split("rtn-reference-b")[1].splitlines()[0]
    )
    verdict(9, "speed estimate", ok, "25 MHz exact, reference rows 2 and 0.2 MHz")


def test_10_device_only_results_replaced(verdict):
    # The physical battery outcomes and measured switching curves need the
    # device; the desk-scale replacements are criteria 3, 4 and 8 plus the
    # qualitative curve ordering checked here.
    models = load_switching_models()
    fast, slow = models[10.0], models[30.0]
    ok = fast.slope_scale_ua > slow.slope_scale_ua
    for delta in (2.0, 5.0, 10.0, 25.0):
        ok = ok and switching_probability(fast, fast.i50_ua + delta) < switching_probability(
            slow, slow.i50_ua + delta
        )
    current = calibrate_current(fast, target=0.363)
    frac = float(mtj_stream(fast, current, 110, 1_000_000).mean())
    ok = ok and abs(frac - 0.363) <= 0.0015
    verdict(10, "device-only results replaced", ok,
             f"10 ns curve shallower than 30 ns; simulated operating point {frac:.4f}")
