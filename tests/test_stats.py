"""Battery tests: frozen reference P-values, cross-library checks, verdict rules."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import mpmath as mp
from oracles import (
    longest_run_per_block,
    rfft_spectral_count,
    shift_loop_pattern_counts,
    two_cumsum_walk_extremes,
)

from eccrng import stats
from eccrng.source import bernoulli_stream
from eccrng.stats import (
    _LONGEST_RUN_TABLES,
    DEFAULT_ALPHA,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_FAIL_THRESHOLD,
    DEFAULT_PATTERN_LENGTH,
    BatteryReport,
    EmptyBatteryError,
    _Bits,
    _chi2_sf,
    _chirp_z_count,
    _columns,
    _four_step,
    _longest_run_classes,
    _normal_cdf,
    _spectral_count,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    longest_run_test,
    monobit_test,
    parse_report,
    render_report,
    run_battery,
    runs_test,
    serial_test,
    spectral_test,
)

mp.mp.dps = 30


# --- reference vectors (10-bit textbook examples, frozen from a 30-digit
# mpmath evaluation of the published formulas) ---

def test_monobit_reference_vector():
    r = monobit_test("1011010101", min_length=10)
    assert r.p_values[0] == pytest.approx(0.527089256866, rel=1e-9)
    assert r.passed


def test_runs_reference_vector():
    r = runs_test("1001101011", min_length=10)
    assert r.p_values[0] == pytest.approx(0.147232255364, rel=1e-9)
    assert r.params["v"] == 7


def test_block_frequency_reference_vector():
    r = block_frequency_test("0110011010", block_size=3, min_length=10)
    assert r.p_values[0] == pytest.approx(0.801251956901, rel=1e-9)


# --- special functions against an independent high-precision route ---

def test_normal_cdf_matches_mpmath():
    for x in np.linspace(-6.0, 6.0, 49):
        want = float(mp.ncdf(mp.mpf(float(x))))
        assert _normal_cdf(x) == pytest.approx(want, rel=1e-10)


def test_chi2_sf_matches_mpmath():
    # every dof from 1 to 40, and the block counts of the benchmark's batteries
    # (2,064,512, 2,280,011 and 4,128,768 bits in 128-bit blocks)
    for dof in [*range(1, 41), 16129, 17812, 32256]:
        sigma = math.sqrt(2.0 * dof)
        points = [dof + s * sigma for s in np.linspace(-6.0, 6.0, 13)] + [0.05, 0.3]
        for chi2 in points:
            if chi2 <= 0.0:
                continue
            want = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(float(chi2)) / 2, mp.inf, regularized=True)
            assert _chi2_sf(dof, chi2) == pytest.approx(float(want), rel=1e-10)
        assert _chi2_sf(dof, 0.0) == 1.0


# --- structural behavior on crafted inputs ---

def test_monobit_alternating_is_perfectly_balanced():
    r = monobit_test("10" * 100)
    assert r.p_values[0] == 1.0


def test_runs_rejects_alternating():
    r = runs_test("10" * 100)
    assert r.p_values[0] < 1e-12
    assert r.passed is False


def test_runs_precondition_short_circuits():
    bits = np.concatenate([np.ones(180, dtype=np.uint8), np.zeros(20, dtype=np.uint8)])
    r = runs_test(bits)
    assert r.p_values == (0.0,)
    assert r.passed is False
    assert r.params["precondition_failed"]


def test_serial_uniform_patterns_score_one():
    # all four overlapping 2-bit patterns appear equally often
    r = serial_test("0011" * 64)
    assert r.p_values == (1.0, 1.0)


def test_approximate_entropy_catches_periodicity():
    r = approximate_entropy_test("0011" * 64)
    assert r.p_values[0] < 1e-12


def test_spectral_catches_periodicity():
    r = spectral_test("10" * 1000)
    assert r.p_values[0] < 0.01
    assert r.passed is False


def test_cumulative_sums_forward_backward_agree_on_palindrome():
    bits = "0110100110010110"  # reads the same reversed
    f = cumulative_sums_test(bits, min_length=16)
    b = cumulative_sums_test(bits, reverse=True, min_length=16)
    assert f.p_values == b.p_values


def test_cumulative_sums_matches_mpmath_route():
    bits = bernoulli_stream(0.5, 77, 2000)
    r = cumulative_sums_test(bits)
    x = bits.astype(np.int64) * 2 - 1
    z = int(np.abs(np.cumsum(x)).max())
    n = bits.size
    sq = mp.sqrt(n)
    phi = lambda v: mp.ncdf(v)
    t1 = mp.mpf(0)
    for k in range(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1):
        t1 += phi((4 * k + 1) * z / sq) - phi((4 * k - 1) * z / sq)
    t2 = mp.mpf(0)
    for k in range(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1):
        t2 += phi((4 * k + 3) * z / sq) - phi((4 * k + 1) * z / sq)
    want = float(1 - t1 + t2)
    assert r.p_values[0] == pytest.approx(want, rel=1e-9)


def test_longest_run_chi_square_matches_hand_binning():
    # 16 blocks of 8: half all-ones (longest run 8 -> top class), half
    # alternating (longest run 1 -> bottom class)
    blocks = ["11111111"] * 8 + ["01010101"] * 8
    bits = "".join(blocks)
    r = longest_run_test(bits)
    assert r.params["block_size"] == 8
    probs = (0.2148, 0.3672, 0.2305, 0.1875)
    counts = (8.0, 0.0, 0.0, 8.0)
    chi2 = sum((c - 16 * p) ** 2 / (16 * p) for c, p in zip(counts, probs))
    want = float(mp.gammainc(mp.mpf(3) / 2, chi2 / 2, mp.inf, regularized=True))
    assert r.p_values[0] == pytest.approx(want, rel=1e-9)


def test_longest_run_tier_selection():
    rng = np.random.default_rng(8)
    assert longest_run_test(rng.integers(0, 2, 128, dtype=np.uint8)).params["block_size"] == 8
    assert longest_run_test(rng.integers(0, 2, 6272, dtype=np.uint8)).params["block_size"] == 128
    assert (
        longest_run_test(rng.integers(0, 2, 750_000, dtype=np.uint8)).params["block_size"]
        == 10_000
    )


# --- the shared passes against the per-test oracles ---

@pytest.mark.parametrize("top", [1, 2, 3, 4, 5, 6, 9, 17])
def test_folded_pattern_counts_match_shift_loop(top):
    # one pass at the top length, folded down to every shorter one; 9 and 17
    # bits take the uint16 and uint32 passes
    rng = np.random.default_rng(top)
    for n in (top + 1, top + 2, 2 * top + 3, 97, 1000, 4099):
        for p in (0.5, 0.2):
            b = (rng.random(n) < p).astype(np.uint8)
            x = _Bits(b, top)
            for m in range(top + 1):
                assert np.array_equal(x.pattern_counts(m), shift_loop_pattern_counts(b, m)), (n, m)


@pytest.mark.parametrize(
    "block_size, edges",
    [(block_size, edges) for _, block_size, edges, _ in _LONGEST_RUN_TABLES] + [(37, (2, 3, 4, 5, 6))],
)
def test_longest_run_classes_match_oracle(block_size, edges):
    rng = np.random.default_rng(block_size)
    special = [
        np.ones(block_size),
        np.zeros(block_size),
        np.arange(block_size) % 2,
        1 - np.arange(block_size) % 2,
    ]
    # runs of exactly each length near the edges, at the start and the end of a block
    for length in range(max(edges[0] - 1, 1), edges[-1] + 2):
        row = np.zeros(block_size)
        row[:length] = 1
        special += [row, row[::-1].copy()]
    random = [(rng.random(block_size) < p) for p in (0.5, 0.8, 0.95) for _ in range(200)]
    blocks = np.array(special + random, dtype=np.uint8)
    clipped = np.clip(longest_run_per_block(blocks), edges[0], edges[-1])
    want = [int((clipped == e).sum()) for e in edges]
    assert _longest_run_classes(blocks, edges).tolist() == want


def test_walk_extremes_match_two_cumsums():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 100, 1001, 65_537):
        for b in (
            np.zeros(n, dtype=np.uint8),
            np.ones(n, dtype=np.uint8),
            *((rng.random(n) < p).astype(np.uint8) for p in (0.5, 0.1, 0.9)),
        ):
            assert _Bits(b).walk_extremes == two_cumsum_walk_extremes(b), n


def _spectral_threshold(n):
    return math.sqrt(math.log(1.0 / 0.05) * n)


# every residue mod 4, powers of two, lengths near 2^18 and 2^19 that split
# as 2 p, 4 p, 2 * 3 * p and smooth ones, and lengths n = d q whose q // 2 + 1
# columns end one short of (258,825 = 493 * 525, 259,081 = 509^2, 258,352 =
# 482 * 536), at (259,811 = 493 * 527, 259,316 = 482 * 538, 262,142 = 2 * 131,071)
# and one past (130,745 = 331 * 395, 130,468 = 338 * 386, 131,074 = 2 * 65,537)
# a whole number of the four-step count's column blocks
SPECTRAL_LENGTHS = sorted(
    set(range(1, 70))
    | {1000, 1001, 1002, 1003}
    | {1 << p for p in range(1, 19)}
    | {262_136, 262_138, 262_140, 262_142, 262_146}
    | {524_280, 524_282, 524_284, 524_286, 524_288, 524_290}
    | {258_825, 259_081, 258_352, 259_811, 259_316, 130_745, 130_468, 131_074}
)


@pytest.mark.parametrize("n", SPECTRAL_LENGTHS)
def test_spectral_count_matches_one_rfft(n):
    rng = np.random.default_rng(n)
    biases = (0.05, 0.1, 0.2, 0.35, 0.5)
    # a long length other than a power of two can factor slowly for the FFT: one input
    full = n <= 70_000 or n & (n - 1) == 0
    inputs = [(rng.random(n) < p).astype(np.uint8) for p in (biases if full else biases[n % 5 :][:1])]
    if full:
        alternating = np.arange(n, dtype=np.uint8) % 2
        inputs += [np.zeros(n, np.uint8), np.ones(n, np.uint8), alternating, 1 - alternating]
    threshold = _spectral_threshold(n)
    for b in inputs:
        expected = rfft_spectral_count(b, threshold)
        assert _spectral_count(b, threshold) == expected, (n, b[:8])
        # the dispatch sends the odd primes 3 to 67 to the chirp z path and the
        # other lengths to the four-step; every odd length is checked on both
        if n % 2:
            assert _chirp_z_count(b, threshold * threshold) == expected, (n, b[:8])


@pytest.mark.parametrize(
    "n, prime",
    # primes: the chirp z path
    [(65_537, True), (131_071, True), (524_287, True), (2_280_011, True)]
    # smooth lengths
    + [(1001, False), (3**9, False), (5**7, False), (999_999, False)]
    # a prime factor p with p^2 > n: 17 * 59, 3^3 * 13 * 563, 3 * 174,763,
    # 991 * 1,009, 7 * 11 * 13 * 1,009 and 23 * 99,131 take the four-step path
    + [(1003, False), (197_613, False), (524_289, False), (999_919, False), (1_010_009, False),
       (2_280_013, False)],
)
def test_spectral_count_at_long_odd_lengths(n, prime, monkeypatch):
    calls = []

    def chirp_z_count(b, limit):
        calls.append(b.size)
        return _chirp_z_count(b, limit)

    monkeypatch.setattr(stats, "_chirp_z_count", chirp_z_count)
    rng = np.random.default_rng(n)
    b = (rng.random(n) < 0.45).astype(np.uint8)
    threshold = _spectral_threshold(n)
    assert _spectral_count(b, threshold) == rfft_spectral_count(b, threshold)
    assert calls == ([n] if prime else [])


@pytest.mark.parametrize(
    "rows, cols",
    # one row (d = 1), one column (q = 1), exactly one column block and one
    # leaf block, and partial last blocks in both passes
    [(1, 37), (1, 70_000), (37, 1), (70_000, 1), (256, 256), (300, 400), (97, 1000)],
)
def test_four_step_matches_numpy(rows, cols):
    rng = np.random.default_rng(rows * cols)
    x = rng.standard_normal(rows * cols) + 1j * rng.standard_normal(rows * cols)
    for inverse, want in ((False, np.fft.fft(x)), (True, np.fft.ifft(x))):
        spectra = []
        for split in (False, True):
            g = x.reshape(cols, rows).T.copy()  # g[r, i] = x_(r + rows i)
            _four_step(g, inverse, split)
            np.testing.assert_allclose(g.reshape(-1), want, rtol=1e-12, atol=1e-12 * abs(want).max())
            spectra.append(g)
        assert np.array_equal(*spectra)
        # a transposed view holds the leaves of the split cols * rows
        g = x.reshape(rows, cols).copy()
        _four_step(g.T, inverse, True)
        np.testing.assert_allclose(g.T.reshape(-1), want, rtol=1e-12, atol=1e-12 * abs(want).max())


@pytest.mark.parametrize(
    "rows, cols, n",
    # the (d, q // 2 + 1) leaves of the composite n = 1000 * 1000, width 1
    # (rows > _COLUMN_BLOCK), and a partial last block (675 + 325 columns)
    [(1000, 501, 1000 * 1000), (70_000, 3, 70_000 * 3), (97, 1000, 97 * 1000)],
)
def test_columns_matches_numpy(rows, cols, n):
    rng = np.random.default_rng(rows * cols)
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    g_in = g.copy()
    rj = np.arange(rows)[:, None] * np.arange(cols)
    for inverse, want in (
        (False, np.fft.fft(g * np.exp(-2j * np.pi * rj / n), axis=0)),
        (True, np.fft.ifft(g * np.exp(2j * np.pi * rj / n), axis=0)),
    ):
        blocks = []
        for split in (False, True):
            seen = []
            _columns(g, n, inverse, split, lambda j0, y: seen.append((j0, y.copy())))
            seen.sort(key=lambda block: block[0])
            # every column exactly once: the blocks tile 0 .. cols
            ends = [j0 + y.shape[1] for j0, y in seen]
            assert [j0 for j0, _ in seen] == [0] + ends[:-1] and ends[-1] == cols
            got = np.concatenate([y for _, y in seen], axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * abs(want).max())
            blocks.append(seen)
        assert len(blocks[0]) == len(blocks[1])
        assert all(j0 == k0 and np.array_equal(y, z) for (j0, y), (k0, z) in zip(*blocks))
    assert np.array_equal(g, g_in)  # g is only read


@pytest.mark.parametrize("n", [131_071, 2_280_011])
def test_chirp_z_count_on_two_threads_is_bitwise_the_one_thread_count(n, monkeypatch):
    spectra, splits = [], []

    def count_below(f, limit):
        spectra.append(f.copy())
        return stats_count_below(f, limit)

    def halves(task, count, split):
        splits.append(split)
        return stats_halves(task, count, split)

    stats_count_below, stats_halves = stats._count_below, stats._halves
    monkeypatch.setattr(stats, "_count_below", count_below)
    monkeypatch.setattr(stats, "_halves", halves)
    b = (np.random.default_rng(n).random(n) < 0.5).astype(np.uint8)
    limit = _spectral_threshold(n) ** 2
    counts = []
    for cpus in (1, 2):
        monkeypatch.setattr(stats, "_cpu_count", lambda: cpus)
        splits.clear()
        counts.append(_chirp_z_count(b, limit))
        assert splits == [cpus > 1] * 6  # two passes of three transforms
    assert counts[0] == counts[1]
    assert np.array_equal(spectra[0], spectra[1])


@pytest.mark.parametrize(
    "n, threads",
    # a prime whose L = 1,512 is one leaf block and one column block, a
    # composite length, which stays on one thread, and a prime with L > 2^16
    [(1009, False), (262_144, False), (65_537, True)],
)
def test_a_second_thread_starts_only_for_a_chirp_z_of_more_than_one_block(n, threads, monkeypatch):
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(stats, "_cpu_count", lambda: 2)
    monkeypatch.setattr(stats.threading, "Thread", Thread)
    b = (np.random.default_rng(n).random(n) < 0.5).astype(np.uint8)
    threshold = _spectral_threshold(n)
    assert _spectral_count(b, threshold) == rfft_spectral_count(b, threshold)
    assert bool(started) == threads


@pytest.mark.parametrize("raising", ["worker", "caller"])
def test_a_failing_half_reaches_the_caller_and_leaves_no_thread(raising, monkeypatch):
    fft = np.fft.fft

    def failing_fft(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == (raising == "caller"):
            raise RuntimeError(f"{raising} failed")
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", failing_fft)
    monkeypatch.setattr(stats, "_cpu_count", lambda: 2)
    n = 131_071
    b = (np.random.default_rng(n).random(n) < 0.5).astype(np.uint8)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{raising} failed"):
        _chirp_z_count(b, _spectral_threshold(n) ** 2)
    assert threading.active_count() == threads


def test_spectral_count_at_random_lengths():
    rng = np.random.default_rng(2026)
    for n in rng.integers(1000, 300_001, size=100):
        b = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.uint8)
        threshold = _spectral_threshold(n)
        assert _spectral_count(b, threshold) == rfft_spectral_count(b, threshold), n


# 2 * 7 * 162,859: the four-step leaves have a large prime length, so pocketfft pads them
@pytest.mark.parametrize("n", [2_280_026])
def test_spectral_count_at_long_even_lengths(n):
    b = (np.random.default_rng(n).random(n) < 0.45).astype(np.uint8)
    threshold = _spectral_threshold(n)
    assert _spectral_count(b, threshold) == rfft_spectral_count(b, threshold)


def _spectral_count_memory_kib(n, one_cpu=False):
    """VmHWM growth of a fresh interpreter over one _spectral_count call at
    length n: ru_maxrss would start from this process's high-water mark, and
    tracemalloc does not see pocketfft's buffers.  With one_cpu the child pins
    itself to one of its CPUs first, so the count runs on one thread."""
    code = f"""
import math
import os
from eccrng.source import bernoulli_stream
from eccrng.stats import _spectral_count

def hwm():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

if {one_cpu}:
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
n = {n}
b = bernoulli_stream(0.5, 1, n)
before = hwm()
_spectral_count(b, math.sqrt(math.log(20.0) * n))
print(hwm() - before)
"""
    src = os.path.dirname(os.path.dirname(stats.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return int(child.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_spectral_count_at_the_prime_benchmark_length_stays_under_140_mib():
    # the chirp z's two arrays of L = 3,421,440 complex values are 104.4 MiB;
    # a third array of that length, such as a whole-length FFT's copy, breaks the bound
    assert _spectral_count_memory_kib(2_280_011) <= 140 * 1024


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the child to one CPU")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_spectral_count_at_the_prime_benchmark_length_on_one_cpu_stays_under_140_mib():
    assert _spectral_count_memory_kib(2_280_011, one_cpu=True) <= 140 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_spectral_count_at_the_lfsr_benchmark_length_stays_under_12_mib():
    # the leaves, n / 2 complex values, are the only large array
    assert _spectral_count_memory_kib(2_064_512) <= 12 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_spectral_count_at_an_odd_composite_length_stays_under_40_mib():
    # 23 * 99,131: the four-step's 23 leaves, not a chirp z convolution of about 1.5n
    assert _spectral_count_memory_kib(2_280_013) <= 40 * 1024


def test_spectral_count_on_a_period_two_string():
    b = np.frombuffer(b"10" * 1000, np.uint8) - ord("0")
    threshold = _spectral_threshold(b.size)
    # only the Nyquist bin, at k = n/2, is nonzero, and it lies outside k < n/2
    assert _spectral_count(b, threshold) == rfft_spectral_count(b, threshold) == 1000


@pytest.mark.parametrize("n", [2_064_512, 2_280_011, 1_142_856])
def test_battery_at_the_benchmark_lengths_matches_the_rfft_count(n, monkeypatch):
    # the battery lengths of the benchmark workloads: two even, and one prime
    bits = bernoulli_stream(0.5, n % 1000, n)
    report = run_battery(bits)
    monkeypatch.setattr(stats, "_spectral_count", rfft_spectral_count)
    expected = run_battery(bits)
    assert report.results[-1].params == expected.results[-1].params
    assert render_report(report) == render_report(expected)


def _report_test_by_test(
    bits,
    alpha=DEFAULT_ALPHA,
    block_size=DEFAULT_BLOCK_SIZE,
    pattern_length=DEFAULT_PATTERN_LENGTH,
):
    """The battery report built from the nine public tests, each run alone."""
    results = (
        monobit_test(bits, alpha),
        block_frequency_test(bits, alpha, block_size=block_size),
        runs_test(bits, alpha),
        longest_run_test(bits, alpha),
        cumulative_sums_test(bits, alpha, reverse=False),
        cumulative_sums_test(bits, alpha, reverse=True),
        serial_test(bits, alpha, pattern_length=pattern_length),
        approximate_entropy_test(bits, alpha, pattern_length=pattern_length),
        spectral_test(bits, alpha),
    )
    failures = sum(1 for r in results if r.passed is False)
    return BatteryReport(
        results,
        bits.size,
        alpha,
        DEFAULT_FAIL_THRESHOLD,
        failures,
        sum(1 for r in results for p in r.p_values if p < alpha),
        "Pass" if failures <= DEFAULT_FAIL_THRESHOLD else "Fail",
    )


@pytest.mark.parametrize(
    "n, fill, kwargs",
    # either side of each longest-run tier boundary
    [(n, None, {}) for n in (127, 128, 6271, 6272, 749_999, 750_000)]
    # constant input: z = n, and every longest run is clipped at an end
    + [(n, fill, {}) for n in (128, 6272, 750_000) for fill in (0, 1)]
    + [(n, None, {"pattern_length": m}) for n in (127, 20_011) for m in (2, 3, 4, 5)]
    + [(20_011, None, {"alpha": 0.05, "block_size": 100})],
)
def test_battery_matches_public_tests_one_by_one(n, fill, kwargs):
    if fill is None:
        bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    else:
        bits = np.full(n, fill, dtype=np.uint8)
    assert render_report(run_battery(bits, **kwargs)) == render_report(
        _report_test_by_test(bits, **kwargs)
    )


def test_serial_validates_pattern_length():
    with pytest.raises(ValueError):
        serial_test("01" * 100, pattern_length=1)
    with pytest.raises(ValueError):
        approximate_entropy_test("01" * 100, pattern_length=0)


def test_short_input_skips():
    r = monobit_test(np.zeros(50, dtype=np.uint8))
    assert r.skipped
    assert r.p_values == ()
    assert "50" in r.skip_reason


@pytest.mark.parametrize("bits", [""] + [c * n for c in "01" for n in range(1, 16)])
def test_no_test_raises_below_the_default_minimums(bits):
    # an empty input is a skip; a constant one fails the runs precondition
    tests = (monobit_test, block_frequency_test, runs_test, cumulative_sums_test,
             serial_test, approximate_entropy_test, spectral_test)
    results = [test(bits, min_length=0) for test in tests]
    results.append(cumulative_sums_test(bits, reverse=True, min_length=0))
    runs = results[2]
    if bits:
        assert runs.passed is False and runs.params["precondition_failed"]
    else:
        assert all(r.skipped for r in results)


def test_block_frequency_rejects_bad_block_size():
    with pytest.raises(ValueError):
        block_frequency_test("01" * 100, block_size=0)


# --- battery verdict and report plumbing ---

def test_battery_shape_and_verdict_on_good_bits():
    bits = bernoulli_stream(0.5, 99, 200_000)
    report = run_battery(bits)
    names = [r.test_name for r in report.results]
    assert names == [
        "monobit",
        "block_frequency",
        "runs",
        "longest_run",
        "cumulative_sums_forward",
        "cumulative_sums_backward",
        "serial",
        "approximate_entropy",
        "spectral",
    ]
    assert report.input_bits == 200_000
    assert report.verdict == "Pass"
    assert report.failure_count <= 2
    assert report.passed


def test_battery_counting_rule():
    bits = bernoulli_stream(0.4, 100, 200_000)  # grossly biased
    strict = run_battery(bits)
    assert strict.failure_count > 2
    assert strict.verdict == "Fail"
    lenient = run_battery(bits, fail_threshold=9)
    assert lenient.failure_count == strict.failure_count
    assert lenient.verdict == "Pass"


def test_battery_validation():
    bits = bernoulli_stream(0.5, 1, 5000)
    with pytest.raises(ValueError):
        run_battery(bits, alpha=0.0)
    with pytest.raises(ValueError):
        run_battery(bits, fail_threshold=-1)


def test_battery_skips_are_neither_pass_nor_fail():
    # 120 bits: runs the short-input tests, skips the ones needing more
    bits = bernoulli_stream(0.5, 2, 120)
    report = run_battery(bits)
    skipped = {r.test_name for r in report.results if r.skipped}
    assert skipped == {"block_frequency", "longest_run", "spectral"}
    ran = {r.test_name for r in report.results if not r.skipped}
    assert "monobit" in ran and "serial" in ran


def test_battery_empty_raises():
    with pytest.raises(EmptyBatteryError):
        run_battery(np.ones(10, dtype=np.uint8))


def test_report_round_trip():
    bits = bernoulli_stream(0.5, 3, 131_072)
    for alpha in (0.01, 0.0123456789):
        report = run_battery(bits, alpha=alpha)
        text = render_report(report)
        meta = parse_report(text)
        assert meta["battery_report_version"] == "1"
        assert meta["input_bits"] == report.input_bits
        assert meta["alpha"] == report.alpha == alpha
        assert meta["failure_count"] == report.failure_count
        assert meta["p_value_failures"] == report.p_value_failures
        assert meta["verdict"] == report.verdict
        assert len(meta["tests"]) == len(report.results)
        for rec, r in zip(meta["tests"], report.results):
            assert rec["test_name"] == r.test_name
            assert rec["passed"] == r.passed
            assert rec["p_values"] == pytest.approx(list(r.p_values), rel=1e-4)


def test_report_records_skips():
    # parse_report inverts render_report exactly, skip reasons included
    report = run_battery(bernoulli_stream(0.5, 4, 500))
    meta = parse_report(render_report(report))
    assert any(t["skipped"] for t in meta["tests"])
    for rec, r in zip(meta["tests"], report.results, strict=True):
        if r.skipped:
            assert rec == {"test_name": r.test_name, "skipped": True, "reason": r.skip_reason}
        else:
            assert set(rec) == {"test_name", "p_values", "passed", "skipped"}
            assert rec["passed"] == r.passed


# Full report text for two seeded inputs, so that a change to any P-value
# formula or to the report format shows here, not only in perfbench.  The
# first has odd block_frequency dof (7813 blocks); the second is biased
# enough that the monobit, cumulative-sums and serial P-values fall into the
# far tails and the verdict is Fail.
PINNED_REPORTS = [
    ((0.5, 11, 1_000_064), """\
battery_report_version 1
input_bits 1000064
alpha 0.01
fail_threshold 2
test_count 9
test_name=monobit p_values=0.268742 passed=true
test_name=block_frequency p_values=0.554294 passed=true
test_name=runs p_values=0.66341 passed=true
test_name=longest_run p_values=0.322259 passed=true
test_name=cumulative_sums_forward p_values=0.31412 passed=true
test_name=cumulative_sums_backward p_values=0.278288 passed=true
test_name=serial p_values=0.494165,0.665751 passed=true
test_name=approximate_entropy p_values=0.357599 passed=true
test_name=spectral p_values=0.207371 passed=true
failure_count 0
p_value_failures 0
verdict Pass
"""),
    ((0.4985, 12, 1_000_000), """\
battery_report_version 1
input_bits 1000000
alpha 0.01
fail_threshold 2
test_count 9
test_name=monobit p_values=2.37882e-05 passed=false
test_name=block_frequency p_values=0.322761 passed=true
test_name=runs p_values=0 passed=false
test_name=longest_run p_values=0.620966 passed=true
test_name=cumulative_sums_forward p_values=4.57103e-05 passed=false
test_name=cumulative_sums_backward p_values=2.23594e-05 passed=false
test_name=serial p_values=0.000104799,0.493975 passed=false
test_name=approximate_entropy p_values=0.000966459 passed=false
test_name=spectral p_values=0.639779 passed=true
failure_count 6
p_value_failures 6
verdict Fail
"""),
]


@pytest.mark.parametrize("stream, text", PINNED_REPORTS)
def test_report_text_is_pinned(stream, text):
    assert render_report(run_battery(bernoulli_stream(*stream))) == text
