"""Statistical test battery for bit streams (SP 800-22 style).

Eight test families: monobit, block frequency, runs, longest run of ones,
cumulative sums (both directions), serial, approximate entropy, spectral.
Each produces one or more P-values; a test passes when all of its P-values
reach the significance level.  The battery verdict counts failed tests:
Pass means no more than fail_threshold of them failed.  A test whose
preconditions are not met (input too short) is reported as skipped, which
is neither a pass nor a fail.
"""

from __future__ import annotations

import math
import os
import shlex
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bitio import as_bit_array

__all__ = [
    "EmptyBatteryError",
    "TestResult",
    "BatteryReport",
    "monobit_test",
    "block_frequency_test",
    "runs_test",
    "longest_run_test",
    "cumulative_sums_test",
    "serial_test",
    "approximate_entropy_test",
    "spectral_test",
    "run_battery",
    "render_report",
    "parse_report",
]

DEFAULT_ALPHA = 0.01
DEFAULT_FAIL_THRESHOLD = 2
DEFAULT_BLOCK_SIZE = 128
DEFAULT_PATTERN_LENGTH = 2
BATTERY_MIN_BITS = 1_000_000


class EmptyBatteryError(ValueError):
    """Input too short for every test in the battery."""


@dataclass(frozen=True, eq=False)
class TestResult:
    test_name: str
    p_values: tuple[float, ...]
    passed: bool | None  # None = skipped
    params: dict = field(default_factory=dict)
    skip_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.passed is None


def _result(name: str, p_values, alpha: float, params: dict | None = None) -> TestResult:
    pv = tuple(float(max(0.0, min(1.0, p))) for p in p_values)
    return TestResult(name, pv, min(pv) >= alpha, params or {})


def _skip(name: str, reason: str, params: dict | None = None) -> TestResult:
    return TestResult(name, (), None, params or {}, reason)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _chi2_sf(dof: int, chi2: float) -> float:
    """Chi-square upper tail for whole dof: with h = chi2/2, the sum of
    e^-h h^k / k! over k = dof/2 - 1, dof/2 - 2, ... >= 0, plus erfc(sqrt(h))
    when dof is odd (k then runs over half-integers).  The terms are formed in
    log space and all are positive, so none overflows and nothing cancels."""
    h = chi2 / 2.0
    if h <= 0.0:
        return 1.0
    total = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    log_h = math.log(h)
    k = dof / 2.0 - 1.0
    while k >= 0.0:
        term = math.exp(k * log_h - h - math.lgamma(k + 1.0))
        total += term
        if k < h and term < total * 1e-17:
            break  # below the mode each term is k/h times the last
        k -= 1.0
    return total


def _pattern_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of the 2^m overlapping m-bit patterns (first bit highest) with
    circular wrap-around, built in the smallest unsigned dtype that holds m
    bits."""
    n = b.size
    ext = np.concatenate([b, b[: m - 1]])
    vals = ext[:n].astype(np.min_scalar_type((1 << m) - 1))
    for j in range(1, m):
        vals <<= 1
        vals |= ext[j : j + n]
    return np.bincount(vals, minlength=1 << m)


class _Bits:
    """A validated bit array and the passes over it that several tests share.

    Each pass runs at most once, on first use.  run_battery hands one
    instance to every test, so serial and approximate entropy share one
    pattern-count pass and the two cumulative-sums directions share one
    cumulative sum; a test skipped for a short input starts no pass.
    """

    def __init__(self, bits, pattern_length: int = 0):
        self.b = as_bit_array(bits)
        self.n = self.b.size
        self._top = pattern_length  # the longest pattern any test will ask for
        self._counts: list[np.ndarray] = []

    def pattern_counts(self, m: int) -> np.ndarray:
        """Circular counts of the 2^m m-bit patterns, 0 <= m <= pattern_length."""
        if not self._counts:
            self._counts.append(_pattern_counts(self.b, self._top))
            while self._counts[-1].size > 1:
                # dropping the last bit of each pattern gives the counts one shorter
                self._counts.append(self._counts[-1].reshape(-1, 2).sum(axis=1))
        return self._counts[self._top - m]

    @cached_property
    def walk_extremes(self) -> tuple[int, int]:
        """z of the forward and of the backward cumulative-sums walk.

        With S the cumulative sum of 2b - 1 and S_0 = 0, the forward walk
        peaks at max |S_k|; the backward walk's partial sums are S_n - S_j,
        so it peaks at max over j < n of |S_n - S_j|.
        """
        steps = self.b.view(np.int8) * 2 - 1
        # every partial sum of a walk shorter than 2^31 steps fits in int32
        s = np.cumsum(steps, dtype=np.int32 if self.n < 1 << 31 else np.int64)
        last = int(s[-1])
        lo = int(s[:-1].min(initial=0))
        hi = int(s[:-1].max(initial=0))
        return max(hi, -lo, abs(last)), max(last - lo, hi - last)


def _bits(bits, pattern_length: int = 0) -> _Bits:
    """bits as a _Bits; run_battery passes the one it made, so that its passes are shared."""
    return bits if isinstance(bits, _Bits) else _Bits(bits, pattern_length)


def monobit_test(bits, alpha: float = DEFAULT_ALPHA, min_length: int = 100) -> TestResult:
    """Overall balance of ones and zeros: P = erfc(|S| / sqrt(2n))."""
    b = _bits(bits).b
    n = b.size
    if n < max(min_length, 1):
        return _skip("monobit", f"need at least {max(min_length, 1)} bits, got {n}")
    s = 2 * int(b.sum()) - n
    p = math.erfc(abs(s) / math.sqrt(2.0 * n))
    return _result("monobit", [p], alpha)


def block_frequency_test(
    bits,
    alpha: float = DEFAULT_ALPHA,
    block_size: int = DEFAULT_BLOCK_SIZE,
    min_length: int = 100,
) -> TestResult:
    """Per-block balance: chi^2 of block ones-fractions against 1/2."""
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    b = _bits(bits).b
    n = b.size
    params = {"block_size": block_size}
    if n < min_length:
        return _skip("block_frequency", f"need at least {min_length} bits, got {n}", params)
    nblocks = n // block_size
    if nblocks == 0:
        return _skip("block_frequency", f"no complete {block_size}-bit block in {n} bits", params)
    props = b[: nblocks * block_size].reshape(nblocks, block_size).mean(axis=1)
    chi2 = 4.0 * block_size * float(((props - 0.5) ** 2).sum())
    p = _chi2_sf(nblocks, chi2)
    return _result("block_frequency", [p], alpha, params)


def runs_test(bits, alpha: float = DEFAULT_ALPHA, min_length: int = 100) -> TestResult:
    """Alternation count against the expectation for the observed bias.

    Applicable only when the ones-fraction is within 2/sqrt(n) of 1/2 and
    both bits occur; otherwise the result is a fail with P = 0.
    """
    b = _bits(bits).b
    n = b.size
    if n < max(min_length, 1):
        return _skip("runs", f"need at least {max(min_length, 1)} bits, got {n}")
    pi = float(b.mean())
    tau = 2.0 / math.sqrt(n)
    # below 16 bits tau exceeds 1/2, and a constant input must still fail
    if abs(pi - 0.5) >= min(tau, 0.5):
        return TestResult("runs", (0.0,), False, {"precondition_failed": True, "pi": pi})
    v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = math.erfc(num / den)
    return _result("runs", [p], alpha, {"pi": pi, "v": v})


# Longest-run reference tables: (minimum n, block size M, class edges, class
# probabilities).  The first class is <= edges[0], the last is >= edges[-1].
_LONGEST_RUN_TABLES = (
    (750_000, 10_000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_run_classes(blocks: np.ndarray, edges) -> np.ndarray:
    """Blocks per class of the longest run of ones, the run clipped to
    edges[0] .. edges[-1], which must be consecutive.

    A row holds a run of L ones iff the AND of L shifted copies of it has a
    one, so y narrows to those ANDs as L grows, up to the last edge.
    """
    ones = blocks.view(bool)
    y = ones
    at_least = [blocks.shape[0]]  # blocks in the class of edge L or above
    for length in range(2, edges[-1] + 1):
        y = y[:, :-1] & ones[:, length - 1 :]
        if length > edges[0]:
            at_least.append(np.count_nonzero(y.any(axis=1)))
    at_least.append(0)
    return -np.diff(at_least)


def longest_run_test(bits, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Distribution of the longest run of ones inside fixed-size blocks."""
    b = _bits(bits).b
    n = b.size
    for min_n, block_size, edges, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    else:
        return _skip("longest_run", f"need at least 128 bits, got {n}")
    nblocks = n // block_size
    blocks = b[: nblocks * block_size].reshape(nblocks, block_size)
    counts = _longest_run_classes(blocks, edges).astype(np.float64)
    expected = nblocks * np.asarray(probs)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = _chi2_sf(len(edges) - 1, chi2)
    return _result("longest_run", [p], alpha, {"block_size": block_size, "blocks": nblocks})


def cumulative_sums_test(
    bits, alpha: float = DEFAULT_ALPHA, reverse: bool = False, min_length: int = 100
) -> TestResult:
    """Maximum excursion of the +/-1 random walk (forward or backward)."""
    x = _bits(bits)
    n = x.n
    name = "cumulative_sums_backward" if reverse else "cumulative_sums_forward"
    if n < max(min_length, 1):
        return _skip(name, f"need at least {max(min_length, 1)} bits, got {n}")
    z_forward, z_backward = x.walk_extremes
    z = z_backward if reverse else z_forward
    sqn = math.sqrt(n)
    # beyond +-40 the normal CDF is exactly 0.0 or 1.0 in double precision,
    # so a k whose CDF arguments both lie past the same end adds exactly 0.0
    c = 40.0 * sqn / z
    k1 = range(math.floor(max(-n / z + 1, -c - 1) / 4), math.floor(min(n / z - 1, c + 1) / 4) + 1)
    k2 = range(math.floor(max(-n / z - 3, -c - 3) / 4), math.floor(min(n / z - 1, c - 1) / 4) + 1)
    term1 = sum(_normal_cdf((4 * k + 1) * z / sqn) - _normal_cdf((4 * k - 1) * z / sqn) for k in k1)
    term2 = sum(_normal_cdf((4 * k + 3) * z / sqn) - _normal_cdf((4 * k + 1) * z / sqn) for k in k2)
    p = 1.0 - term1 + term2
    return _result(name, [p], alpha, {"z": z})


def _psi_sq(counts: np.ndarray, n: int) -> float:
    m = counts.size.bit_length() - 1
    if m == 0:
        return 0.0
    counts = counts.astype(np.float64)
    return float((1 << m) / n * (counts**2).sum() - n)


def serial_test(
    bits,
    alpha: float = DEFAULT_ALPHA,
    pattern_length: int = DEFAULT_PATTERN_LENGTH,
    min_length: int = 100,
) -> TestResult:
    """Uniformity of overlapping m-bit patterns; two P-values (first and
    second difference of the psi^2 statistics)."""
    m = pattern_length
    if m < 2:
        raise ValueError(f"pattern length must be >= 2, got {m}")
    x = _bits(bits, m)
    n = x.n
    params = {"pattern_length": m}
    if n < max(min_length, 1 << (m + 1)):
        return _skip("serial", f"need at least {max(min_length, 1 << (m + 1))} bits, got {n}", params)
    psi_m, psi_m1, psi_m2 = (_psi_sq(x.pattern_counts(mm), n) for mm in (m, m - 1, m - 2))
    # the differences are non-negative in exact arithmetic; clamp float dust
    d1 = max(psi_m - psi_m1, 0.0)
    d2 = max(psi_m - 2.0 * psi_m1 + psi_m2, 0.0)
    p1 = _chi2_sf(1 << (m - 1), d1)
    p2 = _chi2_sf(1 << (m - 2), d2)
    return _result("serial", [p1, p2], alpha, params)


def approximate_entropy_test(
    bits,
    alpha: float = DEFAULT_ALPHA,
    pattern_length: int = DEFAULT_PATTERN_LENGTH,
    min_length: int = 100,
) -> TestResult:
    """Entropy rate of overlapping patterns versus the i.i.d. expectation."""
    m = pattern_length
    if m < 1:
        raise ValueError(f"pattern length must be >= 1, got {m}")
    x = _bits(bits, m + 1)
    n = x.n
    params = {"pattern_length": m}
    if n < max(min_length, 1 << (m + 2)):
        return _skip(
            "approximate_entropy",
            f"need at least {max(min_length, 1 << (m + 2))} bits, got {n}",
            params,
        )

    def phi(mm: int) -> float:
        counts = x.pattern_counts(mm).astype(np.float64)
        pi = counts[counts > 0] / n
        return float((pi * np.log(pi)).sum())

    apen = phi(m) - phi(m + 1)
    chi2 = max(2.0 * n * (math.log(2.0) - apen), 0.0)
    p = _chi2_sf(1 << m, chi2)
    return _result("approximate_entropy", [p], alpha, params)


def _count_below(x: np.ndarray, limit: float) -> int:
    """Complex values in x with re^2 + im^2 < limit; overwrites x, whose last
    axis must be contiguous."""
    f = x.view(np.float64)
    f *= f
    sq = np.add(f[..., ::2], f[..., 1::2], out=f[..., ::2])
    return int(np.count_nonzero(sq < limit))


def _fast_length(n: int) -> int:
    """The smallest 2*3*5*7*11-smooth length >= n, which pocketfft runs without padding."""
    odd = [1]
    for p in (3, 5, 7, 11):
        # the answer is below 2n, and so is its odd part
        odd = [x * p**e for x in odd for e in range(int(math.log(2 * n, p)) + 2)
               if x * p**e < 2 * n]
    return min(x << (-(-n // x) - 1).bit_length() for x in odd)


_COLUMN_BLOCK = 1 << 16  # complex values per block of a four-step pass


def _root_divisor(n: int) -> int:
    """The largest divisor of n up to sqrt(n): the row count of a four-step split."""
    return max(k for k in range(1, math.isqrt(n) + 1) if n % k == 0)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is Linux-only
        return os.cpu_count() or 1


def _halves(task, count: int, split: bool) -> None:
    """task(lo, hi) over 0 .. count; when split, the upper half runs on a
    second thread, joined before this returns, and its exception is raised here."""
    if not split or count < 2:
        task(0, count)
        return
    errors = []

    def upper():
        try:
            task(count // 2, count)
        except BaseException as e:  # handed to the caller's thread
            errors.append(e)

    worker = threading.Thread(target=upper)
    worker.start()
    try:
        task(0, count // 2)
    finally:
        worker.join()
    if errors:
        raise errors[0]


def _columns(g: np.ndarray, n: int, inverse: bool, split: bool, sink) -> None:
    """The column pass of a four-step transform of length n over the (R, C)
    array g: Y[s, j] = sum_r e^(-+2 pi i r s / R) (e^(-+2 pi i r j / n) g[r, j]),
    the 1 / R of the inverse included; n may exceed R C.

    Columns j0 .. j0 + w of g are twiddled into a contiguous buffer of about
    _COLUMN_BLOCK values that belongs to the running thread, their length-R
    FFTs run there, and sink(j0, y) gets the (R, w) block Y[:, j0 : j0 + w]
    before the buffer takes the next one; g is only read.  When split, the
    upper half of the blocks runs on a second thread, and so does its sink.
    Every block takes the same calls either way, so y does not depend on split.
    """
    rows, cols = g.shape
    fft = np.fft.ifft if inverse else np.fft.fft
    width = min(cols, max(1, _COLUMN_BLOCK // rows))
    r = np.arange(rows, dtype=np.int64)[:, None]
    angle = (2.0 if inverse else -2.0) * math.pi / n
    twiddle = np.exp(1j * angle * (r * np.arange(width)))

    def columns(lo, hi):
        buf = np.empty((rows, width), dtype=np.complex128)
        for j0 in range(lo * width, min(hi * width, cols), width):
            y = buf[:, : min(width, cols - j0)]
            np.multiply(g[:, j0 : j0 + y.shape[1]], twiddle[:, : y.shape[1]], out=y)
            y *= np.exp(1j * angle * (r * j0))  # r j0 < n fits in int64
            fft(y, axis=0, out=y)
            sink(j0, y)

    _halves(columns, -(-cols // width), split)


def _four_step(g: np.ndarray, inverse: bool, split: bool) -> None:
    """In place, the DFT (or the inverse DFT) of x, N = R C values held in the
    (R, C) array g as g[r, i] = x_(r + R i); afterwards g[s, j] = X_(C s + j).

    Leaf FFTs of length C along the rows, in blocks of about _COLUMN_BLOCK
    values, then the column pass (_columns), whose sink writes each block
    back into g.  When split, each pass's upper half of the blocks runs on a
    second thread; every block takes the same calls either way, so the result
    does not depend on split.  g may be a strided view, such as the transpose
    of a contiguous array.
    """
    rows, cols = g.shape
    fft = np.fft.ifft if inverse else np.fft.fft
    step = max(1, _COLUMN_BLOCK // cols)

    def leaves(lo, hi):
        for k in range(lo, hi):
            x = g[k * step : (k + 1) * step]
            fft(x, axis=1, out=x)

    def store(j0, y):
        g[:, j0 : j0 + y.shape[1]] = y

    _halves(leaves, -(-rows // step), split)
    _columns(g, g.size, inverse, split, store)


def _chirp_z_count(b: np.ndarray, limit: float) -> int:
    """Bins k < n // 2 with |X_k|^2 < limit, X the DFT of 2b - 1, by chirp z.

    _spectral_count runs it at odd prime n only; any other n takes the
    four-step count.

    With jk = (j^2 + k^2 - (k - j)^2) / 2 and c_j = e^(i pi j^2 / n),
        X_k = conj(c_k) * sum_j (x_j conj(c_j)) c_(k-j),
    one circular convolution of length L >= n + n // 2 - 1, and |conj(c_k)| = 1.
    For odd n = 2m + 1, c_(n-j) = -c_j, so only c_0 .. c_m are computed.

    Its three length-L transforms are in-place four-step transforms
    (_four_step) over L = d q, d the largest divisor of L up to sqrt(L): leaf
    FFTs, then the column pass (_columns), whose sink writes each block back.
    Each pass is split over two threads when the process may run on two CPUs;
    a pass of one block stays on the caller's thread.  The forward transforms
    read the natural order as the leaves of the split q d, which leaves their
    spectra at [k % d, k // d] of the (d, q) array: the leaf order of the
    split d q, whose inverse returns the natural order.  No transform copies
    an array of length L.
    """
    n = b.size
    m = n // 2
    size = _fast_length(max(n + m - 1, 1))
    # j^2 mod 2n is exact in int64 for n < 3e9, and c has period 2n in j^2
    c = np.exp(1j * math.pi / n * (np.arange(m + 1, dtype=np.int64) ** 2 % (2 * n)))
    # c_(k-j) for k - j = 0 .. m - 1 at the start, and -1 .. -(n - 1) at the end
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:m] = c[:m]
    kernel[size - 2 * m : size - m] = -c[1:]
    kernel[size - m :] = c[m:0:-1]
    a = np.zeros(size, dtype=np.complex128)
    a[: m + 1] = c.conj()
    a[m + 1 : n] = -c[m:0:-1].conj()
    del c
    a[:n] *= b * 2.0 - 1.0
    d = _root_divisor(size)
    q = size // d
    split = _cpu_count() > 1
    _four_step(kernel.reshape(d, q).T, False, split)
    _four_step(a.reshape(d, q).T, False, split)
    a *= kernel
    del kernel
    _four_step(a.reshape(d, q), True, split)
    return _count_below(a[:m], limit)


def _spectral_count(b: np.ndarray, threshold: float) -> int:
    """Bins k < n // 2 with |X_k| < threshold, X the DFT of 2b - 1.

    An odd prime n has no four-step split, so its bins come from a chirp z
    transform of length about 1.5n (_chirp_z_count), whose length is smooth:
    its three complex transforms are four-step ones, each pass split over two
    threads when the process may run on two CPUs.  Every other n takes
    Bailey's four steps of short FFTs on one thread, each pass in cache: with
    n = d q, d the largest divisor of n up to sqrt(n), and F_r the rfft of the
    q samples x_(r + d i), every bin j + q s (j < q, s < d) is
        X_(j + q s) = sum_r e^(-2 pi i r s / d) (e^(-2 pi i r j / n) F_r[j]),
    one length-d FFT Y[., j] down each twiddled column j of the leaves F:
    the same column pass (_columns) as the chirp z's transforms, whose sink
    here counts each block while it is in cache and stores nothing.
    Only the columns j <= q // 2 exist; x being real, Y[s, j] for
    1 <= j <= (q - 1) // 2 is also the mirror bin n - j - q s = q (d - s) - j.
    """
    n = b.size
    limit = threshold * threshold
    d = _root_divisor(n)
    if d == 1 and n > 2:  # an odd prime
        return _chirp_z_count(b, limit)
    q = n // d
    h = q // 2 + 1
    leaves = np.empty((d, h), dtype=np.complex128)
    rows = min(d, max(1, (1 << 18) // q))  # a float64 buffer of 2 MB, or one leaf
    buf = np.empty((rows, q))
    for r0 in range(0, d, rows):
        x = buf[: min(rows, d - r0)]
        np.multiply(b.reshape(q, d).T[r0 : r0 + len(x)], 2.0, out=x)
        x -= 1.0
        np.fft.rfft(x, axis=1, out=leaves[r0 : r0 + len(x)])
    del buf, x
    last = n // 2 - 1
    # each bin up to last once, as (rows, j from, j to) of Y: bins j + q s in
    # the rows below s1 and row s1 up to j = last - q s1; mirror bins
    # q (d - s) - j in the u rows from d - u and row d - u - 1 from q (u + 1) - last
    s1, u = max(last, 0) // q, (last + 1) // q
    blocks = ((slice(0, s1), 0, h), (s1, 0, last - q * s1 + 1),
              (slice(d - u, d), 1, (q + 1) // 2), (d - u - 1, q * (u + 1) - last, (q + 1) // 2))
    counts = []

    def count(j0, y):
        for s, lo, hi in blocks:
            lo, hi = max(lo - j0, 0), min(hi - j0, y.shape[1])
            if lo < hi:  # the four blocks are disjoint, so each entry is squared once
                counts.append(_count_below(y[s, lo:hi], limit))

    # one thread until the benchmark measures the program's own peak memory:
    # splitting only the columns gave no gain when tried, and a second
    # thread's buffers would show in peak_rss_mib, which today is the bench
    # process's own peak
    _columns(leaves, n, False, False, count)
    return sum(counts)


def spectral_test(bits, alpha: float = DEFAULT_ALPHA, min_length: int = 1000) -> TestResult:
    """DFT peak count below the 95% threshold versus its expectation.

    The count runs over the bins k < n // 2 of the DFT of 2b - 1, by one of
    two paths (see _spectral_count): for an odd prime n, a chirp z transform
    of length about 1.5n, whose three four-step FFTs may use a second thread;
    for any other n, Bailey's four steps of short FFTs, on one thread.  Both
    run the same blocked column pass of twiddles and short FFTs.  At the
    battery's million-bit lengths each beats one rfft of length n.
    """
    b = _bits(bits).b
    n = b.size
    if n < max(min_length, 1):
        return _skip("spectral", f"need at least {max(min_length, 1)} bits, got {n}")
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = _spectral_count(b, threshold)
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = math.erfc(abs(d) / math.sqrt(2.0))
    return _result("spectral", [p], alpha, {"below_threshold": n1})


@dataclass(frozen=True, eq=False)
class BatteryReport:
    results: tuple[TestResult, ...]
    input_bits: int
    alpha: float
    fail_threshold: int
    failure_count: int       # tests with passed == False
    p_value_failures: int    # individual P-values below alpha
    verdict: str             # "Pass" | "Fail"

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"


def run_battery(
    bits,
    alpha: float = DEFAULT_ALPHA,
    fail_threshold: int = DEFAULT_FAIL_THRESHOLD,
    block_size: int = DEFAULT_BLOCK_SIZE,
    pattern_length: int = DEFAULT_PATTERN_LENGTH,
) -> BatteryReport:
    """Run all test families and apply the counting verdict.

    Pass means at most fail_threshold tests failed.  Skipped tests count
    neither way.  Raises EmptyBatteryError when nothing could run.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if fail_threshold < 0:
        raise ValueError(f"fail threshold must be >= 0, got {fail_threshold}")
    # validated once; serial and approximate entropy read patterns up to m + 1
    x = _Bits(bits, pattern_length + 1)
    results = [
        monobit_test(x, alpha),
        block_frequency_test(x, alpha, block_size=block_size),
        runs_test(x, alpha),
        longest_run_test(x, alpha),
        cumulative_sums_test(x, alpha, reverse=False),
        cumulative_sums_test(x, alpha, reverse=True),
        serial_test(x, alpha, pattern_length=pattern_length),
        approximate_entropy_test(x, alpha, pattern_length=pattern_length),
        spectral_test(x, alpha),
    ]
    if all(r.skipped for r in results):
        raise EmptyBatteryError(f"{x.n} bits is below the minimum of every battery test")
    failure_count = sum(1 for r in results if r.passed is False)
    p_value_failures = sum(1 for r in results for p in r.p_values if p < alpha)
    verdict = "Pass" if failure_count <= fail_threshold else "Fail"
    return BatteryReport(
        tuple(results), x.n, alpha, fail_threshold, failure_count, p_value_failures, verdict
    )


# --- report serialization: line oriented, fixed field names ---

def render_report(report: BatteryReport) -> str:
    """Machine-readable battery report (one record per line)."""
    lines = [
        "battery_report_version 1",
        f"input_bits {report.input_bits}",
        f"alpha {float(report.alpha)!r}",
        f"fail_threshold {report.fail_threshold}",
        f"test_count {len(report.results)}",
    ]
    for r in report.results:
        if r.skipped:
            lines.append(f"test_name={r.test_name} skipped=true reason={r.skip_reason!r}")
            continue
        pv = ",".join(f"{p:.6g}" for p in r.p_values)
        passed = "true" if r.passed else "false"
        lines.append(f"test_name={r.test_name} p_values={pv} passed={passed}")
    lines.append(f"failure_count {report.failure_count}")
    lines.append(f"p_value_failures {report.p_value_failures}")
    lines.append(f"verdict {report.verdict}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    """Inverse of render_report, for tooling and tests."""
    meta: dict = {"tests": []}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("test_name="):
            rec: dict = {}
            # a skip reason is written quoted and may contain spaces
            for tok in shlex.split(line):
                key, _, val = tok.partition("=")
                rec[key] = val
            if "p_values" in rec:
                rec["p_values"] = [float(p) for p in rec["p_values"].split(",") if p]
            rec["skipped"] = rec.get("skipped") == "true"
            if not rec["skipped"]:
                rec["passed"] = rec.get("passed") == "true"
            meta["tests"].append(rec)
        else:
            key, _, val = line.partition(" ")
            meta[key] = val
    for intkey in ("input_bits", "fail_threshold", "test_count", "failure_count", "p_value_failures"):
        if intkey in meta:
            meta[intkey] = int(meta[intkey])
    if "alpha" in meta:
        meta["alpha"] = float(meta["alpha"])
    return meta
