"""Reference oracles for the production kernels.

The register oracles step the hardware register one bit at a time, as the
circuit would; the decoder oracle looks error patterns up in a table.  They
are slow and independent of the kernels they check, which is what makes
them useful as references: tests compare `lfsr_whiten`,
`compress_stream_matrix` and `bch_decode` against them, and count the
free-run period of each maximal-length tap set.  The battery
oracles compute each statistic over every bit in int64, one test at a time,
and are checked against the shared passes of `eccrng.stats`; the spectral
oracle takes one rfft over all n bits, where the kernel runs a chirp z
transform at an odd prime length (itself three complex four-step FFTs) and,
at every other length, Bailey's four steps of short rffts and FFTs.  The ascii
oracles go through Python text, as the first file reader and writer did,
and are checked against the byte-level kernels of `eccrng.bitio`.  The
Markov oracle is the first batched generator, which cut its last batch
through a cumulative sum of the run lengths and carried the current state
from batch to batch; `markov_stream` must give its bits exactly.
"""

import itertools

import numpy as np

from eccrng import source
from eccrng.bitio import as_bit_array
from eccrng.whiten import FEEDBACK_INJECTION

# Maximal-length tap sets: each free-runs through all 2^N - 1 nonzero states
# from any nonzero seed.
MAXIMAL_TAP_SETS = (
    (1, 0),
    (2, 1, 0),
    (3, 1, 0),
    (4, 1, 0),
    (7, 1, 0),
    (7, 3, 0),
)


def feedback_mask(spec):
    """The cell taps as a state mask: cell j is bit j-1 of the state integer."""
    return sum(1 << (t - 1) for t in spec.taps if t > 0)


def lfsr_free_run_period(spec, seed):
    """Steps until the register's state first repeats with the input held at zero."""
    fbmask = feedback_mask(spec)
    statemask = (1 << spec.width) - 1
    state = seed
    for steps in range(1, statemask + 2):
        state = ((state << 1) | ((state & fbmask).bit_count() & 1)) & statemask
        if state == seed:
            return steps
    raise AssertionError(f"the free run from seed {seed} does not return to it")


def serial_lfsr_whiten(spec, seed, bits, injection=FEEDBACK_INJECTION):
    """The whitening register stepped one input bit at a time.

    seed bit j-1 preloads cell j, which is bit j-1 of the state integer.
    Each step expels cell N; feedback injection loads feedback XOR input
    into cell 1, output-xor injection loads the feedback and XORs the input
    into the expelled bit.
    """
    state = seed
    fbmask = feedback_mask(spec)
    statemask = (1 << spec.width) - 1
    oldest = spec.width - 1
    out = []
    for bit in np.asarray(bits).tolist():
        fb = (state & fbmask).bit_count() & 1
        expelled = (state >> oldest) & 1
        if injection == FEEDBACK_INJECTION:
            out.append(expelled)
            state = ((state << 1) | (fb ^ bit)) & statemask
        else:
            out.append(expelled ^ bit)
            state = ((state << 1) | fb) & statemask
    return np.array(out, dtype=np.uint8)


def compress_stream_shiftreg(code, bits):
    """Compression through a tapped shift register, one raw bit per shift.

    Raw bits enter a register of n-k+1 cells whose taps sit at the
    generator's nonzero coefficients.  After the register is primed with
    n-k bits of a block, every further shift emits one output bit (k per
    block), then the next block starts over; a trailing partial block is
    dropped.
    """
    y = as_bit_array(bits)
    n, k = code.n, code.k
    deg = n - k
    regmask = (1 << (deg + 1)) - 1
    nblocks = y.size // n
    out = np.empty(nblocks * k, dtype=np.uint8)
    seq = y[: nblocks * n].tolist()
    w = 0
    for start in range(0, nblocks * n, n):
        reg = 0
        for j in range(n):
            reg = ((reg << 1) | seq[start + j]) & regmask
            if j >= deg:
                out[w] = (reg & code.generator).bit_count() & 1
                w += 1
    return out


def syndrome_table_decoder(code):
    """Bounded-distance decoding by table lookup, with no field arithmetic.

    A codeword is a multiple of the reversed generator r(x), so the
    remainder of a received word mod r(x) depends only on its error
    pattern.  The table maps that remainder to every error pattern of
    weight <= t, each built by XOR-ing the remainders of x^p at its
    positions p; distance >= 2t + 1 makes the map one to one.  Returns
    decode(bits) -> (ok, message, errors_corrected), with ok=False when no
    codeword lies within distance t.
    """
    n, k, t = code.n, code.k, code.t
    deg = n - k
    rgen = sum(((code.generator >> (deg - d)) & 1) << d for d in range(deg + 1))
    position_rem = []
    rem = 1
    for _ in range(n):
        position_rem.append(rem)
        rem <<= 1
        if (rem >> deg) & 1:
            rem ^= rgen
    table = {}
    for weight in range(t + 1):
        for positions in itertools.combinations(range(n), weight):
            syndrome = pattern = 0
            for p in positions:
                syndrome ^= position_rem[p]
                pattern |= 1 << p
            table[syndrome] = pattern

    def decode(bits):
        word = sum(int(b) << i for i, b in enumerate(bits))
        syndrome = 0
        for i in range(n):
            if (word >> i) & 1:
                syndrome ^= position_rem[i]
        pattern = table.get(syndrome)
        if pattern is None:
            return False, None, 0
        word ^= pattern
        # r(x) has constant term 1, so the quotient comes out lowest bit first
        message = 0
        for i in range(k):
            if (word >> i) & 1:
                message |= 1 << i
                word ^= rgen << i
        assert word == 0
        bits = np.array([(message >> i) & 1 for i in range(k)], dtype=np.uint8)
        return True, bits, pattern.bit_count()

    return decode


def shift_loop_pattern_counts(b, m):
    """Counts of the 2^m overlapping m-bit patterns, first bit highest, with
    circular wrap-around: an int64 shift loop, one pattern length at a time.
    Defined for len(b) >= m - 1."""
    n = b.size
    ext = np.concatenate([b, b[: m - 1]]) if m > 1 else b
    ext = ext.astype(np.int64)
    vals = np.zeros(n, dtype=np.int64)
    for j in range(m):
        vals = (vals << 1) | ext[j : j + n]
    return np.bincount(vals, minlength=1 << m)


def longest_run_per_block(blocks):
    """Longest run of ones in each row, unclipped: the distance from each bit
    back to the last zero before it, maximised over the row."""
    m = blocks.shape[1]
    idx = np.arange(m, dtype=np.int64)
    lastzero = np.where(blocks == 0, idx, np.int64(-1))
    np.maximum.accumulate(lastzero, axis=1, out=lastzero)
    return (idx - lastzero).max(axis=1)


def two_cumsum_walk_extremes(b):
    """z of the forward and of the backward +/-1 walk, each from its own
    int64 cumulative sum."""
    x = b.astype(np.int64) * 2 - 1
    return int(np.abs(np.cumsum(x)).max()), int(np.abs(np.cumsum(x[::-1])).max())


def rfft_spectral_count(b, threshold):
    """Bins k < n // 2 with |X_k| < threshold, X the DFT of 2b - 1, from one
    rfft of length n."""
    x = np.asarray(b, dtype=np.float64) * 2.0 - 1.0
    return int((np.abs(np.fft.rfft(x))[: x.size // 2] < threshold).sum())


def text_decode_ascii(payload, bit_count=None):
    """An ascii bit file read as text: decoded to str, re-encoded as UTF-32,
    every code other than 0 and 1 checked with str.isspace."""
    try:
        text = payload.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not an ascii bit file ({exc})") from None
    codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    is_digit = (codes == ord("0")) | (codes == ord("1"))
    if not all(chr(c).isspace() for c in np.unique(codes[~is_digit]).tolist()):
        raise ValueError("bit string may contain only 0, 1 and whitespace")
    bits = (codes[is_digit] - ord("0")).astype(np.uint8)
    if bit_count is None:
        return bits
    if not 0 <= bit_count <= bits.size:
        raise ValueError(f"bit count {bit_count} outside the 0..{bits.size} bits in the file")
    return bits[:bit_count]


def insert_encode_ascii(bits):
    """An ascii bit file's bytes: digits with a newline inserted after every
    64th one, and one after the last."""
    b = np.asarray(bits, dtype=np.uint8)
    if not b.size:
        return b""
    breaks = np.arange(64, b.size, 64)
    return np.insert(b + ord("0"), breaks, ord("\n")).tobytes() + b"\n"


def two_branch_markov_stream(p: float, rho: float, seed, length: int) -> np.ndarray:
    """Stationary two-state Markov bits: P(1) = p, lag-1 autocorrelation rho.

    Transition probabilities a = P(1->1) = p + rho(1-p) and
    b = P(0->1) = p(1-rho) give exactly the requested moments.  Generation
    draws alternating geometric sojourns, which is fast and exact (the
    chain is memoryless inside a run).
    """
    a, b = source._markov_transitions(p, rho)
    source._check_length(length)
    out = np.empty(length, dtype=np.uint8)
    if p == 0.0 or p == 1.0:
        out.fill(int(p))
        return out
    if length == 0:
        return out
    rng = np.random.default_rng(seed)
    leave1 = 1.0 - a  # run-of-ones termination probability
    leave0 = b
    cur = 1 if rng.random() < p else 0
    filled = 0
    mean_pair = 1.0 / leave1 + 1.0 / leave0
    while filled < length:
        need = length - filled
        pairs = max(8, int(need / mean_pair) + 8)
        lens = np.empty(2 * pairs, dtype=np.int64)
        vals = np.empty(2 * pairs, dtype=np.uint8)
        lens[0::2] = rng.geometric(leave1 if cur else leave0, size=pairs)
        lens[1::2] = rng.geometric(leave0 if cur else leave1, size=pairs)
        vals[0::2] = cur
        vals[1::2] = 1 - cur
        csum = np.cumsum(lens)
        cut = int(np.searchsorted(csum, need))
        if cut < lens.size:
            lens = lens[: cut + 1].copy()
            lens[-1] -= int(csum[cut]) - need
            seg = np.repeat(vals[: cut + 1], lens)
            out[filled:] = seg
            filled = length
        else:
            seg = np.repeat(vals, lens)
            out[filled : filled + seg.size] = seg
            filled += seg.size
            # every drawn run was consumed whole, so the next run alternates
            cur = 1 - int(vals[-1])
    return out
