"""Code registry, compression routes, encoder and decoder."""

from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import compress_stream_shiftreg, syndrome_table_decoder

from eccrng import codes
from eccrng.codes import (
    BchCode,
    _band_offsets,
    _gf2_divmod,
    _gf_tables,
    bch_decode,
    bch_encode,
    code_registry,
    compress_stream_matrix,
    lookup_code,
    predicted_output_bias,
)

EXPECTED_TABLE = [
    (7, 4, 1, "13"),
    (31, 26, 1, "45"),
    (31, 21, 2, "3551"),
    (31, 16, 3, "107657"),
    (31, 11, 5, "5423325"),
    (63, 57, 1, "103"),
    (63, 51, 2, "12471"),
    (63, 45, 3, "1701317"),
    (63, 39, 4, "166623567"),
    (127, 120, 1, "211"),
    (127, 113, 2, "41567"),
    (127, 106, 3, "11554743"),
    (127, 99, 4, "3447023271"),
]


def test_registry_contents():
    reg = code_registry()
    assert [(c.n, c.k, c.t, c.generator_octal) for c in reg] == EXPECTED_TABLE


def test_octal_parse_cube_plus_x_plus_one():
    p = BchCode(7, 4, 1, "13").generator
    assert p == 0b1011
    assert p.bit_length() - 1 == 3
    assert p.bit_count() == 3
    assert [(p >> i) & 1 for i in range(4)] == [1, 1, 0, 1]


def test_octal_parse_pentanomial():
    p = BchCode(31, 26, 1, "45").generator
    assert p == 0b100101
    assert p.bit_length() - 1 == 5
    assert p.bit_count() == 3


def test_octal_rejects_garbage():
    # int(_, 8) alone would take the last three as 0o13
    for bad in ("82", "1a", "", "0o13", "1_3", " 13"):
        with pytest.raises(ValueError, match="octal polynomial"):
            BchCode(7, 4, 1, bad)


def test_zero_polynomial():
    with pytest.raises(ValueError, match="generator degree"):
        BchCode(7, 4, 1, "0")
    assert _gf2_divmod(0, lookup_code(7, 4, 1).generator) == (0, 0)


def test_weight_of_long_generator():
    assert BchCode(31, 21, 2, "3551").generator.bit_count() == 7


def test_reciprocal():
    # the band offsets read the generator highest degree first, so as
    # exponents they are its reciprocal: x^3 + x + 1 -> x^3 + x^2 + 1
    assert sum(1 << d for d in _band_offsets(lookup_code(7, 4, 1))) == 0b1101
    for code in code_registry():
        deg = code.n - code.k
        assert sum(1 << (deg - d) for d in _band_offsets(code)) == code.generator


def test_registry_octal_round_trip():
    for code in code_registry():
        assert format(code.generator, "o") == code.generator_octal


def test_registry_generator_degree_is_n_minus_k():
    for code in code_registry():
        assert code.generator.bit_length() - 1 == code.n - code.k


def test_registry_generator_divides_cycle_polynomial():
    for code in code_registry():
        cycle = (1 << code.n) | 1  # x^n + 1
        quotient, remainder = _gf2_divmod(cycle, code.generator)
        assert remainder == 0
        assert quotient.bit_length() - 1 == code.k  # deg(x^n + 1) - deg(g)


def test_divmod_rejects_zero_modulus():
    # a zero dividend first: with a nonzero one the unchecked division never returns
    for a in (0, 5):
        with pytest.raises(ValueError):
            _gf2_divmod(a, 0)


def test_registry_generator_weight_is_odd():
    # odd parity-tap count keeps the compressed bias law sign-preserving
    for code in code_registry():
        assert code.generator.bit_count() % 2 == 1


def test_generators_meet_the_bch_bound():
    # a t-error-correcting BCH generator has alpha^1 .. alpha^2t among its
    # roots; checked in the field tables, independently of the decoder
    for code in code_registry():
        exp, _ = _gf_tables(code.n)
        support = [i for i in range(code.generator.bit_length()) if (code.generator >> i) & 1]
        for j in range(1, 2 * code.t + 1):
            value = 0
            for i in support:
                value ^= int(exp[(i * j) % code.n])
            assert value == 0, (str(code), j)


def test_field_tables_reject_a_modulus_that_is_not_primitive(monkeypatch):
    # modulo x^6 + x^4 + x + 1 the powers of x repeat after 21 steps; 21
    # divides 63, so x^63 = 1 there too and only the full table shows it
    monkeypatch.setattr(codes, "lookup_code", lambda n, k, t: SimpleNamespace(generator=0o123))
    _gf_tables.cache_clear()
    try:
        with pytest.raises(ValueError, match="not primitive"):
            _gf_tables(63)
    finally:
        _gf_tables.cache_clear()


def test_lookup_miss_lists_what_exists():
    with pytest.raises(ValueError) as exc:
        lookup_code(31, 99, 1)
    assert "(31,26,1)" in str(exc.value)


def _compression_matrix(code):
    """G column by column: column j is the image of the j-th unit vector."""
    columns = []
    for j in range(code.n):
        unit = np.zeros(code.n, dtype=np.uint8)
        unit[j] = 1
        columns.append(compress_stream_matrix(code, unit))
    return np.stack(columns, axis=1)


def test_compression_matrix_is_banded():
    expected = np.array(
        [
            [1, 0, 1, 1, 0, 0, 0],
            [0, 1, 0, 1, 1, 0, 0],
            [0, 0, 1, 0, 1, 1, 0],
            [0, 0, 0, 1, 0, 1, 1],
        ],
        dtype=np.uint8,
    )
    assert np.array_equal(_compression_matrix(lookup_code(7, 4, 1)), expected)
    for code in code_registry():
        deg = code.n - code.k
        row = [(code.generator >> (deg - j)) & 1 for j in range(deg + 1)]
        band = np.zeros((code.k, code.n), dtype=np.uint8)
        for i in range(code.k):
            band[i, i : i + deg + 1] = row
        assert np.array_equal(_compression_matrix(code), band), str(code)


def test_compress_block_unit_and_ones():
    code = lookup_code(7, 4, 1)
    e0 = np.zeros(7, dtype=np.uint8)
    e0[0] = 1
    assert compress_stream_matrix(code, e0).tolist() == [1, 0, 0, 0]
    assert compress_stream_matrix(code, np.ones(7, dtype=np.uint8)).tolist() == [1, 1, 1, 1]


def test_stream_compression_drops_partial_tail():
    code = lookup_code(31, 26, 1)
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 31 * 50 + 17, dtype=np.uint8)
    out = compress_stream_matrix(code, bits)
    assert out.size == 26 * 50
    assert compress_stream_shiftreg(code, bits).size == 26 * 50
    assert compress_stream_matrix(code, bits[:30]).size == 0


def test_routes_agree_exhaustive_smallest_code():
    code = lookup_code(7, 4, 1)
    for word in range(128):
        block = np.array([(word >> i) & 1 for i in range(7)], dtype=np.uint8)
        assert np.array_equal(
            compress_stream_matrix(code, block), compress_stream_shiftreg(code, block)
        ), f"route mismatch on block {word:07b}"


@pytest.mark.parametrize("row", EXPECTED_TABLE, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_routes_agree_randomized(row):
    code = lookup_code(*row[:3])
    n = code.n
    rng = np.random.default_rng(row[0] * 1000 + row[1])
    lengths = [0, 1, n - 1, n, n + 1, n * 200]
    lengths += [int(v) for v in rng.integers(2, 40 * n, 8) if v % n]
    for length in lengths:
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        fast = compress_stream_matrix(code, bits)
        assert fast.dtype == np.uint8
        assert fast.size == (length // n) * code.k
        assert np.array_equal(fast, compress_stream_shiftreg(code, bits)), length


def test_encode_basis_message_is_reversed_generator():
    code = lookup_code(7, 4, 1)
    cw = bch_encode(code, [1, 0, 0, 0])
    assert cw.tolist() == [1, 0, 1, 1, 0, 0, 0]
    # unit message e_i encodes to the generator read highest degree first,
    # starting at position i
    for code in code_registry():
        deg = code.n - code.k
        reversed_generator = [(code.generator >> (deg - j)) & 1 for j in range(deg + 1)]
        for i in range(code.k):
            unit = np.zeros(code.k, dtype=np.uint8)
            unit[i] = 1
            expected = np.zeros(code.n, dtype=np.uint8)
            expected[i : i + deg + 1] = reversed_generator
            assert np.array_equal(bch_encode(code, unit), expected), (str(code), i)


@pytest.mark.parametrize("row", EXPECTED_TABLE, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_encode_is_the_adjoint_of_compress(row):
    # encode is m^T G and compress is G y for the same band G, so
    # <encode(m), y> = <m, compress(y)> over GF(2) for every m and y
    code = lookup_code(*row[:3])
    rng = np.random.default_rng(row[0] * 7 + row[1])
    for _ in range(200):
        m = rng.integers(0, 2, code.k, dtype=np.uint8)
        y = rng.integers(0, 2, code.n, dtype=np.uint8)
        lhs = int(bch_encode(code, m) @ y) & 1
        rhs = int(m @ compress_stream_matrix(code, y)) & 1
        assert lhs == rhs


def test_encode_length_check():
    with pytest.raises(ValueError):
        bch_encode(lookup_code(7, 4, 1), [1, 0, 0])


def test_decode_clean_round_trip_every_code():
    rng = np.random.default_rng(11)
    for code in code_registry():
        for _ in range(10):
            msg = rng.integers(0, 2, code.k, dtype=np.uint8)
            res = bch_decode(code, bch_encode(code, msg))
            assert res.ok
            assert res.errors_corrected == 0
            assert np.array_equal(res.message, msg)


@pytest.mark.parametrize("row", EXPECTED_TABLE, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_decode_corrects_up_to_t(row):
    code = lookup_code(*row[:3])
    rng = np.random.default_rng(row[0] + row[2])
    for trial in range(40):
        msg = rng.integers(0, 2, code.k, dtype=np.uint8)
        cw = bch_encode(code, msg)
        nerr = trial % code.t + 1
        pos = rng.choice(code.n, size=nerr, replace=False)
        noisy = cw.copy()
        noisy[pos] ^= 1
        res = bch_decode(code, noisy)
        assert res.ok, f"{code} failed on {nerr} errors at {sorted(pos)}"
        assert res.errors_corrected == nerr
        assert np.array_equal(res.message, msg)


def test_decode_exhaustive_against_nearest_codeword():
    # (7,4,1) is a perfect code: every 7-bit word sits within distance 1 of
    # exactly one codeword, so decoding must always succeed and agree with
    # the brute-force nearest-codeword rule.
    code = lookup_code(7, 4, 1)
    table = {}
    for m in range(16):
        msg = np.array([(m >> i) & 1 for i in range(4)], dtype=np.uint8)
        table[m] = bch_encode(code, msg)
    for word in range(128):
        received = np.array([(word >> i) & 1 for i in range(7)], dtype=np.uint8)
        dists = {m: int((received ^ cw).sum()) for m, cw in table.items()}
        best = min(dists, key=dists.get)
        assert dists[best] <= 1
        res = bch_decode(code, received)
        assert res.ok
        assert np.array_equal(res.message, [(best >> i) & 1 for i in range(4)])
        assert res.errors_corrected == dists[best]


def test_decode_never_returns_original_past_t():
    # t+1 errors are beyond the design distance guarantee; the decoder may
    # report failure or miscorrect to some other codeword, but it can never
    # hand back the transmitted message while claiming <= t corrections.
    rng = np.random.default_rng(23)
    saw_failure = False
    for code in code_registry():
        for _ in range(40):
            msg = rng.integers(0, 2, code.k, dtype=np.uint8)
            cw = bch_encode(code, msg)
            pos = rng.choice(code.n, size=code.t + 1, replace=False)
            noisy = cw.copy()
            noisy[pos] ^= 1
            res = bch_decode(code, noisy)
            if res.ok:
                assert not np.array_equal(res.message, msg)
                assert res.errors_corrected <= code.t
            else:
                saw_failure = True
    assert saw_failure


# codes whose table of error patterns of weight <= t has at most 50,000 rows
TABLE_DECODABLE = [
    r for r in EXPECTED_TABLE if sum(comb(r[0], w) for w in range(r[2] + 1)) <= 50_000
]


@pytest.mark.parametrize("row", TABLE_DECODABLE, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_decode_matches_syndrome_table_beyond_t(row):
    # uniformly random words and codewords with t+1 flips: both decoders
    # must find the same codeword within t, or both fail
    code = lookup_code(*row[:3])
    oracle = syndrome_table_decoder(code)
    rng = np.random.default_rng(row[0] * 13 + row[2])
    decoded = 0
    for trial in range(200):
        if trial % 2:
            word = rng.integers(0, 2, code.n, dtype=np.uint8)
        else:
            word = bch_encode(code, rng.integers(0, 2, code.k, dtype=np.uint8))
            word[rng.choice(code.n, size=code.t + 1, replace=False)] ^= 1
        res = bch_decode(code, word)
        ok, message, nerr = oracle(word)
        assert (res.ok, res.errors_corrected) == (ok, nerr), (str(code), word.tolist())
        if ok:
            assert np.array_equal(res.message, message), (str(code), word.tolist())
        decoded += ok
    assert decoded  # the messages were compared at least once


def test_decode_rejects_bad_length():
    with pytest.raises(ValueError):
        bch_decode(lookup_code(7, 4, 1), np.zeros(8, dtype=np.uint8))


def test_predicted_output_bias_cubes_for_weight_three():
    code = lookup_code(31, 26, 1)
    assert code.generator.bit_count() == 3
    assert predicted_output_bias(code, 0.2) == pytest.approx(0.008)
    assert predicted_output_bias(code, 0.0) == 0.0
    assert predicted_output_bias(code, 1.0) == 1.0


def test_predicted_output_bias_range_check():
    code = lookup_code(31, 26, 1)
    with pytest.raises(ValueError):
        predicted_output_bias(code, -0.1)
    with pytest.raises(ValueError):
        predicted_output_bias(code, 1.5)
