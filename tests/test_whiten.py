"""Von Neumann rejection, LFSR whitening, pipeline composition."""

import random

import numpy as np
import pytest
from oracles import MAXIMAL_TAP_SETS, feedback_mask, lfsr_free_run_period, serial_lfsr_whiten

from eccrng.codes import lookup_code
from eccrng.source import bernoulli_stream
from eccrng.whiten import (
    FEEDBACK_INJECTION,
    OUTPUT_XOR_INJECTION,
    EccStage,
    LfsrSpec,
    LfsrStage,
    PipelineSpec,
    RejectionStage,
    lfsr_whiten,
    run_pipeline,
    von_neumann,
)


# maximal-length sets, two- and four-tap registers, a smallest cell tap
# above 1, a register wider than a machine word and a 1000-cell one whose
# smallest cell tap is 37
ORACLE_TAP_SETS = MAXIMAL_TAP_SETS + (
    (5, 3, 0),
    (7, 6, 5, 4, 0),
    (9, 4, 0),
    (70, 1, 0),
    (1000, 613, 37, 0),
)


def test_von_neumann_pair_rules():
    out = von_neumann("01 10 00 11")
    assert out.tolist() == [0, 1]


def test_von_neumann_drops_trailing_odd_bit():
    assert von_neumann("011").tolist() == [0]
    assert von_neumann("0").size == 0
    assert von_neumann("").size == 0


@pytest.mark.parametrize("p", [0.276, 0.363, 0.511])
def test_von_neumann_yield_matches_p_times_q(p):
    bits = bernoulli_stream(p, 11, 1_000_000)
    got = von_neumann(bits).size / bits.size
    assert got == pytest.approx(p * (1 - p), abs=0.003)


def test_von_neumann_output_is_unbiased_from_biased_input():
    bits = bernoulli_stream(0.276, 12, 1_000_000)
    out = von_neumann(bits)
    assert abs(float(out.mean()) - 0.5) < 0.005


def test_lfsr_spec_normalizes_and_validates():
    assert LfsrSpec((0, 1, 3)).taps == (3, 1, 0)
    assert LfsrSpec((3, 1, 0)).width == 3
    assert feedback_mask(LfsrSpec((3, 1, 0))) == 0b101
    with pytest.raises(ValueError):
        LfsrSpec((3, 1))  # no input point
    with pytest.raises(ValueError):
        LfsrSpec((0,))  # no cell tap
    with pytest.raises(ValueError):
        LfsrSpec((3, -1, 0))


def test_seed_range_check():
    spec = LfsrSpec((3, 1, 0))
    with pytest.raises(ValueError):
        lfsr_whiten(spec, 8, "0101")
    with pytest.raises(ValueError):
        lfsr_whiten(spec, -1, "0101")


def test_single_cell_register_is_delayed_running_parity():
    # taps (1,0), seed 0: cell 1 accumulates the XOR of everything seen, so
    # the output is the prefix parity delayed by one step
    out = lfsr_whiten(LfsrSpec((1, 0)), 0, [1, 1, 0, 1])
    assert out.tolist() == [0, 1, 0, 0]


def test_zero_seed_zero_input_stays_zero():
    spec = LfsrSpec((4, 1, 0))
    zeros = np.zeros(50, dtype=np.uint8)
    for mode in (FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION):
        assert not lfsr_whiten(spec, 0, zeros, mode).any()


def test_output_xor_mode_with_zero_seed_is_identity():
    spec = LfsrSpec((4, 1, 0))
    bits = bernoulli_stream(0.5, 4, 200)
    assert np.array_equal(lfsr_whiten(spec, 0, bits, OUTPUT_XOR_INJECTION), bits)


def test_injection_modes_differ():
    spec = LfsrSpec((3, 1, 0))
    bits = bernoulli_stream(0.3, 5, 100)
    a = lfsr_whiten(spec, 1, bits, FEEDBACK_INJECTION)
    b = lfsr_whiten(spec, 1, bits, OUTPUT_XOR_INJECTION)
    assert not np.array_equal(a, b)


def test_unknown_injection_mode_rejected():
    with pytest.raises(ValueError):
        lfsr_whiten(LfsrSpec((3, 1, 0)), 1, "0101", "sideways")
    # the stage refuses the mode when built, not first when applied
    with pytest.raises(ValueError, match="unknown injection mode"):
        LfsrStage(LfsrSpec((3, 1, 0)), injection="bogus")


def test_whitening_preserves_length():
    spec = LfsrSpec((7, 3, 0))
    bits = bernoulli_stream(0.7, 6, 501)
    for mode in (FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION):
        assert lfsr_whiten(spec, 17, bits, mode).size == 501


@pytest.mark.parametrize("taps", ORACLE_TAP_SETS, ids=str)
def test_whitening_matches_serial_oracle(taps):
    spec = LfsrSpec(taps)
    width = spec.width
    rng = random.Random(repr(taps))
    seeds = (0, 1, (1 << width) - 1, rng.getrandbits(width))
    lengths = {0, 1, width - 1, width, width + 1, 63, 64, 65, 1023, 1025, 4095, 4097}
    for seed in seeds:
        for mode in (FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION):
            for length in sorted(lengths) + [rng.randrange(5001), rng.randrange(5001)]:
                bits = np.frombuffer(rng.randbytes(length), dtype=np.uint8) & 1
                got = lfsr_whiten(spec, seed, bits, mode)
                assert got.dtype == np.uint8 and got.size == length
                assert np.array_equal(got, serial_lfsr_whiten(spec, seed, bits, mode)), (
                    seed,
                    mode,
                    length,
                )


@pytest.mark.parametrize("mode", [FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION])
def test_whitening_matches_serial_oracle_on_a_long_stream(mode):
    spec = LfsrSpec((7, 3, 0))
    bits = bernoulli_stream(0.3, 15, 100_000)
    assert np.array_equal(lfsr_whiten(spec, 77, bits, mode), serial_lfsr_whiten(spec, 77, bits, mode))


def test_whitening_accepts_list_text_and_strided_input():
    spec = LfsrSpec((4, 1, 0))
    rng = np.random.default_rng(16)
    wide = rng.integers(0, 2, 2 * 301, dtype=np.uint8)
    before = wide.copy()
    strided = wide[::2]
    assert not strided.flags.c_contiguous
    for mode in (FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION):
        expected = serial_lfsr_whiten(spec, 11, strided, mode)
        text = "".join(map(str, strided.tolist()))
        for bits in (strided, strided.tolist(), text):
            assert np.array_equal(lfsr_whiten(spec, 11, bits, mode), expected)
        # the input array is read, never written
        assert np.array_equal(wide, before)


@pytest.mark.parametrize("taps", [(3, 1, 0), (9, 4, 0), (70, 1, 0)], ids=str)
def test_whitening_is_causal(taps):
    # output bit t depends only on input bits up to t, so a prefix of the
    # input whitens to the same prefix of the output
    spec = LfsrSpec(taps)
    rng = random.Random(17)
    bits = np.frombuffer(rng.randbytes(3000), dtype=np.uint8) & 1
    for mode in (FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION):
        full = lfsr_whiten(spec, 5, bits, mode)
        for cut in (0, 1, spec.width, spec.width + 1, rng.randrange(3000), 2999):
            assert np.array_equal(lfsr_whiten(spec, 5, bits[:cut], mode), full[:cut])


@pytest.mark.parametrize("taps", MAXIMAL_TAP_SETS, ids=str)
def test_shipped_tap_sets_are_maximal_from_seed_one(taps):
    spec = LfsrSpec(taps)
    assert lfsr_free_run_period(spec, 1) == (1 << spec.width) - 1


def test_free_run_period_of_zero_state_is_one():
    assert lfsr_free_run_period(LfsrSpec((3, 1, 0)), 0) == 1


@pytest.mark.parametrize("mode", [FEEDBACK_INJECTION, OUTPUT_XOR_INJECTION])
def test_whitening_is_affine_in_the_input(mode):
    # T(a xor b) = T(a) xor T(b) xor T(0): linear part plus the seed's
    # free-running contribution
    spec = LfsrSpec((4, 1, 0))
    rng = np.random.default_rng(9)
    a = rng.integers(0, 2, 400, dtype=np.uint8)
    b = rng.integers(0, 2, 400, dtype=np.uint8)
    t = lambda x: lfsr_whiten(spec, 9, x, mode)
    t0 = t(np.zeros(400, dtype=np.uint8))
    assert np.array_equal(t(a ^ b), t(a) ^ t(b) ^ t0)
    # with a nonzero seed the constant term is nonzero, so plain
    # linearity does not hold
    assert t0.any()
    assert not np.array_equal(t(a ^ b), t(a) ^ t(b))


def test_whitening_is_linear_for_zero_seed():
    spec = LfsrSpec((4, 1, 0))
    rng = np.random.default_rng(10)
    a = rng.integers(0, 2, 300, dtype=np.uint8)
    b = rng.integers(0, 2, 300, dtype=np.uint8)
    t = lambda x: lfsr_whiten(spec, 0, x, FEEDBACK_INJECTION)
    assert np.array_equal(t(a ^ b), t(a) ^ t(b))


def test_pipeline_stage_equivalences():
    bits = bernoulli_stream(0.4, 13, 31 * 40)
    spec = LfsrSpec((3, 1, 0))
    code = lookup_code(31, 16, 3)

    got = run_pipeline(PipelineSpec((RejectionStage(),)), bits)
    assert np.array_equal(got, von_neumann(bits))

    got = run_pipeline(PipelineSpec((LfsrStage(spec, seed=5),)), bits)
    assert np.array_equal(got, lfsr_whiten(spec, 5, bits))

    from eccrng.codes import compress_stream_matrix

    got = run_pipeline(PipelineSpec((EccStage(code),)), bits)
    assert np.array_equal(got, compress_stream_matrix(code, bits))


def test_pipeline_composes_in_order():
    bits = bernoulli_stream(0.3, 14, 31 * 40)
    spec = LfsrSpec((3, 1, 0))
    code = lookup_code(31, 26, 1)
    pipe = PipelineSpec((LfsrStage(spec), EccStage(code)))
    from eccrng.codes import compress_stream_matrix

    expected = compress_stream_matrix(code, lfsr_whiten(spec, 1, bits))
    assert np.array_equal(run_pipeline(pipe, bits), expected)


def test_pipeline_validation():
    with pytest.raises(ValueError):
        PipelineSpec(())
    with pytest.raises(ValueError):
        PipelineSpec(("lfsr",))
