"""Entropy-source simulation: Bernoulli, Markov, switching-curve model."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from eccrng.source import (
    PRESETS,
    CalibrationError,
    SourceConfig,
    SwitchingModel,
    bernoulli_stream,
    calibrate_current,
    generate_stream,
    load_switching_models,
    markov_stream,
    mtj_stream,
    switching_probability,
)
from eccrng.whiten import von_neumann
from oracles import two_branch_markov_stream


def test_bernoulli_is_deterministic_per_seed():
    a = bernoulli_stream(0.3, 42, 1000)
    b = bernoulli_stream(0.3, 42, 1000)
    c = bernoulli_stream(0.3, 43, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bernoulli_moments():
    bits = bernoulli_stream(0.3, 1, 1_000_000)
    assert float(bits.mean()) == pytest.approx(0.3, abs=0.0015)


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        bernoulli_stream(1.2, 0, 10)
    with pytest.raises(ValueError):
        bernoulli_stream(0.5, 0, -1)


def test_markov_moments_and_autocorrelation():
    bits = markov_stream(0.5, 0.9, 2, 1_000_000)
    x = bits.astype(np.float64)
    assert float(x.mean()) == pytest.approx(0.5, abs=0.01)
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r == pytest.approx(0.9, abs=0.01)


def test_markov_with_zero_rho_looks_iid():
    bits = markov_stream(0.5, 0.0, 3, 500_000)
    x = bits.astype(np.float64)
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r) < 0.01


def test_markov_negative_rho():
    bits = markov_stream(0.5, -0.5, 4, 500_000)
    x = bits.astype(np.float64)
    r = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert r == pytest.approx(-0.5, abs=0.02)


def test_markov_respects_target_probability():
    bits = markov_stream(0.276, 0.3, 5, 1_000_000)
    assert float(bits.mean()) == pytest.approx(0.276, abs=0.01)


def test_markov_degenerate_probabilities():
    assert markov_stream(0.0, 0.5, 0, 100).sum() == 0
    assert markov_stream(1.0, 0.5, 0, 100).sum() == 100


def test_markov_infeasible_pair_rejected():
    # p=0.9 with rho=-0.5 would need P(0->1) = 1.35
    with pytest.raises(ValueError):
        markov_stream(0.9, -0.5, 0, 10)
    with pytest.raises(ValueError):
        markov_stream(0.5, 1.0, 0, 10)


class _CountingRng:
    """A Generator that counts its geometric calls: markov_stream makes two
    per batch."""

    def __init__(self, rng):
        self._rng = rng
        self.geometric_calls = 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def geometric(self, *args, **kwargs):
        self.geometric_calls += 1
        return self._rng.geometric(*args, **kwargs)


def test_markov_stream_matches_the_two_branch_oracle(monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        made.append(_CountingRng(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    batches = set()
    pairs = ((0.36, 0.2), (0.5, 0.0), (0.5, 0.9), (0.3, -0.4), (0.9, -0.05), (0.276, 0.3),
             (0.0, 0.5), (1.0, -0.3))
    for p, rho in pairs:
        for seed in range(10):
            for length in (0, 1, 2, 7, 8, 9, 1000, 12_345, 100_003):
                expected = two_branch_markov_stream(p, rho, seed, length)
                made.clear()
                got = markov_stream(p, rho, seed, length)
                assert got.dtype == expected.dtype == np.uint8
                assert np.array_equal(got, expected), (p, rho, seed, length)
                if made:
                    batches.add(made[0].geometric_calls // 2)
    # draws that the first batch covers, and draws that need a second one
    assert 1 in batches
    assert max(batches) >= 2


def test_markov_stream_stays_within_six_bytes_per_bit():
    # cutting the batch through a cumulative sum held 8.27 traced bytes per
    # bit; the int64 run lengths of the draws are most of what is left
    n = 2_000_000
    tracemalloc.start()
    try:
        markov_stream(0.36, 0.2, 1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n


def test_correlation_lowers_von_neumann_yield():
    # residual lag-1 correlation scales the pair-survival rate by (1 - rho);
    # at p=0.511, rho=0.0075 the yield drops from 0.2499 to about 0.2480
    bits = markov_stream(0.511, 0.0075, 21, 1_000_000)
    got = von_neumann(bits).size / bits.size
    assert got == pytest.approx(0.248, abs=0.003)


def test_switching_probability_center_and_monotonicity():
    models = load_switching_models()
    assert sorted(models) == [10.0, 30.0]
    for model in models.values():
        assert switching_probability(model, model.i50_ua) == pytest.approx(0.5)
        grid = [switching_probability(model, model.i50_ua + d) for d in range(-40, 41, 5)]
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert all(0.0 < p < 1.0 for p in grid)


def test_switching_probability_saturates_without_overflow():
    model = load_switching_models()[30.0]
    width = model.slope_scale_ua
    assert switching_probability(model, model.i50_ua - 1e6 * width) == 0.0
    assert switching_probability(model, model.i50_ua + 1e6 * width) == 1.0
    assert switching_probability(model, model.i50_ua) == 0.5


def test_shorter_pulse_has_shallower_curve():
    models = load_switching_models()
    fast, slow = models[10.0], models[30.0]
    assert fast.slope_scale_ua > slow.slope_scale_ua
    for delta in (5.0, 10.0, 20.0):
        assert switching_probability(fast, fast.i50_ua + delta) < switching_probability(
            slow, slow.i50_ua + delta
        )


def test_switching_model_validation():
    with pytest.raises(ValueError):
        SwitchingModel(t_write_ns=10.0, i50_ua=100.0, slope_scale_ua=0.0)
    with pytest.raises(ValueError):
        SwitchingModel(t_write_ns=-1.0, i50_ua=100.0, slope_scale_ua=5.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SwitchingModel(t_write_ns=30.0, i50_ua=bad, slope_scale_ua=5.0)
        with pytest.raises(ValueError):
            SwitchingModel(t_write_ns=30.0, i50_ua=100.0, slope_scale_ua=bad)
        with pytest.raises(ValueError):
            SwitchingModel(t_write_ns=bad, i50_ua=100.0, slope_scale_ua=5.0)


def test_calibrate_current_hits_target_on_curve():
    model = load_switching_models()[30.0]
    for target in (0.276, 0.5, 0.511, 0.95):
        current = calibrate_current(model, target=target)
        assert switching_probability(model, current) == pytest.approx(target, abs=1e-8)


def test_calibrate_current_validation_and_failure():
    model = load_switching_models()[30.0]
    with pytest.raises(ValueError):
        calibrate_current(model, target=0.0)
    with pytest.raises(ValueError):
        calibrate_current(model, target=0.5, tol=-1.0)
    # so steep and so far out that every float current is at the midpoint
    far = SwitchingModel(t_write_ns=30.0, i50_ua=1e20, slope_scale_ua=1e-3)
    with pytest.raises(CalibrationError):
        calibrate_current(far, target=0.511, tol=1e-3)


def test_mtj_stream_reproduces_operating_point():
    p, t_write = PRESETS["data-c"]
    model = load_switching_models()[t_write]
    current = calibrate_current(model, target=p)
    bits = mtj_stream(model, current, 7, 1_000_000)
    assert float(bits.mean()) == pytest.approx(p, abs=0.0015)
    assert np.array_equal(bits, mtj_stream(model, current, 7, 1_000_000))


def test_model_config_round_trip(tmp_path):
    cfg = tmp_path / "models.cfg"
    cfg.write_text("# custom curves\nt12.i50_ua = 80\nt12.slope_scale_ua = 9.5\n")
    models = load_switching_models(str(cfg))
    assert sorted(models) == [12.0]
    assert models[12.0].i50_ua == 80.0
    assert models[12.0].slope_scale_ua == 9.5


def test_model_config_reports_bad_lines(tmp_path):
    cfg = tmp_path / "broken.cfg"
    for line in ("t10.i50_ua = not-a-number", "t30.i50_ua = nan",
                 "t30.slope_scale_ua = inf", "tinf.i50_ua = 100"):
        cfg.write_text(f"# a comment\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_switching_models(str(cfg))
        assert ":2:" in str(exc.value)


def test_model_config_requires_both_fields(tmp_path):
    cfg = tmp_path / "half.cfg"
    cfg.write_text("t10.i50_ua = 100\n")
    with pytest.raises(ValueError):
        load_switching_models(str(cfg))


def test_generate_stream_dispatch():
    b = generate_stream(SourceConfig("bernoulli", 1, 100, p=0.5))
    assert b.size == 100
    m = generate_stream(SourceConfig("markov", 1, 100, p=0.5, rho=0.2))
    assert m.size == 100
    model = load_switching_models()[10.0]
    j = generate_stream(SourceConfig("mtj", 1, 100, model=model, current_ua=model.i50_ua))
    assert j.size == 100
    with pytest.raises(ValueError):
        SourceConfig("laser", 1, 100)


@pytest.mark.parametrize(
    "kind, fields, message",
    [
        ("bernoulli", {}, "probability"),
        ("bernoulli", {"p": 1.5}, "probability"),
        ("bernoulli", {"p": math.nan}, "probability"),
        ("markov", {"rho": 0.2}, "probability"),
        ("markov", {"p": 0.5}, "autocorrelation"),
        ("markov", {"p": 0.5, "rho": 1.0}, "autocorrelation"),
        ("markov", {"p": 0.9, "rho": -0.5}, "no two-state chain"),
        ("mtj", {}, "model"),
        ("mtj", {"current_ua": 100.0}, "model"),
        ("mtj", {"model": "t30"}, "finite current"),
        ("mtj", {"model": "t30", "current_ua": math.inf}, "finite current"),
        ("mtj", {"model": "t30", "current_ua": math.nan}, "finite current"),
    ],
)
def test_source_config_rejects_what_its_generator_cannot_run(kind, fields, message):
    if fields.get("model") == "t30":
        fields = {**fields, "model": load_switching_models()[30.0]}
    with pytest.raises(ValueError, match=message):
        SourceConfig(kind, 0, 10, **fields)


def test_source_config_rejects_a_negative_length():
    model = load_switching_models()[30.0]
    for kind, fields in (("bernoulli", {"p": 0.5}), ("markov", {"p": 0.5, "rho": 0.1}),
                         ("mtj", {"model": model, "current_ua": 100.0})):
        with pytest.raises(ValueError, match="length"):
            SourceConfig(kind, 0, -1, **fields)


def test_source_config_rejects_a_length_no_array_can_hold():
    # judged before any allocation, so the largest index itself is accepted
    model = load_switching_models()[30.0]
    for kind, fields in (("bernoulli", {"p": 0.5}), ("markov", {"p": 0.5, "rho": 0.1}),
                         ("mtj", {"model": model, "current_ua": 100.0})):
        assert SourceConfig(kind, 0, sys.maxsize, **fields).length == sys.maxsize
        with pytest.raises(ValueError, match=f"length must be at most {sys.maxsize}, got"):
            SourceConfig(kind, 0, sys.maxsize + 1, **fields)


def test_source_config_accepts_what_its_generator_runs():
    # a constant stream has every rho; an empty one is still a stream
    for p in (0.0, 1.0):
        assert generate_stream(SourceConfig("markov", 0, 5, p=p, rho=-0.9)).tolist() == [p] * 5
    assert generate_stream(SourceConfig("bernoulli", 0, 0, p=0.5)).size == 0
    model = load_switching_models()[30.0]
    assert generate_stream(SourceConfig("mtj", 0, 0, model=model, current_ua=0.0)).size == 0


def test_preset_table():
    assert PRESETS["data-a"] == (0.511, 30.0)
    assert PRESETS["data-b"] == (0.276, 30.0)
    assert PRESETS["data-c"] == (0.363, 10.0)
