"""Simulated entropy sources.

The physical picture: a magnetic tunnel junction is reset, then hit with a
write pulse whose amplitude sits near the 50% switching point; whether it
switched is one raw bit.  The switching probability follows a logistic
curve in the pulse current, centered at i50 with a width set by
slope_scale, and shorter write pulses give shallower curves.  Because the
reset always succeeds, successive bits are independent, so the simulated
device stream is Bernoulli at the operating probability.  A two-state
Markov source is included to model real captures with residual lag-1
correlation.
"""

from __future__ import annotations

import importlib.resources
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CalibrationError",
    "SwitchingModel",
    "SourceConfig",
    "PRESETS",
    "load_switching_models",
    "switching_probability",
    "calibrate_current",
    "bernoulli_stream",
    "markov_stream",
    "mtj_stream",
    "generate_stream",
]


class CalibrationError(RuntimeError):
    """Raised when current calibration cannot reach the target probability."""


@dataclass(frozen=True)
class SwitchingModel:
    """Logistic switching-probability model for one write-pulse width."""

    t_write_ns: float
    i50_ua: float          # current at P = 0.5, microamps
    slope_scale_ua: float  # logistic width, microamps

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_write_ns, self.i50_ua, self.slope_scale_ua))):
            raise ValueError(f"model fields must be finite, got {self}")
        if self.slope_scale_ua <= 0:
            raise ValueError(f"slope_scale must be positive, got {self.slope_scale_ua}")
        if self.t_write_ns <= 0:
            raise ValueError(f"t_write must be positive, got {self.t_write_ns}")


# Operating points for the three shipped capture profiles:
# name -> (ones probability, write pulse ns)
PRESETS: dict[str, tuple[float, float]] = {
    "data-a": (0.511, 30.0),
    "data-b": (0.276, 30.0),
    "data-c": (0.363, 10.0),
}


def switching_probability(model: SwitchingModel, current_ua: float) -> float:
    """P(switch) = logistic((I - i50) / slope_scale); exact 0.5 at i50, never overflows."""
    x = (current_ua - model.i50_ua) / model.slope_scale_ua
    if x < 0:
        e = math.exp(x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(-x))


def _parse_model_text(text: str, origin: str) -> dict[float, SwitchingModel]:
    fields: dict[float, dict[str, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            val = float(value.strip())
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: bad numeric value in {raw!r}") from None
        if "." not in key or not key.startswith("t"):
            raise ValueError(f"{origin}:{lineno}: keys look like t<ns>.<field>, got {key!r}")
        tpart, _, fieldname = key.partition(".")
        try:
            t_write = float(tpart[1:])
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: bad pulse width in key {key!r}") from None
        if not (math.isfinite(val) and math.isfinite(t_write)):
            raise ValueError(f"{origin}:{lineno}: values and pulse widths must be finite: {raw!r}")
        if fieldname not in ("i50_ua", "slope_scale_ua"):
            raise ValueError(f"{origin}:{lineno}: unknown field {fieldname!r}")
        fields.setdefault(t_write, {})[fieldname] = val
    models = {}
    for t_write, vals in sorted(fields.items()):
        missing = {"i50_ua", "slope_scale_ua"} - set(vals)
        if missing:
            raise ValueError(f"{origin}: t{t_write:g} is missing {sorted(missing)}")
        models[t_write] = SwitchingModel(t_write, vals["i50_ua"], vals["slope_scale_ua"])
    if not models:
        raise ValueError(f"{origin}: no switching models defined")
    return models


def load_switching_models(path: str | None = None) -> dict[float, SwitchingModel]:
    """Read switching models from a key=value file; None loads the shipped defaults."""
    if path is None:
        text = importlib.resources.files("eccrng").joinpath("switching.cfg").read_text()
        origin = "switching.cfg"
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        origin = path
    return _parse_model_text(text, origin)


def calibrate_current(model: SwitchingModel, target: float = 0.5, tol: float = 1e-9) -> float:
    """The curve's inverse, i50 + slope_scale * log(target / (1 - target)).

    Raises CalibrationError when the curve there misses target by more than
    tol (a curve too steep for float currents to resolve)."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target probability must lie in (0, 1), got {target}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    current = model.i50_ua + model.slope_scale_ua * math.log(target / (1.0 - target))
    if not abs(switching_probability(model, current) - target) <= tol:
        raise CalibrationError(
            f"the curve at {current:g} uA misses target {target} by more than tol={tol}"
        )
    return current


def _check_probability(p) -> None:
    if p is None or not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")


def _check_length(length: int) -> None:
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if length > sys.maxsize:  # numpy's largest index
        raise ValueError(f"length must be at most {sys.maxsize}, got {length}")


def bernoulli_stream(p: float, seed, length: int) -> np.ndarray:
    """length i.i.d. bits with P(1) = p, deterministic per seed."""
    _check_probability(p)
    _check_length(length)
    rng = np.random.default_rng(seed)
    return (rng.random(length) < p).astype(np.uint8)


def _markov_transitions(p: float, rho: float) -> tuple[float, float]:
    """(P(1->1), P(0->1)) of the chain; ValueError if no chain has p and rho."""
    _check_probability(p)
    if rho is None or not -1.0 < rho < 1.0:
        raise ValueError(f"autocorrelation must lie in (-1, 1), got {rho}")
    a = p + rho * (1.0 - p)
    b = p * (1.0 - rho)
    if 0.0 < p < 1.0 and not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"no two-state chain has p={p} with rho={rho}")
    return a, b


def markov_stream(p: float, rho: float, seed, length: int) -> np.ndarray:
    """Stationary two-state Markov bits: P(1) = p, lag-1 autocorrelation rho.

    Transition probabilities a = P(1->1) = p + rho(1-p) and
    b = P(0->1) = p(1-rho) give exactly the requested moments.  Generation
    draws geometric sojourns, which is fast and exact (the chain is
    memoryless inside a run), in batches of whole run pairs: a run in the
    first state, then one in the other.  So every batch starts in the first
    state, which one uniform draw picks before the loop.  The last batch is
    cut to length.
    """
    a, b = _markov_transitions(p, rho)
    _check_length(length)
    out = np.empty(length, dtype=np.uint8)
    if p == 0.0 or p == 1.0:
        out.fill(int(p))
        return out
    rng = np.random.default_rng(seed)
    leave1 = 1.0 - a  # run-of-ones termination probability
    leave0 = b
    first = 1 if rng.random() < p else 0
    pair = np.array([first, 1 - first], dtype=np.uint8)
    mean_pair = 1.0 / leave1 + 1.0 / leave0
    filled = 0
    while filled < length:
        need = length - filled
        pairs = max(8, int(need / mean_pair) + 8)
        lens = np.empty((pairs, 2), dtype=np.int64)
        lens[:, 0] = rng.geometric(leave1 if first else leave0, size=pairs)
        lens[:, 1] = rng.geometric(leave0 if first else leave1, size=pairs)
        seg = np.repeat(np.tile(pair, pairs), lens.ravel())[:need]
        out[filled : filled + seg.size] = seg
        filled += seg.size
    return out


def mtj_stream(model: SwitchingModel, current_ua: float, seed, length: int) -> np.ndarray:
    """Simulated reset-then-write capture: independent bits at the curve probability.

    Reset always succeeds in this model, so the stream is distributed exactly
    like bernoulli_stream(switching_probability(model, current), seed, length).
    """
    return bernoulli_stream(switching_probability(model, current_ua), seed, length)


@dataclass(frozen=True)
class SourceConfig:
    """Declarative source description used by the command-line layer.

    Every kind needs 0 <= length <= sys.maxsize (numpy's largest index),
    and its own fields: "bernoulli" p in [0, 1], "markov" p and a rho that
    a two-state chain can have with it, "mtj" model and a finite
    current_ua.  Otherwise ValueError is raised.
    """

    kind: str  # "bernoulli" | "markov" | "mtj"
    seed: int
    length: int
    p: float | None = None
    rho: float | None = None
    model: SwitchingModel | None = None
    current_ua: float | None = None

    def __post_init__(self):
        if self.kind not in ("bernoulli", "markov", "mtj"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        _check_length(self.length)
        if self.kind == "bernoulli":
            _check_probability(self.p)
        elif self.kind == "markov":
            _markov_transitions(self.p, self.rho)
        elif self.model is None or self.current_ua is None or not math.isfinite(self.current_ua):
            raise ValueError(f"mtj needs a model and a finite current, got {self.current_ua}")


def generate_stream(config: SourceConfig) -> np.ndarray:
    if config.kind == "bernoulli":
        return bernoulli_stream(config.p, config.seed, config.length)
    if config.kind == "markov":
        return markov_stream(config.p, config.rho, config.seed, config.length)
    return mtj_stream(config.model, config.current_ua, config.seed, config.length)
