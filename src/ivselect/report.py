"""Containers shared by every inference branch.

An Interval is the hull of grid points retained by test inversion; an
InferenceReport pairs conditional and naive answers with diagnostics.
The grid-expansion loop lives here so the passed-screen branch, the
weak-instrument branch and the Lasso branch invert identically and
label each interval end alike: a crossing of alpha, an underflow band
or an unbounded side.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ExperimentError


@dataclass(frozen=True)
class Interval:
    """Closed interval; a side flagged unbounded is stored as +-inf and
    serialized as null."""

    lower: float
    upper: float
    lower_unbounded: bool = False
    upper_unbounded: bool = False

    def __post_init__(self):
        lo = -math.inf if self.lower_unbounded else float(self.lower)
        hi = math.inf if self.upper_unbounded else float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def as_dict(self) -> dict:
        return {
            "lower": None if self.lower_unbounded else self.lower,
            "upper": None if self.upper_unbounded else self.upper,
            "lower_unbounded": self.lower_unbounded,
            "upper_unbounded": self.upper_unbounded,
        }

    def __str__(self):
        lo = "-inf" if self.lower_unbounded else f"{self.lower:.6g}"
        hi = "+inf" if self.upper_unbounded else f"{self.upper:.6g}"
        return f"[{lo}, {hi}]"


@dataclass(frozen=True)
class InferenceReport:
    """Conditional and naive answers for one dataset and one null value.

    conditional fields are None only when no conditional branch applies
    (explained in diagnostics); diagnostics is free-form but must stay
    JSON-serializable.
    """

    beta0: float
    conditional_pvalue: Optional[float]
    naive_pvalue: float
    conditional_ci: Optional[Interval]
    naive_ci: Interval
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, val in (
            ("conditional_pvalue", self.conditional_pvalue),
            ("naive_pvalue", self.naive_pvalue),
        ):
            if val is not None and not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} = {val} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "beta0": float(self.beta0),
            "conditional_pvalue": self.conditional_pvalue,
            "naive_pvalue": self.naive_pvalue,
            "conditional_ci": None
            if self.conditional_ci is None
            else self.conditional_ci.as_dict(),
            "naive_ci": self.naive_ci.as_dict(),
            "diagnostics": plain(self.diagnostics),
        }


def plain(obj):
    """Recursively convert numpy scalars/arrays, intervals, and non-finite
    floats into JSON-safe plain Python values."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.generic):
        return plain(obj.item())
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, Interval):
        return obj.as_dict()
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if hasattr(obj, "as_dict"):
        return plain(obj.as_dict())
    return str(obj)


# a side still retained at the grid's end reaches this factor further out
# per round, and is reported unbounded once its end passes _UNBOUNDED_AT
_EXPAND_FACTOR = 2.0
_UNBOUNDED_AT = 1e5
_MAX_ROUNDS = 60


def invert_pvalue_curve(
    pvalue_fn: Callable[[np.ndarray], np.ndarray],
    center: float,
    halfwidth: float,
    alpha: float,
    n_points: int = 201,
):
    """Hull of {x : pvalue_fn(x) >= alpha} from an expanding grid.

    pvalue_fn maps an array of candidate nulls to an array of p-values.
    Starts from n_points over center +- halfwidth; while an endpoint is
    still retained, that side's reach grows by _EXPAND_FACTOR per round
    until the endpoint is excluded or |endpoint| >= _UNBOUNDED_AT, which
    reports the side as unbounded. An empty retained set degenerates to
    the argmax of the p-value curve.

    NaN p-values count as not retained, and a NaN endpoint freezes that
    side's expansion: the scan cannot see past a point it could not
    evaluate.

    info["ends"] says what set each end of the interval: "unbounded",
    "underflow" when the grid point just outside it has a NaN p-value
    (an unanswerable null, such as an underflowed conditioning event),
    else "crossing", the p-value falling below alpha.

    Returns (interval, xs, ps, info).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha = {alpha} outside (0, 1]")
    if halfwidth <= 0 or n_points < 3:
        raise ValueError("need halfwidth > 0 and at least 3 grid points")

    xs = np.linspace(center - halfwidth, center + halfwidth, n_points)
    ps = np.asarray(pvalue_fn(xs), dtype=float)
    lo_unbounded = hi_unbounded = False
    rounds = 0
    block = max((n_points - 1) // 2, 2)

    while True:
        retained = ps >= alpha
        lo_open = bool(retained[0]) and not lo_unbounded
        hi_open = bool(retained[-1]) and not hi_unbounded
        if lo_open and abs(xs[0]) >= _UNBOUNDED_AT:
            lo_unbounded, lo_open = True, False
        if hi_open and abs(xs[-1]) >= _UNBOUNDED_AT:
            hi_unbounded, hi_open = True, False
        if not retained.any() or not (lo_open or hi_open):
            break
        if rounds >= _MAX_ROUNDS:
            raise ExperimentError(
                f"confidence-interval grid exhausted after {_MAX_ROUNDS} "
                f"expansions without excluding the endpoints"
            )
        rounds += 1
        if lo_open:
            target = center - (center - xs[0]) * _EXPAND_FACTOR
            new_xs = np.linspace(target, xs[0], block + 1)[:-1]
            xs = np.concatenate([new_xs, xs])
            ps = np.concatenate([np.asarray(pvalue_fn(new_xs), float), ps])
        if hi_open:
            target = center + (xs[-1] - center) * _EXPAND_FACTOR
            new_xs = np.linspace(xs[-1], target, block + 1)[1:]
            xs = np.concatenate([xs, new_xs])
            ps = np.concatenate([ps, np.asarray(pvalue_fn(new_xs), float)])

    retained = ps >= alpha
    info = {
        "grid_size": int(xs.size),
        "expansion_rounds": rounds,
        "degenerate": not retained.any(),
    }
    if retained.any():
        lo, hi = np.flatnonzero(retained)[[0, -1]]
    else:
        if not np.isfinite(ps).any():
            raise ExperimentError(
                "p-value curve could not be evaluated anywhere on the grid"
            )
        lo = hi = int(np.nanargmax(ps))

    def end(unbounded, outside):
        if unbounded:
            return "unbounded"
        if 0 <= outside < ps.size and np.isnan(ps[outside]):
            return "underflow"
        return "crossing"

    info["ends"] = {"lower": end(lo_unbounded, lo - 1), "upper": end(hi_unbounded, hi + 1)}
    interval = Interval(xs[lo], xs[hi], lo_unbounded, hi_unbounded)
    return interval, xs, ps, info
