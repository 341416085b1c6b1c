"""Containers shared by every inference branch, and the one place
their answers and reports are made.

An Interval is the hull of grid points retained by test inversion; an
InferenceReport pairs conditional and naive answers with diagnostics.
Each branch hands answer() one vectorised p-value curve; answer() reads
it at beta0, which leads the scan's first pass, and inverts it on the
grid every branch starts on (GRID_POINTS points over beta_hat +- 8 SE),
so every branch labels each interval end alike: a crossing of alpha, an
underflow band or an unbounded side.  build_report() makes every
InferenceReport.
The grid is read coarse to fine: every _STRIDE-th null and each grid end
first, then only the nulls beside the outermost retained ones, so a CI
costs about GRID_POINTS / 8 + 14 p-values instead of one per grid null,
in two curve calls and one more per expansion round, and is a full
scan's hull unless the retained set holds an island narrower than
_STRIDE nulls away from its ends.
A side is unbounded when the grid still retains it after _EXPANSIONS
doublings of its reach, 16384 initial halfwidths from the grid's center.
That reach is counted in the grid's own units, so rescaling Y or D
rescales every interval and keeps its end labels.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ExperimentError
from .model import tsls_estimate, tsls_standard_error


@dataclass(frozen=True)
class Interval:
    """Closed interval; an unbounded side is -inf or +inf, serialized as
    null with its *_unbounded flag set."""

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def as_dict(self) -> dict:
        lo_unbounded, hi_unbounded = self.lower == -math.inf, self.upper == math.inf
        return {
            "lower": None if lo_unbounded else self.lower,
            "upper": None if hi_unbounded else self.upper,
            "lower_unbounded": lo_unbounded,
            "upper_unbounded": hi_unbounded,
        }

    def __str__(self):
        hi = "+inf" if self.upper == math.inf else f"{self.upper:.6g}"  # .6g writes "inf"
        return f"[{self.lower:.6g}, {hi}]"


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
    """Recursively convert numpy scalars and arrays, and non-finite floats,
    into JSON-safe plain Python values; TypeError on any other type."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.generic):
        return plain(obj.item())
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    raise TypeError(f"cannot convert {type(obj).__name__} to JSON")


# points of every answer's initial CI grid; its 200 steps are a multiple
# of _STRIDE, so the coarse nulls, counted from the lower end, end on the
# upper one
GRID_POINTS = 201
# a side still retained at the grid's end reaches this factor further out
# per round, in a block of _BLOCK new nulls; one still retained after
# _EXPANSIONS rounds is unbounded
_EXPAND_FACTOR = 2.0
_EXPANSIONS = 14
_BLOCK = 100
# the coarse scan evaluates every _STRIDE-th grid null and each grid end
_STRIDE = 8


def invert_pvalue_curve(
    pvalue_fn: Callable[[np.ndarray], np.ndarray],
    center: float,
    halfwidth: float,
    alpha: float,
):
    """Hull of {x : pvalue_fn(x) >= alpha} on an expanding grid, read
    coarse to fine.

    pvalue_fn maps an array of candidate nulls to an array of p-values.
    The grid starts at GRID_POINTS over center +- halfwidth; while an end
    null is still retained, that side's reach grows by _EXPAND_FACTOR per
    round, adding a block of _BLOCK nulls; a round that grows both sides
    evaluates their new nulls in one call.  After _EXPANSIONS rounds, a
    reach of 16384 halfwidths, a side whose end is still retained is
    reported unbounded.  A grid whose ends round to its center, a
    halfwidth below the float resolution of center, could never grow and
    is refused with ExperimentError before any p-value call.

    Only part of that grid is evaluated.  The coarse scan takes every
    _STRIDE-th null of the initial grid and of each expansion block,
    counted from its outer end, so every grid end is evaluated and the
    expansion decisions, which read only the ends, are a full scan's.
    One more call evaluates the fine nulls between the first retained
    null and the evaluated one before it, and likewise after the last,
    which places each end of the hull on the fine grid.  A retained
    island narrower than _STRIDE nulls that lies outside those two gaps
    is not seen.  When no coarse null is retained, the rest of the grid
    is evaluated, so a narrow retained set is found and an empty one
    degenerates to the argmax of the whole curve.

    NaN p-values count as not retained, and a NaN end freezes that side's
    expansion: the scan cannot see past a null it could not evaluate.

    info["ends"] says what set each end of the interval: "unbounded",
    "underflow" when the grid null just outside it has a NaN p-value (an
    unanswerable null, such as an underflowed conditioning event), else
    "crossing", the p-value falling below alpha.  That null is always
    evaluated.  info["grid_size"] counts the grid's nulls, evaluated or not.

    Returns (interval, xs, ps, info); xs and ps hold the evaluated nulls
    only, in increasing order.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha = {alpha} outside (0, 1]")
    if halfwidth <= 0:
        raise ValueError("need halfwidth > 0")
    if not center - halfwidth < center < center + halfwidth:
        raise ExperimentError(f"grid halfwidth {halfwidth!r} is below the float resolution of center {center!r}")

    xs = np.linspace(center - halfwidth, center + halfwidth, GRID_POINTS)
    ps = np.full(GRID_POINTS, np.nan)
    done = np.zeros(GRID_POINTS, dtype=bool)

    def evaluate(idx):
        if idx.size:
            ps[idx] = np.asarray(pvalue_fn(xs[idx]), dtype=float)
            done[idx] = True

    evaluate(np.arange(0, GRID_POINTS, _STRIDE))
    rounds = 0
    while rounds < _EXPANSIONS and (ps[0] >= alpha or ps[-1] >= alpha):
        rounds += 1
        # each open side's block of new nulls, out to its grown reach
        below = above = xs[:0]
        if ps[0] >= alpha:
            below = np.linspace(center - (center - xs[0]) * _EXPAND_FACTOR, xs[0], _BLOCK + 1)[:-1]
        if ps[-1] >= alpha:
            above = np.linspace(xs[-1], center + (xs[-1] - center) * _EXPAND_FACTOR, _BLOCK + 1)[1:]
        xs = np.concatenate([below, xs, above])
        ps = np.concatenate([np.full(below.size, np.nan), ps, np.full(above.size, np.nan)])
        done = np.concatenate([np.zeros(below.size, bool), done, np.zeros(above.size, bool)])
        # every _STRIDE-th new null, counted from each block's outer end
        new = np.arange(0, below.size, _STRIDE), xs.size - 1 - np.arange(0, above.size, _STRIDE)[::-1]
        evaluate(np.concatenate(new))
    lo_unbounded, hi_unbounded = bool(ps[0] >= alpha), bool(ps[-1] >= alpha)

    retained = done & (ps >= alpha)
    if retained.any():
        # each gap, as a slice: from an outermost retained null to the
        # evaluated null beyond it (none past a grid end)
        lo, hi = np.flatnonzero(retained)[[0, -1]]
        evaluated = np.flatnonzero(done)
        a, b = evaluated[np.clip(np.searchsorted(evaluated, [lo, hi]) + [-1, 1], 0, evaluated.size - 1)]
        evaluate(np.r_[a + 1 : lo, hi + 1 : b])
    else:
        evaluate(np.flatnonzero(~done))
    retained = done & (ps >= alpha)
    info = {"grid_size": int(xs.size), "expansion_rounds": rounds, "degenerate": not retained.any()}
    if retained.any():
        lo, hi = np.flatnonzero(retained)[[0, -1]]
    elif not np.isfinite(ps).any():
        raise ExperimentError("p-value curve could not be evaluated anywhere on the grid")
    else:
        lo = hi = int(np.nanargmax(ps))

    def end(unbounded, outside):
        if unbounded:
            return "unbounded"
        if 0 <= outside < ps.size and np.isnan(ps[outside]):
            return "underflow"
        return "crossing"

    info["ends"] = {"lower": end(lo_unbounded, lo - 1), "upper": end(hi_unbounded, hi + 1)}
    interval = Interval(-math.inf if lo_unbounded else xs[lo], math.inf if hi_unbounded else xs[hi])
    return interval, xs[done], ps[done], info


class Answer(NamedTuple):
    """A p-value at beta0 and an interval.  An answer from answer()
    inverts the curve its p-value is read from, and also holds the grid
    info, the curve's items at [beta0] and the evaluated nulls with NaN
    p-values, in increasing order.  A closed-form one holds none, and
    need not invert one test (see sampler.wald_answer)."""

    pvalue: float
    interval: Interval
    grid: Optional[dict] = None
    at_beta0: tuple = ()
    unanswerable: tuple = ()


def answer(curve, data, beta0: float, alpha: float, refuse=None) -> Answer:
    """A branch's answer from its curve, which maps an array of nulls to a
    tuple of arrays along them: their p-values, NaN where a null is
    unanswerable, then the engine's per-null extras.  invert_pvalue_curve
    inverts it on GRID_POINTS over beta_hat +- 8 SE of data, a row dataset
    or its Moments (for the Lasso, those of the selected instruments), and
    beta0 leads the scan's first pass, so a bounded answer costs two curve
    calls.  at_beta0 is read off that pass's first entries; refuse, when
    given, takes them and raises when beta0 is unanswerable, before any
    further pass."""
    at_beta0 = []

    def pvalues(nulls):
        if at_beta0:
            return curve(nulls)[0]
        items = curve(np.concatenate([[beta0], nulls]))
        at_beta0.extend(item[:1] for item in items)
        if refuse is not None:
            refuse(*at_beta0)
        return items[0][1:]

    interval, xs, ps, grid = invert_pvalue_curve(pvalues, tsls_estimate(data), 8.0 * tsls_standard_error(data), alpha)
    return Answer(float(at_beta0[0][0]), interval, grid, tuple(at_beta0), tuple(xs[np.isnan(ps)].tolist()))


def build_report(
    beta0: float, alpha: float, branch: str, naive: Answer, conditional: Answer = None, **diagnostics
) -> InferenceReport:
    """The InferenceReport of a branch's answers; conditional is None in a
    naive-only report.  diagnostics holds the branch, alpha, the grid
    info of the inverted answers ("grid" when there is one, else
    "conditional_grid" and "naive_grid"), then the branch's own keys."""
    grids = {
        f"{name}_grid": ans.grid
        for name, ans in (("conditional", conditional), ("naive", naive))
        if ans is not None and ans.grid is not None
    }
    if len(grids) == 1:
        grids = {"grid": grids.popitem()[1]}
    return InferenceReport(
        beta0=float(beta0),
        conditional_pvalue=None if conditional is None else conditional.pvalue,
        naive_pvalue=naive.pvalue,
        conditional_ci=None if conditional is None else conditional.interval,
        naive_ci=naive.interval,
        diagnostics={"branch": branch, "alpha": float(alpha), **grids, **diagnostics},
    )
