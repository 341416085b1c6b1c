"""One hypothesis profile for every property test: derandomized, so each
run replays the same examples, with no deadline, because a shared host
can stall any single example, and few enough examples to keep the suite
fast.  Also the prepared_rows fixture, the row oracle, and moments_of,
the Moments of rows already centred."""

import numpy as np
import pytest
from hypothesis import settings

from ivselect import IVDataset, Moments
from ivselect.model import _BLOCK_ROWS, _RowFactor

settings.register_profile("ivselect", derandomize=True, deadline=None, max_examples=50)
settings.load_profile("ivselect")


def _prepared_rows(raw: IVDataset) -> IVDataset:
    """raw's rows with an intercept and X residualized out, as a dataset
    without X: the least-squares fit that prepare's factor R of
    [1 X Z D Y] holds, applied to the rows.  prepare keeps no rows, so
    tests that read centered rows take them from here."""
    x = np.empty((raw.n, 0)) if raw.X is None else raw.X
    factor = _RowFactor(["x"] * x.shape[1], ["z"] * raw.p)
    for i in range(0, raw.n, _BLOCK_ROWS):
        factor.add(np.column_stack([a[i : i + _BLOCK_ROWS] for a in (x, raw.Z, raw.D, raw.Y)]))
    keep = factor.hi - factor.lo > 1e-12 * np.maximum(np.abs(factor.lo), np.abs(factor.hi))
    r, k = factor.r, int(keep.sum())
    if not keep.all():  # constant X columns dropped, as prepare drops them
        r = np.linalg.qr(r[:, np.flatnonzero(np.r_[True, keep, np.ones(raw.p + 2, bool)])], mode="r")
    coef = np.linalg.solve(r[: 1 + k, : 1 + k], r[: 1 + k, 1 + k :])  # [Z D Y] on [1 X], less the origin
    x0, w0 = factor.origin[: x.shape[1]][keep], factor.origin[x.shape[1] :]
    resid = np.column_stack([raw.Z, raw.D, raw.Y])
    resid -= w0 + coef[0]
    resid -= (x[:, keep] - x0) @ coef[1:]
    return IVDataset(Y=resid[:, -1], D=resid[:, -2], Z=resid[:, :-2])


@pytest.fixture(scope="session")
def prepared_rows():
    """The row oracle, _prepared_rows (session-scoped, so property tests
    may take it)."""
    return _prepared_rows


def _moments_of(z, y, d) -> Moments:
    """Moments of centred instruments z (..., n, p) and y, d (..., n),
    each optionally stacked over a leading batch axis: one QR of
    [Z D Y], with nothing residualized out."""
    r = np.linalg.qr(np.concatenate([z, d[..., None], y[..., None]], axis=-1), mode="r")
    return Moments.of_factor(z.shape[-2], r)


@pytest.fixture(scope="session")
def moments_of():
    """The Moments of already centred rows, _moments_of (session-scoped,
    so property tests may take it)."""
    return _moments_of
