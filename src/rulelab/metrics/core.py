"""Accuracy windows, correlation, chance baseline, and cross-entropy.

numpy is imported by the correlation functions alone, so the report path,
which scores accuracies, runs without it.  One function computes the
correlation, :func:`correlation`, on two arrays: :func:`pearson_r` and
:func:`r_squared` pair their lists into it, and the noise fit scores each
grid point with it.  Its sums are ``np.einsum`` passes, which add in a
fixed order and call no BLAS.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

WINDOWS = ("overall", "last_quarter")


class EmptyWindowError(ValueError):
    """Every object in the requested window was excluded."""


class ZeroVarianceError(ValueError):
    """Correlation is undefined because one of the vectors is constant."""


def last_quarter_count(n_objects: int) -> int:
    """Objects in the last-quarter window: the final ceil(N/4)."""
    return -(-n_objects // 4)


def accuracy(labels: Sequence[bool | None], gold: Sequence[bool], window: str = "overall") -> float:
    """Proportion of correct labels over the window.

    ``labels`` holds one label per object, None where it was excluded, in
    the list's layout order from its first object; ``gold`` holds the
    list's gold labels in the same order.  The window is cut over all of
    ``labels`` first; excluded objects are then dropped from both
    numerator and denominator.
    """
    if window not in WINDOWS:
        raise ValueError(f"window must be one of {WINDOWS}, got {window!r}")
    if len(labels) > len(gold):
        raise ValueError(f"{len(labels)} labels for {len(gold)} gold labels")
    start = len(labels) - last_quarter_count(len(labels)) if window == "last_quarter" else 0
    scored = [label == g for label, g in zip(labels[start:], gold[start:]) if label is not None]
    if not scored:
        raise EmptyWindowError(f"no labeled objects in the {window} window")
    return sum(scored) / len(scored)


def correlation(xs: np.ndarray, ys: np.ndarray) -> float | None:
    """Pearson correlation of two nonempty float vectors of one length,
    clipped to [-1, 1]; None where either is constant.  Each vector is
    scaled to unit range before it is centred, which keeps a tiny but
    nonzero spread from underflowing to a zero variance."""
    import numpy as np

    spreads = np.ptp(xs), np.ptp(ys)
    if not all(spread > 0.0 for spread in spreads):
        return None
    x, y = xs / spreads[0], ys / spreads[1]
    x -= x.mean()
    y -= y.mean()
    xy, xx, yy = (float(np.einsum("i,i->", a, b)) for a, b in ((x, y), (x, x), (y, y)))
    return min(max(xy / math.sqrt(xx * yy), -1.0), 1.0)


def pearson_r(model: Sequence[float], human: Sequence[float]) -> float:
    """Signed Pearson correlation; pairs with a missing human value are
    dropped before computing."""
    r = correlation(*_paired(model, human))
    if r is None:
        raise ZeroVarianceError("one of the vectors is constant")
    return r


def r_squared(model: Sequence[float], human: Sequence[float]) -> float:
    """Square of the Pearson correlation (anticorrelation also scores 1;
    report :func:`pearson_r` alongside to disambiguate)."""
    r = pearson_r(model, human)
    return r * r


def _paired(model: Sequence[float], human: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    if len(model) != len(human):
        raise ValueError("vectors must be aligned by object")
    pairs = [(m, h) for m, h in zip(model, human) if h is not None and m is not None]
    if len(pairs) < 2:
        raise ValueError("need at least two aligned pairs")
    xs = np.array([m for m, _h in pairs], dtype=float)
    ys = np.array([h for _m, h in pairs], dtype=float)
    return xs, ys


def chance_baseline(p: float) -> float:
    """Expected accuracy of guessing True at empirical rate ``p``:
    p^2 + (1-p)^2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    # Algebraically identical form; rounds exactly at simple rates like 0.8.
    return 1.0 - 2.0 * p * (1.0 - p)


def cross_entropy(p_true: float, q_true: float) -> float:
    """Cross-entropy (nats) between two distributions over {True, False},
    each given by its True probability.

    Returns inf when the model assigns zero mass to a label the target
    gives positive mass.
    """
    for name, value in (("p_true", p_true), ("q_true", q_true)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    total = 0.0
    for p, q in ((p_true, q_true), (1.0 - p_true, 1.0 - q_true)):
        if p == 0.0:
            continue
        if q == 0.0:
            return float("inf")
        total -= p * math.log(q)
    return total


def cross_entropy_series(pairs: Sequence[tuple[float, float]]) -> float:
    """Sum of per-object cross-entropies over (target, model) True-probability
    pairs."""
    return sum(cross_entropy(p, q) for p, q in pairs)
