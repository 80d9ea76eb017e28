"""PWLC lower bound (alpha vectors) and sawtooth upper bound.

Reward orientation: the optimal value is convex in the belief, the lower
bound is the max over a finite alpha set, the upper bound interpolates a
corner-point base with sampled (belief, value) points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SANDWICH_TOL = 1e-8


def _finite(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("alpha vector entries must be finite")
    return v


class LowerBound:
    """Max-over-alphas PWLC lower bound on the (reward) value function.

    The alphas are the first ``len(self)`` columns of one (n_states x
    capacity) buffer, the layout that :meth:`scores` reads, and
    ``actions`` holds the action that generated each, in the same order.
    :meth:`add` writes one column, and the capacity doubles when it is
    full; the prunes compact the columns in place, in order."""

    def __init__(self, values, actions):
        """The (n_alphas, n_states) alphas ``values`` with their
        ``actions``; refused if empty or not finite."""
        values = _finite(values)
        if not len(values):
            raise ValueError("alpha set must be nonempty")
        self._by_state = values.T.copy()
        self._actions = np.array(actions, dtype=np.intp)
        self._n = len(values)

    @property
    def actions(self) -> np.ndarray:
        return self._actions[:self._n]

    def matrix(self) -> np.ndarray:
        """(n_alphas, n_states) view of the buffer; copies nothing."""
        return self._by_state[:, :self._n].T

    def scores(self, posts) -> np.ndarray:
        """(m, n_alphas) values of every alpha at the rows of the
        (m, n_states) ``Csr`` record ``posts``."""
        return posts.dot(self._by_state[:, :self._n])

    def __len__(self):
        return self._n

    def value(self, b: np.ndarray) -> float:
        """The envelope at b: a row-major product of the (alphas x
        support) block, or of the whole matrix when b is dense."""
        m = self.matrix()
        sup = np.flatnonzero(b)
        if sup.size * 8 < b.size:
            m, b = m[:, sup], b[sup]
        return float((np.ascontiguousarray(m) @ b).max())

    def value_many(self, posts) -> np.ndarray:
        """Envelope values at many beliefs (rows of a ``Csr`` record)."""
        return self.scores(posts).max(axis=1)

    def add(self, values, action: int) -> None:
        """Append one alpha (refused unless finite) and its action."""
        n, cap = self._n, self._by_state.shape[1]
        if n == cap:
            grown = np.empty((self._by_state.shape[0], 2 * cap))
            grown[:, :n] = self._by_state
            self._by_state = grown
            self._actions = np.concatenate([self._actions,
                                            np.empty(cap, np.intp)])
        self._by_state[:, n] = _finite(values)
        self._actions[n] = action
        self._n = n + 1

    def _keep(self, keep: np.ndarray) -> int:
        """Compact the buffer to the alphas where ``keep`` holds, in order;
        returns the removed count."""
        idx = np.flatnonzero(keep)
        self._by_state[:, :idx.size] = self._by_state[:, idx]
        self._actions[:idx.size] = self._actions[idx]
        removed, self._n = self._n - idx.size, idx.size
        return removed

    def prune_pointwise(self) -> int:
        """Drop each alpha that another kept alpha dominates (at least as
        large everywhere, larger somewhere); of exact duplicates the first
        is kept. Returns the removed count. No margin: an additive one
        rounds away at large values, and every alpha then drops itself."""
        m = np.ascontiguousarray(self.matrix())
        keep = np.ones(self._n, dtype=bool)
        index = np.arange(self._n)
        for i in index:
            others = keep & (index != i)
            ge = (m[others] >= m[i]).all(axis=1)
            gt = (m[others] > m[i]).any(axis=1)
            keep[i] = not (ge & (gt | (index[others] < i))).any()
        return self._keep(keep)

    def prune_witness(self, witnesses: np.ndarray) -> int:
        """Keep alphas achieving the max at some corner belief or at some
        row of ``witnesses`` (sampled beliefs); returns removed count. An
        alpha's score at corner s is its entry s, so the corners need no
        belief rows."""
        m = np.ascontiguousarray(self.matrix())
        useful = np.zeros(self._n, dtype=bool)
        useful[np.argmax(m, axis=0)] = True
        useful[np.argmax(m @ witnesses.T, axis=0)] = True
        return self._keep(useful)


def _group(points) -> list:
    """The improving points (gain < 0) in groups of equal support size: per
    group the (size, points) support ids, the points' beliefs on them and
    the (points,) gains."""
    groups = {}
    for bp, _v, sup, gain in points:
        if gain < 0.0:
            groups.setdefault(sup.size, []).append((bp, sup, gain))
    return [(np.array([s for _bp, s, _g in group]).T,
             np.array([bp[s] for bp, s, _g in group]).T,
             np.array([g for _bp, _s, g in group]))
            for group in groups.values()]


def _sawtooth(base: np.ndarray, beliefs: np.ndarray, groups,
              cols: np.ndarray | None = None) -> np.ndarray:
    """Sawtooth values at the rows of ``beliefs`` against the point groups
    of :func:`_group`.

    ``base`` holds the rows' corner-interpolated values. Point j lowers a
    row to ``base + c_j * gain_j``, where the coefficient c_j is the least
    ratio of the row to the point's belief over the point's support. A
    group is one (rows, size, points) ratio array and one min over its size
    axis. The minimum over the points does not depend on their order.
    ``cols``, when given, holds the sorted state ids of the columns of
    ``beliefs``, which then need cover only the points' supports."""
    best = base
    for sup, bp_sup, gain in groups:
        at = sup if cols is None else np.searchsorted(cols, sup)
        ratio = beliefs[:, at] / bp_sup
        best = np.minimum(
            best, (base[:, None] + ratio.min(axis=1) * gain).min(axis=1))
    return best


def _dense_columns(rows, cols: np.ndarray) -> np.ndarray:
    """Dense (m, cols.size) block of the ``Csr`` record ``rows`` at the
    sorted column ids ``cols``; the other columns are never made dense."""
    idx = rows.cols
    j = np.minimum(np.searchsorted(cols, idx), cols.size - 1)
    hit = cols[j] == idx
    out = np.zeros((rows.shape[0], cols.size))
    out[rows.rows[hit], j[hit]] = rows.data[hit]
    return out


class UpperBound:
    """Sawtooth (Jensen-style) upper bound anchored at corner beliefs.

    ``points`` is a list of (belief, value, support indices, gain) tuples,
    the gain being the value minus the corner interpolation at the belief.
    :meth:`value`, :meth:`value_many` and :meth:`prune` share one evaluator,
    :func:`_sawtooth`, with one array pass per distinct support size (Smith
    & Simmons, UAI 2005). :meth:`add` and :meth:`prune` regroup the points;
    evaluations reuse those groups. Min is exact and each element's
    arithmetic is that of a per-point loop, so the values equal that loop's
    bit for bit. Change ``points`` only through :meth:`add` and
    :meth:`prune`, or call :meth:`prune` after changing it."""

    def __init__(self, corner_values: np.ndarray):
        self.corner = np.asarray(corner_values, dtype=float)
        if not np.all(np.isfinite(self.corner)):
            raise ValueError("corner values must be finite")
        self.points: list = []
        self._regroup()

    def __len__(self):
        return len(self.points) + self.corner.size

    def _regroup(self) -> None:
        """Rebuild the evaluator's point groups and their support columns;
        the points change only in :meth:`add` and :meth:`prune`."""
        self._groups = _group(self.points)
        self._cols = (np.unique(np.concatenate([sup.ravel() for sup, _b, _g
                                                in self._groups]))
                      if self._groups else None)

    def _value_against(self, b: np.ndarray, groups) -> float:
        return float(_sawtooth(np.array([self.corner @ b]), b[None, :],
                               groups)[0])

    def value(self, b: np.ndarray) -> float:
        """Corner-weighted baseline minus the best single-point improvement."""
        return self._value_against(b, self._groups)

    def value_many(self, posts) -> np.ndarray:
        """Sawtooth values at the rows of the (m, n_states) ``Csr`` belief
        record ``posts``; only the points' support columns are gathered."""
        base = posts.dot(self.corner)
        if self._cols is None:
            return base
        return _sawtooth(base, _dense_columns(posts, self._cols),
                         self._groups, self._cols)

    def add(self, b: np.ndarray, v: float) -> bool:
        """Insert (b, v) if it improves the interpolated bound at b."""
        if v >= self.value(b) - 1e-12:
            return False
        sup = np.flatnonzero(b > 0.0)
        gain = float(v) - float(self.corner[sup] @ b[sup])
        self.points.append((b.copy(), float(v), sup, gain))
        self._regroup()
        return True

    def prune(self) -> int:
        """Drop points no longer improving on the rest; returns removed count."""
        kept = []
        for i, (bp, vp, _sup, _gain) in enumerate(self.points):
            rest = _group(kept + self.points[i + 1:])
            if vp < self._value_against(bp, rest) - 1e-12:
                kept.append(self.points[i])
        removed = len(self.points) - len(kept)
        self.points = kept
        self._regroup()
        return removed


@dataclass
class BoundPair:
    """Sandwich pair: PWLC lower set and sawtooth upper point set."""

    lower: LowerBound
    upper: UpperBound
    audits: int = 0
    worst_violation: float = field(default=0.0)

    def gap(self, b: np.ndarray) -> float:
        return self.upper.value(b) - self.lower.value(b)

    def audit(self, b: np.ndarray) -> float:
        """Record the sandwich invariant lower <= upper + tol at b; returns
        the gap at b, equal to :meth:`gap`, from the same two evaluations."""
        lo, up = self.lower.value(b), self.upper.value(b)
        v = lo - up
        self.audits += 1
        if v > self.worst_violation:
            self.worst_violation = v
        if v > SANDWICH_TOL:
            raise AssertionError(f"bound sandwich violated by {v:.3e}")
        return up - lo
