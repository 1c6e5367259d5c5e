"""Cadlag step paths on [0, T] with computable convergence diagnostics.

Three oscillation moduli (w, w', v) are evaluated exactly by enumerating
segment triples, which is all a step path has. Two path metrics:

* j1_distance is exact for step paths. Feasibility of a given distance d is
  a small dynamic program over alignments of the two jump sequences (place a
  jump of f within d of its own time, pass a jump of g, or match the two
  simultaneously), carrying the minimal achievable "current time" per state;
  the optimum is then the smallest feasible value among the finitely many
  candidate distances |level difference| and |jump-time difference|.
* m1_distance is an upper-bound approximation: both completed graphs are
  discretized into monotone polylines and matched by discrete Frechet
  dynamic programming under the Chebyshev metric. It converges to the M1
  distance from above as `resolution` grows; the resolution is an explicit
  argument so the slack is under the caller's control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CadlagStepPath:
    """Right-continuous step path: value `initial` on [0, t_1), then
    values[i] on [t_i, t_{i+1}), with jump times strictly increasing in
    (0, T]."""

    T: float
    initial: float
    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        jt = np.atleast_1d(np.asarray(self.jump_times, dtype=np.float64))
        vals = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        if self.T <= 0:
            raise ValueError("T must be > 0")
        if jt.size != vals.size:
            raise ValueError("jump_times and values must have equal length")
        if jt.size:
            if jt[0] <= 0 or jt[-1] > self.T:
                raise ValueError("jump times must lie in (0, T]")
            if np.any(np.diff(jt) <= 0):
                raise ValueError("jump times must be strictly increasing")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def levels(self) -> np.ndarray:
        """Segment values, length n_jumps + 1."""
        return np.concatenate(([self.initial], self.values))

    def boundaries(self) -> np.ndarray:
        """Segment boundaries 0 = tau_0 < ... < tau_{n+1} = T (the final
        segment is closed at T)."""
        return np.concatenate(([0.0], self.jump_times, [self.T]))

    def value_at(self, t):
        arr = np.asarray(t, dtype=np.float64)
        if not np.all((arr >= 0) & (arr <= self.T)):
            raise ValueError("evaluation point outside [0, T]")
        idx = np.searchsorted(self.jump_times, arr, side="right")
        out = self.levels()[idx]
        return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# oscillation moduli
# ---------------------------------------------------------------------------


def _check_delta(path: CadlagStepPath, delta: float):
    if not 0 < delta < path.T:
        raise ValueError("delta must lie in (0, T)")


def _window_scan(path: CadlagStepPath, delta: float, cand) -> float:
    """Largest ``cand(vj, v_i, v_k)`` over segment triples i <= j <= k
    that fit a window of width delta, vj being the levels v_i..v_k. A
    window holds the end of segment i and the start of segment k exactly
    when tau_k - tau_{i+1} < delta. Every candidate is >= 0 (j = i gives
    0), so the scan starts from 0."""
    _check_delta(path, delta)
    v = path.levels()
    tau = path.boundaries()
    best = 0.0
    for i in range(len(v) - 1):
        for k in range(i + 1, len(v)):
            if tau[k] - tau[i + 1] >= delta:
                break
            c = cand(v[i : k + 1], v[i], v[k])
            if c > best:
                best = float(c)
    return best


def modulus_w(path: CadlagStepPath, delta: float) -> float:
    """sup of min(|f(t)-f(t1)|, |f(t2)-f(t)|) over t1 <= t <= t2 within
    a window of width delta. Exact: two-sided oscillation needs three
    segments i <= j <= k reachable with t2 - t1 < delta, i.e.
    tau_k - tau_{i+1} < delta."""
    return _window_scan(
        path, delta, lambda vj, a, b: np.minimum(np.abs(vj - a), np.abs(b - vj)).max()
    )


def modulus_w_prime(path: CadlagStepPath, delta: float) -> float:
    """sup of the distance from f(t) to the interval [f(t1), f(t2)], same
    window geometry as modulus_w. Identically zero for monotone paths."""
    return _window_scan(
        path, delta, lambda vj, a, b: np.maximum(min(a, b) - vj, vj - max(a, b)).max()
    )


def modulus_v(path: CadlagStepPath, t: float, delta: float) -> float:
    """sup |f(t1) - f(t2)| over the open window (t - delta, t + delta)."""
    if not 0 <= t <= path.T:
        raise ValueError("t must lie in [0, T]")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    a, b = t - delta, t + delta
    v = path.levels()
    tau = path.boundaries()
    sel = (tau[:-1] < b) & (tau[1:] > a)
    if not sel.any():
        return 0.0
    chosen = v[sel]
    return float(chosen.max() - chosen.min())


# ---------------------------------------------------------------------------
# J1 distance (exact for step paths)
# ---------------------------------------------------------------------------


def _j1_feasible(
    a: np.ndarray,
    s: np.ndarray,
    b: np.ndarray,
    r: np.ndarray,
    d: float,
) -> bool:
    """Can a time change achieve sup-norm and time-distortion both <= d?

    State (i, j): the first i jumps of f are placed, the first j jumps of g
    are passed, and the current overlap shows levels (a_i, b_j). The DP
    carries the minimal feasible time of the last placed event; smaller is
    never worse, so reachability with minimal times is exact.
    """
    m, k = len(s), len(r)
    ok = np.abs(a[:, None] - b[None, :]) <= d
    if not ok[0, 0]:
        return False
    INF = math.inf
    pos = np.full((m + 1, k + 1), INF)
    pos[0, 0] = 0.0
    for i in range(m + 1):
        for j in range(k + 1):
            if not ok[i, j]:
                continue
            best = pos[i, j] if (i, j) == (0, 0) else INF
            if i > 0 and pos[i - 1, j] < INF:
                # place f-jump i at some x in [s_i - d, s_i + d], before r_{j+1}
                cand = max(pos[i - 1, j], s[i - 1] - d)
                if cand <= s[i - 1] + d and (j == k or cand <= r[j]):
                    best = min(best, cand)
            if j > 0 and pos[i, j - 1] < INF and pos[i, j - 1] <= r[j - 1]:
                # pass g-jump j at its own time r_j
                best = min(best, r[j - 1])
            if (
                i > 0
                and j > 0
                and pos[i - 1, j - 1] < INF
                and pos[i - 1, j - 1] <= r[j - 1]
                and abs(s[i - 1] - r[j - 1]) <= d
            ):
                # simultaneous match of f-jump i and g-jump j
                best = min(best, r[j - 1])
            pos[i, j] = best
    return pos[m, k] < INF


def j1_distance(f: CadlagStepPath, g: CadlagStepPath) -> float:
    """Exact J1 distance between step paths: the infimum over time changes
    of max(sup |f(time-changed) - g|, sup time distortion). Computed by
    binary search over the finite candidate set where feasibility can flip."""
    if f.T != g.T:
        raise ValueError("paths must share the domain [0, T]")
    a, b = f.levels(), g.levels()
    s, r = f.jump_times, g.jump_times
    cands = np.abs(a[:, None] - b[None, :]).ravel()
    if len(s) and len(r):
        cands = np.concatenate([cands, np.abs(s[:, None] - r[None, :]).ravel()])
    cands = np.unique(np.concatenate([[0.0], cands]))
    lo, hi = 0, len(cands) - 1
    if _j1_feasible(a, s, b, r, cands[0]):
        return float(cands[0])
    if not _j1_feasible(a, s, b, r, cands[hi]):
        raise RuntimeError("J1 feasibility failed at the maximal candidate")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _j1_feasible(a, s, b, r, cands[mid]):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


# ---------------------------------------------------------------------------
# M1 distance (upper-bound approximation)
# ---------------------------------------------------------------------------


def _completed_graph(path: CadlagStepPath) -> np.ndarray:
    """Vertices of the completed graph polyline: horizontal runs joined by
    vertical fill-ins at jumps. Zero-length edges are dropped."""
    pts = [(0.0, path.initial)]
    v = path.levels()
    for i, t in enumerate(path.jump_times):
        if t > pts[-1][0]:
            pts.append((float(t), float(v[i])))
        if v[i + 1] != v[i]:
            pts.append((float(t), float(v[i + 1])))
    if path.T > pts[-1][0]:
        pts.append((float(path.T), float(v[-1])))
    return np.asarray(pts, dtype=np.float64)


def _sample_polyline(pts: np.ndarray, resolution: int) -> np.ndarray:
    if len(pts) == 1:
        return pts
    seg = np.diff(pts, axis=0)
    lengths = np.maximum(np.abs(seg[:, 0]), np.abs(seg[:, 1]))
    total = lengths.sum()
    if total == 0.0:
        return pts[:1]
    out = [pts[0]]
    for e in range(len(seg)):
        n_e = max(1, int(math.ceil(resolution * lengths[e] / total)))
        for q in range(1, n_e + 1):
            out.append(pts[e] + seg[e] * (q / n_e))
    return np.asarray(out)


def _discrete_frechet(P: np.ndarray, Q: np.ndarray) -> float:
    """Discrete Frechet distance under the Chebyshev metric (Eiter and
    Mannila's coupling recursion), filled by anti-diagonals i + j = k.

    Cell (i, j) reads (i-1, j) and (i, j-1) on diagonal k-1 and (i-1, j-1)
    on diagonal k-2, so one diagonal is a few slice ufuncs. The last two
    diagonals are kept by row index i at offset 1; the slot of row -1 and
    the slots no diagonal has reached hold inf, which the min passes over.
    Only max and min of the pairwise distances are taken, so the value is
    the row-by-row recursion's to the bit.
    """
    n, m = len(P), len(Q)
    px, py = P[:, 0], P[:, 1]
    # reversed, so that j = k - i runs along a contiguous slice as i grows
    qx, qy = Q[::-1, 0], Q[::-1, 1]
    older = np.full(n + 1, np.inf)
    last = np.full(n + 1, np.inf)
    for k in range(n + m - 1):
        # rows lo..hi-1 meet diagonal k; row i reads Q's point k - i
        lo, hi = max(0, k - m + 1), min(k, n - 1) + 1
        r = m - 1 - k
        d = np.maximum(
            np.abs(px[lo:hi] - qx[r + lo : r + hi]),
            np.abs(py[lo:hi] - qy[r + lo : r + hi]),
        )
        if k:
            reach = np.minimum(np.minimum(last[lo:hi], older[lo:hi]), last[lo + 1 : hi + 1])
            np.maximum(d, reach, out=d)
        older[lo + 1 : hi + 1] = d
        older, last = last, older
    return float(last[n])


def m1_distance(f: CadlagStepPath, g: CadlagStepPath, resolution: int = 256) -> float:
    """Upper bound on the M1 distance, tightening as resolution grows.

    The M1 infimum over parametric representations of the completed graphs
    equals the continuous Frechet distance between the two monotone
    polylines under the Chebyshev metric; discretizing and running discrete
    Frechet overshoots by at most one sampling gap.
    """
    if f.T != g.T:
        raise ValueError("paths must share the domain [0, T]")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    P = _sample_polyline(_completed_graph(f), resolution)
    Q = _sample_polyline(_completed_graph(g), resolution)
    return _discrete_frechet(P, Q)
