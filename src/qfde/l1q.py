"""The L1,q difference formula on the geometric mesh.

The mesh 0 = t_0 < t_1 < ... < t_N = b with t_k = b q^(N-k) lives on the
time scale; the discrete fractional operator is

    D^alpha x^n  ~=  (1/Gamma_q(1-alpha)) * sum_k b_k (x^k - x^{k-1}),

with weights b_k = (1/dt_k) int_{t_{k-1}}^{t_k} (t_n - qs)^(-alpha) d_q s.
On this mesh every weight is t_n^(-alpha) times a number that depends
only on q, alpha and the distance n - k (Gasper & Rahman, *Basic
Hypergeometric Series*, 2nd ed., ch. 1):

    b_k(n) = t_n^(-alpha) G(n-k)  for k >= 2,    b_1(n) = t_n^(-alpha) S(n),
    G(m)   = (q^(m+1); q)_inf / (q^(m+1-alpha); q)_inf,
    S(n)   = (1-q) sum_{i>=0} q^i G(n-1+i)  (the Jackson series of b_1),

and Gamma_q(1-alpha) = G(0) (1-q)^alpha.  :func:`weight_table` builds G, S
and the gaps D of G for every distance at once from downward recurrences,
so one table serves every node of every mesh with that q and alpha, its
Gamma_q, and the lattice operators of :mod:`qfde.qfrac`: at s = t q^j,
(t - q s)^(-alpha) = t^(-alpha) G(j), and D(j) weighs f(s) in the RL
derivative.  The solver, :func:`coefficients`, :func:`l1q_apply` and those
operators read the TABLES_KEPT most recently used (q, alpha) tables of one
store per process, each only the prefix it names (an operator T(q) entries).
A table is never written after it is built, and its slices equal fresh
builds bit for bit, so no call's values depend on the calls before it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityError
from .qcore import QScale, _check_q, tail_terms


@dataclass(frozen=True)
class QMesh:
    """Geometric partition of [0, b]; immutable after construction."""

    scale: QScale
    N: int
    nodes: np.ndarray   # t_0 .. t_N, with t_0 = 0 exactly
    steps: np.ndarray   # dt_1 .. dt_N

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.steps.setflags(write=False)


@dataclass(frozen=True)
class WeightTable:
    """The weights of the geometric mesh in units of t_n^(-alpha).

    For a target node n <= len(G):

        b_k(n)           = t_n^(-alpha) G[n-k]   (2 <= k <= n),
        b_1(n)           = t_n^(-alpha) S[n],
        b_{k+1} - b_k    = t_n^(-alpha) D[n-k]   (2 <= k < n).

    Arrays are indexed by distance m or node n directly; S[0] and D[0]
    are unused.
    """

    q: float
    alpha: float
    G: np.ndarray   # G[m], m = 0..size-1
    D: np.ndarray   # D[m] = G[m-1] - G[m], m = 1..size-1
    S: np.ndarray   # S[n], n = 1..size

    def __post_init__(self):
        for a in (self.G, self.D, self.S):
            a.setflags(write=False)

    @property
    def gamma(self) -> float:
        """Gamma_q(1-alpha) = G(0) (1-q)^alpha."""
        return float(self.G[0]) * (1.0 - self.q) ** self.alpha


def build_mesh(scale: QScale, N: int) -> QMesh:
    """Mesh t_0 = 0, t_k = b q^(N-k) for k = 1..N.

    Raises ValueError once t_1 = b q^(N-1) underflows, that is, once the
    nodes stop increasing strictly in double precision.
    """
    if N < 1:
        raise ValueError(f"mesh needs N >= 1, got {N}")
    k = np.arange(1, N + 1)
    nodes = np.concatenate(([0.0], scale.b * scale.q ** (N - k).astype(float)))
    steps = np.diff(nodes)
    if not np.all(steps > 0.0):
        # nodes[1:] holds b q^j for j = N-1 .. 0; the mesh of size N' uses
        # the last N' of them, so the limit is the run of strictly
        # decreasing positive values from the top.
        top = nodes[:0:-1]
        limit = int(np.flatnonzero((top[1:] >= top[:-1]) | (top[1:] <= 0.0))[0]) + 1
        raise ValueError(
            f"mesh node t_1 = b*q^(N-1) underflows at q={scale.q!r}, "
            f"b={scale.b!r}: N={N} exceeds the limit N <= {limit}")
    return QMesh(scale=scale, N=N, nodes=nodes, steps=steps)


def weight_table(q: float, alpha: float, size: int) -> WeightTable:
    """G, D and S of :class:`WeightTable` for target nodes n <= size.

    One downward pass from a tail index M = max(size, T), where
    T = :func:`~qfde.qcore.tail_terms` (q^T <= 1e-14), runs the recurrences

        G(m-1) = G(m) (1-q^m)/(1-q^(m-alpha)),  that is G(m-1) = G(m) + D(m),
        D(m)   = G(m) q^m (q^(-alpha)-1)/(1-q^(m-alpha)),
        S(n)   = (1-q) G(n-1) + q S(n+1),

    carrying G - 1 and D in units of q^m and S - 1 in units of q^(n-1).
    Each is then a sum of positive terms, free of cancellation (expm1 forms
    q^(-alpha) - 1 and 1 - q^(m-alpha)), and of order 1, so none underflows
    where q^m does.  The pass starts from the leading terms of the tail
    sums, whose relative error is O(q^M) <= 1e-14; each enters its weight
    scaled by q^m, so it stays below an ulp of every entry, and a larger
    table holds the same entries bit for bit (tested on both sides of T).

    The strict chain t_n^(-alpha) < b_1 < b_2 < ... < b_n is asserted on
    the scaled values as a corruption detector: S - 1 > 0 is the first
    link and D > 0 the links from b_2 on.  b_1 < b_2 needs no check of
    its own: S(n) = (1-q) sum_i q^i G(n-1+i) is a weighted average of
    G(n-1), G(n), ..., which decrease, so S(n) <= G(n-1) < G(n-2).
    """
    _check_q(q)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must be in (0, 1), got {alpha}")
    if size < 1:
        raise ValueError(f"weight table needs size >= 1, got {size}")
    M = max(size, tail_terms(q))
    # Only the powers span the tail (16 bytes per term).  The scaled values
    # are written into the three arrays returned, and scaled back in place.
    qm = np.arange(M + 1, dtype=float)
    den = qm - alpha
    np.negative(np.expm1(np.multiply(den, math.log(q), out=den), out=den), out=den)
    np.power(q, qm, out=qm)
    c = math.expm1(-alpha * math.log(q))    # q^-alpha - 1, not 0 for tiny alpha
    qq = q * q
    G = np.zeros(size)        # (G(m) - 1)/q^m
    D = np.zeros(size + 1)    # D(m)/q^m
    S = np.zeros(size + 1)    # (S(n) - 1)/q^(n-1)
    g, d, e = map(memoryview, (G, D, S))
    g_m = c * q / (1.0 - q)
    e_m = c * q / (1.0 - qq)
    for m, q_m, den_m in zip(range(M, 0, -1), memoryview(qm)[M:0:-1],
                             memoryview(den)[M:0:-1]):
        d_m = (1.0 + q_m * g_m) * c / den_m
        g_m = q * (g_m + d_m)
        e_m = (1.0 - q) * g_m + qq * e_m
        if m <= size:
            d[m], g[m - 1], e[m] = d_m, g_m, e_m
    D = D[:size]
    if not (np.all(D[1:] > 0.0) and np.all(S[1:] > 0.0)):
        raise MonotonicityError(
            f"weight chain t_n^-alpha < b_1 < ... < b_n violated for "
            f"q={q!r}, alpha={alpha!r} (check the truncation tolerance)")
    G *= qm[:size]
    G += 1.0
    D[1:] *= qm[1:size]
    S[1:] *= qm[:size]
    S[1:] += 1.0
    return WeightTable(q=q, alpha=alpha, G=G, D=D, S=S)


# Weight tables kept per process, keyed on (q, alpha), least recently used
# first; each reader takes only the prefix it names (an operator T(q)).  The
# solver workloads of the benchmark use four keys; lattice-ops keeps two per
# q live (the Caputo derivative's alpha and the integral's 1 - alpha), six
# per round.  The three bounds read Gamma_q off the kept table too, so one
# at a new (q, alpha) keeps a size-1 table that may evict another; qcore's
# Gamma_q builds its own size-1 table and never touches the store.  A table
# takes 24 bytes per entry (7 KB at N = 300, 0.77 MB at T(0.999) = 32,221).
TABLES_KEPT = 4
_tables: dict = {}
_tables_lock = threading.Lock()


def _table(q: float, alpha: float, size: int) -> WeightTable:
    """The kept weight table of (q, alpha), with at least size entries.

    A miss builds one of the given size; a kept table that is too small is
    rebuilt at max(size, twice its size), so a run of growing requests
    builds O(log N) tables.  Every reader takes only the first size entries:
    N for a solve, T(q) for a lattice operator (past which G = 1 to REL_TOL).
    """
    key = (q, alpha)
    with _tables_lock:
        table = _tables.pop(key, None)
        if table is None or len(table.G) < size:
            table = weight_table(q, alpha, size if table is None
                                 else max(size, 2 * len(table.G)))
        _tables[key] = table    # now the most recently used
        while len(_tables) > TABLES_KEPT:
            del _tables[next(iter(_tables))]
    return table


def coefficients(mesh: QMesh, n: int, alpha: float) -> np.ndarray:
    """Weights b_1 .. b_n for target node n, as a read-only array.

    Read off the kept weight table of (q, alpha) and scaled by
    t_n^(-alpha); the table asserts the strict chain
    t_n^(-alpha) < b_1 < ... < b_n.
    """
    if not 1 <= n <= mesh.N:
        raise ValueError(f"target index must satisfy 1 <= n <= {mesh.N}, got {n}")
    table = _table(mesh.scale.q, alpha, n)
    weights = mesh.nodes[n] ** (-alpha) * np.concatenate(([table.S[n]], table.G[:n - 1][::-1]))
    weights.setflags(write=False)
    return weights


def l1q_apply(samples: np.ndarray, mesh: QMesh, alpha: float):
    """Apply the difference formula to samples x^0 .. x^n (componentwise).

    Returns (1/Gamma_q(1-alpha)) * sum_k b_k (x^k - x^{k-1}) at node
    n = len(samples) - 1, with the weights and Gamma_q read off the kept
    (q, alpha) table.
    """
    samples = np.asarray(samples, dtype=float)
    weights = coefficients(mesh, samples.shape[0] - 1, alpha)
    out = (np.tensordot(weights, np.diff(samples, axis=0), axes=(0, 0))
           / _table(mesh.scale.q, alpha, 1).gamma)
    return float(out) if np.ndim(out) == 0 else out


def _check_m2(m2: float) -> None:
    if not m2 >= 0.0:
        raise ValueError(f"m2 must not be NaN or negative, got {m2}")
    if m2 == math.inf:
        raise ValueError(f"m2 must be finite, got {m2}")


def truncation_bound(mesh: QMesh, n: int, alpha: float, m2: float) -> float:
    """Remainder bound for the difference formula at node n.

    |R^n| <= m2 * t_n^(-alpha) * dt_n^2 /
             (4 Gamma_q(1-alpha) (1 - q^2) (q^alpha - q)),
    where m2 bounds |D_q^2 x| on [0, t_n]; Gamma_q is the kept table's.
    """
    _check_m2(m2)
    if not 1 <= n <= mesh.N:
        raise ValueError(f"target index must satisfy 1 <= n <= {mesh.N}, got {n}")
    q = mesh.scale.q
    t_n = mesh.nodes[n]
    dt_n = mesh.steps[n - 1]
    return (m2 * t_n ** (-alpha) * dt_n ** 2
            / (4.0 * _table(q, alpha, 1).gamma * (1.0 - q * q) * (q ** alpha - q)))
