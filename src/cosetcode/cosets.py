"""Coset enumeration and exhaustive-search coding functions over GF(q)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrices import gauss_jordan

BUDGET = 1 << 24


class EmptyCosetError(Exception):
    """The constraint system has no solution."""


class BudgetError(Exception):
    """Enumeration would exceed the element budget."""


@dataclass(eq=False)
class Elimination:
    """The target-free half of solving {u : M u = t} over GF(q).

    Pivot choice and row operations depend on M alone, so one elimination
    serves every target: `transform` (E) maps a target t to the reduced
    right-hand side E t, whose first `rank` entries are the pivot values of
    the particular solution and whose remaining entries are zero exactly
    when the system is consistent.
    """

    q: int
    matrix: np.ndarray  # stacked constraint matrix
    transform: np.ndarray  # (rows, rows) row operations E
    pivots: np.ndarray  # pivot columns, one per reduced row
    basis: np.ndarray  # (k, n) kernel basis rows
    _kernel: object = field(default=None, repr=False)
    _steps: object = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def rank(self) -> int:
        return self.pivots.size

    def kernel(self) -> np.ndarray:
        """All c @ basis mod q, rows in itertools.product order of c; cached."""
        if self._kernel is None:
            k = self.basis.shape[0]
            place = self.q ** np.arange(k - 1, -1, -1, dtype=np.int64)
            coeffs = (np.arange(self.q ** k, dtype=np.int64)[:, None]
                      // place) % self.q
            kernel = (coeffs @ self.basis) % self.q
            kernel.setflags(write=False)
            self._kernel = kernel
        return self._kernel

    def coset(self, target) -> "CosetDescription":
        """The solution set for one target vector."""
        t = np.asarray(target, dtype=np.int64).reshape(-1) % self.q
        if t.shape[0] != self.matrix.shape[0]:
            raise ValueError("target length does not match row count")
        reduced = (self.transform @ t) % self.q
        particular = None
        if not np.any(reduced[self.rank:]):
            particular = np.zeros(self.n, dtype=np.int64)
            particular[self.pivots] = reduced[:self.rank]
        return CosetDescription(particular, t, self)


@dataclass
class CosetDescription:
    """Solution set of stacked linear constraints {u : M u = t} over GF(q)."""

    particular: object  # ndarray, or None when the coset is empty
    target: np.ndarray  # stacked target vector
    elimination: Elimination
    _elements: object = field(default=None, repr=False)

    @property
    def q(self) -> int:
        return self.elimination.q

    @property
    def n(self) -> int:
        return self.elimination.n

    @property
    def matrix(self) -> np.ndarray:
        return self.elimination.matrix

    @property
    def basis(self) -> np.ndarray:
        return self.elimination.basis

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def size(self) -> int:
        return 0 if self.is_empty else self.q ** self.basis.shape[0]

    def retarget(self, target) -> "CosetDescription":
        """The coset of the same matrix for another target, without a new
        elimination; the same target gives back this coset."""
        t = np.asarray(target, dtype=np.int64).reshape(-1) % self.q
        if np.array_equal(t, self.target):
            return self
        return self.elimination.coset(t)

    def elements(self) -> np.ndarray:
        """All coset members as a (size, n) array, particular + kernel in
        itertools.product order of the basis coefficients; cached."""
        if self.is_empty:
            raise EmptyCosetError("coset is empty")
        if self.size > BUDGET:
            raise BudgetError(f"coset has {self.size} elements, budget {BUDGET}")
        if self._elements is None:
            out = (self.particular[None, :] + self.elimination.kernel()) % self.q
            out.setflags(write=False)
            self._elements = out
        return self._elements


def _dense_of(m) -> np.ndarray:
    return m.dense() if hasattr(m, "dense") else np.asarray(m, dtype=np.int64)


def solve_coset(constraints, q: int | None = None) -> CosetDescription:
    """Gaussian elimination on stacked (matrix, target) constraints.

    The result's `retarget` reuses the elimination for other targets."""
    if not constraints:
        raise ValueError("need at least one constraint")
    if q is None:
        q = getattr(constraints[0][0], "q", None)
        if q is None:
            raise ValueError("q must be given for plain-array constraints")
    mats, targets = [], []
    n = None
    for m, t in constraints:
        d = _dense_of(m) % q
        t = np.asarray(t, dtype=np.int64).reshape(-1) % q
        if d.shape[0] != t.shape[0]:
            raise ValueError("target length does not match row count")
        if n is None:
            n = d.shape[1]
        elif d.shape[1] != n:
            raise ValueError("constraint matrices disagree on n")
        mats.append(d)
        targets.append(t)
    M = np.vstack(mats).astype(np.int64)
    rows = M.shape[0]
    # eliminate [M | I]: the right block accumulates the row operations E
    aug = np.hstack([M, np.eye(rows, dtype=np.int64)])
    pivots = gauss_jordan(aug, q, ncols=n)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-aug[:len(pivots), free].T) % q
    pivots = np.array(pivots, dtype=np.int64)
    elim = Elimination(q, M, aug[:, n:].copy(), pivots, basis)
    return elim.coset(np.concatenate(targets))


def _argbest_lex(elements: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Row with maximal score; exact score ties broken by smallest row."""
    best = scores.max()
    cand = elements[scores == best]
    order = np.lexsort(cand.T[::-1])
    return cand[order[0]].copy()


def ml_code_iid(coset: CosetDescription, metric: np.ndarray) -> np.ndarray:
    """argmax of sum_i metric[i, u_i] over the coset; metric has shape (q,)
    or (n, q).

    The single-coset decoding kernel.  `metric` must be integer-valued
    (fixed_point_metric, -inf allowed), so every sum is exact and exact ties
    go to the lexicographically smallest member; it is used as it is."""
    elems = coset.elements()
    metric = np.asarray(metric)
    if metric.ndim == 1:
        scores = metric[elems].sum(axis=1)
    else:
        # u_i sits at flat index i q + u_i of the (n, q) table
        flat = elems + metric.shape[1] * np.arange(coset.n)
        scores = metric.ravel()[flat].sum(axis=1)
    return _argbest_lex(elems, scores)


def ml_code_cond_iid(coset: CosetDescription, v, metric: np.ndarray) -> np.ndarray:
    """argmax_u sum_i metric[v_i, u_i]: ml_code_iid on the rows metric[v];
    `v` is one index array, or a tuple of them for several given axes."""
    return ml_code_iid(coset, np.asarray(metric)[v])


def fixed_point_metric(log_joint, n: int) -> np.ndarray:
    """Exact integer form of a log-likelihood table for sums of n entries.

    Finite entries become round(L * 2**s), integer-valued float64 (-inf
    stays -inf), with s the largest scale at which n times the largest
    magnitude stays below 2**53: every sum of n entries is then an exact
    integer, in
    any order, so ties are exact and no summation order decides.  A table
    that is already integer-valued within that bound is returned as it is:
    its sums are exact, and a power-of-two scale changes no comparison.
    """
    table = np.asarray(log_joint, dtype=float)
    if np.isnan(table).any() or (table == np.inf).any():
        raise ValueError("log-likelihoods must be finite or -inf")
    finite = table[np.isfinite(table)]
    peak = float(np.abs(finite).max()) if finite.size else 0.0
    if np.array_equal(finite, np.round(finite)) and n * int(peak) < 1 << 53:
        return table
    # the bound surely holds one below this s, and surely fails one above
    s = math.floor(math.log2((1 << 53) / n - 0.5) - math.log2(peak)) + 1
    while True:
        out = np.round(np.ldexp(table, s))
        if n * int(np.abs(out[np.isfinite(out)]).max()) < 1 << 53:
            return out
        s -= 1


def _syndrome_steps(elim: Elimination) -> np.ndarray:
    """Trellis sections of one factor, cached: steps[i, a, s] is the state
    reached from partial syndrome s by symbol a at position i.

    A state is the partial syndrome of the `rank` reduced rows E M, coded
    as sum_k s_k q**k; for q = 2 a step is the XOR with the column code."""
    if elim._steps is None:
        q, n, rank = elim.q, elim.n, elim.rank
        reduced = (elim.transform[:rank] @ elim.matrix) % q  # (rank, n)
        states = np.arange(q ** rank, dtype=np.int64)
        symbols = np.arange(q, dtype=np.int64)[None, :, None]
        steps = np.zeros((n, q, states.size), dtype=np.int64)
        for k in range(rank):
            digit = (states // q ** k) % q
            steps += ((digit + symbols * reduced[k][:, None, None]) % q) * q ** k
        steps.setflags(write=False)
        elim._steps = steps
    return elim._steps


def _final_state(coset: CosetDescription) -> int:
    """Code of the reduced target: the pivot values of the particular."""
    place = coset.q ** np.arange(coset.elimination.rank, dtype=np.int64)
    return int(coset.particular[coset.elimination.pivots] @ place)


def _product_trellis(coset_x: CosetDescription, coset_y: CosetDescription,
                     metric: np.ndarray):
    """Exact ML pair on Wolf's syndrome trellis of the product coset.

    The joint state is the pair of partial syndromes.  A backward pass gives
    the best suffix value of every state; a forward walk then takes, at each
    position, the smallest x symbol that some ML pair continues, tracking the
    best prefix value of every state over the free y prefix; a last trellis
    over y alone, x fixed, takes the smallest y.  `metric` must be integral
    (fixed_point_metric), so the value comparisons are exact."""
    qx, qy = metric.shape
    n = coset_x.n
    steps_x = _syndrome_steps(coset_x.elimination)
    steps_y = _syndrome_steps(coset_y.elimination)
    end_x, end_y = _final_state(coset_x), _final_state(coset_y)
    sym_x = np.arange(qx)[:, None]
    branch = metric[:, None, :, None]  # (a, ., b, .)

    def relax(values, shift_x, shift_y):
        # [a][s, t] = max_b metric[a, b] + values[shift_x[a, s], shift_y[b, t]]
        best_b = (branch + values[:, shift_y][None]).max(axis=2)
        return best_b[sym_x, shift_x]

    value = np.full((n + 1, steps_x.shape[2], steps_y.shape[2]), -np.inf)
    value[n, end_x, end_y] = 0.0
    for i in range(n - 1, -1, -1):
        value[i] = relax(value[i + 1], steps_x[i], steps_y[i]).max(axis=0)
    best = value[0, 0, 0]
    if best == -np.inf:
        # every pair scores -inf: all tie, so the smallest pair wins
        return _product_trellis(coset_x, coset_y, np.zeros_like(metric))
    back_x, back_y = (-np.arange(qx)) % qx, (-np.arange(qy)) % qy
    prefix = np.full(value.shape[1:], -np.inf)
    prefix[0, 0] = 0.0
    x = np.zeros(n, dtype=np.int64)
    for i in range(n):
        # [a][s, t]: best prefix ending in (s, t) with x_i = a
        cand = relax(prefix, steps_x[i][back_x], steps_y[i][back_y])
        live = (cand + value[i + 1]).max(axis=(1, 2)) == best
        x[i] = np.argmax(live)
        prefix = cand[x[i]]
    rows = metric[x][:, :, None]  # (i, b, .)
    suffix = np.full((n + 1, steps_y.shape[2]), -np.inf)
    suffix[n, end_y] = 0.0
    for i in range(n - 1, -1, -1):
        suffix[i] = (rows[i] + suffix[i + 1][steps_y[i]]).max(axis=0)
    y = np.zeros(n, dtype=np.int64)
    state = 0
    for i in range(n):
        nxt = steps_y[i][:, state]
        y[i] = np.argmax(rows[i][:, 0] + suffix[i + 1][nxt] == suffix[i, state])
        state = nxt[y[i]]
    return x, y


def _product_enumerate(coset_x: CosetDescription, coset_y: CosetDescription,
                       metric: np.ndarray):
    """Exact ML pair by scoring every pair of the product coset.

    The scores are sum_a [x = a] . metric[a, y], one matrix product of the
    symbol indicators of x against the metric rows at y.  The terms are
    integers (fixed_point_metric), so the products and sums are exact in any
    order; positions where the metric is -inf are counted by a second
    product, and a pair with any such position scores -inf."""
    ex = coset_x.elements()
    ey = coset_y.elements()
    # columns indexed by (position i, symbol a), on both sides of the product
    onehot = (ex[:, :, None] == np.arange(metric.shape[0])).reshape(
        ex.shape[0], -1).astype(float)

    def product(table):
        return onehot @ table.T[ey].reshape(ey.shape[0], -1).T

    finite = np.isfinite(metric)
    scores = product(np.where(finite, metric, 0.0))
    if not finite.all():
        scores[product((~finite).astype(float)) > 0] = -np.inf
    xi, yi = np.nonzero(scores == scores.max())
    pairs = np.hstack([ex[xi], ey[yi]])
    first = np.lexsort(pairs.T[::-1])[0]
    return ex[xi[first]].copy(), ey[yi[first]].copy()


# dispatch cost model, in the time the enumeration path takes per pair (about
# 10 ns on a 2-core VM): a trellis branch costs about as much (8-10 ns), and
# each trellis position adds a fixed numpy overhead of about 60 us
TRELLIS_SECTION = 6000


def product_costs(coset_x: CosetDescription, coset_y: CosetDescription):
    """(pairs, branches) of a product decode: the |X| |Y| pairs the
    enumeration path scores, and the n q_x^rank_x q_y^rank_y q_x q_y
    branches the trellis path relaxes."""
    states = (coset_x.q ** coset_x.elimination.rank
              * coset_y.q ** coset_y.elimination.rank)
    return (coset_x.size * coset_y.size,
            coset_x.n * states * coset_x.q * coset_y.q)


def ml_code_product(coset_x: CosetDescription, coset_y: CosetDescription,
                    metric: np.ndarray):
    """Joint argmax of sum_i metric[x_i, y_i] over a product of cosets.

    `metric` must be integer-valued (fixed_point_metric, -inf allowed), so
    the ML pair is exact and exact ties go to the lexicographically smallest
    (x, y); it is used as it is.  The pair comes from enumeration (at most
    BUDGET pairs) or from the syndrome trellis (at most BUDGET branches),
    whichever the cost model rates cheaper; both give the same pair."""
    if coset_x.is_empty or coset_y.is_empty:
        raise EmptyCosetError("a factor coset is empty")
    pairs, branches = product_costs(coset_x, coset_y)
    if pairs > BUDGET and branches > BUDGET:
        raise BudgetError(f"product has {pairs} pairs and a trellis of "
                          f"{branches} branches, budget {BUDGET}")
    trellis = pairs > BUDGET or (
        branches <= BUDGET
        and branches + coset_x.n * TRELLIS_SECTION < pairs)
    if trellis:
        return _product_trellis(coset_x, coset_y, metric)
    return _product_enumerate(coset_x, coset_y, metric)


def log_table(p) -> np.ndarray:
    """Elementwise log2 with log(0) mapped to -inf."""
    p = np.asarray(getattr(p, "p", p), dtype=float)
    out = np.full(p.shape, -np.inf)
    np.log2(p, out=out, where=p > 0)
    return out
