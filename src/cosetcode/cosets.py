"""Coset enumeration and exhaustive-search coding functions over GF(q)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .matrices import gauss_jordan

BUDGET = 1 << 24
# entries of the (T, q_x, S_x, q_y, S_y) relax array of one trellis block
_TRELLIS_ROOM = 1 << 16


class EmptyCosetError(Exception):
    """The constraint system has no solution."""


class BudgetError(Exception):
    """Enumeration would exceed the element budget."""


@dataclass(eq=False)
class CosetDescription:
    """The cosets {u : M u = t_j} over GF(q) of one stacked matrix M, one per
    row j of a (T, rows) block of targets.

    Coset j is `particular[j]` plus the kernel of M, or empty when `empty[j]`
    (its particular row is then zero).  Pivots are taken from the last column
    to the first, so each basis row starts at its own free column and is
    zero at the other free columns, and a particular solution is zero at
    every free column: a member's values at the free columns are its basis
    coefficients, and the index order of the members is their lexicographic
    order.
    """

    q: int
    matrix: np.ndarray  # (rows, n) stacked constraint matrix M
    pivots: np.ndarray  # pivot columns, one per reduced row
    basis: np.ndarray  # (k, n) kernel basis rows
    reduced: np.ndarray  # (rank, n) reduced rows E M, E the row operations
    particular: np.ndarray  # (T, n)
    empty: np.ndarray  # (T,) bool
    target: np.ndarray  # (T, rows) stacked targets

    def __len__(self) -> int:
        return self.empty.size

    def __getitem__(self, j) -> "CosetDescription":
        """Coset j as a block of one."""
        j = range(len(self))[j]
        return replace(self, particular=self.particular[j:j + 1],
                       empty=self.empty[j:j + 1], target=self.target[j:j + 1])

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def rank(self) -> int:
        return self.pivots.size

    @property
    def kernel_size(self) -> int:
        """Members of each non-empty coset: q**k for a k-dimensional kernel."""
        return self.q ** self.basis.shape[0]

    @property
    def size(self) -> int:
        """Members of all the non-empty cosets of the block together."""
        return int(np.count_nonzero(~self.empty)) * self.kernel_size

    def check_budget(self):
        if self.kernel_size > BUDGET:
            raise BudgetError(
                f"coset has {self.kernel_size} elements, budget {BUDGET}")

    def members(self, index) -> np.ndarray:
        """Kernel members number `index`, (len(index), n): the base-q digits
        of an index, the first most significant, are the member's basis
        coefficients, so index order is lexicographic order."""
        k = self.basis.shape[0]
        place = self.q ** np.arange(k - 1, -1, -1, dtype=np.int64)
        digits = (np.asarray(index)[:, None] // place) % self.q
        return (digits @ self.basis) % self.q

    @cached_property
    def onehot(self) -> np.ndarray:
        """Symbol indicators of the kernel members, (kernel_size, n q)
        float64: column i q + a of row c is [member c has a at position i]."""
        self.check_budget()
        size = self.kernel_size
        onehot = np.eye(self.q).take(self.members(np.arange(size)),
                                     axis=0).reshape(size, -1)
        onehot.setflags(write=False)
        return onehot

    @cached_property
    def steps(self) -> np.ndarray:
        """Trellis sections: steps[i, a, s] is the state reached from partial
        syndrome s by symbol a at position i.  A state is the partial syndrome
        of the `rank` reduced rows E M, coded as sum_k s_k q**k; for q = 2 a
        step is the XOR with the column code."""
        q = self.q
        states = np.arange(q ** self.rank, dtype=np.int64)
        symbols = np.arange(q, dtype=np.int64)[None, :, None]
        steps = np.zeros((self.n, q, states.size), dtype=np.int64)
        for k, row in enumerate(self.reduced):
            digit = (states // q ** k) % q
            steps += ((digit + symbols * row[:, None, None]) % q) * q ** k
        steps.setflags(write=False)
        return steps

    def elements(self) -> np.ndarray:
        """All members of a block of one as a (kernel_size, n) array, row c
        the particular plus kernel member c, which is lexicographic order."""
        if len(self) != 1:
            raise ValueError(f"elements of a block of {len(self)} cosets")
        if self.empty[0]:
            raise EmptyCosetError("coset is empty")
        self.check_budget()
        members = self.members(np.arange(self.kernel_size))
        return (self.particular[0] + members) % self.q


def solve_coset(constraints) -> CosetDescription:
    """Gaussian elimination on stacked (SparseMatrix, target) constraints of
    one q; returns the block of cosets of the targets, each one vector that
    every trial shares or a (T, rows) block of one row per trial (T = 1 if
    none is)."""
    if not constraints:
        raise ValueError("need at least one constraint")
    q, n = constraints[0][0].q, constraints[0][0].n
    mats, targets = [], []
    for m, t in constraints:
        t = np.asarray(t, dtype=np.int64)
        if t.ndim not in (1, 2) or t.shape[-1] != m.l:
            raise ValueError("target length does not match row count")
        if m.n != n:
            raise ValueError("constraint matrices disagree on n")
        if m.q != q:
            raise ValueError("constraint matrices disagree on q")
        mats.append(m.dense())
        targets.append(t)
    M = np.vstack(mats)
    rows = M.shape[0]
    trials = max((len(t) for t in targets if t.ndim == 2), default=1)
    t = np.hstack([np.broadcast_to(t, (trials, t.shape[-1]))
                   for t in targets]) % q
    # eliminate [M reversed | I], pivots last column first; the right block
    # accumulates the row operations E, and E t is a target's reduced
    # right-hand side: its first `rank` entries are the pivot values of the
    # particular solution, and the others are zero exactly when the system
    # is consistent
    aug = np.zeros((rows, n + rows), dtype=np.int64)
    aug[:, :n] = M[:, ::-1]
    np.fill_diagonal(aug[:, n:], 1)
    pivots = n - 1 - np.array(gauss_jordan(aug, q, ncols=n), dtype=np.int64)
    rank = pivots.size
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-aug[:rank, n - 1 - free].T) % q
    rhs = (t @ aug[:, n:].T) % q
    empty = rhs[:, rank:].any(axis=1)
    particular = np.zeros((trials, n), dtype=np.int64)
    particular[:, pivots] = rhs[:, :rank]
    particular[empty] = 0
    return CosetDescription(q, M, pivots, basis, aug[:rank, :n][:, ::-1],
                            particular, empty, t)


def _blocks(rows: np.ndarray, scores_per_trial: int, room: int):
    """Split trial indices into blocks whose score arrays, `scores_per_trial`
    entries a trial, fit in `room` entries (at least one trial a block).

    The enumeration callers pass the entries of the element arrays that
    enumeration used to build per trial, so a block's scores take no more
    memory; the trellis passes the fixed `_TRELLIS_ROOM`."""
    step = max(1, room // scores_per_trial)
    return [rows[i:i + step] for i in range(0, rows.size, step)]


def _exact_scores(product, terms: np.ndarray) -> np.ndarray:
    """`product(terms)` for a product that sums indicator-selected terms.

    The terms are integers (fixed_point_metric), so every sum is exact in any
    order; -inf terms enter as 0 and are counted in the same product call,
    and any score that takes one is -inf."""
    finite = np.isfinite(terms)
    if finite.all():
        return product(terms)
    scores, counts = product(np.stack([np.where(finite, terms, 0.0),
                                       (~finite).astype(float)]))
    scores[counts > 0] = -np.inf
    return scores


def ml_code_iid(cosets: CosetDescription, metric: np.ndarray) -> np.ndarray:
    """Per trial j, the argmax of sum_i metric[j, i, u_i] over coset j.

    The single-coset decoding kernel.  `metric` has shape (q,), (n, q) or
    (T, n, q) and must be integer-valued (fixed_point_metric, -inf allowed),
    so every sum is exact and exact ties go to the lexicographically
    smallest member; it is used as it is.  Returns a (T, n) array whose rows
    for empty cosets are -1.

    Each trial's particular solution p is folded into its metric (entry a at
    position i becomes metric[j, i, (a + p_i) mod q]), so one product with
    the one-hot kernel scores every member of a block of cosets.  Index
    order is lexicographic order, so the first best index is the smallest ML
    member."""
    cosets.check_budget()
    q, n, trials = cosets.q, cosets.n, len(cosets)
    out = np.full((trials, n), -1, dtype=np.int64)
    live = np.flatnonzero(~cosets.empty)
    if not live.size:
        return out
    onehot, size = cosets.onehot, cosets.kernel_size
    p = cosets.particular[live]
    # column i q + a of trial j takes table[i, (a + p_ji) mod q]
    columns = ((p[:, :, None] + np.arange(q)) % q
               + q * np.arange(n)[:, None]).reshape(live.size, n * q)
    folded = np.broadcast_to(metric, (trials, n, q)).reshape(trials, n * q)[
        live[:, None], columns]
    for rows in _blocks(np.arange(live.size), size, size * n):
        scores = _exact_scores(lambda t: t @ onehot.T, folded[rows])
        out[live[rows]] = (p[rows] + cosets.members(scores.argmax(axis=1))) % q
    return out


def ml_code_cond_iid(cosets: CosetDescription, v,
                     metric: np.ndarray) -> np.ndarray:
    """Per trial j, argmax_u sum_i metric[v_ji, u_i]: ml_code_iid on the rows
    metric[v]; `v` is one (T, n) index array, or a tuple of them for several
    given axes."""
    return ml_code_iid(cosets, np.asarray(metric)[v])


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


def _product_trellis(coset_x: CosetDescription, coset_y: CosetDescription,
                     metric: np.ndarray):
    """Exact ML pair of every trial on Wolf's syndrome trellis of its product
    coset; returns (x, y), each (T, n), rows -1 where a factor is empty.

    The joint state is the pair of partial syndromes; a trial ends in the
    codes of its reduced targets, the pivot values of its particular
    solutions.  There is one walk per block of trials (value arrays with a
    leading trial axis): a backward pass gives the best suffix value of every
    state; a forward walk then takes, at each position, the smallest x
    symbol that some ML pair continues, tracking the best prefix value of
    every y state beside the one x state of the fixed x prefix; a last
    trellis over y alone, x fixed, takes the smallest y.  A trial whose pairs
    all score -inf takes its particular solutions, zero at every free column:
    member 0 of each factor, the smallest pair.  `metric` must be integral
    (fixed_point_metric), so the value comparisons are exact."""
    (qx, qy), n, trials = metric.shape, coset_x.n, len(coset_x)
    x, y = (np.full((trials, n), -1, dtype=np.int64) for _ in range(2))
    steps_x, steps_y = coset_x.steps, coset_y.steps
    sx, sy = steps_x.shape[2], steps_y.shape[2]
    ends_x, ends_y = (c.particular[:, c.pivots] @ c.q ** np.arange(c.rank)
                      for c in (coset_x, coset_y))
    sym_x, branch = np.arange(qx)[:, None], metric[:, None, :, None]
    into_y = steps_y[:, (-np.arange(qy)) % qy]  # [i, b, t]: state b takes to t
    live = np.flatnonzero(~(coset_x.empty | coset_y.empty))
    for rows in _blocks(live, qx * qy * sx * sy, _TRELLIS_ROOM):
        j = np.arange(rows.size)
        value = np.full((n + 1, rows.size, sx, sy), -np.inf)
        value[n, j, ends_x[rows], ends_y[rows]] = 0.0
        for i in range(n - 1, -1, -1):
            # [j, a, s, t]: max_b metric[a, b] + value[i + 1][j] at the state
            # that (a, b) leads (s, t) to; then the max over a
            max_b = (branch + value[i + 1][:, None, :, steps_y[i]]).max(axis=3)
            np.max(max_b[:, sym_x, steps_x[i]], axis=1, out=value[i])
        best = value[0, :, 0, 0, None]
        # a fixed x prefix ends in one x state; prefix[j, t] is the best value
        # of the y prefixes that end in y state t beside it
        state = np.zeros(rows.size, dtype=np.int64)
        prefix = np.full((rows.size, sy), -np.inf)
        prefix[:, 0] = 0.0
        xb, yb = (np.empty((rows.size, n), dtype=np.int64) for _ in range(2))
        for i in range(n):
            nxt = steps_x[i][:, state].T  # (j, a)
            # [j, a, t]: best prefix ending in y state t with x_i = a
            cand = (metric[..., None] + prefix[:, None, into_y[i]]).max(axis=2)
            xb[:, i] = ((cand + value[i + 1][j[:, None], nxt]).max(axis=2)
                        == best).argmax(axis=1)
            state, prefix = nxt[j, xb[:, i]], cand[j, xb[:, i]]
        table = metric[xb]  # (j, i, b)
        suffix = np.full((n + 1, rows.size, sy), -np.inf)
        suffix[n, j, ends_y[rows]] = 0.0
        cand_y = np.empty((n, rows.size, qy, sy))  # [i, j, b, t]
        for i in range(n - 1, -1, -1):
            cand_y[i] = table[:, i, :, None] + suffix[i + 1][:, steps_y[i]]
            suffix[i] = cand_y[i].max(axis=1)
        state = np.zeros(rows.size, dtype=np.int64)
        for i in range(n):
            yb[:, i] = np.argmax(cand_y[i][j, :, state]
                                 == suffix[i, j, state][:, None], axis=1)
            state = steps_y[i][yb[:, i], state]
        dead = rows[best[:, 0] == -np.inf]
        x[rows], y[rows] = xb, yb
        x[dead], y[dead] = coset_x.particular[dead], coset_y.particular[dead]
    return x, y


def _product_enumerate(coset_x: CosetDescription, coset_y: CosetDescription,
                       metric: np.ndarray):
    """Exact ML pair of every trial by scoring every pair of its product
    coset; returns (x, y), each (T, n), rows -1 where a factor is empty.

    A trial's scores are sum_a [x = a] . metric[a, y], one product of the
    one-hot kernel of x against the metric at the y members, both particular
    solutions folded in.  Pair (c_x, c_y) has flat index c_x |Y| + c_y, and
    index order is lexicographic order of each factor, so the first best
    index is the smallest ML pair (x first)."""
    (qx, qy), n, trials = metric.shape, coset_x.n, len(coset_x)
    x, y = (np.full((trials, n), -1, dtype=np.int64) for _ in range(2))
    live = np.flatnonzero(~(coset_x.empty | coset_y.empty))
    sx, sy = coset_x.kernel_size, coset_y.kernel_size
    onehot, ky = coset_x.onehot, coset_y.members(np.arange(sy))
    for rows in _blocks(live, sx * sy, (sx + sy) * n):
        px, py = coset_x.particular[rows], coset_y.particular[rows]
        xs = (px[:, :, None] + np.arange(qx)) % qx  # [j, i, a]: x symbol
        ys = (py[:, None, :] + ky) % qy  # [j, c, i]: y member c
        table = metric[xs[..., None], ys.transpose(0, 2, 1)[:, :, None, :]]
        scores = _exact_scores(lambda t: onehot @ t, table.reshape(
            rows.size, n * qx, sy)).reshape(rows.size, -1)
        cx, cy = np.divmod(scores.argmax(axis=1), sy)
        x[rows] = (px + coset_x.members(cx)) % qx
        y[rows] = ys[np.arange(rows.size), cy]
    return x, y


def ml_code_product(coset_x: CosetDescription, coset_y: CosetDescription,
                    metric: np.ndarray):
    """Per trial j, the joint argmax of sum_i metric[x_i, y_i] over the
    product of coset_x[j] and coset_y[j]; returns (x, y), each (T, n), rows
    -1 where a factor coset is empty.

    `metric` must be integer-valued (fixed_point_metric, -inf allowed), so
    the ML pair is exact and exact ties go to the lexicographically smallest
    (x, y); it is used as it is.  The pairs come from the syndrome trellis
    when its n q_x^(rank_x + 1) q_y^(rank_y + 1) branches a trial are fewer
    than the |X| |Y| pairs, and from enumeration of the pairs otherwise; both
    give the same pairs, and the smaller count must be within BUDGET."""
    pairs = coset_x.kernel_size * coset_y.kernel_size
    branches = (coset_x.n * coset_x.q ** (coset_x.rank + 1)
                * coset_y.q ** (coset_y.rank + 1))
    if min(pairs, branches) > BUDGET:
        raise BudgetError(f"product has {pairs} pairs and a trellis of "
                          f"{branches} branches, budget {BUDGET}")
    path = _product_trellis if branches < pairs else _product_enumerate
    return path(coset_x, coset_y, metric)


def log_table(p) -> np.ndarray:
    """Elementwise log2 with log(0) mapped to -inf."""
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, -np.inf)
    np.log2(p, out=out, where=p > 0)
    return out
