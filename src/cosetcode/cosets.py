"""Coset enumeration and exhaustive-search coding functions over GF(q)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import gauss_jordan
from .types_lab import cond_empirical, cond_type_divergence

DEFAULT_BUDGET = 1 << 24


class EmptyCosetError(Exception):
    """The constraint system has no solution."""


class BudgetError(Exception):
    """Enumeration would exceed the configured element budget."""


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

    def contains(self, u) -> bool:
        u = np.asarray(u, dtype=np.int64) % self.q
        return bool(np.all((self.matrix @ u) % self.q == self.target))

    def retarget(self, target) -> "CosetDescription":
        """The coset of the same matrix for another target, without a new
        elimination; the same target gives back this coset."""
        t = np.asarray(target, dtype=np.int64).reshape(-1) % self.q
        if np.array_equal(t, self.target):
            return self
        return self.elimination.coset(t)

    def elements(self, budget: int = DEFAULT_BUDGET) -> np.ndarray:
        """All coset members as a (size, n) array, particular + kernel in
        itertools.product order of the basis coefficients; cached."""
        if self.is_empty:
            raise EmptyCosetError("coset is empty")
        if self.size > budget:
            raise BudgetError(f"coset has {self.size} elements, budget {budget}")
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


def ml_code(coset: CosetDescription, score, budget: int = DEFAULT_BUDGET):
    """argmax of an arbitrary score over the coset (lexicographic ties).

    `score` maps a vector to any totally ordered value (float log-probability
    or exact Fraction); exact values make tie detection exact.
    """
    if coset.is_empty:
        raise EmptyCosetError("coset is empty")
    best_s = None
    best_u = None
    for u in coset.elements(budget):
        s = score(u)
        key = tuple(int(x) for x in u)
        if best_s is None or s > best_s or (s == best_s and key < tuple(best_u)):
            best_s, best_u = s, key
    return np.array(best_u, dtype=np.int64)


def ml_code_iid(coset: CosetDescription, logp: np.ndarray,
                budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """argmax of a memoryless log-likelihood; logp has shape (q,) or (n, q)."""
    elems = coset.elements(budget)
    logp = np.asarray(logp, dtype=float)
    if logp.ndim == 1:
        scores = logp[elems].sum(axis=1)
    else:
        scores = logp[np.arange(coset.n)[None, :], elems].sum(axis=1)
    return _argbest_lex(elems, scores)


def ml_code_cond_iid(coset: CosetDescription, v, logp_cond: np.ndarray,
                     budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """argmax_u sum_i log mu(u_i | v_i); logp_cond indexed [v, u]."""
    v = np.asarray(v, dtype=np.int64)
    elems = coset.elements(budget)
    scores = np.asarray(logp_cond, dtype=float)[v[None, :], elems].sum(axis=1)
    return _argbest_lex(elems, scores)


def md_code(coset: CosetDescription, v, cond_mu, budget: int = DEFAULT_BUDGET):
    """Coset member whose conditional type is divergence-closest to mu_{U|V}."""
    if coset.is_empty:
        raise EmptyCosetError("coset is empty")
    cond_mu = np.asarray(cond_mu, dtype=float)
    qv, qu = cond_mu.shape
    v = np.asarray(v, dtype=np.int64)
    best = None
    for u in coset.elements(budget):
        d = cond_type_divergence(cond_empirical(u, v, qu, qv), cond_mu)
        key = tuple(int(x) for x in u)
        if best is None or d < best[0] or (d == best[0] and key < best[1]):
            best = (d, key)
    return np.array(best[1], dtype=np.int64)


def ml_code_product(coset_x: CosetDescription, coset_y: CosetDescription,
                    log_joint: np.ndarray, budget: int = DEFAULT_BUDGET):
    """Joint argmax of sum_i log mu(x_i, y_i) over a product of cosets."""
    if coset_x.is_empty or coset_y.is_empty:
        raise EmptyCosetError("a factor coset is empty")
    if coset_x.size * coset_y.size > budget:
        raise BudgetError(
            f"product has {coset_x.size * coset_y.size} elements, budget {budget}")
    ex = coset_x.elements(budget)
    ey = coset_y.elements(budget)
    log_joint = np.asarray(log_joint, dtype=float)
    qx, qy = log_joint.shape
    n = coset_x.n
    # score(x, y) = sum_{a,b} L[a,b] * #{i : x_i=a, y_i=b}; the count
    # matrices have fixed margins, so the score is affine in the
    # (qx-1)(qy-1) leading counts, each a single indicator matmul
    cnt_x = np.stack([(ex == a).sum(axis=1) for a in range(qx)]).astype(float)
    cnt_y = np.stack([(ey == b).sum(axis=1) for b in range(qy)]).astype(float)
    ind_x = [(ex == a).astype(float) for a in range(qx - 1)]
    ind_y = [(ey == b).astype(float).T for b in range(qy - 1)]
    if np.all(np.isfinite(log_joint)):
        k = (log_joint[:-1, :-1] - log_joint[:-1, -1:]
             - log_joint[-1:, :-1] + log_joint[-1, -1])
        scores = None
        for a in range(qx - 1):
            for b in range(qy - 1):
                if k[a, b] == 0.0:
                    continue
                term = ind_x[a] @ (k[a, b] * ind_y[b])
                scores = term if scores is None else np.add(scores, term,
                                                            out=scores)
        row = (log_joint[:, -1] - log_joint[-1, -1]) @ cnt_x
        row += n * log_joint[-1, -1]
        col = (log_joint[-1, :] - log_joint[-1, -1]) @ cnt_y
        if scores is None:
            scores = np.add.outer(row, col)
        else:
            np.add(scores, row[:, None], out=scores)
            np.add(scores, col[None, :], out=scores)
    else:
        # structural zeros: materialize every count matrix and mask
        counts = {}
        for a in range(qx - 1):
            for b in range(qy - 1):
                counts[a, b] = ind_x[a] @ ind_y[b]
        for a in range(qx - 1):
            counts[a, qy - 1] = cnt_x[a][:, None] - sum(
                counts[a, b] for b in range(qy - 1))
        for b in range(qy - 1):
            counts[qx - 1, b] = cnt_y[b][None, :] - sum(
                counts[a, b] for a in range(qx - 1))
        counts[qx - 1, qy - 1] = cnt_x[qx - 1][:, None] - sum(
            counts[qx - 1, b] for b in range(qy - 1))
        scores = np.zeros((ex.shape[0], ey.shape[0]))
        blocked = None
        for (a, b), c in counts.items():
            if log_joint[a, b] == 0.0:
                continue
            if np.isfinite(log_joint[a, b]):
                scores += log_joint[a, b] * c
            else:
                blocked = (c > 0) if blocked is None else (blocked | (c > 0))
        if blocked is not None:
            scores[blocked] = -np.inf
    best = scores.max()
    xi, yi = np.nonzero(scores == best)
    pairs = np.hstack([ex[xi], ey[yi]])
    k = np.lexsort(pairs.T[::-1])[0]
    return ex[xi[k]].copy(), ey[yi[k]].copy()


def log_table(p, floor: float = -np.inf) -> np.ndarray:
    """Elementwise log2 with log(0) mapped to -inf (or a floor)."""
    p = np.asarray(getattr(p, "p", p), dtype=float)
    out = np.full(p.shape, floor)
    np.log2(p, out=out, where=p > 0)
    return out
