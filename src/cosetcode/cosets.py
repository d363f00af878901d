"""Coset enumeration and exhaustive-search coding functions over GF(q)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .matrices import gauss_jordan

BUDGET = 1 << 24
# kernel members an enumeration scores at once: the members of a block share
# their high digits, and the one-hot rows of their low digits are formed once
# per coset
_BLOCK = 1 << 14
# entries of the walk arrays of one trellis block, (n + 1 + q_x q_y) S_y a
# trial; the joint values are formed once per call, outside the blocks
_TRELLIS_ROOM = 1 << 16
# the score of a member that takes a -inf term: below every finite score
# (above -2**53, fixed_point_metric) and above the -inf of a member outside
# the searched bin
_DEAD = -2.0 ** 60


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
        check_members(self.kernel_size)

    @cached_property
    def split(self) -> int:
        """Number of high basis coefficients: the others, the low ones, are
        the most whose q**count members fit in one _BLOCK."""
        split = self.basis.shape[0]
        while split and self.q ** (self.basis.shape[0] - split + 1) <= _BLOCK:
            split -= 1
        return split

    @cached_property
    def low(self) -> np.ndarray:
        """The kernel members whose high coefficients are zero, in index
        order: (q**(k - split), n), read-only.  Member h len(low) + c is
        high(h) + low[c] mod q, so a block of len(low) members in index
        order shares one high member."""
        low = _span(self.basis[self.split:], self.q)
        low.setflags(write=False)
        return low

    @cached_property
    def low_onehot(self) -> np.ndarray:
        """Symbol indicators of `low`, (n q, len(low)) float64: entry
        (i q + a, c) is [low[c] has a at position i]; read-only."""
        onehot = (self.low.T[:, None] == np.arange(self.q)[:, None]).reshape(
            -1, len(self.low)).astype(float)
        onehot.setflags(write=False)
        return onehot

    def high(self, h) -> np.ndarray:
        """The kernel members number h len(low), whose low coefficients are
        zero, for an index h or an array of them: the base-q digits of h,
        the first most significant, are their high coefficients."""
        return _digit_sum(h, self.basis[:self.split], self.q)

    def members(self, index) -> np.ndarray:
        """Kernel members number `index`, (len(index), n): the base-q digits
        of an index, the first most significant, are the member's basis
        coefficients, so index order is lexicographic order."""
        h, c = np.divmod(np.asarray(index), len(self.low))
        return _mod_sum(self.high(h), self.low[c], self.q)

    @cached_property
    def steps(self) -> np.ndarray:
        """Trellis sections, read backward from the end: steps[i, a, d] is
        what symbol a at position i leaves of a syndrome d still to collect,
        d less a times column i.  A syndrome is taken by the `rank` reduced
        rows E M and coded as sum_k d_k q**k; for q = 2 a step is the XOR
        with the column code."""
        q = self.q
        states = np.arange(q ** self.rank, dtype=np.int64)
        symbols = np.arange(q, dtype=np.int64)[None, :, None]
        steps = np.zeros((self.n, q, states.size), dtype=np.int64)
        for k, row in enumerate(self.reduced):
            digit = (states // q ** k) % q
            steps += ((digit - symbols * row[:, None, None]) % q) * q ** k
        steps.setflags(write=False)
        return steps

    def elements(self) -> np.ndarray:
        """All members of a block of one as a (kernel_size, n) array, row c
        the particular plus kernel member c, which is lexicographic order."""
        if len(self) != 1:
            raise ValueError(f"elements of a block of {len(self)} cosets")
        if self.empty[0]:
            raise ValueError("coset is empty")
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


def check_members(size: int):
    """BudgetError for a search of a coset of `size` members past BUDGET."""
    if size > BUDGET:
        raise BudgetError(f"coset has {size} elements, budget {BUDGET}")


def _mod_sum(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """(a + b) mod q for entries in [0, q)."""
    out = a + b
    out[out >= q] -= q
    return out


def _digit_sum(h, rows: np.ndarray, q: int) -> np.ndarray:
    """sum_i d_i rows[i] mod q for the base-q digits d of h (an index or an
    array of them), the first most significant."""
    place = q ** np.arange(len(rows) - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(h)[..., None] // place) % q) @ rows % q


def _fold(metric: np.ndarray, lanes: np.ndarray, base: np.ndarray):
    """Rows of a (T, n, q) metric with coset members folded in, (len(lanes),
    n q): entry i q + a of row j is metric[lanes[j], i, (a + base[j, i])
    mod q]."""
    _, n, q = metric.shape
    shift = (np.arange(q) + np.arange(q)[:, None]) % q  # [b, a]: a + b
    return metric[lanes[:, None, None], np.arange(n)[:, None],
                  shift[base]].reshape(len(lanes), n * q)


@functools.cache
def _digits(q: int, count: int) -> np.ndarray:
    """The base-q digits of 0 .. q**count - 1, the first most significant,
    as a read-only (q**count, count) float64 array."""
    digits = np.indices((q,) * count, dtype=float).reshape(
        count, q ** count).T.copy()
    digits.setflags(write=False)
    return digits


def _span(rows: np.ndarray, q: int) -> np.ndarray:
    """Every sum_i d_i rows[i] mod q, (q**len(rows), width), in the order of
    the digits d, the first most significant; the float64 product is exact,
    its sums being at most len(rows) (q - 1)**2."""
    sums = (_digits(q, len(rows)) @ rows).astype(np.int64)
    return (np.arange(len(rows) * (q - 1) ** 2 + 1) % q).take(sums)


def _codes(rows: np.ndarray, q: int) -> np.ndarray:
    """Exact integer codes of the rows of an (N, r) array over GF(q), (N, G):
    code g reads entries g w .. g w + w - 1 as base-q digits, w being
    62 // bit_length(q - 1), so that every code is below 2**62."""
    w = 62 // (q - 1).bit_length()
    place = q ** np.arange(w, dtype=np.int64)
    return np.stack([rows[:, g:g + w] @ place[:rows.shape[1] - g]
                     for g in range(0, rows.shape[1], w)], axis=-1)


def _blocks(rows: np.ndarray, scores_per_trial: int, room: int):
    """Split trial indices into blocks whose score arrays, `scores_per_trial`
    entries a trial, fit in `room` entries (at least one trial a block).

    The memory rule of the enumerations: no array they form grows with the
    coset.  They score members in blocks of at most _BLOCK, each block the
    members that share one high member (CosetDescription.low), whose one-hot
    rows are formed once per coset, and they pass room = _BLOCK n q: a group
    of trials scores a block in no more entries than a full block of one-hot
    rows takes.  The one exception is the product, which forms its y
    members whole, one trial's metric at them and one trial's scores of a
    block of x members against them: at most BUDGET pairs, as the pair
    count is checked (ml_code_product).  The trellis forms its (n + 1) S_x
    S_y joint values once per call, for every trial (_suffix_values), and
    blocks only its walks: (n + 1 + q_x q_y) S_y entries a trial within the
    fixed `_TRELLIS_ROOM`."""
    step = max(1, room // scores_per_trial)
    return [rows[i:i + step] for i in range(0, rows.size, step)]


def _exact_scores(product, terms: np.ndarray) -> np.ndarray:
    """`product(terms)` for a product that sums indicator-selected terms.

    The terms are integers (fixed_point_metric), so every sum is exact in any
    order; -inf terms enter as 0 and are counted in the same product call,
    and any score that takes one is _DEAD."""
    finite = np.isfinite(terms)
    if finite.all():
        return product(terms)
    scores, counts = product(np.stack([np.where(finite, terms, 0.0),
                                       (~finite).astype(float)]))
    scores[counts > 0] = _DEAD
    return scores


def ml_code_iid(cosets: CosetDescription, metric: np.ndarray,
                bins=None) -> np.ndarray:
    """Per trial j, the argmax of sum_i metric[j, i, u_i] over coset j, or
    with bins=(matrix, targets) over the bin {u : matrix u = t_j} of coset
    j, `matrix` a SparseMatrix and `targets` a (T, rows) block.

    The single-coset decoding kernel.  `metric` has shape (q,), (n, q) or
    (T, n, q) and must be integer-valued (fixed_point_metric, -inf allowed),
    so every sum is exact and exact ties go to the lexicographically
    smallest member; it is used as it is.  A block of one coset is searched
    by every trial.  Returns a (T, n) array whose rows are -1 for an empty
    coset or bin; a trial whose members all score -inf takes the first.

    Members are scored in blocks that share one high member (see
    CosetDescription.low), in index order, which is lexicographic order.
    The particular solution p and the high member h are folded into the
    metric (entry a at position i becomes metric[j, i, (a + p_ji + h_i)
    mod q]), so one product with the one-hot rows of `low` scores a block
    for a group of trials; a metric without a trial axis on a block of one
    coset is scored once for all trials.  A bin is read off the codes of
    matrix u, which the basis images under `matrix` give digit by digit.
    A later block takes a trial's best only with a strictly greater score,
    so the first best member wins."""
    cosets.check_budget()
    q, n = cosets.q, cosets.n
    metric = np.asarray(metric)
    sizes = {len(cosets), len(metric) if metric.ndim == 3 else 1}
    if bins is not None:
        matrix, targets = bins
        targets = np.asarray(targets, dtype=np.int64)
        if targets.ndim != 2 or targets.shape[1] != matrix.l:
            raise ValueError("bin targets must be a (trials, rows) block")
        sizes.add(len(targets))
    if len(sizes - {1}) > 1:
        raise ValueError(f"trial counts disagree: {sorted(sizes)}")
    trials = min(sizes - {1}, default=1)
    out = np.full((trials, n), -1, dtype=np.int64)
    copies = trials if len(cosets) == 1 else 1
    live = np.flatnonzero(~cosets.empty.repeat(copies))
    # one score row serves every trial; without bins it is searched once
    shared = metric.ndim < 3 and len(cosets) == 1
    searched = live[:1] if shared and bins is None else live
    if not live.size:
        return out
    low, onehot = cosets.low, cosets.low_onehot
    if metric.ndim == 1:
        metric = np.broadcast_to(metric, (n, q))
    metric = metric.reshape(-1, n, q)
    lanes = np.arange(trials) * (len(metric) > 1)  # a trial's metric row
    p = cosets.particular.repeat(copies, axis=0)
    if bins is not None:
        dense = matrix.dense()
        images = cosets.basis @ dense.T % q  # of the basis, digit by digit
        low_codes = _codes(_span(images[cosets.split:], q), q)
        # member h len(low) + c is in bin j when the image of low[c] is
        # wanted[j] less the image of high member h
        wanted = targets - cosets.particular @ dense.T
    best = np.full(trials, -np.inf)
    for h in range(cosets.kernel_size // len(low)):
        # member 0 of the block is the high member; the first one is zero
        base = _mod_sum(p, cosets.high(h), q) if h else p
        if shared:
            row = _exact_scores(lambda t: t @ onehot,
                                _fold(metric, lanes[:1], base[:1]))
        if bins is not None:
            codes = _codes((wanted - _digit_sum(h, images[:cosets.split], q)
                            if h else wanted) % q, q)
        for rows in _blocks(searched, len(low), _BLOCK * n * q):
            scores = row if shared else _exact_scores(
                lambda t: t @ onehot, _fold(metric, lanes[rows], base[rows]))
            if bins is not None:
                in_bin = (low_codes == codes[rows, None]).all(axis=2)
                scores = np.where(in_bin, scores, -np.inf)
            c = scores.argmax(axis=1)
            take = scores.max(axis=1) > best[rows]
            won = rows[take]
            best[won] = scores[take, c[take]]
            out[won] = _mod_sum(base[won], low[c[take]], q)
    if searched.size < live.size:
        out[live] = out[searched]
    return out


def ml_code_cond_iid(cosets: CosetDescription, v, metric: np.ndarray,
                     bins=None) -> np.ndarray:
    """Per trial j, argmax_u sum_i metric[v_ji, u_i]: ml_code_iid on the rows
    metric[v], with its `bins`; `v` is one (T, n) index array, or a tuple of
    them for several given axes."""
    return ml_code_iid(cosets, np.asarray(metric)[v], bins)


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


def _end_states(coset: CosetDescription) -> np.ndarray:
    """Each trial's reduced target in the trellis code of `steps`: the
    syndrome its whole word collects, the pivot values of its particular
    solution."""
    return coset.particular[:, coset.pivots] @ coset.q ** np.arange(coset.rank)


def _suffix_values(coset_x: CosetDescription, coset_y: CosetDescription,
                   metric: np.ndarray) -> np.ndarray:
    """The backward pass of the product trellis, one for every trial of the
    two blocks: W[i, d_x, d_y], (n + 1, S_x, S_y), is the best score of the
    suffixes from cut i whose partial syndromes are (d_x, d_y), -inf where
    no suffix has them.

    A syndrome trellis is translation invariant: the suffixes that lead from
    state (s, t) to a trial's end state (e_x, e_y) are exactly those whose
    syndromes are (e_x - s, e_y - t), digit by digit mod q.  So the best
    suffix of any trial from any state is a value of W, and W needs no trial
    axis."""
    (qx, qy), n = metric.shape, coset_x.n
    steps_x, steps_y = coset_x.steps, coset_y.steps
    W = np.full((n + 1, steps_x.shape[2], steps_y.shape[2]), -np.inf)
    W[n, 0, 0] = 0.0
    sym_x, branch = np.arange(qx)[:, None], metric[:, None, :, None]
    for i in range(n - 1, -1, -1):
        # [a, d_x, d_y]: max_b metric[a, b] + W[i + 1] at what (a, b) leave
        # of (d_x, d_y); then the max over a
        max_b = (branch + W[i + 1][:, steps_y[i]]).max(axis=2)
        np.max(max_b[sym_x, steps_x[i]], axis=0, out=W[i])
    return W


def _product_trellis(coset_x: CosetDescription, coset_y: CosetDescription,
                     metric: np.ndarray):
    """Exact ML pair of every trial on Wolf's syndrome trellis of its product
    coset; returns (x, y), each (T, n), rows -1 where a factor is empty.

    The joint state is the pair of partial syndromes; a trial ends in the
    codes of its reduced targets, the pivot values of its particular
    solutions.  One backward pass serves every trial (_suffix_values), so
    the call holds (n + 1) S_x S_y values once.  The walks run per block of
    trials, in difference coordinates, the syndromes a trial has still to
    collect, which index W directly: a forward walk takes, at each
    position, the smallest x symbol that some ML pair continues, tracking
    the best prefix value of every y difference beside the one x difference
    of the fixed x prefix; a last trellis over y alone, x fixed, takes the
    smallest y.  A block holds as many trials as keep their walk arrays,
    (n + 1 + q_x q_y) S_y entries a trial, within _TRELLIS_ROOM.  A trial
    whose pairs all score -inf takes its particular solutions, zero at
    every free column: member 0 of each factor, the smallest pair.
    `metric` must be integral (fixed_point_metric), so the value
    comparisons are exact."""
    (qx, qy), n, trials = metric.shape, coset_x.n, len(coset_x)
    x, y = (np.full((trials, n), -1, dtype=np.int64) for _ in range(2))
    live = np.flatnonzero(~(coset_x.empty | coset_y.empty))
    if not live.size:
        return x, y
    W = _suffix_values(coset_x, coset_y, metric)
    steps_x, steps_y, sy = coset_x.steps, coset_y.steps, W.shape[2]
    into_y = steps_y[:, (-np.arange(qy)) % qy]  # [i, b, d]: d + b column i
    ends_x, ends_y = _end_states(coset_x), _end_states(coset_y)
    for rows in _blocks(live, (n + 1 + qx * qy) * sy, _TRELLIS_ROOM):
        j = np.arange(rows.size)
        best = W[0, ends_x[rows], ends_y[rows], None]
        # a fixed x prefix leaves one x difference; prefix[j, d] is the best
        # value of the y prefixes that leave y difference d beside it
        left = ends_x[rows]
        prefix = np.full((rows.size, sy), -np.inf)
        prefix[j, ends_y[rows]] = 0.0
        xb, yb = (np.empty((rows.size, n), dtype=np.int64) for _ in range(2))
        for i in range(n):
            nxt = steps_x[i][:, left].T  # (j, a)
            # [j, a, d]: best prefix leaving d with x_i = a; y_i = b leaves d
            # of the difference d + b column i
            cand = (metric[..., None] + prefix[:, None, into_y[i]]).max(axis=2)
            xb[:, i] = ((cand + W[i + 1][nxt]).max(axis=2) == best).argmax(
                axis=1)
            left, prefix = nxt[j, xb[:, i]], cand[j, xb[:, i]]
        table = metric[xb]  # (j, i, b)
        suffix = np.full((n + 1, rows.size, sy), -np.inf)
        suffix[n, :, 0] = 0.0
        for i in range(n - 1, -1, -1):
            suffix[i] = (table[:, i, :, None]
                         + suffix[i + 1][:, steps_y[i]]).max(axis=1)
        left = ends_y[rows]
        for i in range(n):
            nxt = steps_y[i][:, left].T  # (j, b)
            yb[:, i] = (table[:, i] + suffix[i + 1][j[:, None], nxt]
                        == suffix[i, j, left][:, None]).argmax(axis=1)
            left = nxt[j, yb[:, i]]
        dead = rows[best[:, 0] == -np.inf]
        x[rows], y[rows] = xb, yb
        x[dead], y[dead] = coset_x.particular[dead], coset_y.particular[dead]
    return x, y


def _product_enumerate(coset_x: CosetDescription, coset_y: CosetDescription,
                       metric: np.ndarray):
    """Exact ML pair of every trial by scoring every pair of its product
    coset; returns (x, y), each (T, n), rows -1 where a factor is empty.

    A trial's scores are sum_a [x = a] . metric[a, y], the one-hot rows of
    a block of x members against the metric at every y member, both
    particular solutions and the block's high x member folded in.  Pair
    (c_x, c_y) has flat index c_x |Y| + c_y, and index order is
    lexicographic order of each factor; the blocks run in x order, and a
    later block takes a trial's best only with a strictly greater score, so
    the first best index is the smallest ML pair (x first)."""
    (qx, qy), n, trials = metric.shape, coset_x.n, len(coset_x)
    x, y = (np.full((trials, n), -1, dtype=np.int64) for _ in range(2))
    live = np.flatnonzero(~(coset_x.empty | coset_y.empty))
    low, onehot = coset_x.low, coset_x.low_onehot.T.copy()  # a row a member
    ky = coset_y.members(np.arange(coset_y.kernel_size))
    sy = len(ky)
    for rows in _blocks(live, (n * qx + len(low)) * sy, _BLOCK * n * qx):
        j = np.arange(rows.size)
        best = np.full(rows.size, -np.inf)
        ys = (coset_y.particular[rows][:, None, :] + ky) % qy  # [j, c, i]
        for h in range(coset_x.kernel_size // len(low)):
            base = _mod_sum(coset_x.particular[rows], coset_x.high(h), qx)
            xs = (base[:, :, None] + np.arange(qx)) % qx  # [j, i, a]: x symbol
            table = metric[xs[..., None], ys.transpose(0, 2, 1)[:, :, None, :]]
            scores = _exact_scores(lambda t: onehot @ t, table.reshape(
                rows.size, n * qx, sy)).reshape(rows.size, -1)
            c = scores.argmax(axis=1)
            take = scores[j, c] > best
            cx, cy = np.divmod(c[take], sy)
            best[take] = scores[j, c][take]
            x[rows[take]] = _mod_sum(base[take], low[cx], qx)
            y[rows[take]] = ys[j[take], cy]
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
