"""Coset solving and exhaustive-search coding vs brute force."""

import itertools
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcode import cosets
from cosetcode.cosets import (
    BudgetError,
    _product_enumerate,
    _product_trellis,
    fixed_point_metric,
    log_table,
    ml_code_cond_iid,
    ml_code_iid,
    ml_code_product,
    solve_coset,
)
from cosetcode.matrices import (
    SparseMatrix,
    generate_uniform,
    rng_from_seed,
    rref,
)


def brute_solutions(M, t, q, n):
    out = []
    for u in itertools.product(range(q), repeat=n):
        if np.array_equal((M @ np.array(u)) % q, np.asarray(t) % q):
            out.append(u)
    return out


def solve(M, t, q):
    """solve_coset of one system, an array over GF(q)."""
    return solve_coset([(SparseMatrix(q, M), t)])


# -- solving -------------------------------------------------------------------

@pytest.mark.parametrize("q", (2, 3, 5))
def test_solve_matches_brute_force(q):
    rng = rng_from_seed(q)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        l = int(rng.integers(1, 5))
        M = rng.integers(0, q, size=(l, n))
        t = rng.integers(0, q, size=l)
        coset = solve(M, t, q)
        expect = brute_solutions(M, t, q, n)
        if not expect:
            assert coset.empty[0]
            with pytest.raises(ValueError, match="coset is empty"):
                coset.elements()
        else:
            assert coset.size == len(expect)
            got = {tuple(int(x) for x in u) for u in coset.elements()}
            assert got == set(expect)


def test_stacked_constraints():
    A = SparseMatrix(2, [[1, 1, 0]])
    B = SparseMatrix(2, [[0, 1, 1]])
    coset = solve_coset([(A, [1]), (B, [0])])
    for u in coset.elements():
        assert (u[0] + u[1]) % 2 == 1
        assert (u[1] + u[2]) % 2 == 0
    assert coset.size == 2
    M = coset.matrix
    assert np.array_equal(M @ [1, 0, 0] % 2, coset.target[0])
    assert not np.array_equal(M @ [0, 0, 0] % 2, coset.target[0])


def test_inconsistent_system_is_empty():
    A = SparseMatrix(2, [[1, 1]])
    coset = solve_coset([(A, [0]), (A, [1])])
    assert coset.empty[0] and coset.size == 0


def test_budget_error():
    # 2^25 members: over BUDGET, refused before the kernel is formed
    A = SparseMatrix(2, np.zeros((1, 25), dtype=int))
    coset = solve_coset([(A, [0])])
    with pytest.raises(BudgetError, match="coset has 33554432 elements"):
        coset.elements()


def reference_solve(M, t, q):
    """Per-target loop elimination of [M | t], pivots from the last column
    to the first, the reference for the compiled solver: (particular or
    None, basis, reduced rows, elements), elements in itertools.product
    order of the basis coefficients."""
    inv = [0] + [pow(a, q - 2, q) for a in range(1, q)]
    M = np.asarray(M, dtype=np.int64) % q
    rows, n = M.shape
    aug = np.hstack([M, (np.asarray(t, dtype=np.int64) % q)[:, None]])
    r = 0
    pivots = []
    for c in range(n - 1, -1, -1):
        piv = next((i for i in range(r, rows) if aug[i, c] != 0), None)
        if piv is None:
            continue
        aug[[r, piv]] = aug[[piv, r]]
        aug[r] = (aug[r] * inv[aug[r, c]]) % q
        for i in range(rows):
            if i != r and aug[i, c] != 0:
                aug[i] = (aug[i] - aug[i, c] * aug[r]) % q
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for i, c in enumerate(pivots):
            basis[bi, c] = (-aug[i, fc]) % q
    if np.any(aug[r:, n]):
        return None, basis, aug[:r, :n], None
    particular = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        particular[c] = aug[i, n]
    coeffs = np.array(list(itertools.product(range(q), repeat=len(free))),
                      dtype=np.int64)
    return particular, basis, aug[:r, :n], (particular + coeffs @ basis) % q


def assert_matches_reference(coset, M, t, q):
    """`coset` equals a fresh solve and the loop reference for (M, t)."""
    particular, basis, reduced, elements = reference_solve(M, t, q)
    fresh = solve(M, t, q)
    assert np.array_equal(rref(M[:, ::-1], q)[:, ::-1], reduced)
    assert coset.empty[0] == fresh.empty[0] == (particular is None)
    assert np.array_equal(coset.basis, fresh.basis)
    assert np.array_equal(coset.basis, basis)
    if particular is None:
        with pytest.raises(ValueError, match="coset is empty"):
            coset.elements()
        return
    assert np.array_equal(coset.particular[0], particular)
    assert np.array_equal(fresh.particular[0], particular)
    assert np.array_equal(coset.elements(), elements)  # row order included
    assert np.array_equal(fresh.elements(), elements)
    members = [tuple(u) for u in coset.elements().tolist()]
    assert all(a < b for a, b in zip(members, members[1:]))  # lexicographic


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_retarget_matches_fresh_solve(data):
    q = data.draw(st.sampled_from([2, 3, 5]))
    l, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    entries = st.integers(0, q - 1)
    M = np.array(data.draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=l, max_size=l)))
    t0, t = (np.array(data.draw(st.lists(entries, min_size=l, max_size=l)))
             for _ in range(2))
    metric = np.array(data.draw(st.lists(st.integers(-3, 0), min_size=n * q,
                                         max_size=n * q))).reshape(n, q)
    # a block of targets gives each row the coset a fresh solve of its
    # target gives: either index of the block equals that solve, field by
    # field
    batch = solve(M, np.array([t, t0]), q)
    for j, target in enumerate((t, t0)):
        fresh = solve(M, target, q)
        for coset in (batch[j], batch[j - len(batch)]):
            assert len(coset) == len(fresh) == 1
            for f in fields(fresh):
                assert np.array_equal(getattr(coset, f.name),
                                      getattr(fresh, f.name))
            assert_matches_reference(coset, M, target, q)
        # ml_code_iid takes solve_coset's result as it is
        got = ml_code_iid(fresh, metric)
        assert np.array_equal(got, ml_code_iid(batch, metric)[j:j + 1])
        if fresh.empty[0]:
            assert (got == -1).all()
        else:
            assert joined(got[0]) == iid_oracle(fresh, metric)
    with pytest.raises(IndexError):
        batch[len(batch)]
    with pytest.raises(ValueError, match="block of 2 cosets"):
        batch.elements()


@pytest.mark.parametrize("q, M, t0, t, kernel_dim, empty", [
    (3, np.zeros((2, 3), dtype=int), [1, 0], [0, 0], 3, False),  # rank 0
    (5, np.array([[1, 2], [3, 4]]), [0, 0], [4, 1], 0, False),  # kernel 0
    (2, np.array([[1, 1], [1, 1]]), [0, 0], [0, 1], 1, True),  # inconsistent
    (2, np.array([[1, 1], [1, 1]]), [0, 1], [1, 1], 1, False),  # from empty
])
def test_retarget_edge_cases(q, M, t0, t, kernel_dim, empty):
    # coset 1 of a block whose coset 0 has the target t0
    coset = solve(M, [t0, t], q)[1]
    assert coset.basis.shape[0] == kernel_dim
    assert coset.empty[0] == empty
    assert_matches_reference(coset, M, t, q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_members_by_index_are_lexicographic(data):
    # member c is the base-q digits of c (first most significant) times the
    # basis: itertools.product order of the coefficients, lexicographic
    q = data.draw(st.sampled_from([2, 3, 5]))
    k = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(max(k, 1), k + 3))
    entries = st.integers(0, q - 1)
    # a full-rank (n - k, n) system with columns permuted, plus one row that
    # combines the others, so the kernel has dimension k
    R = np.array(data.draw(st.lists(st.lists(
        entries, min_size=k, max_size=k), min_size=n - k, max_size=n - k)),
        dtype=np.int64).reshape(n - k, k)
    M = np.hstack([np.eye(n - k, dtype=np.int64), R])[
        :, data.draw(st.permutations(range(n)))]
    c = np.array(data.draw(st.lists(entries, min_size=n - k,
                                    max_size=n - k)), dtype=np.int64)
    M = np.vstack([M, c @ M % q])
    coset = solve(M, np.zeros(n - k + 1, dtype=int), q)
    assert coset.basis.shape[0] == k and coset.kernel_size == q ** k
    coeffs = np.array(list(itertools.product(range(q), repeat=k)),
                      dtype=np.int64).reshape(q ** k, k)
    want = coeffs @ coset.basis % q
    block = data.draw(st.sampled_from([1, 2, 3, cosets._BLOCK]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cosets, "_BLOCK", block)
        got = coset.members(np.arange(coset.kernel_size))
    assert got.shape == (q ** k, n) and np.array_equal(got, want)
    rows = [tuple(u) for u in got.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    index = np.array(data.draw(st.lists(st.integers(0, q ** k - 1),
                                        max_size=6)), dtype=np.int64)
    assert np.array_equal(coset.members(index), want[index])
    # the low members are the first block, the most that fit in it; member
    # h len(low) + c is high(h) + low[c], and the one-hot rows are low's
    low = coset.low
    assert len(low) <= block < q * len(low) or len(low) == q ** k
    assert np.array_equal(low, want[:len(low)])
    assert np.array_equal(coset.high(np.arange(q ** k // len(low))),
                          want[::len(low)])
    assert np.array_equal(coset.low_onehot.T,
                          np.eye(q)[low].reshape(len(low), -1))


def test_solve_refuses_bad_constraints():
    with pytest.raises(ValueError, match="at least one constraint"):
        solve_coset([])
    with pytest.raises(ValueError, match="disagree on n"):
        solve_coset([(SparseMatrix(2, [[1, 1]]), [1]),
                     (SparseMatrix(2, [[1, 1, 0]]), [0])])
    # one system over GF(2) and GF(3) has no field to eliminate in
    with pytest.raises(ValueError, match="disagree on q"):
        solve_coset([(SparseMatrix(2, [[1, 1]]), [1]),
                     (SparseMatrix(3, [[1, 2]]), [2])])


# -- ML coding ------------------------------------------------------------------

def _full_space(q, n, trials=1):
    Z = SparseMatrix(q, np.zeros((1, n)))  # zero matrix: coset of 0 is everything
    return solve_coset([(Z, np.zeros((trials, 1)))])


def joined(*members):
    return sum((tuple(int(v) for v in m) for m in members), ())


def exact_best(candidates):
    """Brute-force argmax over (terms, member) candidates of an integer
    metric: Python-int sums, -inf below every finite score, ties to the
    smallest member."""
    best = None
    for terms, member in candidates:
        finite = -np.inf not in terms
        key = (finite, sum(int(t) for t in terms) if finite else 0)
        if best is None or key > best[0] or (key == best[0]
                                             and member < best[1]):
            best = (key, member)
    return best[1]


def iid_oracle(coset, rows):
    """Exact ML member for the (n, q) integer metric `rows`."""
    return exact_best(([rows[i, a] for i, a in enumerate(u)], joined(u))
                      for u in coset.elements())


def random_batch(data, q, n, trials):
    """Cosets of one drawn matrix, one per trial; any trial's target may
    make its coset empty."""
    entries = st.integers(0, q - 1)
    l = data.draw(st.integers(1, 3))
    M = np.array(data.draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=l, max_size=l)))
    targets = []
    for _ in range(trials):
        if data.draw(st.booleans()):
            targets.append(data.draw(st.lists(entries, min_size=l, max_size=l)))
        else:
            targets.append(M @ np.array(data.draw(st.lists(
                entries, min_size=n, max_size=n))) % q)
    return solve(M, np.array(targets), q)


def random_metric(data, shape, n):
    """An integer metric table of the given shape."""
    size = int(np.prod(shape))
    if data.draw(st.booleans()):
        # a law with small integer weights: structural zeros and many ties;
        # all-zero weights make every member score -inf
        w = np.array(data.draw(st.lists(st.integers(0, 4), min_size=size,
                                        max_size=size)), dtype=float)
        p = (w / w.sum() if w.sum() else w).reshape(shape)
        return fixed_point_metric(log_table(p), n)
    # an integer-valued table, used as it is
    metric = np.array(data.draw(st.lists(
        st.one_of(st.integers(-3, 0), st.just(-np.inf)),
        min_size=size, max_size=size)), dtype=float).reshape(shape)
    assert fixed_point_metric(metric, n) is metric
    return metric


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_coset_kernel_matches_oracle(data):
    # the batched kernel against exact_best, trial by trial: q in {2, 3, 5},
    # ties, -inf entries, and empty cosets beside non-empty ones in a batch
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, {2: 7, 3: 4, 5: 3}[q]))
    trials = data.draw(st.integers(1, 4))
    batch = random_batch(data, q, n, trials)
    # given axes: none (a shared (q,) or (n, q) metric, or one (n, q) table
    # per trial), one (T, n) index array, or a tuple of two
    given = tuple(data.draw(st.lists(st.sampled_from([2, 3]), max_size=2)))
    if given:
        metric = random_metric(data, given + (q,), n)
        v = tuple(np.array(data.draw(st.lists(
            st.lists(st.integers(0, g - 1), min_size=n, max_size=n),
            min_size=trials, max_size=trials))) for g in given)
        v = v[0] if len(v) == 1 else v
        rows = metric[v]
        got = ml_code_cond_iid(batch, v, metric)
        assert np.array_equal(ml_code_iid(batch, rows), got)
    else:
        lead = data.draw(st.sampled_from([(), (n,), (trials, n)]))
        metric = random_metric(data, lead + (q,), n)
        rows = np.broadcast_to(metric, (trials, n, q))
        got = ml_code_iid(batch, metric)
    assert got.shape == (trials, n)
    for j in range(trials):
        if batch.empty[j]:
            assert (got[j] == -1).all()
        else:
            assert joined(got[j]) == iid_oracle(batch[j], rows[j])


@pytest.mark.parametrize("block", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blocked_search_with_bins_matches_oracle(block, data):
    # one shared code searched by several trials, in blocks of 1, 2 or 3
    # members, with and without bins {u : B u = t_j}: against exact_best
    # over elements(), q in {2, 3, 5}, ties, -inf terms and empty bins.
    # A later block that won a tie would return a larger member
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, {2: 6, 3: 4, 5: 3}[q]))
    trials = data.draw(st.integers(1, 4))
    entries = st.integers(0, q - 1)
    A = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))[None]
    code = solve(A, A @ np.array(data.draw(st.lists(
        entries, min_size=n, max_size=n))) % q, q)
    rows = data.draw(st.integers(1, 2))
    B = SparseMatrix(q, data.draw(st.lists(st.lists(
        entries, min_size=n, max_size=n), min_size=rows, max_size=rows)))
    targets = np.array(data.draw(st.lists(st.lists(
        entries, min_size=rows, max_size=rows), min_size=trials,
        max_size=trials)), dtype=np.int64)
    lead = data.draw(st.sampled_from([(), (n,), (trials, n)]))
    metric = random_metric(data, lead + (q,), n)
    table = np.broadcast_to(metric, (trials, n, q))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cosets, "_BLOCK", block)
        whole = ml_code_iid(code, metric)
        binned = ml_code_iid(code, metric, bins=(B, targets))
    members = code.elements()
    for j in range(trials):
        # without bins or a trial axis, one row serves every trial
        assert joined(whole[min(j, len(whole) - 1)]) == iid_oracle(
            code, table[j])
        in_bin = [u for u in members
                  if np.array_equal(B.matvec(u), targets[j])]
        if not in_bin:
            assert (binned[j] == -1).all()
            continue
        assert joined(binned[j]) == exact_best(
            ([table[j][i, a] for i, a in enumerate(u)], joined(u))
            for u in in_bin)


def test_search_of_no_trials():
    # a batch of no trials, by a metric or by bins, searches nothing
    code = solve(np.array([[1, 1, 0]]), [1], 2)
    assert ml_code_iid(code, np.zeros((0, 3, 2))).shape == (0, 3)
    B = SparseMatrix(2, [[0, 1, 1]])
    assert ml_code_iid(code, np.zeros((3, 2)),
                       bins=(B, np.zeros((0, 1)))).shape == (0, 3)


def test_search_memory_does_not_grow_with_the_coset():
    # one search with bins, of codes of 2**14 to 2**20 members: the peak is
    # set by one block (2**14 members, n q = 48 one-hot columns), so the
    # 2**20-member search stays within a bound and near the one-block peak
    B = SparseMatrix(2, np.eye(24, dtype=int)[:4])
    peaks = []
    for rows in (10, 6, 4):
        code = solve_coset([(SparseMatrix(2, np.eye(24, dtype=int)[:rows]),
                             np.zeros(rows))])
        tracemalloc.start()
        got = ml_code_iid(code, np.zeros((24, 2)),
                          bins=(B, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        # A fixes B u = 0: bin 0 ties everywhere and takes the zero member,
        # bin (1, 0, 0, 0) is empty
        assert got.tolist() == [[0] * 24, [-1] * 24, [0] * 24]
    assert code.kernel_size == 1 << 20
    assert peaks[-1] < 24 << 20 and peaks[-1] < 1.5 * peaks[0], peaks


def _narrow_batch(q, n, trials, seed):
    """Cosets with 3 free positions of a random full-rank system."""
    rng = rng_from_seed(seed)
    M = np.hstack([np.eye(n - 3, dtype=int), rng.integers(0, q, (n - 3, 3))])
    targets = (M @ rng.integers(0, q, (trials, n)).T % q).T
    return solve(M, targets, q)


@pytest.mark.parametrize("q, n", [(2, 64), (3, 40)])
def test_ties_past_float_exact_codes_take_smallest_member(q, n):
    # q**n > 2**53, where no float sum could rank members by an integer
    # code: index order alone must give every trial its smallest tied member
    assert q ** n > 1 << 53
    batch = _narrow_batch(q, n, 5, q)
    metric = np.zeros((5, n, q))  # every member ties
    metric[:2, :, 1:] = -np.inf  # two trials with -inf entries
    got = ml_code_iid(batch, metric)
    for j in range(5):
        assert joined(got[j]) == iid_oracle(batch[j], metric[j])
    # the product: pairs of 2n symbols
    bx, by = _narrow_batch(q, n // 2, 3, 1), _narrow_batch(q, n // 2, 3, 2)
    for metric in (np.zeros((q, q)), np.where(np.eye(q), 0.0, -np.inf)):
        x, y = _product_enumerate(bx, by, metric)
        for j in range(3):
            assert joined(x[j], y[j]) == product_oracle(bx[j], by[j], metric)


def test_ml_iid_matches_brute():
    rng = rng_from_seed(1)
    for q in (2, 3):
        for trial in range(25):
            n = 5
            M = rng.integers(0, q, size=(2, n))
            targets = rng.integers(0, q, size=(4, 2))
            batch = solve(M, targets, q)
            p = rng.random(q)
            metric = fixed_point_metric(np.log2(p / p.sum()), n)
            got = ml_code_iid(batch, metric)
            for j in np.flatnonzero(~batch.empty):
                assert np.array_equal(M @ got[j] % q, targets[j])
                assert joined(got[j]) == iid_oracle(batch[j],
                                                    np.tile(metric, (n, 1)))


def test_ml_iid_uniform_scores_pick_lexicographic_minimum():
    got = ml_code_iid(_full_space(3, 3, trials=2), np.zeros(3))
    assert got.tolist() == [[0, 0, 0]] * 2


def test_ml_iid_positionwise_table():
    metric = np.array([[0.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert ml_code_iid(_full_space(2, 3), metric).tolist() == [[0, 1, 0]]


def test_ml_cond_iid_matches_brute():
    rng = rng_from_seed(2)
    q = 2
    for trial in range(25):
        n = 6
        M = rng.integers(0, q, size=(3, n))
        targets = rng.integers(0, q, size=(4, 3))
        batch = solve(M, targets, q)
        v = rng.integers(0, q, size=(4, n))
        cond = rng.random((q, q))
        cond /= cond.sum(axis=1, keepdims=True)
        metric = fixed_point_metric(np.log2(cond), n)
        got = ml_code_cond_iid(batch, v, metric)
        for j in np.flatnonzero(~batch.empty):
            assert np.array_equal(M @ got[j] % q, targets[j])
            assert joined(got[j]) == iid_oracle(batch[j], metric[v[j]])


def test_ml_empty_cosets_give_minus_one_rows():
    # one matrix, three targets: the middle one is inconsistent
    A = SparseMatrix(2, [[1, 1], [1, 1]])
    batch = solve_coset([(A, [[0, 0], [0, 1], [1, 1]])])
    assert batch.empty.tolist() == [False, True, False]
    assert batch.size == 4  # two members in each non-empty coset
    got = ml_code_iid(batch, np.zeros(2))
    assert got.tolist() == [[0, 0], [-1, -1], [0, 1]]
    v = np.zeros((3, 2), dtype=int)
    assert ml_code_cond_iid(batch, v, np.zeros((2, 2))).tolist() == got.tolist()


def test_kernel_budget_is_checked_before_scoring():
    # 2^25 members: over BUDGET, refused before any table is formed
    A = SparseMatrix(2, np.zeros((1, 25), dtype=int))
    batch = solve_coset([(A, np.zeros((3, 1)))])
    with pytest.raises(BudgetError, match="coset has 33554432 elements"):
        ml_code_iid(batch, np.zeros(2))
    assert not {"low", "low_onehot"} & set(vars(batch))


# -- product ML -------------------------------------------------------------------

def product_oracle(cx, cy, metric):
    """Exact ML pair for the (q_x, q_y) integer metric, ties to the
    smallest (x, y)."""
    return exact_best(([metric[a, b] for a, b in zip(xv, yv)], joined(xv, yv))
                      for xv in cx.elements() for yv in cy.elements())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_paths_match_oracle(data):
    qx, qy = (data.draw(st.sampled_from([2, 3, 5])) for _ in range(2))
    n = data.draw(st.integers(1, {2: 6, 3: 4, 5: 3}[max(qx, qy)]))
    trials = data.draw(st.integers(1, 6))
    bx, by = random_batch(data, qx, n, trials), random_batch(data, qy, n, trials)
    metric = random_metric(data, (qx, qy), n)
    paths = [path(bx, by, metric) for path in (
        _product_enumerate, _product_trellis, ml_code_product)]
    for j in range(trials):
        if bx.empty[j] or by.empty[j]:
            assert all((x[j] == -1).all() and (y[j] == -1).all()
                       for x, y in paths)
            continue
        want = product_oracle(bx[j], by[j], metric)
        assert all(joined(x[j], y[j]) == want for x, y in paths)


def test_product_all_minus_inf_trial_takes_particular_pair():
    # metric -inf off the diagonal; in trial 0 the factors force x_0 != y_0,
    # so all its pairs score -inf and tie; trial 1 scores finite
    bx = solve([[1, 0, 0, 0], [0, 1, 1, 0]], [[0, 1], [0, 1]], 2)
    by = solve([[1, 0, 0, 0], [0, 0, 1, 1]], [[1, 0], [0, 1]], 2)
    metric = fixed_point_metric(log_table([[0.3, 0.0], [0.0, 0.7]]), 4)
    assert bx.particular[0].any() and by.particular[0].any()
    for path in (_product_enumerate, _product_trellis):
        x, y = path(bx, by, metric)
        assert np.array_equal(x[0], bx.particular[0])
        assert np.array_equal(y[0], by.particular[0])
        for j in range(2):
            assert joined(x[j], y[j]) == product_oracle(bx[j], by[j], metric)


def mixed_batches(data, q, n, trials):
    """Cosets of x and y, one pair per trial, that mix every kind of trial.

    x's matrix repeats its first row, so a target that differs there is
    empty; y's matrix is x's with one more row.  Trial j draws u and takes
    x's target from u; by j mod 5, y's target comes from u (0 and 1: x = y = u
    is a pair), from u + e_0 (2: the cosets are disjoint, since row 0 has a 1
    at position 0), or from u with x's (3) or y's (4) repeated row changed
    (an empty factor)."""
    entries = st.integers(0, q - 1)
    rows = data.draw(st.integers(1, min(2, n - 2)))
    R = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=rows + 1, max_size=rows + 1)))
    R[0, 0] = 1
    Mx = np.vstack([R[:rows], R[:1]])
    My = np.vstack([Mx, R[rows:]])
    tx, ty = [], []
    for j in range(trials):
        u = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
        tx.append(Mx @ u % q)
        ty.append(My @ (u + (j % 5 == 2) * np.eye(n, dtype=int)[0]) % q)
        if j % 5 > 2:
            (tx, ty)[j % 5 - 3][-1][rows] += 1
    return (solve(M, np.array(t) % q, q) for M, t in ((Mx, tx), (My, ty)))


@pytest.mark.parametrize("per_block", [None, 1, 2, 8])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trellis_batch_matches_single_trials(per_block, data):
    # off the diagonal the metric is -inf, so a pair scores finite only where
    # x = y: disjoint cosets score -inf throughout; a constant diagonal ties
    # every member of y's coset; blocks hold per_block trials (None: the
    # default room)
    q = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(3, {2: 6, 3: 5, 5: 4}[q]))
    trials = data.draw(st.integers(1, 8))
    bx, by = mixed_batches(data, q, n, trials)
    diagonal = data.draw(st.lists(st.integers(-2, 0), min_size=q, max_size=q))
    metrics = [np.full((q, q), -np.inf) for _ in range(2)]
    np.fill_diagonal(metrics[0], 0.0)
    np.fill_diagonal(metrics[1], diagonal)
    room = cosets._TRELLIS_ROOM if per_block is None else per_block * q * q * (
        q ** (bx.rank + by.rank))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cosets, "_TRELLIS_ROOM", room)
        for metric in metrics:
            x, y = _product_trellis(bx, by, metric)
            for j in range(trials):
                xj, yj = _product_trellis(*(solve(
                    b.matrix, b.target[j:j + 1], q) for b in (bx, by)), metric)
                assert joined(x[j], y[j]) == joined(xj[0], yj[0])
    assert (bx.empty | by.empty).tolist() == [j % 5 > 2 for j in range(trials)]
    if trials > 2:  # the disjoint trial takes its particular pair
        assert np.array_equal(x[2], bx.particular[2])
        assert np.array_equal(y[2], by.particular[2])


def test_ml_product_matches_brute():
    rng = rng_from_seed(6)
    for q in (2, 3):
        for trial in range(20):
            n = 5
            bx, by = (solve(M, t, q)
                      for M, t in ((rng.integers(0, q, size=(2, n)),
                                    rng.integers(0, q, size=(3, 2)))
                                   for _ in range(2)))
            p = rng.random((q, q))
            if trial % 2:
                p[0, 0] = 0.0  # exercise structural zeros
            p /= p.sum()
            L = log_table(p)
            metric = fixed_point_metric(L, n)
            x, y = ml_code_product(bx, by, metric)
            for j in np.flatnonzero(~(bx.empty | by.empty)):
                assert joined(x[j], y[j]) == product_oracle(bx[j], by[j], metric)


def _full_rank_coset(n, rank, seed):
    """One trial's coset of a random full-rank (rank, n) system over GF(2)."""
    rng = rng_from_seed(seed)
    M = np.hstack([np.eye(rank, dtype=int),
                   rng.integers(0, 2, size=(rank, n - rank))])
    return solve(M, M @ rng.integers(0, 2, size=n) % 2, 2)


def test_ml_product_dispatch_by_cost():
    # the trellis runs exactly when its branches are fewer than the pairs
    def unused(*args):
        raise AssertionError("the counts pick the other path")

    for n, rank, trellis in [
        (8, 2, True),  # sw_low_rate.json at n = 8: 4096 pairs, 512 branches
        (16, 14, False),  # rate 0.85: 16 pairs, 2^34 branches
        (4, 1, False),  # 64 pairs, 64 branches: a tie enumerates
    ]:
        bx, by = _full_rank_coset(n, rank, 1), _full_rank_coset(n, rank, 2)
        metric = fixed_point_metric(
            log_table([[0.445, 0.055], [0.055, 0.445]]), n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cosets, "_product_enumerate" if trellis
                       else "_product_trellis", unused)
            x, y = ml_code_product(bx, by, metric)
        assert joined(x[0], y[0]) == product_oracle(bx, by, metric)


def test_ml_product_budget_and_empty():
    # 2^13 members and 2^13 states each: both paths exceed BUDGET = 2^24
    half = SparseMatrix(2, np.hstack(
        [np.eye(13, dtype=int), np.zeros((13, 13), dtype=int)]))
    both = solve_coset([(half, [0] * 13)])
    with pytest.raises(BudgetError, match=r"67108864 pairs and a trellis of "
                                          r"6979321856 branches, budget 16777216"):
        ml_code_product(both, both, np.zeros((2, 2)))
    # rank 0: 2^40 pairs are far over budget, the one-state trellis fits
    big = solve_coset([(SparseMatrix(2, np.zeros((1, 20))), [0])])
    x, y = ml_code_product(big, big, np.zeros((2, 2)))
    assert not x.any() and not y.any()
    # a trial with an empty factor gets -1 rows on either path
    A = SparseMatrix(2, [[1, 1], [1, 1]])
    mixed = solve_coset([(A, [[0, 1], [1, 1]])])
    for path in (ml_code_product, _product_enumerate, _product_trellis):
        x, y = path(mixed, mixed, np.zeros((2, 2)))
        assert x.tolist() == y.tolist() == [[-1, -1], [0, 1]]


def test_fixed_point_bound_at_largest_n():
    # a single pair of length-n int64 sequences at n = 2^40 takes 16 TiB,
    # far past any length a decode can hold in memory
    n = 1 << 40
    for p in ([[0.445, 0.055], [0.055, 0.445]], [[1e-300, 0.5], [0.0, 0.5]],
              [[0.25, 0.25], [0.25, 0.25]]):
        m = fixed_point_metric(log_table(p), n)
        finite = m[np.isfinite(m)]
        assert np.array_equal(finite, np.round(finite))
        assert np.array_equal(np.isfinite(m), np.asarray(p) > 0)
        peak = int(np.abs(finite).max())
        assert n * peak < 1 << 53  # every n-term sum is an exact integer
    # the scale is the largest: doubling it breaks the bound
    m = fixed_point_metric(log_table([[0.445, 0.055], [0.055, 0.445]]), n)
    assert n * (2 * int(np.abs(m).max()) + 1) >= 1 << 53
    with pytest.raises(ValueError):
        fixed_point_metric([[np.inf, 0.0]], n)


# -- log tables -------------------------------------------------------------------

def test_log_table():
    out = log_table([0.5, 0.25, 0.0])
    assert out[0] == -1.0 and out[1] == -2.0 and out[2] == -np.inf
