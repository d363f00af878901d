"""Sparse matrices: generation law, products, rank, serialization."""

import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcode.diagnostics import enumerate_mackay
from cosetcode.matrices import (
    EnsembleParams,
    SparseMatrix,
    Streams,
    derive_seed,
    draw_streams,
    gauss_jordan,
    generate_mackay,
    generate_uniform,
    philox_keys,
    recommended_tau,
    rng_from_seed,
    rref,
    sample_image_point,
)


# -- parameter validation ------------------------------------------------------

def test_params_reject_odd_tau_for_q2():
    with pytest.raises(ValueError):
        EnsembleParams(q=2, l=2, n=2, tau=3)


def test_params_warn_odd_tau_for_q3():
    with pytest.warns(UserWarning):
        EnsembleParams(q=3, l=2, n=2, tau=3)


@pytest.mark.parametrize("bad", [{"l": 0}, {"n": 0}, {"tau": 0},
                                 {"xi": 0.0}, {"xi": 1.0}])
def test_params_reject_out_of_range(bad):
    kwargs = dict(q=3, l=2, n=2, tau=2)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        EnsembleParams(**kwargs)


# -- construction semantics ----------------------------------------------------

def test_duplicate_entries_sum_mod_q():
    # entries 1 + 2 at (0,0) cancel in GF(3) and print as a bare column
    m = SparseMatrix(3, [[1 + 2, 0], [0, 2]])
    assert np.array_equal(m.dense(), [[0, 0], [0, 2]])
    assert m.to_text() == "3 2 2\ncol 0\ncol 1 (1,2)\n"


def test_from_dense_roundtrip():
    dense = np.array([[1, 0, 2], [0, 2, 1]])
    m = SparseMatrix(3, dense)
    assert np.array_equal(m.dense(), dense)
    # entries are reduced mod q into a read-only copy
    m = SparseMatrix(3, dense - 3)
    assert np.array_equal(m.dense(), dense) and m.dense().dtype == np.int64
    with pytest.raises(ValueError):
        m.dense()[0, 0] = 2


@pytest.mark.parametrize("q, dense", [(4, [[1]]), (2, [1, 0]),
                                      (2, np.zeros((0, 3))),
                                      (2, np.zeros((2, 0))),
                                      (2, np.zeros((1, 1, 1)))],
                         ids=["non-prime", "1-d", "no-rows", "no-columns",
                              "3-d"])
def test_constructor_rejects(q, dense):
    with pytest.raises(ValueError):
        SparseMatrix(q, dense)


def listed_entries(text: str):
    """The header (q, l, n) of a `to_text` listing and its {(row, col):
    value} entries."""
    header, *lines = text.splitlines()
    listed = {}
    for line in lines:
        _, i, *entries = line.split()
        for tok in entries:
            r, v = (int(x) for x in tok.strip("()").split(","))
            listed[(r, int(i))] = v
    return tuple(int(x) for x in header.split()), listed


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5]),
       st.integers(1, 5), st.integers(1, 6))
def test_text_roundtrip(seed, q, l, n):
    # the listing determines the matrix
    for m in (generate_uniform(q, l, n, seed),
              generate_mackay(EnsembleParams(q=q, l=l, n=n, tau=4), seed)):
        (q_, l_, n_), listed = listed_entries(m.to_text())
        dense = np.zeros((l_, n_), dtype=np.int64)
        for (r, i), v in listed.items():
            dense[r, i] = v
        assert SparseMatrix(q_, dense) == m


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5]),
       st.integers(1, 5), st.integers(1, 6))
def test_dense_sparse_agree(seed, q, l, n):
    m = generate_uniform(q, l, n, seed)
    assert SparseMatrix(q, m.dense()) == m
    # the column-sparse listing names exactly the nonzero entries
    dense = m.dense()
    assert listed_entries(m.to_text())[1] == {
        (int(r), int(i)): int(dense[r, i]) for r, i in zip(*np.nonzero(dense))}


# -- products ------------------------------------------------------------------

def test_matvec_matches_generic_gf2():
    rng = rng_from_seed(3)
    for q in (2, 3, 5):
        for _ in range(100):
            m = generate_uniform(q, 5, 9, int(rng.integers(2**32)))
            u = rng.integers(-q, 2 * q, size=9)
            assert np.array_equal(m.matvec(u), (m.dense() @ u) % q)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_matvec_linearity(q):
    rng = rng_from_seed(11)
    tau = 2 if q == 2 else 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = EnsembleParams(q=q, l=4, n=7, tau=tau)
    for s in range(30):
        m = generate_mackay(params, s)
        u = rng.integers(0, q, size=7)
        v = rng.integers(0, q, size=7)
        c = int(rng.integers(1, q)) if q > 2 else 1
        lhs = m.matvec((u + c * v) % q)
        rhs = (m.matvec(u) + c * m.matvec(v)) % q
        assert np.array_equal(lhs, rhs)


def test_matvec_rejects_wrong_length():
    m = generate_uniform(2, 2, 4, 0)
    with pytest.raises(ValueError):
        m.matvec([1, 0])


# -- rank / rref ---------------------------------------------------------------

def test_rank_identity_and_zero():
    eye = SparseMatrix(2, np.eye(4, dtype=int))
    assert eye.rank_and_image()[0] == 4
    zero = SparseMatrix(3, np.zeros((2, 3)))
    assert zero.rank_and_image()[0] == 0


def test_rank_known_example():
    # second row is twice the first over GF(5)
    m = SparseMatrix(5, [[1, 2, 3], [2, 4, 6]])
    rank, basis = m.rank_and_image()
    assert rank == 1
    assert basis.shape == (1, 2)


def test_rref_properties():
    rng = rng_from_seed(4)
    for q in (2, 3, 5):
        for _ in range(20):
            m = rng.integers(0, q, size=(4, 6))
            r = rref(m, q)
            # idempotent and rank-preserving
            assert np.array_equal(rref(r, q), r)
            # each pivot column has a single 1
            for i in range(r.shape[0]):
                c = np.flatnonzero(r[i])[0]
                assert r[i, c] == 1
                assert np.count_nonzero(r[:, c]) == 1


def reference_gauss_jordan(m, q, ncols=None):
    """Column-at-a-time Gauss-Jordan on a reduced int64 array, one numpy
    row operation over the whole array per pivot."""
    rows = m.shape[0]
    ncols = m.shape[1] if ncols is None else ncols
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        nonzero = m[r:, c] != 0
        if not nonzero.any():
            continue
        piv = r + int(nonzero.argmax())
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        if m[r, c] != 1:
            m[r] = (m[r] * pow(int(m[r, c]), -1, q)) % q
        factor = m[:, c].copy()
        factor[r] = 0
        m -= factor[:, None] * m[r]
        m %= q
        pivots.append(c)
    return pivots


@st.composite
def elimination_cases(draw):
    """(q, matrix, ncols): random, sparse, zero or rank-deficient matrices of
    1-40 rows and columns, some entries off the range [0, q)."""
    q = draw(st.sampled_from([2, 3, 5, 7, 131, 257]))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    ncols = draw(st.one_of(st.none(), st.integers(1, cols)))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "deficient"]))
    rng = rng_from_seed(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, q, size=(rows, cols))
    if kind == "sparse":
        m *= rng.random((rows, cols)) < 0.15
    elif kind == "zero":
        m[:] = 0
    elif kind == "deficient":
        rank = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        m = (rng.integers(0, q, size=(rows, rank))
             @ rng.integers(0, q, size=(rank, cols))) % q
    if draw(st.booleans()):
        m = m + q * rng.integers(-3, 4, size=(rows, cols))
    return q, m, ncols


@settings(max_examples=300, deadline=None)
@given(elimination_cases())
@example((2, np.zeros((3, 2), dtype=np.int64), None))
@example((257, np.array([[256, 514], [1, -1], [-257, 3]]), 1))
@example((5, np.arange(-20, 20).reshape(8, 5), None))  # more rows than columns
def test_gauss_jordan_matches_reference(case):
    # the packed-row elimination returns the pivots of the column-at-a-time
    # reference and leaves the same array, reduced
    q, m, ncols = case
    got, want = m.copy(), m % q
    pivots = gauss_jordan(got, q, ncols)
    assert pivots == reference_gauss_jordan(want, q, ncols)
    assert np.array_equal(got, want)


def test_gauss_jordan_rejects_composite_q():
    with pytest.raises(ValueError, match="not prime"):
        gauss_jordan(np.eye(2, dtype=np.int64), 4)


# -- generation law ------------------------------------------------------------

def test_generation_deterministic():
    params = EnsembleParams(q=3, l=3, n=5, tau=2)
    assert generate_mackay(params, 42) == generate_mackay(params, 42)
    assert generate_uniform(3, 3, 5, 42) == generate_uniform(3, 3, 5, 42)
    assert generate_mackay(params, 42) != generate_mackay(params, 43)


def mackay_reference(params, seed):
    """Per column, tau rows then tau nonzero values, drawn for every q."""
    rng = rng_from_seed(seed)
    dense = [[0] * params.n for _ in range(params.l)]
    for i in range(params.n):
        rows = rng.integers(0, params.l, size=params.tau)
        vals = 1 + rng.integers(0, params.q - 1, size=params.tau)
        for r, v in zip(rows.tolist(), vals.tolist()):
            dense[r][i] = (dense[r][i] + v) % params.q
    return SparseMatrix(params.q, dense)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5]), st.integers(1, 15),
       st.integers(1, 20), st.sampled_from([2, 4, 6]))
def test_generation_matches_reference(seed, q, l, n, tau):
    params = EnsembleParams(q=q, l=l, n=n, tau=tau)
    got = generate_mackay(params, seed)
    assert got == mackay_reference(params, seed)


@pytest.mark.parametrize("q,l", [(2, 3), (3, 2)])
def test_generation_matches_exact_law(q, l):
    """Empirical matrix frequencies vs the exactly enumerated ensemble law."""
    params = EnsembleParams(q=q, l=l, n=1, tau=2)
    ens = enumerate_mackay(params)
    exact = {tuple(d.ravel()): w / ens.total
             for d, w in zip(ens.dense, ens.weight)}
    draws = 50_000
    counts = Counter()
    for s in range(draws):
        m = generate_mackay(params, derive_seed(123, "tv", q, s))
        counts[tuple(m.dense().ravel())] += 1
    assert set(counts) <= set(exact)
    tv = 0.5 * sum(abs(counts.get(k, 0) / draws - float(p))
                   for k, p in exact.items())
    assert tv < 0.01


def test_uniform_generation_covers_space():
    seen = {tuple(generate_uniform(2, 1, 2, s).dense().ravel())
            for s in range(200)}
    assert seen == set(itertools.product((0, 1), repeat=2))


def test_even_weight_outputs_q2_even_tau():
    params = EnsembleParams(q=2, l=4, n=6, tau=2)
    U = np.array(list(itertools.product((0, 1), repeat=6))).T
    for s in range(20):
        m = generate_mackay(params, s)
        out = (m.dense() @ U) % 2
        assert np.all(out.sum(axis=0) % 2 == 0)


# -- helpers -------------------------------------------------------------------

def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "mat", "A")
    assert a == derive_seed(1, "mat", "A")
    assert a != derive_seed(1, "mat", "B")
    assert a != derive_seed(2, "mat", "A")
    assert 0 <= a < 2**64


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.builds(derive_seed, st.integers(0, 2**32), st.text(max_size=3)),
    st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)), max_size=40))
@example(EDGE_SEEDS)
@example([])
def test_philox_keys_equal_seed_sequence(seeds):
    keys = philox_keys(seeds)
    assert keys.dtype == np.uint64 and keys.shape == (len(seeds), 2)
    for s, key in zip(seeds, keys):
        want = np.random.SeedSequence(s).generate_state(2, np.uint64)
        assert np.array_equal(key, want), s


@pytest.mark.parametrize("count", [1, 2, 7, 21])
def test_draw_streams_equal_a_generator_per_seed(count):
    # odd n leaves a half-used 64-bit block (random) or a buffered 32-bit
    # word (integers) behind: the next stream must not read it
    seeds = (EDGE_SEEDS + [derive_seed(count, i) for i in range(count)])[:count]
    for n in range(1, 131):
        got = draw_streams(seeds, lambda rng: rng.random(n))
        assert np.array_equal(got, [rng_from_seed(s).random(n) for s in seeds])
        for q in (2, 3, 5):
            got = draw_streams(seeds, lambda rng: rng.integers(0, q, size=n))
            want = [rng_from_seed(s).integers(0, q, size=n) for s in seeds]
            assert np.array_equal(got, want), (n, q)


def test_keyed_draws_equal_the_seeded_draws():
    # one table re-keyed between the draws of build_instance's samplers: each
    # gives what its seed's own Generator gives, the q = 2 one-call path and
    # the q = 3 per-column loop of generate_mackay alike; a batch selected
    # from the table draws its rows in the order asked for
    labels = [(7, "mat", "A"), (7, "vec", "A"), (8, "mat", "B"), (9, "x")]
    table = Streams(labels)
    for q, l, n, tau in ((2, 5, 9, 2), (3, 4, 7, 2), (5, 3, 11, 4)):
        params = EnsembleParams(q=q, l=l, n=n, tau=tau)
        for label in labels:
            seed = derive_seed(*label)
            m = generate_mackay(params, table.rng(label))
            assert m == generate_mackay(params, seed)
            assert m == generate_mackay(params, rng_from_seed(seed))
            assert np.array_equal(sample_image_point(m, table.rng(label)),
                                  sample_image_point(m, seed))
            assert (generate_uniform(q, l, n, table.rng(label))
                    == generate_uniform(q, l, n, seed))
    batch = table.select(labels[::-1])
    assert len(batch) == len(labels)
    assert np.array_equal(
        draw_streams(batch, lambda rng: rng.random(5)),
        [rng_from_seed(derive_seed(*label)).random(5) for label in labels[::-1]])


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
@pytest.mark.parametrize("count", [1, 7])
def test_seeds_outside_64_bits_are_refused(seed, count):
    # at one seed and at many: a uint64 conversion would wrap them silently
    # onto another stream
    seeds = [seed] + [1] * (count - 1)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        philox_keys(seeds)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        draw_streams(seeds, lambda rng: rng.random(1))


def test_recommended_tau():
    assert recommended_tau(1, 1.0) == 2  # ln(1) = 0, clamped
    # l=4, rate=0.5: ln(32) ~ 3.47 -> 2*4
    assert recommended_tau(4, 0.5) == 8
    with pytest.raises(ValueError):
        recommended_tau(0, 0.5)
    with pytest.raises(ValueError):
        recommended_tau(2, 0.0)


def test_sample_image_point_in_image():
    from cosetcode.cosets import solve_coset
    for q, tau in ((2, 2), (3, 2)):
        params = EnsembleParams(q=q, l=3, n=5, tau=tau)
        for s in range(20):
            m = generate_mackay(params, s)
            c = sample_image_point(m, s + 1000)
            assert not solve_coset([(m, c)]).empty[0]
