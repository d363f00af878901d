"""Method-of-types toolkit: exact identities and lemma suites."""

import hashlib
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcode import cli
from cosetcode import types_lab as tl


# -- distributions ---------------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError, match=r"^pmf sums to 1\.1, not 1$"):
        tl.Distribution([0.5, 0.6])
    with pytest.raises(ValueError):
        tl.Distribution([-0.1, 1.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distribution_rejects_non_finite_entries(bad):
    # NaN fails both the sign and the sum comparison, so it needs its own check
    with pytest.raises(ValueError, match="non-finite"):
        tl.Distribution([bad, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        tl.Distribution([[0.5, bad], [0.25, 0.25]])


def test_distribution_constructors():
    u = tl.Distribution.uniform(3)
    assert list(u.p) == [1 / 3] * 3
    assert tl.Distribution([[0.45, 0.05], [0.05, 0.45]]).shape == (2, 2)


def test_marginal_and_conditional():
    p = np.array([[0.1, 0.2], [0.3, 0.4]])
    d = tl.Distribution(p)
    cond = d.conditional(0)  # [v, u]
    assert np.allclose(cond[0], [1 / 3, 2 / 3])
    assert np.allclose(cond[1], [3 / 7, 4 / 7])


def test_conditional_zero_marginal_row_is_uniform():
    d = tl.Distribution([[0.5, 0.5], [0.0, 0.0]])
    cond = d.conditional(0)
    assert np.allclose(cond[1], [0.5, 0.5])


# -- types -----------------------------------------------------------------------

def test_iter_types_and_class_size():
    # the rows are the distinct types of all sequences, in lexicographic order
    for n, k in ((4, 2), (5, 3), (3, 4), (0, 3), (6, 1)):
        seen = {tuple(np.bincount(np.array(u, dtype=int), minlength=k))
                for u in itertools.product(range(k), repeat=n)}
        assert tl.type_array(n, k).tolist() == [list(t) for t in sorted(seen)]
    assert tl.type_class_size((2, 2)) == 6
    # type classes partition the sequence space
    for n, q in ((5, 2), (4, 3)):
        sizes = [tl.type_class_size(t) for t in tl.type_array(n, q).tolist()]
        assert sum(sizes) == q**n


def test_type_class_size_is_the_multinomial_coefficient():
    rng = np.random.default_rng(1)
    for n, k in ((0, 3), (7, 1), (30, 4), (400, 5), (2500, 2), (5000, 3)):
        for counts in rng.multinomial(n, [1 / k] * k, size=20).tolist():
            want = math.factorial(n) // math.prod(map(math.factorial, counts))
            assert tl.type_class_size(counts) == want
            assert tl.type_class_size(tuple(counts[::-1])) == want


# -- information measures ----------------------------------------------------------

def test_entropy_frozen():
    assert tl.entropy([0.5, 0.5]) == 1.0
    assert tl.entropy([1.0, 0.0]) == 0.0
    p = 0.11
    h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert tl.entropy([1 - p, p]) == pytest.approx(h, abs=1e-15)


def test_divergence_properties():
    assert tl.divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tl.divergence([1.0, 0.0], [0.0, 1.0]) == math.inf
    assert tl.divergence([0.9, 0.1], [0.5, 0.5]) > 0
    with pytest.raises(ValueError):
        tl.divergence([0.5, 0.5], [1.0])
    # a stack gives the value of each row
    rows = [[0.5, 0.5], [1.0, 0.0], [0.9, 0.1]]
    for pp in ([0.25, 0.75], [1.0, 0.0]):
        stacked = tl.divergence(rows, pp)
        assert stacked.shape == (3,)
        assert list(stacked) == [tl.divergence(r, pp) for r in rows]
    with pytest.raises(ValueError):
        tl.divergence(rows, [1 / 3] * 3)


def test_chain_rule_divergence_on_counts():
    # D(joint type || mu) = D(v-type || mu_v) + D(u|v type || mu_{U|V} | v-type)
    mu = tl.Distribution([[0.2, 0.3], [0.1, 0.4]])
    cond = mu.conditional(0)
    rng = np.random.default_rng(0)
    tables, singles = [], []
    for _ in range(50):
        v = rng.integers(0, 2, size=10)
        u = rng.integers(0, 2, size=10)
        jc = np.zeros((2, 2), dtype=np.int64)  # counts indexed [v, u]
        np.add.at(jc, (v, u), 1)
        d_joint = tl.divergence(jc.ravel() / 10, mu.p.ravel())
        d_v = tl.divergence(jc.sum(axis=1) / 10, mu.p.sum(axis=1))
        d_cond = tl.cond_type_divergence(jc, cond)
        assert d_joint == pytest.approx(d_v + d_cond, abs=1e-9)
        tables.append(jc)
        singles.append(d_cond)
    # one call on the stack of tables gives the value of each table
    assert list(tl.cond_type_divergence(np.stack(tables), cond)) == singles


# -- typicality ---------------------------------------------------------------------

def test_typical_count_frozen():
    # Bern(0.5), n=4, gamma=0.05: only the balanced type qualifies
    assert tl.typical_count([0.5, 0.5], 4, 0.05) == 6


@pytest.mark.parametrize("mu,n,gamma", [
    ([0.5, 0.5], 8, 0.05),
    ([0.7, 0.3], 8, 0.1),
    ([0.5, 0.3, 0.2], 6, 0.12),
])
def test_typical_count_matches_enumeration(mu, n, gamma):
    # brute force: every length-n sequence whose own type is typical
    typical = [u for u in itertools.product(range(len(mu)), repeat=n)
               if tl.divergence(np.bincount(u, minlength=len(mu)) / n, mu)
               < gamma]
    assert tl.typical_count(mu, n, gamma) == len(typical)


# -- bound functions -----------------------------------------------------------------

def test_zeta_frozen():
    # zeta(2, 0.02) = 0.02 - 0.2*log2(0.1)
    assert tl.zeta(2, 0.02) == pytest.approx(0.02 - 0.2 * math.log2(0.1),
                                             abs=1e-15)
    with pytest.raises(ValueError):
        tl.zeta(2, 0.0)


def test_lam_frozen():
    assert tl.lam(2, 100) == pytest.approx(2 * math.log2(101) / 100, abs=1e-15)


def test_eta_is_zeta_shifted_by_lambda():
    for k, g, n in ((2, 0.05, 50), (3, 0.1, 20), (4, 0.01, 100)):
        assert tl.eta(k, g, n) == pytest.approx(
            tl.zeta(k, g) - g + tl.lam(k, n), abs=1e-12)


# -- lemma suites --------------------------------------------------------------------

@pytest.mark.parametrize("mu", [
    tl.Distribution([0.5, 0.5]),
    tl.Distribution([0.7, 0.3]),
    tl.Distribution([0.5, 0.3, 0.2]),
])
@pytest.mark.parametrize("n", [6, 10])
def test_single_variable_suites(mu, n):
    ok, _ = tl.check_exprob(mu, n)
    assert ok
    for gamma in (0.05, 0.1):
        ok, _ = tl.check_type_lemma(mu, n, gamma)
        assert ok
        ok, _ = tl.check_typical_aep(mu, n, gamma)
        assert ok
        ok, _ = tl.check_typical_prob(mu, n, gamma)
        assert ok
        ok, _ = tl.check_typical_number(mu, n, gamma)
        assert ok


def _reference_cond_type_divergence(joint_counts, cond_mu):
    """cond_type_divergence with numpy's sums over the short count axes."""
    joint_counts = np.asarray(joint_counts)
    n = np.maximum(joint_counts.sum(axis=(-2, -1)), 1)
    cond_mu = np.asarray(cond_mu, dtype=float)
    out = np.zeros(joint_counts.shape[:-2])
    for vi in range(joint_counts.shape[-2]):
        row = joint_counts[..., vi, :]
        nv = row.sum(axis=-1)
        freq = row / np.maximum(nv, 1)[..., None]
        out += (nv / n) * tl.divergence(freq, cond_mu[vi])
    return float(out) if out.ndim == 0 else out


def _reference_typical_trans(mu_joint, n, gamma, gamma_p):
    """check_typical_trans with numpy's sums over the short count axes."""
    qv, qu = mu_joint.shape
    mu_v = mu_joint.p.sum(axis=1)
    cond = mu_joint.conditional(0)
    types = tl.type_array(n, qv * qu)
    d_v = tl.divergence(types.reshape(-1, qv, qu).sum(axis=2) / n, mu_v)
    d_cond = _reference_cond_type_divergence(types.reshape(-1, qv, qu), cond)
    d_joint = tl.divergence(types / n, mu_joint.p.ravel())
    excess = d_joint[(d_v < gamma) & (d_cond < gamma_p)] - (gamma + gamma_p)
    finite = np.isfinite(d_joint) & np.isfinite(d_cond)
    chain = np.abs(d_joint[finite] - d_v[finite] - d_cond[finite])
    ok = bool(np.all(excess < 0) and np.all(chain <= 1e-9))
    return ok, float(np.max(excess, initial=-math.inf))


TRANS_JOINTS = [
    [[1.0]],
    [[0.4, 0.1], [0.1, 0.4]],
    [[0.5, 0.0], [0.2, 0.3]],
    [[0.3, 0.2, 0.1], [0.1, 0.2, 0.1]],
    np.outer([0.5, 0.3, 0.2], [0.5, 0.3, 0.2]) * 0.5 + np.eye(3) * 0.5 / 3,
]


@pytest.mark.parametrize("joint", range(len(TRANS_JOINTS)))
def test_typical_trans_keeps_its_bits(joint):
    mu = tl.Distribution(TRANS_JOINTS[joint])
    for n, (gamma, gamma_p) in itertools.product(
            (1, 3, 6, 8), ((0.1, 0.1), (0.3, 0.01), (0.02, 0.4))):
        ok, margin = tl.check_typical_trans(mu, n, gamma, gamma_p)
        want_ok, want_margin = _reference_typical_trans(mu, n, gamma, gamma_p)
        assert (ok, margin.hex()) == (want_ok, want_margin.hex())


def test_cond_type_divergence_keeps_its_bits():
    mu = tl.Distribution(TRANS_JOINTS[-1])
    cond = mu.conditional(0)
    types = tl.type_array(6, 9)
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 40, size=(50, 3, 3))
    counts[:5, 1] = 0  # rows that never occur
    counts[5] = 0  # an empty table
    for table in (types.reshape(-1, 3, 3), counts, counts.astype(np.uint16),
                  counts[7], counts.transpose(0, 2, 1)):
        got = tl.cond_type_divergence(table, cond)
        want = _reference_cond_type_divergence(table, cond)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert type(got) is type(want)


def test_typical_trans_suite():
    joint = tl.Distribution([[0.4, 0.1], [0.1, 0.4]])
    for n in (6, 8):
        ok, _ = tl.check_typical_trans(joint, n, 0.1, 0.1)
        assert ok


@pytest.mark.parametrize("p, n, gamma", [
    ((0.7, 0.3), 1000, 0.1),  # most class probabilities underflow a float
    ((0.5, 0.3, 0.2, 0.0), 12, 0.05),
])
def test_typical_prob_tail_is_exact(p, n, gamma):
    # the tail of the float mu in 60-digit decimals, rounded once: only an
    # exact tail within 1e-55 of a rounding boundary could round otherwise
    mu = tl.Distribution(p)
    types = tl.type_array(n, len(p))
    with localcontext(prec=60):
        tail = sum(tl.type_class_size(c) * math.prod(
            Decimal(float(a)) ** k for a, k in zip(p, c) if k)
            for c in types[tl.divergence(types / n, mu.p) >= gamma].tolist())
    bound = 2.0 ** (-n * (gamma - tl.lam(len(p), n)))
    assert tl.check_typical_prob(mu, n, gamma) == (True, float(tail) - bound)


PINNED_REPORT_INPUTS = [(q, n) for q in (1, 2, 3) for n in (1, 5, 12)] + [
    (4, 3), (5, 3)]


def test_types_check_report_is_pinned():
    # every verdict and every margin, to the last bit, of the six suites on
    # a grid of alphabets, lengths and (gamma, gamma') pairs
    rows = [(name, bool(ok), float(margin).hex())
            for q, n in PINNED_REPORT_INPUTS
            for gamma, gamma2 in ((0.1, 0.1), (0.3, 0.01))
            for name, ok, margin in cli.types_check_report(q, n, gamma, gamma2)]
    assert len(rows) == 6 * 2 * len(PINNED_REPORT_INPUTS)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "bd5b649d5fa5b7c290284365fe0584653492ce7fcc9f506c0538ecb048397bf2")


def test_types_check_report_calls_checks_through_the_module(monkeypatch):
    # a wrapper set on a module attribute (as a profiler sets one) must see
    # every suite's call, so the report may not call the functions that
    # LEMMA_SUITE captured at import
    called = []
    for _, check in tl.LEMMA_SUITE:
        def wrapped(*args, _check=check):
            called.append(_check.__name__)
            return _check(*args)
        monkeypatch.setattr(tl, check.__name__, wrapped)
    cli.types_check_report(2, 5, 0.1, 0.1)
    assert called == [check.__name__ for _, check in tl.LEMMA_SUITE]


def test_aep_gamma_range():
    with pytest.raises(ValueError):
        tl.check_typical_aep(tl.Distribution([0.5, 0.5]), 6, 0.2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 20), min_size=2, max_size=4),
       st.lists(st.integers(1, 20), min_size=2, max_size=4))
def test_divergence_nonnegative_property(wp, wq):
    k = min(len(wp), len(wq))
    p = np.array(wp[:k], dtype=float)
    p /= p.sum()
    q = np.array(wq[:k], dtype=float)
    q /= q.sum()
    assert tl.divergence(p, q) >= -1e-12
    assert tl.entropy(p) <= math.log2(k) + 1e-12
