"""Closed-form diagnostics against frozen values and exhaustive oracles."""

import dataclasses
import itertools
import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cosetcode import diagnostics as dg
from cosetcode.matrices import EnsembleParams, recommended_tau, rng_from_seed


# -- kernel-weight probability ---------------------------------------------------

def test_return_prob_frozen_values():
    # q=2, l=2, tau=2: both weights hit 1/2
    assert dg.return_prob(2, 2, 2, 1) == Fraction(1, 2)
    assert dg.return_prob(2, 2, 2, 2) == Fraction(1, 2)
    # q=2, l=1, tau=1, w=1: a single nonzero add never cancels
    assert dg.return_prob(2, 1, 1, 1) == 0


def test_return_prob_exhaustive_tiny():
    params = EnsembleParams(q=3, l=2, n=2, tau=2)
    mats = dg.enumerate_mackay(params)
    for w, u in ((1, [1, 0]), (1, [2, 0]), (2, [1, 2])):
        assert dg.return_prob(3, 2, 2, w) == dg.return_prob_exhaustive(mats, u, 3)


def test_return_prob_float_matches_exact(monkeypatch):
    cases = list(itertools.product((2, 3, 5), (1, 2, 4, 8), (2, 4), (1, 2, 5)))
    exact = [dg.return_prob(*case) for case in cases]
    for limit in ("EXACT_L_LIMIT", "EXACT_POWER_LIMIT"):
        with monkeypatch.context() as patch:
            patch.setattr(dg, limit, 0)  # every case takes the float path
            for case, want in zip(cases, exact):
                approx = dg.return_prob(*case)
                assert isinstance(want, Fraction) and isinstance(approx, float)
                assert abs(approx - float(want)) <= 1e-10 * max(float(want), 1e-30)


def closed_form_sum(q, l, tau, w):
    """(1/q^l) sum_k (1 - qk/((q-1)l))^{w tau} C(l,k)(q-1)^k in Fractions."""
    return sum(
        (1 - Fraction(q * k, (q - 1) * l)) ** (w * tau)
        * math.comb(l, k) * (q - 1) ** k
        for k in range(l + 1)
    ) / q**l


def test_return_prob_limits():
    assert isinstance(dg.return_prob(2, 64, 2, 2), Fraction)
    # past EXACT_L_LIMIT, then past EXACT_POWER_LIMIT: the float path
    # l = 1030-1100 at q = 2 and l = 700 at q = 3 put q^l past the float range
    for q, l, tau, w in ((2, 65, 2, 2), (3, 80, 3, 5), (3, 6, 64, 65),
                         (2, 64, 64, 65), (2, 1100, 3, 2), (2, 1030, 2, 1),
                         (3, 700, 5, 1)):
        assert l > dg.EXACT_L_LIMIT or w * tau > dg.EXACT_POWER_LIMIT
        got = dg.return_prob(q, l, tau, w)
        want = closed_form_sum(q, l, tau, w)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-9 * want
    with pytest.raises(ValueError):
        dg.return_prob(2, 2, 2, 0)


def test_signed_log_sum_cancellation_flag():
    val, flag = dg._signed_log_sum([(1, 0.0), (-1, 0.0)])
    assert val == 0.0 and flag
    val, flag = dg._signed_log_sum([(1, 0.0), (1, 0.0)])
    assert val == pytest.approx(2.0) and not flag


# -- random-walk law ------------------------------------------------------------

def test_walk_closed_equals_recursion_exactly():
    for q in (2, 3):
        for l in range(1, 5):
            for steps in range(9):
                for w in range(l + 1):
                    closed = dg.walk_dist_closed(q, l, steps, w)
                    oracle = dg.walk_pointwise_recursive(q, l, steps, w)
                    assert closed == oracle


def test_walk_float_path_matches_recursion(monkeypatch):
    for limit in ("EXACT_L_LIMIT", "EXACT_POWER_LIMIT"):
        with monkeypatch.context() as patch:
            patch.setattr(dg, limit, 0)  # every walk of >= 1 step is float
            for q, l, steps in itertools.product((2, 3), range(1, 5), range(1, 9)):
                for w in range(l + 1):
                    closed = dg.walk_dist_closed(q, l, steps, w)
                    oracle = dg.walk_pointwise_recursive(q, l, steps, w)
                    assert isinstance(closed, float)
                    assert abs(closed - oracle) <= 1e-12


def test_walk_float_branch_matches_exact_branch(monkeypatch):
    # at q = 2 an odd walk never returns home: the terms k and l - k cancel
    with pytest.warns(UserWarning, match="cancellation"):
        assert dg.return_prob(2, 80, 1, 3) == 0.0
    with pytest.warns(UserWarning, match="cancellation"):
        assert dg.walk_dist_closed(2, 80, 3, 0) == 0.0
    # past EXACT_L_LIMIT the float branch; with the limit raised, the exact one
    cases = [(q, l, w, w + 2 * j) for q, l, w in itertools.product(
        (2, 3), (66, 130, 200), (1, 2, 7)) for j in (0, 1, l // 2)]
    approx = [dg.walk_dist_closed(q, l, steps, w) for q, l, w, steps in cases]
    monkeypatch.setattr(dg, "EXACT_L_LIMIT", 200)
    for (q, l, w, steps), got in zip(cases, approx):
        want = dg.walk_dist_closed(q, l, steps, w)
        assert isinstance(got, float) and isinstance(want, Fraction)
        assert abs(got - want) <= 1e-12 * want


def test_walk_mass_normalization():
    for q, l, steps in ((2, 3, 5), (3, 4, 7), (5, 2, 4)):
        mass = dg.walk_dist_recursive(q, l, steps)
        assert sum(mass) == 1
        total = sum(
            math.comb(l, w) * (q - 1) ** w * dg.walk_dist_closed(q, l, steps, w)
            for w in range(l + 1)
        )
        assert total == 1


def _reference_walk(q, l, steps):
    """The weight-class recursion one Fraction product at a time: each step
    picks a coordinate uniformly and adds a uniform nonzero field element."""
    mass = [Fraction(0)] * (l + 1)
    mass[0] = Fraction(1)
    down = Fraction(1, q - 1)
    stay = Fraction(q - 2, q - 1)
    for _ in range(steps):
        nxt = [Fraction(0)] * (l + 1)
        for w, m in enumerate(mass):
            if m == 0:
                continue
            hit_nz = Fraction(w, l)
            nxt[w] += m * hit_nz * stay
            if w > 0:
                nxt[w - 1] += m * hit_nz * down
            if w < l:
                nxt[w + 1] += m * Fraction(l - w, l)
        mass = nxt
    return mass


def test_integer_recursion_equals_fraction_recursion():
    for q, l, steps in itertools.product((2, 3, 5), range(1, 7), range(13)):
        mass = dg.walk_dist_recursive(q, l, steps)
        assert mass == _reference_walk(q, l, steps)
        assert all(type(m) is Fraction for m in mass) and sum(mass) == 1
        for w in range(l + 1):
            assert dg.walk_pointwise_recursive(q, l, steps, w) == (
                mass[w] / (math.comb(l, w) * (q - 1) ** w))


def test_walk_recursion_refuses_past_the_budget():
    assert len(dg.walk_dist_recursive(2, 20, 3)) == 21
    with pytest.raises(ValueError, match="enumeration budget"):
        dg.walk_dist_recursive(2, 21, 0)
    with pytest.raises(ValueError, match="enumeration budget"):
        dg.walk_pointwise_recursive(3, 13, 1, 0)


def test_walk_start_state():
    assert dg.walk_dist_closed(3, 4, 0, 0) == 1
    assert dg.walk_dist_closed(3, 4, 0, 2) == 0


def test_walk_input_validation():
    with pytest.raises(ValueError):
        dg.walk_dist_closed(2, 2, -1, 0)
    with pytest.raises(ValueError):
        dg.walk_dist_closed(2, 2, 1, 3)


def test_return_prob_is_walk_return():
    # mapping a weight-w vector to zero is a wtau-step walk returning home
    for q, l, tau, w in ((2, 3, 2, 2), (3, 2, 2, 3), (3, 4, 2, 1)):
        assert dg.return_prob(q, l, tau, w) == dg.walk_dist_closed(
            q, l, w * tau, 0)


# -- alpha/beta -------------------------------------------------------------------

def test_alpha_beta_frozen_example():
    params = EnsembleParams(q=2, l=2, n=2, tau=2, xi=0.5)
    d = dg.alpha_beta(params, 2)
    assert d.alpha == 1 and d.beta == 1
    assert d.im_size == 2 and d.im_ratio == Fraction(1, 2)
    assert isinstance(d.alpha, Fraction) and isinstance(d.beta, Fraction)


def test_alpha_beta_refuses_integers_past_the_float_range():
    # alpha needs |Im| = 2**1099 once some weight exceeds the cutoff
    params = EnsembleParams(q=2, l=1100, n=400, tau=2, xi=0.25)
    with pytest.raises(ValueError, match=r"^l = 1100 "):
        dg.alpha_beta(params, 400)
    # C(1100, 550) > 2**1024
    params = EnsembleParams(q=2, l=4, n=1100, tau=2, xi=0.25)
    with pytest.raises(ValueError, match=r"^n = 1100 "):
        dg.alpha_beta(params, 1100)
    # below the cutoff alpha is 0 and |Im| is never multiplied
    d = dg.alpha_beta(EnsembleParams(q=2, l=1100, n=4, tau=2, xi=0.25), 4)
    assert d.alpha == 0 and all(math.isfinite(p) for p, _ in d.per_weight.values())


@pytest.mark.parametrize("q, l, n, tau", [(3, 80, 6, 2), (2, 10, 6, 1000)],
                         ids=["float", "exact-then-float"])
def test_alpha_beta_forms_the_origin_terms_once(q, l, n, tau, monkeypatch):
    # l past EXACT_L_LIMIT, or w tau past EXACT_POWER_LIMIT from w = 5 on:
    # the float weights share one set of l + 1 terms, the exact ones keep
    # their own sums; the memo of those terms lives across calls
    dg._log_krawtchouk.cache_clear()
    calls = []
    krawtchouk = dg._krawtchouk
    monkeypatch.setattr(dg, "_krawtchouk",
                        lambda *args: calls.append(args) or krawtchouk(*args))
    d = dg.alpha_beta(EnsembleParams(q=q, l=l, n=n, tau=tau), n)
    exact = sum(dg._use_exact(l, w * tau) for w in range(1, n + 1))
    assert len(calls) == (l + 1) * (exact + 1)
    for w in range(1, n + 1):
        p = dg.return_prob(q, l, tau, w)
        assert type(d.per_weight[w][0]) is type(p) and d.per_weight[w][0] == p


def test_float_walks_share_their_origin_terms(monkeypatch):
    # l = 80 is past EXACT_L_LIMIT: every walk length reads one memo of the
    # l + 1 Krawtchouk terms of the origin
    dg._log_krawtchouk.cache_clear()
    calls = []
    krawtchouk = dg._krawtchouk
    monkeypatch.setattr(dg, "_krawtchouk",
                        lambda *args: calls.append(args) or krawtchouk(*args))
    for steps in (2, 4, 6):
        assert isinstance(dg.walk_dist_closed(3, 80, steps, 0), float)
    assert len(calls) == 81


def test_alpha_beta_uniform_is_universal():
    # uniform matrices form a (1, 0)-balanced family once xi*l < 1
    params = EnsembleParams(q=3, l=3, n=4, tau=2, xi=0.25)
    d = dg.alpha_beta(params, 4, ensemble="uniform")
    assert d.alpha == 1
    assert d.beta == 0
    assert d.im_size == 27


def test_beta_grows_with_cutoff():
    params_lo = EnsembleParams(q=2, l=4, n=6, tau=2, xi=0.3)
    params_hi = EnsembleParams(q=2, l=4, n=6, tau=2, xi=0.9)
    lo = dg.alpha_beta(params_lo, 6).beta
    hi = dg.alpha_beta(params_hi, 6).beta
    assert hi >= lo


def _alpha_beta_against_n(xi, tau=None):
    """alpha and beta at q = 2, l = n/2 and n = 64, 128, 256, with tau the
    `recommended_tau(l, 1/2)` of each l unless given."""
    points = []
    for n in (64, 128, 256):
        l = n // 2
        if tau is None:
            params = EnsembleParams(q=2, l=l, n=n, xi=xi,
                                    tau=recommended_tau(l, 0.5))
        else:
            params = EnsembleParams(q=2, l=l, n=n, xi=xi, tau=tau)
        d = dg.alpha_beta(params, n)
        points.append((d.alpha, d.beta))
    return tuple(zip(*points))


def test_hash_property_against_n():
    # the paper's central lemma, measured: with tau growing as log n, alpha
    # falls toward 1 and beta toward 0 (the sums are exact, no draws)
    alpha, beta = _alpha_beta_against_n(0.2)
    assert alpha[0] > alpha[1] > alpha[2]
    assert abs(alpha[0] - 1) > abs(alpha[1] - 1) > abs(alpha[2] - 1)
    assert beta[0] > beta[1] > beta[2]
    # a fixed column weight does not mix the walk: both grow
    alpha, beta = _alpha_beta_against_n(0.2, tau=2)
    assert alpha[0] < alpha[1] < alpha[2]
    assert beta[0] < beta[1] < beta[2]
    # past the Gilbert-Varshamov radius 2 h^-1(1/2) ~ 0.22 of a binary
    # rate-1/2 ensemble, sum_{w <= xi l} |C_w| outgrows |Im| and beta grows
    _, beta = _alpha_beta_against_n(0.25)
    assert beta[0] < beta[1] < beta[2]


def test_im_size_characterization():
    assert dg.ensemble_im_size(2, 3, 2) == 4
    assert dg.ensemble_im_size(2, 3, 3) == 8
    assert dg.ensemble_im_size(3, 2, 2) == 9
    assert dg.ensemble_im_size(2, 3, 2, ensemble="uniform") == 8
    evens = dg.ensemble_im_set(2, 3, 2)
    assert all(sum(c) % 2 == 0 for c in evens)
    assert len(evens) == 4


# -- enumeration oracles ----------------------------------------------------------

def _enumerate_uniform(q, l, n):
    """All l x n matrices over GF(q), equiprobable, as one stacked Ensemble."""
    count = q ** (l * n)
    if count > dg.ENUM_BUDGET:
        raise ValueError("matrix space exceeds enumeration budget")
    dense = np.indices((q,) * (l * n)).reshape(l * n, count).T
    return dg.Ensemble(dense.reshape(-1, l, n), np.ones(count, np.int64), count)


def test_enumerated_ensembles_are_probability_spaces():
    ens = dg.enumerate_mackay(EnsembleParams(q=3, l=2, n=2, tau=2))
    assert ens.weight.min() > 0 and ens.weight.sum() == ens.total
    ens = _enumerate_uniform(2, 2, 2)
    assert len(ens) == 2**4
    assert ens.weight.min() > 0 and ens.weight.sum() == ens.total
    assert not ens.dense.flags.writeable


def test_enumeration_budget():
    with pytest.raises(ValueError):
        dg.enumerate_mackay(EnsembleParams(q=3, l=8, n=8, tau=4))


def test_column_outcomes_match_generation_support():
    dist = dg.enumerate_column_outcomes(2, 2, 2)
    # two equal-row picks cancel; two distinct rows give weight 2
    # of the 4 draw sequences
    assert dist == {(0, 0): 2, (1, 1): 2}


# -- ensemble bound suites ---------------------------------------------------------

def _random_subset(rng, space, kmax):
    k = int(rng.integers(1, kmax + 1))
    idx = rng.choice(len(space), size=k, replace=False)
    return [space[i] for i in idx]


@pytest.mark.parametrize("q,l,n,tau", [(2, 2, 2, 2), (3, 1, 2, 2)])
def test_bound_suites_hold(q, l, n, tau):
    params = EnsembleParams(q=q, l=l, n=n, tau=tau, xi=0.5)
    diag = dg.alpha_beta(params, n)
    mats = dg.enumerate_mackay(params)
    im_set = dg.ensemble_im_set(q, l, tau)
    space = list(itertools.product(range(q), repeat=n))
    rng = rng_from_seed(5)
    for _ in range(15):
        T = _random_subset(rng, space, min(4, len(space)))
        Tp = _random_subset(rng, space, min(4, len(space)))
        lhs, rhs = dg.hash_sum_exhaustive(mats, T, Tp, diag)
        assert lhs <= rhs
        u = space[int(rng.integers(len(space)))]
        lhs, rhs = dg.collision_bound_check(mats, T, u, diag)
        assert lhs <= rhs
        lhs, rhs = dg.saturation_bound_check(mats, T, diag, im_set)
        assert lhs <= rhs


def test_saturation_requires_nonempty_target():
    params = EnsembleParams(q=2, l=2, n=2, tau=2, xi=0.5)
    diag = dg.alpha_beta(params, 2)
    mats = dg.enumerate_mackay(params)
    with pytest.raises(ValueError):
        dg.saturation_bound_check(mats, [], diag, dg.ensemble_im_set(2, 2, 2))


# -- the right-hand-side memo -----------------------------------------------------

def _inline_bound(diag, key):
    """The right-hand side of the check and set sizes in `key`, formed by the
    check's formula from the diagnostics' fields."""
    name, *sizes = key
    if name == "hash":
        t, tp, inter = sizes
        return (inter + Fraction(t * tp) * diag.alpha / diag.im_size
                + min(t, tp) * diag.beta)
    if name == "collision":
        (g,) = sizes
        return Fraction(g) * diag.alpha / diag.im_size + diag.beta
    assert name == "saturation"
    (t,) = sizes
    return diag.alpha - 1 + Fraction(diag.im_size) * (diag.beta + 1) / t


def _bound_checks(ens, diag, im_set, seed, cases=40):
    """(lhs, rhs) of the three set checks on `cases` random set draws."""
    q, n = diag.q, ens.dense.shape[2]
    space = list(itertools.product(range(q), repeat=n))
    rng = rng_from_seed(seed)
    out = []
    for _ in range(cases):
        T, Tp = _random_subset(rng, space, 5), _random_subset(rng, space, 5)
        u = space[int(rng.integers(len(space)))]
        out.append((dg.hash_sum_exhaustive(ens, T, Tp, diag),
                    dg.collision_bound_check(ens, Tp, u, diag),
                    dg.saturation_bound_check(ens, T, diag, im_set)))
    return out


@pytest.mark.parametrize("q, l, n", [(2, 3, 3), (3, 1, 3)])
def test_bounds_are_formed_once_per_diagnostics_and_sizes(q, l, n):
    ens, _, diag, im_set = _memo_setting(q, "mackay", l, n, 2)
    first = _bound_checks(ens, diag, im_set, seed=3)
    memo = dict(diag._bounds)
    assert {key[0] for key in memo} == {"hash", "collision", "saturation"}
    # the same draws again read every bound from the memo and add none
    assert _bound_checks(ens, diag, im_set, seed=3) == first
    assert diag._bounds == memo
    for key, rhs in memo.items():
        want = _inline_bound(diag, key)
        assert type(rhs) is type(want) and rhs == want
    # a new diagnostics of the same ensemble forms them again, equal
    _, _, fresh, _ = _memo_setting(q, "mackay", l, n, 2)
    assert _bound_checks(ens, fresh, im_set, seed=3) == first
    assert fresh._bounds == memo and fresh._bounds is not diag._bounds


def test_a_check_reads_its_bound_by_set_sizes():
    ens, _, diag, im_set = _memo_setting(3, "mackay", 1, 3, 2)
    diag._bounds[("collision", 2)] = Fraction(-7)
    diag._bounds[("saturation", 1)] = Fraction(-8)
    diag._bounds[("hash", 1, 2, 0)] = Fraction(-9)
    assert dg.collision_bound_check(ens, [(1, 0, 0), (0, 1, 0)], (0, 0, 1),
                                    diag)[1] == -7
    assert dg.collision_bound_check(ens, [(1, 0, 0)], (0, 0, 1), diag)[1] == (
        _inline_bound(diag, ("collision", 1)))
    assert dg.saturation_bound_check(ens, [(1, 2, 0)], diag, im_set)[1] == -8
    assert dg.hash_sum_exhaustive(ens, [(1, 0, 0)], [(0, 1, 0), (0, 0, 1)],
                                  diag)[1] == -9
    # one vector of T in T': |T cap T'| = 1 is another key
    assert dg.hash_sum_exhaustive(ens, [(1, 0, 0)], [(1, 0, 0), (0, 0, 1)],
                                  diag)[1] == _inline_bound(diag,
                                                            ("hash", 1, 2, 1))


def test_diagnostics_with_other_alpha_or_beta_share_no_bound():
    ens, _, diag, im_set = _memo_setting(3, "mackay", 1, 3, 2)
    others = [dataclasses.replace(diag, alpha=diag.alpha + Fraction(1, 7)),
              dataclasses.replace(diag, beta=2 * diag.beta + 1)]
    base = _bound_checks(ens, diag, im_set, seed=9)
    for other in others:
        assert other._bounds == {}
        got = _bound_checks(ens, other, im_set, seed=9)
        # the same left-hand sides against other bounds
        assert [[lhs for lhs, _ in row] for row in got] == [
            [lhs for lhs, _ in row] for row in base]
        assert all(r1 != r0 for row, row0 in zip(got, base)
                   for (_, r1), (_, r0) in zip(row, row0))
        assert other._bounds.keys() == diag._bounds.keys()
        for key, rhs in other._bounds.items():
            assert rhs == _inline_bound(other, key) != diag._bounds[key]


def test_float_bounds_keep_their_bits(monkeypatch):
    # past EXACT_L_LIMIT alpha and beta are floats; each bound is the float
    # the formula gives, bit for bit
    monkeypatch.setattr(dg, "EXACT_L_LIMIT", 0)
    ens, _, diag, im_set = _memo_setting(2, "mackay", 3, 3, 2)
    assert isinstance(diag.alpha, float) and isinstance(diag.beta, float)
    first = _bound_checks(ens, diag, im_set, seed=4)
    assert _bound_checks(ens, diag, im_set, seed=4) == first
    for key, rhs in diag._bounds.items():
        assert type(rhs) is float
        assert rhs.hex() == _inline_bound(diag, key).hex()


def test_diagnostics_are_frozen():
    diag = dg.alpha_beta(EnsembleParams(q=2, l=2, n=2, tau=2, xi=0.5), 2)
    for name, value in (("alpha", Fraction(0)), ("beta", Fraction(5)),
                        ("im_size", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(diag, name, value)
    assert "_bounds" not in repr(diag)


# -- stacked checks against the one-matrix-at-a-time references -----------------

def _reference_mackay(params):
    """The sparse ensemble as (dense, probability) pairs, built one matrix
    at a time: sorted column outcomes, columns in itertools.product order."""
    q, l, n, tau = params.q, params.l, params.n, params.tau
    items = sorted(dg.enumerate_column_outcomes(q, l, tau).items())
    out = []
    for cols in itertools.product(items, repeat=n):
        dense = np.array([c for c, _ in cols], dtype=np.int64).T.reshape(l, n)
        out.append((dense, math.prod(
            (Fraction(count, (l * (q - 1)) ** tau) for _, count in cols),
            start=Fraction(1))))
    return out


def _reference_uniform(q, l, n):
    p = Fraction(1, q ** (l * n))
    return [(np.array(flat, dtype=np.int64).reshape(l, n), p)
            for flat in itertools.product(range(q), repeat=l * n)]


def _reference_return_prob(pairs, u, q):
    u = np.asarray(u, dtype=np.int64)
    total = Fraction(0)
    for dense, prob in pairs:
        if not np.any((dense @ u) % q):
            total += prob
    return total


def _reference_hash_sum(pairs, T, Tp, diag):
    q = diag.q
    T = [tuple(int(x) % q for x in u) for u in T]
    Tp = [tuple(int(x) % q for x in u) for u in Tp]
    lhs = Fraction(0)
    for dense, prob in pairs:
        syn_t = Counter(tuple((dense @ np.array(u)) % q) for u in T)
        syn_tp = Counter(tuple((dense @ np.array(u)) % q) for u in Tp)
        hits = sum(c * syn_tp.get(s, 0) for s, c in syn_t.items())
        lhs += prob * hits
    inter = len(set(T) & set(Tp))
    rhs = (
        inter
        + Fraction(len(T) * len(Tp)) * diag.alpha / diag.im_size
        + min(len(T), len(Tp)) * diag.beta
    )
    return lhs, rhs


def _reference_collision(pairs, G, u, diag):
    q = diag.q
    u = np.asarray(u, dtype=np.int64) % q
    others = [np.array(g, dtype=np.int64) % q for g in G
              if tuple(int(x) % q for x in g) != tuple(u)]
    lhs = Fraction(0)
    for dense, prob in pairs:
        su = tuple((dense @ u) % q)
        if any(tuple((dense @ g) % q) == su for g in others):
            lhs += prob
    rhs = Fraction(len(G)) * diag.alpha / diag.im_size + diag.beta
    return lhs, rhs


def _reference_saturation(pairs, T, diag, im_set):
    q = diag.q
    T = [np.array(u, dtype=np.int64) % q for u in T]
    im_list = [tuple(int(x) for x in c) for c in im_set]
    lhs = Fraction(0)
    for dense, prob in pairs:
        reached = {tuple((dense @ u) % q) for u in T}
        missing = sum(1 for c in im_list if c not in reached)
        lhs += prob * Fraction(missing, len(im_list))
    rhs = diag.alpha - 1 + Fraction(diag.im_size) * (diag.beta + 1) / len(T)
    return lhs, rhs


def _assert_stacked_equals_reference(ens, ref):
    assert len(ens) == len(ref)
    for dense, weight, (ref_dense, ref_prob) in zip(ens.dense, ens.weight, ref):
        assert np.array_equal(dense, ref_dense)
        assert Fraction(int(weight), ens.total) == ref_prob


@st.composite
def _ensemble_case(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["mackay", "uniform"]))
    l, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tau = draw(st.sampled_from([2, 4]))
    if kind == "mackay":
        assume((l * (q - 1)) ** (tau * n) <= 4096)
    else:
        assume(q ** (l * n) <= 729)
    # vectors over 0..2q-1: reduction mod q is the checks' job
    vec = st.tuples(*[st.integers(0, 2 * q - 1)] * n)
    sets = [draw(st.lists(vec, min_size=1, max_size=5)) for _ in range(2)]
    return q, kind, l, n, tau, sets, draw(vec)


@settings(max_examples=50, deadline=None)
@given(_ensemble_case())
@example((3, "mackay", 2, 3, 2, ([(1, 5, 2), (1, 5, 2), (0, 0, 0)],
                                 [(4, 2, 5), (0, 3, 3)]), (4, 2, 5)))
@example((2, "mackay", 3, 3, 2, ([(1, 1, 0), (3, 1, 2)], [(1, 1, 2)]), (1, 1, 0)))
@example((5, "uniform", 1, 3, 2, ([(9, 0, 1), (4, 5, 6)], [(4, 0, 1)]), (0, 0, 0)))
def test_stacked_checks_equal_reference_loops(case):
    """Every Fraction of the four stacked checks equals the per-matrix loop's,
    on both ensembles, with repeats and unreduced vectors in T and T'."""
    q, kind, l, n, tau, (T, Tp), u = case
    params = EnsembleParams(q=q, l=l, n=n, tau=tau, xi=0.5)
    diag = dg.alpha_beta(params, n, ensemble=kind)
    im_set = dg.ensemble_im_set(q, l, tau, ensemble=kind)
    if kind == "mackay":
        ens, ref = dg.enumerate_mackay(params), _reference_mackay(params)
    else:
        ens, ref = _enumerate_uniform(q, l, n), _reference_uniform(q, l, n)
    _assert_stacked_equals_reference(ens, ref)
    assert (dg.hash_sum_exhaustive(ens, T, Tp, diag)
            == _reference_hash_sum(ref, T, Tp, diag))
    u_again = tuple(x + q for x in u)  # u again, unreduced
    for G in (T, T + [u], [u], [u_again, u]):
        assert (dg.collision_bound_check(ens, G, u, diag)
                == _reference_collision(ref, G, u, diag))
    for S in (T, Tp):
        assert (dg.saturation_bound_check(ens, S, diag, im_set)
                == _reference_saturation(ref, S, diag, im_set))
    for v in itertools.product(range(q), repeat=n):
        assert (dg.return_prob_exhaustive(ens, v, q)
                == _reference_return_prob(ref, v, q))


@pytest.mark.parametrize("l", [40, 70])
def test_stacked_checks_past_int64_syndrome_codes(l):
    """Past 2**63 syndromes the codes are Python integers, still exact."""
    params = EnsembleParams(q=2, l=l, n=1, tau=2, xi=0.5)
    diag = dg.alpha_beta(params, 1)
    ens, ref = dg.enumerate_mackay(params), _reference_mackay(params)
    _assert_stacked_equals_reference(ens, ref)
    T, Tp = [(1,), (0,), (3,)], [(1,), (1,)]
    assert (dg.hash_sum_exhaustive(ens, T, Tp, diag)
            == _reference_hash_sum(ref, T, Tp, diag))
    assert (dg.collision_bound_check(ens, T, (1,), diag)
            == _reference_collision(ref, T, (1,), diag))
    assert dg.return_prob_exhaustive(ens, (1,), 2) == Fraction(1, l)


def _term_by_term_walk(q, l, steps, w_c):
    """The walk law as a term-by-term Fraction sum."""
    total = Fraction(0)
    for k in range(l + 1):
        base = 1 - Fraction(q * k, (q - 1) * l)
        total += base**steps * dg._krawtchouk(q, l, w_c, k)
    return total / q**l


def test_walk_integer_sum_equals_term_by_term_sum():
    for q, l in itertools.product((2, 3, 5), range(1, 9)):
        for steps in (*range(12), 40, 99):
            for w_c in range(l + 1):
                got = dg.walk_dist_closed(q, l, steps, w_c)
                assert got == _term_by_term_walk(q, l, steps, w_c)


# -- the per-ensemble syndrome table ----------------------------------------------

def _memo_setting(q, kind, l, n, tau):
    params = EnsembleParams(q=q, l=l, n=n, tau=tau, xi=0.5)
    diag = dg.alpha_beta(params, n, ensemble=kind)
    if kind == "mackay":
        ens, ref = dg.enumerate_mackay(params), _reference_mackay(params)
    else:
        ens, ref = _enumerate_uniform(q, l, n), _reference_uniform(q, l, n)
    # the image is enumerable only for small q**l
    im_set = (dg.ensemble_im_set(q, l, tau, ensemble=kind)
              if q**l <= dg.ENUM_BUDGET else None)
    return ens, ref, diag, im_set


def _run_checks_against_references(ens, ref, diag, im_set, calls):
    """Run the calls in order on one ensemble; each Fraction must equal the
    per-matrix loop's."""
    for name, *args in calls:
        if name == "hash":
            T, Tp = args
            assert (dg.hash_sum_exhaustive(ens, T, Tp, diag)
                    == _reference_hash_sum(ref, T, Tp, diag))
        elif name == "collision":
            G, u = args
            assert (dg.collision_bound_check(ens, G, u, diag)
                    == _reference_collision(ref, G, u, diag))
        elif name == "saturation" and im_set is not None:
            (S,) = args
            assert (dg.saturation_bound_check(ens, S, diag, im_set)
                    == _reference_saturation(ref, S, diag, im_set))
        elif name == "return":
            (u,) = args
            assert (dg.return_prob_exhaustive(ens, u, diag.q)
                    == _reference_return_prob(ref, u, diag.q))


@st.composite
def _memo_case(draw):
    q, kind, l, n, tau, _, _ = draw(_ensemble_case())
    # vectors over 0..2q-1 from a small space: repeats and reductions that
    # land on an earlier vector are common, so calls mix hits and misses
    vec = st.tuples(*[st.integers(0, 2 * q - 1)] * n)
    sets = st.lists(vec, min_size=1, max_size=5)
    calls = draw(st.lists(st.one_of(
        st.tuples(st.just("hash"), sets, sets),
        st.tuples(st.just("collision"), sets, vec),
        st.tuples(st.just("saturation"), sets),
        st.tuples(st.just("return"), vec)), min_size=1, max_size=10))
    return (q, kind, l, n, tau), calls


_MIXED_CALLS = [("saturation", [(4, 0, 1)]),
                ("hash", [(1, 0, 1), (4, 3, 1)], [(2, 0, 1), (1, 3, 4)]),
                ("collision", [(1, 3, 1), (0, 0, 0), (1, 0, 1)], (4, 0, 1)),
                ("return", (5, 5, 5)),
                ("saturation", [(2, 2, 2), (2, 2, 2), (0, 1, 2)])]


@settings(max_examples=50, deadline=None)
@given(_memo_case())
@example(((3, "mackay", 1, 3, 2), _MIXED_CALLS))
@example(((5, "uniform", 1, 3, 2), _MIXED_CALLS))
@example(((2, "mackay", 70, 1, 2),
          [("hash", [(1,), (0,), (3,)], [(1,), (1,)]),
           ("collision", [(2,), (5,)], (1,)), ("return", (3,)),
           ("hash", [(0,), (2,)], [(7,)]), ("collision", [(1,)], (0,))]))
def test_memo_checks_equal_reference_loops(case):
    """Interleaved calls on one ensemble, its memo cold, then warm, then
    after a fresh start, equal the per-matrix loops: both ensembles, q in
    {2, 3, 5}, unreduced and repeated vectors, Python-integer codes at l = 70."""
    params, calls = case
    ens, ref, diag, im_set = _memo_setting(*params)
    _run_checks_against_references(ens, ref, diag, im_set, calls)
    _run_checks_against_references(ens, ref, diag, im_set, calls[::-1])
    fresh, _, _, _ = _memo_setting(*params)
    _run_checks_against_references(fresh, ref, diag, im_set, calls[1:] + calls)


@pytest.mark.parametrize("q, length, dtype", [(3, 4, np.int64),
                                               (2, 62, np.int64),
                                               (2, 63, object), (5, 40, object)])
def test_place_values_are_built_once_and_read_only(q, length, dtype):
    place = dg._place_values(q, length)
    assert dg._place_values(q, length) is place
    assert place.dtype == dtype and not place.flags.writeable
    assert place.tolist() == [q**k for k in range(length - 1, -1, -1)]
    with pytest.raises(ValueError):
        place[0] = 0


def _count_syndrome_codes(monkeypatch):
    """Record the number of vectors of each `_syndrome_codes` call."""
    calls = []
    codes = dg._syndrome_codes

    def counting(dense, vectors, q):
        calls.append(np.asarray(vectors).size // dense.shape[2])
        return codes(dense, vectors, q)

    monkeypatch.setattr(dg, "_syndrome_codes", counting)
    return calls


@pytest.mark.parametrize("budget", [1, 64, 150, 1000])
def test_memo_stays_within_the_budget(monkeypatch, budget):
    # 64 matrices and 8 vectors: within budget 1000 one product codes all
    # 512 codes and is kept; past budgets 1, 64 and 150 each check codes
    # only its own vectors and nothing is kept
    ens, ref, diag, im_set = _memo_setting(2, "mackay", 3, 3, 2)
    monkeypatch.setattr(dg, "ENUM_BUDGET", budget)
    calls = _count_syndrome_codes(monkeypatch)
    space = list(itertools.product(range(2), repeat=3))
    checks = [("hash", space[:5], space[3:]), ("collision", space, space[0]),
              ("saturation", space[2:])]
    _run_checks_against_references(ens, ref, diag, im_set, checks * 2)
    if budget >= 512:
        assert calls == [8]
        assert ens._tables[2].shape == (64, 8)
    else:
        assert calls == [10, 9, 6] * 2
        assert not ens._tables


def test_one_table_per_ensemble_and_field(monkeypatch):
    """Within the budget many checks on an ensemble code its vectors in one
    product, once per ensemble and q, and keep the per-matrix Fractions."""
    calls = _count_syndrome_codes(monkeypatch)
    rng = rng_from_seed(23)
    for q, kind, l, n in ((2, "mackay", 3, 3), (3, "mackay", 1, 3),
                          (5, "uniform", 1, 2)):
        ens, ref, diag, im_set = _memo_setting(q, kind, l, n, 2)
        space = list(itertools.product(range(2 * q), repeat=n))
        for _ in range(10):
            T, Tp = _random_subset(rng, space, 4), _random_subset(rng, space, 3)
            _run_checks_against_references(
                ens, ref, diag, im_set,
                [("hash", T, Tp), ("collision", Tp, T[0]), ("saturation", T)])
        assert calls[-1] == q**n
    assert len(calls) == 3


def test_saturation_never_codes_the_image(monkeypatch):
    """The bins that A T reaches are its distinct codes: no image vector is
    coded, and each Fraction equals the reference's membership count."""
    ens, ref, diag, im_set = _memo_setting(3, "mackay", 1, 3, 2)
    coded = []
    base_q = dg._base_q

    def counting(digits, q):
        coded.append(digits is im_set)
        return base_q(digits, q)

    monkeypatch.setattr(dg, "_base_q", counting)
    space = list(itertools.product(range(3), repeat=3))
    rng = rng_from_seed(70)
    for _ in range(70):
        T = _random_subset(rng, space, 5)
        got = dg.saturation_bound_check(ens, T, diag, im_set)
        assert got == _reference_saturation(ref, T, diag, im_set)
        assert got[0] <= got[1]
    assert coded and not any(coded)


def test_memo_fills_race_without_corruption():
    """Threads that ask one cold ensemble at once, building its table
    together, keep one table of every vector's codes, and every check
    returns the per-matrix loop's Fractions."""
    params = EnsembleParams(q=3, l=1, n=3, tau=2, xi=0.5)
    _, ref, diag, im_set = _memo_setting(3, "mackay", 1, 3, 2)
    space = list(itertools.product(range(3), repeat=3))
    rng = rng_from_seed(27)
    cases = [(_random_subset(rng, space, 3), _random_subset(rng, space, 3))
             for _ in range(12)]
    want = [(_reference_hash_sum(ref, T, Tp, diag),
             _reference_saturation(ref, T, diag, im_set),
             _reference_collision(ref, Tp, T[0], diag)) for T, Tp in cases]
    # 20 cold ensembles, 8 threads each
    ensembles = [dg.enumerate_mackay(params) for _ in range(20)]
    start = threading.Barrier(8, timeout=60)
    got = [[] for _ in range(8)]

    def work(i):
        for ens in ensembles:
            start.wait()
            got[i].append([(dg.hash_sum_exhaustive(ens, T, Tp, diag),
                            dg.saturation_bound_check(ens, T, diag, im_set),
                            dg.collision_bound_check(ens, Tp, T[0], diag))
                           for T, Tp in cases])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * len(ensembles)] * 8
    for ens in ensembles:
        assert list(ens._tables) == [3]
        assert np.array_equal(ens._tables[3],
                              dg._syndrome_codes(ens.dense, space, 3))
