"""Closed-form diagnostics against frozen values and exhaustive oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cosetcode import diagnostics as dg
from cosetcode.matrices import EnsembleParams, rng_from_seed


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


# -- spectrum and alpha/beta ------------------------------------------------------

def test_spectrum_example():
    assert dg.spectrum(2, 2, 2, 2, 1) == Fraction(1)  # 2 * 1/2
    with pytest.raises(ValueError):
        dg.spectrum(2, 2, 2, 2, 3)


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


def test_im_size_characterization():
    assert dg.ensemble_im_size(2, 3, 2) == 4
    assert dg.ensemble_im_size(2, 3, 3) == 8
    assert dg.ensemble_im_size(3, 2, 2) == 9
    assert dg.ensemble_im_size(2, 3, 2, ensemble="uniform") == 8
    evens = dg.ensemble_im_set(2, 3, 2)
    assert all(sum(c) % 2 == 0 for c in evens)
    assert len(evens) == 4


# -- cutoff feasibility -----------------------------------------------------------

def test_default_xi_is_smallest_feasible():
    for q, rate in ((2, 0.5), (3, 0.5), (2, 1.0)):
        xi = dg.default_xi(q, rate)
        assert dg.xi_feasible(q, rate, xi)
        prev = xi - 0.005
        if prev >= 0.005:
            assert not dg.xi_feasible(q, rate, prev)


def test_xi_feasible_validation():
    with pytest.raises(ValueError):
        dg.xi_feasible(2, 0.5, 0.0)
    with pytest.raises(ValueError):
        dg.xi_feasible(2, 4.0, 0.5)  # xi*rate > 1


# -- enumeration oracles ----------------------------------------------------------

def test_enumerated_ensembles_are_probability_spaces():
    mats = dg.enumerate_mackay(EnsembleParams(q=3, l=2, n=2, tau=2))
    assert sum(p for _, p in mats) == 1
    mats = dg.enumerate_uniform(2, 2, 2)
    assert len(mats) == 2**4
    assert sum(p for _, p in mats) == 1


def test_enumeration_budget():
    with pytest.raises(ValueError):
        dg.enumerate_mackay(EnsembleParams(q=3, l=8, n=8, tau=4))
    with pytest.raises(ValueError):
        dg.enumerate_uniform(2, 10, 10)


def test_column_outcomes_match_generation_support():
    dist = dg.enumerate_column_outcomes(2, 2, 2)
    # two equal-row picks cancel; two distinct rows give weight 2
    assert dist == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}


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


# -- product ensembles -------------------------------------------------------------

def _pair_collision_prob(mats_a, mats_b, ua, ub, va, vb, q, stacked):
    """Exact P over (A,B) of a collision between two points of the product map."""
    total = Fraction(0)
    for da, pa in mats_a:
        hit_a = np.array_equal((da @ ua) % q, (da @ va) % q)
        if not hit_a:
            continue
        for db, pb in mats_b:
            if np.array_equal((db @ ub) % q, (db @ vb) % q):
                total += pa * pb
    return total


@pytest.mark.parametrize("combine", ["stacked", "paired"])
def test_product_bound_exhaustive(combine):
    q, l, n, tau = 3, 1, 2, 2
    params = EnsembleParams(q=q, l=l, n=n, tau=tau, xi=0.5)
    da = dg.alpha_beta(params, n)
    db = dg.alpha_beta(params, n)
    mats = dg.enumerate_mackay(params)
    prod = (dg.stacked_diagnostics(da, db) if combine == "stacked"
            else dg.paired_diagnostics(da, db))
    space = [np.array(u) for u in itertools.product(range(q), repeat=n)]
    rng = rng_from_seed(8)
    for _ in range(10):
        if combine == "stacked":
            T = _random_subset(rng, space, 4)
            Tp = _random_subset(rng, space, 4)
            keys_t = [tuple(u) for u in T]
            keys_tp = [tuple(u) for u in Tp]
            lhs = Fraction(0)
            for u in T:
                for v in Tp:
                    lhs += _pair_collision_prob(mats, mats, u, u, v, v, q, True)
        else:
            # the paired bound applies to sets whose distinct members differ
            # in both coordinates; subsets of a bijection's graph guarantee it
            perm = rng.permutation(len(space))
            pairs = [(space[i], space[perm[i]]) for i in range(len(space))]
            T = _random_subset(rng, pairs, 4)
            Tp = _random_subset(rng, pairs, 4)
            keys_t = [(tuple(u), tuple(v)) for u, v in T]
            keys_tp = [(tuple(u), tuple(v)) for u, v in Tp]
            lhs = Fraction(0)
            for u1, v1 in T:
                for u2, v2 in Tp:
                    lhs += _pair_collision_prob(mats, mats, u1, v1, u2, v2, q, False)
        inter = len(set(keys_t) & set(keys_tp))
        rhs = (inter
               + Fraction(len(T) * len(Tp)) * prod.alpha / prod.im_size
               + min(len(T), len(Tp)) * prod.beta)
        assert lhs <= rhs
