"""Scheme constructions: dimension formulas, instances, encode/decode contracts."""

import itertools
import math
import sys
import threading
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cosetcode import harness as hn
from cosetcode import schemes as sc
from cosetcode.matrices import SparseMatrix, derive_seed
from cosetcode.types_lab import Distribution


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def bsc(p):
    return [[1 - p, p], [p, 1 - p]]


def dsbs(p):
    """Doubly symmetric binary source: X uniform, Y = X xor Bern(p)."""
    return [[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]]


# -- parameter objects ----------------------------------------------------------

def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        sc.SchemeParams("nope", Distribution([0.5, 0.5]), ("x",))


def test_cond_and_marg_tables():
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.1),
                                     "eps_a": 0.05, "eps_b": 0.05})
    cond = params.cond("y", "x")
    assert np.allclose(cond, bsc(0.1))
    assert np.allclose(params.marg("x"), [0.5, 0.5])
    assert np.allclose(params.marg("yx"), np.asarray(params.marg("xy")).T)
    assert params.card("x") == 2 and params.axis("y") == 1


# per problem, each config table with the call that gives it back: the axes
# follow the README's indexing, so a swapped alphabet letter fails here
RECOVERED = {
    "sw": {"joint": lambda p: p.marg("xy")},
    "ch": {"mu_x": lambda p: p.marg("x"),
           "channel": lambda p: p.cond("y", "x")},
    "gp": {"mu_z": lambda p: p.marg("z"),
           "mu_xw_z": lambda p: p.cond("xw", "z"),
           "channel": lambda p: p.cond("y", "xz")},
    "lossy": {"mu_x": lambda p: p.marg("x"),
              "test_channel": lambda p: p.cond("y", "x"),
              "rho": lambda p: p.rho},
    "wz": {"mu_xz": lambda p: p.marg("xz"),
           "test_channel": lambda p: p.cond("y", "x"),
           "f": lambda p: p.f, "rho": lambda p: p.rho},
    "oho": {"mu_xy": lambda p: p.marg("xy"),
            "channel": lambda p: p.cond("z", "y")},
}


@pytest.mark.parametrize("problem", RECOVERED)
def test_every_table_is_recovered_from_the_joint(problem):
    # strictly positive, asymmetric tables over alphabets of distinct sizes
    sizes = {"x": 2, "y": 3, "z": 5, "w": 3}
    rng = np.random.default_rng(7)
    scheme = {}
    for key, axes in sc.SCHEME_KEYS[problem].items():
        shape = [sizes[a] for a in axes]
        if not axes:
            scheme[key] = 0.05
        elif key == "f":
            scheme[key] = rng.integers(0, sizes["w"], shape)
        else:
            table = rng.random(shape) + 0.1
            if key in sc.PMF_KEYS:
                outs = tuple(range(len(axes) - sc.PMF_KEYS[key], len(axes)))
                table /= table.sum(axis=outs, keepdims=True)
            scheme[key] = table
    tables = {key for key, axes in sc.SCHEME_KEYS[problem].items() if axes}
    assert set(RECOVERED[problem]) == tables
    params = sc.scheme_params(problem, scheme)
    for key, recover in RECOVERED[problem].items():
        np.testing.assert_allclose(recover(params), scheme[key], rtol=0,
                                   atol=1e-12, err_msg=key)


def split_tables(params):
    """Every marginal and conditional over ordered disjoint axis sets."""
    axes = "".join(params.axes)
    for r in range(1, len(axes) + 1):
        for names in itertools.permutations(axes, r):
            names = "".join(names)
            yield f"marg {names}", params.marg(names)
            for cut in range(1, r):
                yield (f"cond {names[cut:]}|{names[:cut]}",
                       params.cond(names[cut:], names[:cut]))


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("problem,axes,eps", [
    ("ch", "xy", {"eps_a": 0.05, "eps_b": 0.1}),
    ("oho", "xyz", {"eps_a": 0.05, "eps_b": 0.1, "eps_bhat": 0.1}),
    ("gp", "xyzw", {"eps_a": 0.05, "eps_b": 0.1, "eps_ahat": 0.01})])
def test_tables_do_not_depend_on_the_joint_layout(problem, axes, eps, q):
    # a hand-built joint in C and in Fortran order: equal entries, so equal
    # bits in every table, whatever order its sums run in
    rng = np.random.default_rng(q)
    joint = rng.random((q,) * len(axes)) + 0.01
    joint /= joint.sum()
    c, f = (sc.SchemeParams(problem, Distribution(p), tuple(axes), numbers=eps)
            for p in (joint, np.asfortranarray(joint)))
    for (name, a), (_, b) in zip(split_tables(c), split_tables(f)):
        assert a.tobytes() == b.tobytes(), name
    assert sc.dims_for(c, 16).real == sc.dims_for(f, 16).real


def test_eps_conditions_warn_not_fail():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5],
                                         "channel": bsc(0.1),
                                         "eps_a": 0.01, "eps_b": 0.5})
    assert params.eps_warnings  # recorded, not raised or warned


def test_eps_conditions_satisfied_cases():
    # generous eps_a with tiny eps_b - eps_a satisfies the sqrt condition
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.11),
                                     "eps_a": 0.4, "eps_b": 0.4001})
    assert not params.eps_warnings
    params = sc.scheme_params("lossy", {
        "mu_x": [0.5, 0.5], "test_channel": bsc(0.25),
        "rho": [[0, 1], [1, 0]], "eps_a": 0.0001, "eps_b": 0.35})
    assert not params.eps_warnings


# -- dimension formulas ------------------------------------------------------------

def test_sw_dims_from_rates():
    params = sc.scheme_params("sw", {"joint": dsbs(0.11),
                                     "rate_x": 0.6, "rate_y": 0.7})
    dims = sc.dims_for(params, 20)
    assert dims.rounded == {"A": 12, "B": 14}
    assert not any(dims.clamped.values())


def test_ch_dims_bsc_frozen():
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.11),
                                     "eps_a": 0.05, "eps_b": 0.05})
    dims = sc.dims_for(params, 100)
    assert dims.real["A"] == pytest.approx(100 * (h2(0.11) + 0.05), abs=1e-9)
    assert dims.real["B"] == pytest.approx(100 * (1 - h2(0.11) - 0.05), abs=1e-9)
    assert dims.rounded["A"] == 55


def test_lossy_dims_frozen():
    params = sc.scheme_params("lossy", {
        "mu_x": [0.5, 0.5], "test_channel": bsc(0.25),
        "rho": [[0, 1], [1, 0]], "eps_a": 0.01, "eps_b": 0.1})
    dims = sc.dims_for(params, 16)
    assert dims.real["A"] == pytest.approx(16 * (h2(0.25) - 0.01), abs=1e-9)
    assert dims.real["B"] == pytest.approx(16 * (1 - h2(0.25) + 0.1), abs=1e-9)


def test_wz_reduces_to_lossy_dims_when_z_trivial():
    rho = [[0, 1], [1, 0]]
    f = [[0], [1]]  # y -> y, z ignored
    wz = sc.scheme_params("wz", {
        "mu_xz": Distribution([[0.5], [0.5]]).p, "test_channel": bsc(0.25),
        "f": f, "rho": rho, "eps_a": 0.01, "eps_b": 0.1})
    lossy = sc.scheme_params("lossy", {
        "mu_x": [0.5, 0.5], "test_channel": bsc(0.25), "rho": rho,
        "eps_a": 0.01, "eps_b": 0.1})
    dw, dl = sc.dims_for(wz, 16), sc.dims_for(lossy, 16)
    assert dw.rounded == dl.rounded


def test_oho_dims_signs():
    params = sc.scheme_params("oho", {
        "mu_xy": dsbs(0.1), "channel": bsc(0.1),
        "eps_a": 0.05, "eps_b": 0.15, "eps_bhat": 0.15})
    dims = sc.dims_for(params, 12)
    p = params.joint.p
    hz_y = h2(0.1)
    assert dims.real["A"] == pytest.approx(12 * (hz_y - 0.05), abs=1e-9)
    assert dims.real["B"] == pytest.approx(12 * (1 - hz_y + 0.15), abs=1e-9)


def test_dims_clamp_warns():
    params = sc.scheme_params("sw", {"joint": dsbs(0.11),
                                     "rate_x": 1.4, "rate_y": 0.01})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dims = sc.dims_for(params, 10)  # reported in `clamped`, not warned
    assert dims.rounded["A"] == 10 and dims.clamped["A"]
    assert dims.rounded["B"] == 1 and dims.clamped["B"]


# -- instances ---------------------------------------------------------------------

def test_build_instance_shapes_and_determinism(monkeypatch):
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.11),
                                     "eps_a": 0.05, "eps_b": 0.05})
    sizes = []  # the n of every dims_for call
    dims_for = sc.dims_for
    monkeypatch.setattr(sc, "dims_for", lambda p, n: sizes.append(n) or
                        dims_for(p, n))
    inst = sc.build_instance(params, 12, seed=5)
    assert inst.matrices["A"].l == inst.dims.rounded["A"]
    assert inst.matrices["B"].n == 12
    inst2 = sc.build_instance(params, 12, seed=5)
    assert inst.matrices["A"] == inst2.matrices["A"]
    assert np.array_equal(inst.vectors["A"], inst2.vectors["A"])
    inst3 = sc.build_instance(params, 12, seed=6)
    assert inst.matrices["A"] != inst3.matrices["A"]
    # the row counts are worked out once per (params, n), not per draw
    assert sc.build_instance(params, 8, seed=5).dims.rounded["A"] < 12
    assert sizes == [12, 8] and inst3.dims is inst.dims


def test_build_instance_uniform_ensemble():
    params = sc.scheme_params("sw", {"joint": dsbs(0.11),
                                     "rate_x": 0.6, "rate_y": 0.6})
    inst = sc.build_instance(params, 8, seed=1, ensemble="uniform")
    assert inst.matrices["A"].l == 5
    with pytest.raises(ValueError):
        sc.build_instance(params, 8, seed=1, ensemble="bogus")


def test_rate_of_uses_rank():
    eye = SparseMatrix(2, np.eye(4, dtype=int))
    assert sc.rate_of(eye, 4) == 1.0
    assert sc.rate_of(SparseMatrix(2, np.zeros((2, 4))), 4) == 0.0


def test_sample_message_lies_in_image():
    from cosetcode.cosets import solve_coset
    from cosetcode.matrices import sample_image_point
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.11),
                                     "eps_a": 0.05, "eps_b": 0.05})
    inst = sc.build_instance(params, 10, seed=3)
    seeds = [derive_seed(3, "m", t) for t in range(10)]
    m = sc.sample_message(inst, seeds)
    assert m.shape == (10, inst.matrices["B"].l)
    for row, seed in zip(m, seeds):
        assert not solve_coset([(inst.matrices["B"], row)]).empty[0]
        # row j is the point its own seed draws
        assert np.array_equal(row, sample_image_point(inst.matrices["B"], seed))


def test_identity_cond_detection():
    eye2 = np.stack([np.eye(2), np.eye(2)])  # [z, w, x]
    assert sc._is_identity_cond(eye2)
    assert not sc._is_identity_cond(np.full((2, 2, 2), 0.5))
    assert not sc._is_identity_cond(np.zeros((1, 2, 3)))


# -- encode/decode contracts --------------------------------------------------------

def _bsc_gp_params(eps_a=0.05, eps_b=0.02, eps_ahat=0.01):
    # W = X, channel BSC(0.11) independent of Z, Z uniform binary
    mu_xw_z = np.zeros((2, 2, 2))
    mu_xw_z[:, 0, 0] = 0.5
    mu_xw_z[:, 1, 1] = 0.5
    chan = np.zeros((2, 2, 2))  # [x, z, y]
    for z in range(2):
        chan[:, z, :] = bsc(0.11)
    return sc.scheme_params("gp", {"mu_z": [0.5, 0.5], "mu_xw_z": mu_xw_z,
                                   "channel": chan, "eps_a": eps_a,
                                   "eps_b": eps_b, "eps_ahat": eps_ahat})


def test_sw_round_trip_contracts():
    params = sc.scheme_params("sw", {"joint": dsbs(0.05),
                                     "rate_x": 0.9, "rate_y": 0.9})
    inst = sc.build_instance(params, 8, seed=2)
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, (10, 8))
    y = (x + (rng.random((10, 8)) < 0.05)) % 2
    bx, by = inst.matrices["A"].matvec(x), inst.matrices["B"].matvec(y)
    xh, yh = sc.sw_decode(inst, params, bx, by)
    assert xh.shape == yh.shape == (10, 8)
    assert np.array_equal(inst.matrices["A"].matvec(xh), bx)
    assert np.array_equal(inst.matrices["B"].matvec(yh), by)


def test_ch_encode_decode_contracts():
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.11),
                                     "eps_a": 0.05, "eps_b": 0.05})
    inst = sc.build_instance(params, 10, seed=4)
    m = sc.sample_message(inst, [derive_seed(4, "m", t) for t in range(10)])
    # (c, m) can be jointly unsolvable; such a trial is an encoder failure
    x, failed = sc.ch_encode(inst, params, m)
    live = ~failed
    assert live.any()
    assert np.array_equal(inst.matrices["B"].matvec(x[live]), m[live])
    assert (inst.matrices["A"].matvec(x[live]) == inst.vectors["A"]).all()
    mh = sc.ch_decode(inst, params, x[live])  # noiseless pass-through
    assert mh.shape == m[live].shape


def test_ch_encoder_failure():
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.11),
                                     "eps_a": 0.05, "eps_b": 0.05})
    A = SparseMatrix(2, [[1, 1]])
    inst = sc.SchemeInstance(2, {"A": A, "B": A}, {"A": np.array([0])},
                             sc.dims_for(params, 2))
    # an empty coset marks only its own trial
    x, failed = sc.ch_encode(inst, params, np.array([[1], [0]]))
    assert failed.tolist() == [True, False]
    assert x[1].tolist() == [0, 0]


def test_gp_contracts():
    params = _bsc_gp_params()
    inst = sc.build_instance(params, 8, seed=7)
    rng = np.random.default_rng(1)
    m = sc.sample_message(inst, [derive_seed(7, "m", t) for t in range(5)])
    z = rng.integers(0, 2, (5, 8))
    x, failed = sc.gp_encode(inst, params, m, z)
    assert not failed.any()
    # W = X here, so the codeword satisfies both syndrome constraints
    assert np.array_equal(inst.matrices["B"].matvec(x), m)
    assert (inst.matrices["A"].matvec(x) == inst.vectors["A"]).all()
    mh = sc.gp_decode(inst, params, x)
    assert mh.shape == m.shape


def test_forced_gp_stage_2_draws_no_matrix(monkeypatch):
    # x = w forces stage 2: no Ahat, no Ahat vector and no elimination of it;
    # with x != w at times the Ahat matrix and its vector are drawn.  A draw
    # eliminates nothing: the first coder call does
    solved = []
    original = sc.solve_coset

    def recording(constraints):
        solved.append(tuple(m.l for m, _ in constraints))
        return original(constraints)

    monkeypatch.setattr(sc, "solve_coset", recording)
    forced = sc.build_instance(_bsc_gp_params(), 8, seed=7)
    assert sorted(forced.matrices) == ["A", "B"]
    assert sorted(forced.vectors) == ["A"]
    assert solved == []
    m = sc.sample_message(forced, range(3))
    sc.gp_encode(forced, _bsc_gp_params(), m, np.zeros((3, 8), dtype=np.int64))
    assert solved == [(forced.matrices["A"].l, forced.matrices["B"].l)]
    assert "Ahat" in forced.dims.rounded
    mu_xw_z = np.array([[[0.4, 0.1], [0.1, 0.4]]] * 2)
    params = sc.scheme_params("gp", {
        "mu_z": [0.5, 0.5], "mu_xw_z": mu_xw_z,
        "channel": np.stack([bsc(0.11)] * 2, axis=1), "eps_a": 0.05,
        "eps_b": 0.15, "eps_ahat": 0.01})
    free = sc.build_instance(params, 8, seed=7)
    assert sorted(free.matrices) == ["A", "Ahat", "B"]
    assert sorted(free.vectors) == ["A", "Ahat"]


def test_lossy_and_wz_contracts():
    rho = [[0, 1], [1, 0]]
    params = sc.scheme_params("lossy", {
        "mu_x": [0.5, 0.5], "test_channel": bsc(0.25), "rho": rho,
        "eps_a": 0.01, "eps_b": 0.2})
    inst = sc.build_instance(params, 10, seed=9)
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2, (5, 10))
    b = sc.lossy_encode(inst, params, x)
    y, failed = sc.lossy_decode(inst, params, b)
    assert not failed.any()
    assert np.array_equal(inst.matrices["B"].matvec(y), b)

    f = [[0, 0], [1, 1]]  # reproduce y regardless of z
    wz = sc.scheme_params("wz", {
        "mu_xz": dsbs(0.2), "test_channel": bsc(0.25),
        "f": f, "rho": rho, "eps_a": 0.01, "eps_b": 0.3})
    winst = sc.build_instance(wz, 10, seed=9)
    x = rng.integers(0, 2, (5, 10))
    z = rng.integers(0, 2, (5, 10))
    b = sc.wz_encode(winst, wz, x)
    w, failed = sc.wz_decode(winst, wz, b, z)
    assert w.shape == x.shape and failed.shape == (5,)


def test_oho_contracts():
    params = sc.scheme_params("oho", {
        "mu_xy": dsbs(0.1), "channel": bsc(0.1),
        "eps_a": 0.05, "eps_b": 0.15, "eps_bhat": 0.15})
    inst = sc.build_instance(params, 10, seed=11)
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, (5, 10))
    y = (x + (rng.random((5, 10)) < 0.1)) % 2
    bx = inst.matrices["Bhat"].matvec(x)
    by = sc.oho_encode_y(inst, params, y)
    xh, failed = sc.oho_decode(inst, params, bx, by)
    live = ~failed
    assert live.any()
    assert np.array_equal(inst.matrices["Bhat"].matvec(xh[live]), bx[live])


def test_ch_decode_returns_smallest_exact_ml_member(monkeypatch):
    # under a BSC every member at the same Hamming distance from y ties, and
    # a float sum of the same terms in another order can break such a tie
    from cosetcode.cosets import fixed_point_metric, log_table

    decoded = []
    original = sc.ml_code_cond_iid

    def spy(cosets, v, metric):
        got = original(cosets, v, metric)
        decoded.extend((cosets[j], v[j], got[j]) for j in range(len(cosets)))
        return got

    monkeypatch.setattr(sc, "ml_code_cond_iid", spy)
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.11),
                                     "eps_a": 0.05, "eps_b": 0.15})
    n = 16
    exact = fixed_point_metric(log_table(params.marg("yx")), n)
    assert np.isfinite(exact).all()
    for k in range(4):
        inst = sc.build_instance(params, n, derive_seed(2026, "inst", n, k))
        hn.run_trial(params, inst,
                     [derive_seed(2026, "trial", k, t) for t in range(100)])
    assert len(decoded) == 400
    for coset, y, got in decoded:
        rows = exact[y]
        # Python-int scores; among equal scores the smallest member wins
        want = max(coset.elements(), key=lambda u: (
            sum(int(rows[i, a]) for i, a in enumerate(u)), [-int(a) for a in u]))
        assert np.array_equal(got, want)


def test_nonprime_alphabet_rejected():
    joint = Distribution(np.full((4, 4), 1 / 16))
    params = sc.scheme_params("sw", {"joint": joint.p, "rate_x": 1.0,
                                     "rate_y": 1.0})
    with pytest.raises(ValueError):
        sc.build_instance(params, 4, seed=0)


def test_each_stacked_system_is_eliminated_once(monkeypatch):
    solved = Counter()
    original = sc.solve_coset

    def counting(constraints):
        solved[tuple(id(m) for m, _ in constraints)] += 1
        return original(constraints)

    monkeypatch.setattr(sc, "solve_coset", counting)
    rho = [[0, 1], [1, 0]]
    # [z, x, w] with x != w at times, so gp runs a real stage 2
    mu_xw_z = np.array([[[0.4, 0.1], [0.1, 0.4]]] * 2)
    chan = np.stack([bsc(0.11)] * 2, axis=1)  # [x, z, y]
    cases = {  # problem -> (params, number of stacked systems)
        "sw": ({"joint": dsbs(0.11), "rate_x": 0.85,
                "rate_y": 0.85}, 2),
        "ch": ({"mu_x": [0.5, 0.5], "channel": bsc(0.11), "eps_a": 0.05,
                "eps_b": 0.15}, 2),
        "gp": ({"mu_z": [0.5, 0.5], "mu_xw_z": mu_xw_z, "channel": chan,
                "eps_a": 0.05, "eps_b": 0.15, "eps_ahat": 0.01}, 3),
        "lossy": ({"mu_x": [0.5, 0.5], "test_channel": bsc(0.25), "rho": rho,
                   "eps_a": 0.01, "eps_b": 0.1}, 2),
        "wz": ({"mu_xz": dsbs(0.1), "test_channel": bsc(0.25),
                "f": [[0, 0], [1, 1]], "rho": rho, "eps_a": 0.01,
                "eps_b": 0.1}, 2),
        "oho": ({"mu_xy": dsbs(0.1), "channel": bsc(0.1),
                 "eps_a": 0.05, "eps_b": 0.15, "eps_bhat": 0.15}, 3),
    }
    # each batch of trials solves each of its stacked systems once, for
    # all its trials together
    for problem, (scheme, systems) in cases.items():
        params = sc.scheme_params(problem, scheme)
        inst = sc.build_instance(params, 10, seed=5)
        for batch in range(3):
            solved.clear()
            hn.run_trial(params, inst,
                         [derive_seed(5, problem, batch, t) for t in range(9)])
            assert sorted(solved.values()) == [1] * systems, problem


def test_first_use_of_a_coset_solves_its_own_targets():
    # a coset call codes the targets asked for, the shared vector broadcast
    # to every trial, and each trial's members solve its stacked system
    params = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": bsc(0.11),
                                     "eps_a": 0.05, "eps_b": 0.15})
    inst = sc.build_instance(params, 12, seed=3)
    m = sc.sample_message(inst, range(4))
    batch = inst.coset([("A", inst.vectors["A"]), ("B", m)], 4)
    assert np.array_equal(batch.target, np.hstack(
        [np.broadcast_to(inst.vectors["A"], (4, inst.matrices["A"].l)), m]))
    for j in range(4):
        u = batch[j].elements()
        assert (batch.matrix @ u.T % 2 == batch.target[j][:, None]).all()


def test_concurrent_first_use_of_a_coset():
    # more threads than cores solve the same system at once, each for its
    # own target; every one must get the coset of its target
    params = sc.scheme_params("sw", {"joint": dsbs(0.11),
                                     "rate_x": 0.85, "rate_y": 0.85})
    workers = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for draw in range(10):
            inst = sc.build_instance(params, 12, seed=draw)
            rng = np.random.default_rng(draw)
            targets = [inst.matrices["A"].matvec(rng.integers(0, 2, 12))
                       for _ in range(workers)]
            barrier = threading.Barrier(workers)

            def first_use(t):
                barrier.wait(timeout=30)
                return inst.coset([("A", t)], 1)[0]

            with ThreadPoolExecutor(max_workers=workers) as pool:
                cosets = list(pool.map(first_use, targets, timeout=60))
            for t, coset in zip(targets, cosets):
                assert np.array_equal(coset.target[0], t)
                u = coset.elements()[0]
                assert np.array_equal(coset.matrix @ u % 2, t)
    finally:
        sys.setswitchinterval(interval)
