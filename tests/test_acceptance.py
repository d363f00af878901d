"""Acceptance gate: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible even under
pytest's output capture) and then asserts, so a red run pinpoints the
criterion that regressed.  Runtime budgets are asserted where the
criterion states one.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from cosetcode import diagnostics as dg
from cosetcode import harness as hn
from cosetcode import schemes as sc
from cosetcode.cli import types_check_report
from cosetcode.matrices import EnsembleParams, derive_seed, generate_mackay

BSC11 = [[0.89, 0.11], [0.11, 0.89]]
BSC10 = [[0.9, 0.1], [0.1, 0.9]]
BSC25 = [[0.75, 0.25], [0.25, 0.75]]
HAMMING = [[0.0, 1.0], [1.0, 0.0]]
DSBS11 = [[0.445, 0.055], [0.055, 0.445]]
DSBS10 = [[0.45, 0.05], [0.05, 0.45]]


def report(capsys, num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion-{num}: {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_01_kernel_probability_exact(capsys):
    """Closed-form kernel-weight probability equals exhaustive enumeration,
    in exact rational arithmetic, on every enumerable configuration."""
    t0 = time.monotonic()
    ok = True
    cases = 0
    for q, l, n in itertools.product((2, 3), (1, 2), (1, 2, 3)):
        tau = 2
        if (l * (q - 1)) ** (tau * n) > 2 ** 16:
            continue
        mats = dg.enumerate_mackay(EnsembleParams(q=q, l=l, n=n, tau=tau))
        for w in range(1, n + 1):
            closed = dg.return_prob(q, l, tau, w)
            for hi in range(1, q):  # any vector of the weight, not just 1s
                u = [hi] * w + [0] * (n - w)
                exact = dg.return_prob_exhaustive(mats, u, q)
                ok = ok and isinstance(closed, Fraction) and closed == exact
                cases += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    report(capsys, 1, "closed-form kernel probability == exhaustive", ok,
           f"{cases} cases, {elapsed:.1f}s")
    assert ok


def test_criterion_02_walk_closed_form_matches_recursion(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for q in (2, 3):
        for l in range(1, 5):
            for steps in range(9):
                for w in range(l + 1):
                    a = dg.walk_dist_closed(q, l, steps, w)
                    b = dg.walk_pointwise_recursive(q, l, steps, w)
                    worst = max(worst, abs(float(a - b)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 5
    report(capsys, 2, "walk closed form vs recursion", ok,
           f"worst-diff={worst:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_collision_bounds_hold_exhaustively(capsys):
    t0 = time.monotonic()
    ok = True
    cases = 0
    for q, l, n, tau in ((2, 2, 2, 2), (3, 1, 2, 2)):
        params = EnsembleParams(q=q, l=l, n=n, tau=tau, xi=0.5)
        diag = dg.alpha_beta(params, n)
        mats = dg.enumerate_mackay(params)
        im_set = dg.ensemble_im_set(q, l, tau)
        space = list(itertools.product(range(q), repeat=n))
        rng = np.random.default_rng(1234)
        for _ in range(35):
            size_t = int(rng.integers(1, min(5, len(space)) + 1))
            size_tp = int(rng.integers(1, min(5, len(space)) + 1))
            T = [space[i] for i in rng.choice(len(space), size_t, replace=False)]
            Tp = [space[i] for i in rng.choice(len(space), size_tp, replace=False)]
            u = space[int(rng.integers(len(space)))]
            for lhs, rhs in (dg.hash_sum_exhaustive(mats, T, Tp, diag),
                             dg.collision_bound_check(mats, T, u, diag),
                             dg.saturation_bound_check(mats, T, diag, im_set)):
                ok = ok and lhs <= rhs
                cases += 1
    elapsed = time.monotonic() - t0
    ok = ok and cases >= 200 and elapsed < 120
    report(capsys, 3, "collision/saturation bounds on tiny ensembles", ok,
           f"{cases} cases, {elapsed:.1f}s")
    assert ok


def test_criterion_04_image_characterization(capsys):
    # q=2, even column weight: every output has even weight (exhaustive inputs)
    n, l = 12, 4
    inputs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(np.int64)
    even_ok = True
    for k in range(100):
        m = generate_mackay(EnsembleParams(q=2, l=l, n=n, tau=2),
                            derive_seed(99, "even", k))
        out = (inputs @ m.dense().T) % 2
        even_ok = even_ok and bool(np.all(out.sum(axis=1) % 2 == 0))
    # q=3: a full-rank draw (image size q^l) appears within 100 draws
    full_rank = False
    for k in range(100):
        m = generate_mackay(EnsembleParams(q=3, l=4, n=8, tau=2),
                            derive_seed(99, "rank", k))
        if m.rank_and_image()[0] == 4:
            full_rank = True
            break
    ok = even_ok and full_rank
    report(capsys, 4, "ensemble image structure", ok,
           f"even-weight q=2 over 100 draws, full-rank q=3 at draw {k}")
    assert ok


def test_criterion_05_type_lemma_suites(capsys):
    t0 = time.monotonic()
    ok = True
    details = []
    for q, n in ((2, 12), (3, 12)):
        for name, passed, margin in types_check_report(q, n, 0.1, 0.1):
            ok = ok and passed
            if not passed:
                details.append(f"{name}@q={q} margin={margin:+.2e}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    report(capsys, 5, "type/typicality lemma suites", ok,
           "; ".join(details) or f"12 suites, {elapsed:.1f}s")
    assert ok


def test_criterion_06_syndrome_contracts_at_scale(capsys):
    """Every trial of every scheme satisfies its syndrome equalities; the
    checks are assertions inside the trial runner, so one violation fails."""
    t0 = time.monotonic()
    configs = {
        "sw": {"joint": DSBS11, "rate_x": 0.85, "rate_y": 0.85},
        "ch": {"mu_x": [0.5, 0.5], "channel": BSC11,
               "eps_a": 0.05, "eps_b": 0.15},
        "gp": {"mu_z": [0.5, 0.5],
               "mu_xw_z": [[[0.5, 0.0], [0.0, 0.5]]] * 2,
               "channel": [[BSC11[0]] * 2, [BSC11[1]] * 2],
               "eps_a": 0.05, "eps_b": 0.15,
               "eps_ahat": 0.01},
        "lossy": {"mu_x": [0.5, 0.5], "test_channel": BSC25,
                  "rho": HAMMING, "eps_a": 0.01, "eps_b": 0.1},
        "wz": {"mu_xz": DSBS10, "test_channel": BSC25,
               "f": [[0, 0], [1, 1]], "rho": HAMMING,
               "eps_a": 0.01, "eps_b": 0.1},
        "oho": {"mu_xy": DSBS10, "channel": BSC10,
                "eps_a": 0.05, "eps_b": 0.15, "eps_bhat": 0.15},
    }
    total = 0
    for problem, scheme in configs.items():
        cfg = hn.ExperimentConfig.from_dict({
            "problem": problem, "n": [12], "trials": 1700, "seed": 17,
            "best_of": 1, "scheme": scheme,
        })
        _, records = hn.run_experiment(cfg)
        total += len(records)
    elapsed = time.monotonic() - t0
    ok = total >= 10_000
    report(capsys, 6, "zero syndrome violations across schemes", ok,
           f"{total} trials, {elapsed:.1f}s")
    assert ok


def _gp_as_ch_params():
    """Side information with one value and a forced reproduction: the
    side-information scheme collapses to the plain channel scheme."""
    mu_xw_z = np.zeros((1, 2, 2))  # [z, x, w]: w == x surely
    mu_xw_z[0, 0, 0] = 0.5
    mu_xw_z[0, 1, 1] = 0.5
    chan = np.zeros((2, 1, 2))  # [x, z, y]
    chan[:, 0, :] = BSC11
    return sc.scheme_params("gp", {"mu_z": [1.0], "mu_xw_z": mu_xw_z,
                                   "channel": chan, "eps_a": 0.05,
                                   "eps_b": 0.05, "eps_ahat": 0.01})


def test_criterion_07_specialization_equivalences(capsys):
    n, seed, trials = 12, 314, 100
    ok = True
    # degenerate side-information channel coding == plain channel coding
    ch = sc.scheme_params("ch", {"mu_x": [0.5, 0.5], "channel": BSC11,
                                 "eps_a": 0.05, "eps_b": 0.05})
    gp = _gp_as_ch_params()
    ich = sc.build_instance(ch, n, seed)
    igp = sc.build_instance(gp, n, seed)
    ok = ok and ich.matrices["A"] == igp.matrices["A"]
    ok = ok and ich.matrices["B"] == igp.matrices["B"]
    ok = ok and np.array_equal(ich.vectors["A"], igp.vectors["A"])
    # all trials as one batch, as the harness runs them
    z = np.zeros((trials, n), dtype=np.int64)
    m = sc.sample_message(ich, [derive_seed(seed, "m", t) for t in range(trials)])
    x1, failed1 = sc.ch_encode(ich, ch, m)
    x2, failed2 = sc.gp_encode(igp, gp, m, z)
    live = ~failed1  # an encoder failure is an error in both schemes
    chan = [derive_seed(seed, "ch", t) for t in np.flatnonzero(live)]
    y = hn.sample_channel(ch.cond("y", "x"), x1[live], chan)
    y2 = hn.sample_channel(gp.cond("y", "xz"), (x2[live], z[live]), chan)
    ok = (ok and live.any() and np.array_equal(failed1, failed2)
          and np.array_equal(x1[live], x2[live]) and np.array_equal(y, y2)
          and np.array_equal(sc.ch_decode(ich, ch, y), sc.gp_decode(igp, gp, y2)))
    # trivial side information + identity reproduction == plain lossy coding
    lossy = sc.scheme_params("lossy", {
        "mu_x": [0.5, 0.5], "test_channel": BSC25, "rho": HAMMING,
        "eps_a": 0.01, "eps_b": 0.1})
    wz = sc.scheme_params("wz", {
        "mu_xz": np.array([[0.5], [0.5]]), "test_channel": BSC25,
        "f": [[0], [1]], "rho": HAMMING, "eps_a": 0.01, "eps_b": 0.1})
    ilo = sc.build_instance(lossy, n, seed)
    iwz = sc.build_instance(wz, n, seed)
    ok = ok and ilo.matrices["A"] == iwz.matrices["A"]
    ok = ok and ilo.matrices["B"] == iwz.matrices["B"]
    x = hn.sample_source([0.5, 0.5], n,
                         [derive_seed(seed, "x", t) for t in range(trials)])
    b1 = sc.lossy_encode(ilo, lossy, x)
    b2 = sc.wz_encode(iwz, wz, x)
    (w1, failed1), (w2, failed2) = (sc.lossy_decode(ilo, lossy, b1),
                                    sc.wz_decode(iwz, wz, b2, np.zeros_like(z)))
    ok = (ok and np.array_equal(b1, b2) and np.array_equal(failed1, failed2)
          and np.array_equal(w1[~failed1], w2[~failed2]))
    report(capsys, 7, "degenerate-case equivalences are bit-identical", ok,
           f"{trials} trials each")
    assert ok


def _best_error(problem, scheme, n, seed=2026, trials=500, best_of=8):
    cfg = hn.ExperimentConfig.from_dict({
        "problem": problem, "n": [n], "trials": trials, "seed": seed,
        "best_of": best_of, "scheme": scheme,
    })
    summary, _ = hn.run_experiment(cfg)
    return summary["rows"][0]["best_metric"]


def test_criterion_08a_sw_rates_separate_error(capsys):
    # DSBS(0.11): H(X|Y) = H(Y|X) ~ 0.50, H(X,Y) ~ 1.50.  Rates must also
    # satisfy the sum condition R_X + R_Y >= H(X,Y) + 0.2, hence 0.85 each.
    t0 = time.monotonic()
    above = _best_error("sw", {"joint": DSBS11,
                               "rate_x": 0.85, "rate_y": 0.85}, 16)
    below = _best_error("sw", {"joint": DSBS11,
                               "rate_x": 0.35, "rate_y": 0.35}, 16)
    elapsed = time.monotonic() - t0
    ok = below - above >= 0.15 and elapsed < 600
    report(capsys, "8a", "two-source coding error drops above the rate bounds",
           ok, f"above={above:.3f} below={below:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_08b_ch_rate_separates_error(capsys):
    # BSC(0.11) capacity ~ 0.50; code rate 0.15 below vs 0.15 above it
    t0 = time.monotonic()
    good = _best_error("ch", {"mu_x": [0.5, 0.5], "channel": BSC11,
                              "eps_a": 0.05, "eps_b": 0.15}, 16)
    bad = _best_error("ch", {"mu_x": [0.5, 0.5], "channel": BSC11,
                             "eps_a": 0.05, "eps_b": -0.15}, 16)
    elapsed = time.monotonic() - t0
    ok = bad - good >= 0.15 and elapsed < 600
    report(capsys, "8b", "channel coding error drops below capacity", ok,
           f"below-cap={good:.3f} above-cap={bad:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_08c_oho_rate_separates_error(capsys):
    # helper-assisted source coding: main rate 0.15 above vs below H(X|Z)
    t0 = time.monotonic()
    base = {"mu_xy": DSBS10, "channel": BSC10, "eps_a": 0.05, "eps_b": 0.15}
    good = _best_error("oho", {**base, "eps_bhat": 0.15}, 12)
    bad = _best_error("oho", {**base, "eps_bhat": -0.15}, 12)
    elapsed = time.monotonic() - t0
    ok = bad - good >= 0.15 and elapsed < 600
    report(capsys, "8c", "helper-assisted coding error drops above the bound",
           ok, f"above={good:.3f} below={bad:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_09_lossy_distortion_bound(capsys):
    cfg = hn.ExperimentConfig.from_dict({
        "problem": "lossy", "n": [16], "trials": 1000, "seed": 2026,
        "best_of": 8,
        "scheme": {"mu_x": [0.5, 0.5], "test_channel": BSC25,
                   "rho": HAMMING, "eps_a": 0.01, "eps_b": 0.1},
    })
    summary, _ = hn.run_experiment(cfg)
    best = summary["rows"][0]["best_metric"]
    # analytic bound E[rho] + 3|X||Y| rho_max sqrt(eps_a) (loose), plus a
    # frozen empirical regression guard from a calibration of this exact run
    ok = best <= 0.25 + 1.2 and best <= 0.40
    report(capsys, 9, "lossy mean distortion within bounds", ok,
           f"best-draw mean={best:.3f} <= 0.40 <= 1.45")
    assert ok


def test_criterion_10_thread_count_invariance(capsys, tmp_path):
    doc = {"problem": "sw", "n": [8, 10], "trials": 40, "seed": 31,
           "best_of": 2,
           "scheme": {"joint": DSBS11, "rate_x": 0.8, "rate_y": 0.8}}
    paths = []
    for threads in (1, 4):
        cfg = hn.ExperimentConfig.from_dict(doc)
        summary, records = hn.run_experiment(cfg, threads=threads)
        prefix = str(tmp_path / f"t{threads}")
        hn.write_outputs(summary, records, prefix)
        paths.append(prefix)
    ok = True
    for suffix in (".csv", "_records.csv"):
        b1 = (tmp_path / f"t1{suffix}").read_bytes()
        b4 = (tmp_path / f"t4{suffix}").read_bytes()
        ok = ok and b1 == b4
    report(capsys, 10, "CSV output byte-identical across thread counts", ok)
    assert ok
