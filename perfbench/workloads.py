"""Workload inputs, set-up and one measured round per workload.

A workload is a JSON-able *spec* generated from a seed.  The Monte Carlo
workloads hand `cosetcode` nothing but experiment configs, exactly what
`cosetcode run --config` reads; the oracle workload lists the parameters of
the exhaustive check subcommands.  A run repeats *rounds*, each with its own
seed, so no round can reuse work cached by an earlier one.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Criterion-6 schemes of the acceptance gate (tests/test_acceptance.py).
BSC11 = [[0.89, 0.11], [0.11, 0.89]]
BSC10 = [[0.9, 0.1], [0.1, 0.9]]
BSC25 = [[0.75, 0.25], [0.25, 0.75]]
HAMMING = [[0.0, 1.0], [1.0, 0.0]]
DSBS11 = [[0.445, 0.055], [0.055, 0.445]]
DSBS10 = [[0.45, 0.05], [0.05, 0.45]]
SCHEMES = {
    "sw": {"joint": DSBS11, "rate_x": 0.85, "rate_y": 0.85},
    "ch": {"mu_x": [0.5, 0.5], "channel": BSC11, "eps_a": 0.05, "eps_b": 0.15},
    "gp": {"mu_z": [0.5, 0.5], "mu_xw_z": [[[0.5, 0.0], [0.0, 0.5]]] * 2,
           "channel": [[BSC11[0]] * 2, [BSC11[1]] * 2],
           "eps_a": 0.05, "eps_b": 0.15, "eps_ahat": 0.01},
    "lossy": {"mu_x": [0.5, 0.5], "test_channel": BSC25, "rho": HAMMING,
              "eps_a": 0.01, "eps_b": 0.1},
    "wz": {"mu_xz": DSBS10, "test_channel": BSC25, "f": [[0, 0], [1, 1]],
           "rho": HAMMING, "eps_a": 0.01, "eps_b": 0.1},
    "oho": {"mu_xy": DSBS10, "channel": BSC10, "eps_a": 0.05, "eps_b": 0.15,
            "eps_bhat": 0.15},
}
SW_PRODUCT = {"joint": DSBS11, "rate_x": 0.35, "rate_y": 0.35}
DISTORTION_PROBLEMS = ("lossy", "wz")


def _config(problem, scheme, n, trials, best_of, seed):
    return {"problem": problem, "n": list(n), "trials": trials, "seed": seed,
            "best_of": best_of, "scheme": scheme}


def _trial_heavy(seed):
    return {"kind": "mc", "threads": 1, "configs": [
        _config(p, s, [16], 20, 2, seed) for p, s in SCHEMES.items()]}


def _sw_product(seed):
    return {"kind": "mc", "threads": 1,
            "configs": [_config("sw", SW_PRODUCT, [16], 4, 2, seed)]}


def _ensemble_sweep(seed):
    return {"kind": "mc", "threads": 2, "configs": [
        _config(p, SCHEMES[p], [8, 12, 16, 20], 4, 2, seed)
        for p in ("sw", "ch", "gp", "lossy", "wz")]}


def _oracles(seed):
    return {"kind": "oracles", "seed": seed,
            "hash_check": [{"q": 2, "l": 3, "n": 3, "tau": 2, "cases": 70},
                           {"q": 3, "l": 1, "n": 3, "tau": 2, "cases": 70}],
            "oracle": [{"q": 3, "l": 2, "n": 3, "tau": 2, "steps": 8}],
            "types_check": [{"q": 3, "n": 12}, {"q": 2, "n": 16}],
            "diag": [{"q": 3, "l": 32, "n": 64, "tau": 6}]}


WORKLOADS = {
    "trial-heavy": _trial_heavy,
    "sw-product": _sw_product,
    "ensemble-sweep": _ensemble_sweep,
    "oracles": _oracles,
}
# calibrate.py kernel whose speed tracks each workload's; interpreter otherwise
CALIBRATION = {"sw-product": "arrays"}


def round_seed(seed: int, r: int) -> int:
    """Seed of round r of a run with workload seed `seed`."""
    h = hashlib.sha256(f"perfbench:{int(seed)}:{r}".encode()).digest()
    return int.from_bytes(h[:4], "little")


def make_spec(name: str, seed: int, r: int) -> dict:
    return WORKLOADS[name](round_seed(seed, r))


def load_cosetcode():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cosetcode

    if Path(cosetcode.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cosetcode resolved outside {SRC}: {cosetcode.__file__}")
    return cosetcode


# -- set-up -------------------------------------------------------------------

def setup(spec: dict):
    """Everything a workload does before its first op; returns the state the
    rounds reuse.  Monte Carlo: validate configs, derive scheme parameters and
    draw every code instance with the seeds `run_experiment` derives.
    Oracles: enumerate the tiny ensembles and compute their diagnostics."""
    load_cosetcode()
    if spec["kind"] == "oracles":
        return _oracle_state(spec)
    from cosetcode import harness as hn
    from cosetcode import schemes as sc
    from cosetcode.matrices import derive_seed

    for doc in spec["configs"]:
        cfg = hn.ExperimentConfig.from_dict(doc)
        params = cfg.scheme_params()
        for n in cfg.n_list:
            for k in range(cfg.best_of):
                sc.build_instance(params, n, derive_seed(cfg.seed, "inst", n, k),
                                  ensemble=cfg.ensemble, tau=cfg.tau)
    return None


def admissibility(spec: dict) -> dict:
    """Counts of the admissibility results `run_experiment` drops silently."""
    from cosetcode import harness as hn
    from cosetcode import schemes as sc

    eps = clamped = 0
    for doc in spec.get("configs", ()):
        cfg = hn.ExperimentConfig.from_dict(doc)
        params = cfg.scheme_params()
        eps += len(params.eps_warnings)
        for n in cfg.n_list:
            clamped += sum(sc.dims_for(params, n).clamped.values())
    return {"eps_warnings": eps, "dims_clamped": clamped}


def _oracle_state(spec: dict) -> dict:
    from cosetcode import diagnostics as dg
    from cosetcode.matrices import EnsembleParams

    state = {"hash_check": [], "oracle": []}
    for c in spec["hash_check"]:
        params = EnsembleParams(q=c["q"], l=c["l"], n=c["n"], tau=c["tau"])
        state["hash_check"].append((
            dg.alpha_beta(params, c["n"]), dg.enumerate_mackay(params),
            dg.ensemble_im_set(c["q"], c["l"], c["tau"])))
    for c in spec["oracle"]:
        params = EnsembleParams(q=c["q"], l=c["l"], n=c["n"], tau=c["tau"])
        state["oracle"].append(dg.enumerate_mackay(params))
    state["diag"] = [
        dg.alpha_beta(EnsembleParams(q=c["q"], l=c["l"], n=c["n"], tau=c["tau"]),
                      c["n"])
        for c in spec["diag"]]
    return state


# -- one round ----------------------------------------------------------------

@dataclass
class Round:
    """Outcome of one round: op counts, run-phase wall time, output facts."""

    ops: int = 0  # attempted
    failed: int = 0  # of them; an aborted config fails all of its trials
    seconds: float = 0.0
    problems: list = field(default_factory=list)  # failed output checks
    digests: dict = field(default_factory=dict)
    error_rows: list = field(default_factory=list)
    distortion_rows: list = field(default_factory=list)
    records: list = field(default_factory=list)
    encoder_failures: int = 0


def run_round(spec: dict, outdir: str) -> Round:
    """Run one round; only the run phase is timed.

    The oracle rounds redo their set-up, untimed, so that a traced round
    covers the diagnostics that set-up calls."""
    if spec["kind"] == "oracles":
        return _oracle_round(spec, _oracle_state(spec))
    return _mc_round(spec, outdir)


def _mc_round(spec: dict, outdir: str) -> Round:
    from cosetcode import harness as hn

    cfgs = [hn.ExperimentConfig.from_dict(doc) for doc in spec["configs"]]
    res = Round()
    done = []
    t0 = time.perf_counter()
    for i, cfg in enumerate(cfgs):
        trials = len(cfg.n_list) * cfg.best_of * cfg.trials
        res.ops += trials
        prefix = os.path.join(outdir, f"{i}-{cfg.problem}")
        try:
            summary, records = hn.run_experiment(cfg, threads=spec["threads"])
            hn.write_outputs(summary, records, prefix)
        except Exception:  # an aborted config fails all of its trials
            traceback.print_exc(file=sys.stderr)
            res.failed += trials
            continue
        done.append((cfg, prefix, summary, records))
    res.seconds = time.perf_counter() - t0
    summary_hash, records_hash = hashlib.sha256(), hashlib.sha256()
    for cfg, prefix, summary, records in done:
        with open(f"{prefix}.csv", "rb") as fh:
            summary_bytes = fh.read()
        with open(f"{prefix}_records.csv", "rb") as fh:
            records_bytes = fh.read()
        summary_hash.update(summary_bytes)
        records_hash.update(records_bytes)
        res.problems += check_outputs(cfg, summary_bytes.decode(),
                                      records_bytes.decode())
        rows = [row["mean_metric"] for row in summary["rows"]]
        if cfg.problem in DISTORTION_PROBLEMS:
            res.distortion_rows += rows
        else:
            res.error_rows += rows
        res.records += records
        res.encoder_failures += sum(r.encoder_failure for r in records)
    res.digests = {"summary_csv": summary_hash.hexdigest(),
                   "records_csv": records_hash.hexdigest()}
    return res


def check_outputs(cfg, summary_csv: str, records_csv: str) -> list:
    """Re-derive every per-n row of the summary CSV from the records CSV.

    Returns the list of disagreements (empty when the outputs are right)."""
    problems = []
    where = f"{cfg.problem} seed={cfg.seed}"
    head, *lines = records_csv.splitlines()
    if head != "n,draw,trial,seed,ok,distortion,encoder_failure":
        return [f"{where}: records header {head!r}"]
    expected = len(cfg.n_list) * cfg.best_of * cfg.trials
    if len(lines) != expected:
        problems.append(f"{where}: {len(lines)} records, expected {expected}")
    per_draw = {}
    distortion = cfg.problem in DISTORTION_PROBLEMS
    for line in lines:
        n, draw, _, _, ok, dist, _ = line.split(",")
        value = float(dist) if distortion else float(ok != "1")
        per_draw.setdefault((int(n), int(draw)), []).append(value)
    head, *rows = summary_csv.splitlines()
    cols = head.split(",")
    if len(rows) != len(cfg.n_list):
        problems.append(f"{where}: {len(rows)} summary rows for n={cfg.n_list}")
    for n, line in zip(cfg.n_list, rows):
        row = dict(zip(cols, line.split(",")))
        draws = [per_draw.get((n, k), []) for k in range(cfg.best_of)]
        if int(row["n"]) != n or not all(draws):
            problems.append(f"{where}: row for n={n} has no records")
            continue
        metrics = [sum(d) / len(d) for d in draws]
        mean, best = sum(metrics) / len(metrics), min(metrics)
        if not (math.isclose(float(row["mean_metric"]), mean, abs_tol=1e-12)
                and math.isclose(float(row["best_metric"]), best, abs_tol=1e-12)
                and 0.0 <= best <= mean):
            problems.append(f"{where}: n={n} summary {row} disagrees with "
                            f"records (mean {mean!r}, best {best!r})")
    return problems


def _oracle_round(spec: dict, state: dict) -> Round:
    from cosetcode import cli
    from cosetcode import diagnostics as dg
    from cosetcode import types_lab as tl
    from cosetcode.matrices import rng_from_seed

    res = Round()
    results = []

    def op(check):
        """One check call returning (ok, *detail); a raise or FAIL fails it."""
        res.ops += 1
        try:
            out = check()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = (False, "raised")
        results.append(out)
        res.failed += not out[0]

    def bound(lhs_rhs):
        return lhs_rhs[0] <= lhs_rhs[1], *lhs_rhs

    def agree(a, b, tol=None):
        return (a == b if tol is None else abs(float(a - b)) <= tol), a, b

    t0 = time.perf_counter()
    for i, (c, (diag, mats, im_set)) in enumerate(
            zip(spec["hash_check"], state["hash_check"])):
        rng = rng_from_seed(spec["seed"] + i)
        space = list(itertools.product(range(c["q"]), repeat=c["n"]))
        for _ in range(c["cases"]):
            size_t = int(rng.integers(1, min(5, len(space)) + 1))
            size_tp = int(rng.integers(1, min(5, len(space)) + 1))
            T = [space[j] for j in rng.choice(len(space), size_t, replace=False)]
            Tp = [space[j] for j in rng.choice(len(space), size_tp, replace=False)]
            u = space[int(rng.integers(len(space)))]
            op(lambda: bound(dg.hash_sum_exhaustive(mats, T, Tp, diag)))
            op(lambda: bound(dg.collision_bound_check(mats, T, u, diag)))
            op(lambda: bound(dg.saturation_bound_check(mats, T, diag, im_set)))
    for c, mats in zip(spec["oracle"], state["oracle"]):
        q, l, tau = c["q"], c["l"], c["tau"]
        for w in range(1, c["n"] + 1):
            u = [1] * w + [0] * (c["n"] - w)
            op(lambda: agree(dg.return_prob(q, l, tau, w),
                             dg.return_prob_exhaustive(mats, u, q)))
        for steps in range(c["steps"] + 1):
            for w in range(l + 1):
                op(lambda: agree(dg.walk_dist_closed(q, l, steps, w),
                                 dg.walk_pointwise_recursive(q, l, steps, w),
                                 tol=1e-12))
    for c in spec["types_check"]:
        try:
            report = cli.types_check_report(c["q"], c["n"], 0.1, 0.1)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            report = [(name, False, "raised") for name, _ in tl.LEMMA_SUITE]
        for name, ok, margin in report:
            op(lambda: (ok, name, margin))
    res.seconds = time.perf_counter() - t0
    res.digests = {"checks": hashlib.sha256(repr(results).encode()).hexdigest()}
    return res
