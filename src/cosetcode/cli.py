"""Command-line interface: generation, diagnostics, checks, experiments."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import diagnostics as dg
from . import harness as hn
from . import schemes as sc
from . import types_lab as tl
from .cosets import BudgetError
from .matrices import (
    EnsembleParams,
    generate_mackay,
    generate_uniform,
    rng_from_seed,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _check_count(value: int, flag: str, low: int):
    """Refuse a count argument below `low` before any work starts."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _check_space(q: int, power: int, flag: str):
    """Refuse a space of q**power vectors past the enumeration budget, for
    a prime q: a power past the budget's bit length is past the budget, and
    is not formed."""
    if power > dg.ENUM_BUDGET.bit_length() or q**power > dg.ENUM_BUDGET:
        raise ValueError(f"{flag} must keep q**{flag[2:]} <= "
                         f"{dg.ENUM_BUDGET}, got {q}**{power}")


def _emit(text: str, out) -> int:
    """Write `text` to the file `out`, or to stdout when there is none."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _ensemble_params(args, **kw) -> EnsembleParams:
    """--tau is the MacKay column weight, 2 when omitted.  The uniform
    ensemble has none, so an explicit --tau with it is refused."""
    if args.ensemble == "uniform" and args.tau is not None:
        raise ValueError("tau: the uniform ensemble has no column weight")
    tau = 2 if args.tau is None else args.tau
    return EnsembleParams(q=args.q, l=args.l, n=args.n, tau=tau, **kw)


def cmd_gen_matrix(args) -> int:
    params = _ensemble_params(args)
    if args.ensemble == "mackay":
        m = generate_mackay(params, args.seed)
    else:
        m = generate_uniform(args.q, args.l, args.n, args.seed)
    return _emit(m.to_text(), args.out)


def cmd_diag(args) -> int:
    params = _ensemble_params(args, xi=args.xi)
    d = dg.alpha_beta(params, args.n, ensemble=args.ensemble)
    lines = [
        f"# alpha,{float(d.alpha)!r}",
        f"# beta,{float(d.beta)!r}",
        f"# im_ratio,{float(d.im_ratio)!r}",
        "w,p_Aw,C_w,S",
    ]
    for w in range(1, args.n + 1):
        p, cw = d.per_weight[w]
        lines.append(f"{w},{float(p)!r},{cw},{float(p) * cw!r}")
    return _emit("\n".join(lines) + "\n", args.out)


def types_check_report(q: int, n: int, gamma: float, gamma2: float):
    """Run the six type-lemma suites in `LEMMA_SUITE` order; returns
    [(name, ok, margin), ...]."""
    mu = (tl.Distribution([0.5, 0.3, 0.2]) if q == 3
          else tl.Distribution.uniform(q))
    mu_biased = tl.Distribution([0.7, 0.3]) if q == 2 else mu
    joint = tl.Distribution(
        np.outer(mu_biased.p, mu.p) * 0.5
        + np.eye(q)[:mu_biased.p.size, :q] * 0.5 / q)
    # the suites that take other arguments than (mu_biased, n, gamma)
    special = {"exprob": (mu_biased, n),
               "typical-trans": (joint, min(n, 8), gamma, gamma2),
               "typical-aep": (mu_biased, n, min(gamma, 0.125))}
    # each check is looked up on the module at call time, not taken from the
    # tuple, so that a wrapper set on the module attribute sees the call
    return [(name,) + getattr(tl, check.__name__)(
                *special.get(name, (mu_biased, n, gamma)))
            for name, check in tl.LEMMA_SUITE]


def cmd_types_check(args) -> int:
    _check_count(args.q, "--q", 1)
    _check_count(args.n, "--n", 1)
    # the suites hold one array of the types of length n over q letters, and
    # one of length min(n, 8) over q^2 letters (typical-trans)
    for length, letters in ((args.n, args.q), (min(args.n, 8), args.q**2)):
        count = math.comb(length + letters - 1, letters - 1)
        if count * letters > tl.ENUM_BUDGET:
            raise ValueError(
                f"--q {args.q} --n {args.n} needs {count} types of length "
                f"{length} over {letters} letters, {count * letters} entries, "
                f"over the budget {tl.ENUM_BUDGET}")
    for flag, value in (("--gamma", args.gamma), ("--gamma2", args.gamma2)):
        if not value > 0:
            raise ValueError(f"{flag} must be > 0, got {value}")
    results = types_check_report(args.q, args.n, args.gamma, args.gamma2)
    ok_all = True
    for name, ok, margin in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} worst-margin={margin:+.3e}")
        ok_all = ok_all and ok
    return EXIT_OK if ok_all else EXIT_CHECK_FAILED


def cmd_hash_check(args) -> int:
    _check_count(args.cases, "--cases", 1)
    params = EnsembleParams(q=args.q, l=args.l, n=args.n, tau=args.tau,
                            xi=args.xi)
    # the suites hold the q**n vectors the sets are drawn from and the q**l
    # image vectors
    _check_space(args.q, args.n, "--n")
    _check_space(args.q, args.l, "--l")
    diag = dg.alpha_beta(params, args.n)
    mats = dg.enumerate_mackay(params)
    im_set = dg.ensemble_im_set(args.q, args.l, args.tau)
    rng = rng_from_seed(args.seed)
    size = args.q**args.n

    def vector(i):
        """The i-th vector of GF(q)^n in itertools.product order."""
        return tuple(int(c) for c in np.unravel_index(i, (args.q,) * args.n))

    failures = 0
    for _ in range(args.cases):
        size_t = int(rng.integers(1, min(5, size) + 1))
        size_tp = int(rng.integers(1, min(5, size) + 1))
        T = [vector(i) for i in rng.choice(size, size_t, replace=False)]
        Tp = [vector(i) for i in rng.choice(size, size_tp, replace=False)]
        u = vector(int(rng.integers(size)))
        for lhs, rhs in (dg.hash_sum_exhaustive(mats, T, Tp, diag),
                         dg.collision_bound_check(mats, T, u, diag),
                         dg.saturation_bound_check(mats, T, diag, im_set)):
            failures += lhs > rhs
    print(f"{'PASS' if failures == 0 else 'FAIL'} hash-check "
          f"cases={3 * args.cases} violations={failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_run(args) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    if args.seed is not None and isinstance(doc, dict):
        doc["seed"] = args.seed
    cfg = hn.ExperimentConfig.from_dict(doc)
    prefix = args.out or cfg.out or os.path.join(
        os.environ.get("COSETCODE_OUT", "."), f"{cfg.problem}_run")
    directory = os.path.dirname(prefix) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory} does not exist")
    summary_path = f"{prefix}.json"
    if os.path.exists(summary_path) and os.path.samefile(summary_path,
                                                         args.config):
        raise ValueError(f"the JSON summary {summary_path} would overwrite "
                         "the config; choose another --out prefix")
    params = cfg.scheme_params()
    for n in cfg.n_list:  # a search past the budget exits 2 before any draw
        sc.check_searches(params, n, cfg.ensemble)
    summary, records = hn.run_experiment(cfg)
    csv_path = hn.write_outputs(summary, records, prefix)
    sys.stdout.write(hn.summary_csv(summary))
    print(f"# written: {csv_path}")
    notes = summary["eps_warnings"] + [
        f"n={n}: dimension {name} clamped"
        for n, clamped in summary["dims_clamped"].items()
        for name, hit in clamped.items() if hit]
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args) -> int:
    """Brute-force cross-checks of the closed forms."""
    _check_count(args.steps, "--steps", 0)
    params = EnsembleParams(q=args.q, l=args.l, n=args.n, tau=args.tau)
    # the walk recursion's state space is the q**l vectors of GF(q)^l
    _check_space(args.q, args.l, "--l")
    ok_all = True
    # kernel-weight probability against full ensemble enumeration
    mats = dg.enumerate_mackay(params)
    for w in range(1, args.n + 1):
        u = [1] * w + [0] * (args.n - w)
        closed = dg.return_prob(args.q, args.l, args.tau, w)
        exact = dg.return_prob_exhaustive(mats, u, args.q)
        ok = closed == exact
        ok_all = ok_all and ok
        print(f"{'PASS' if ok else 'FAIL'} return-prob w={w} "
              f"closed={closed} exhaustive={exact}")
    # walk closed form against the weight-class recursion
    worst = 0.0
    for steps in range(args.steps + 1):
        for w in range(args.l + 1):
            a = dg.walk_dist_closed(args.q, args.l, steps, w)
            b = dg.walk_pointwise_recursive(args.q, args.l, steps, w)
            worst = max(worst, abs(float(a - b)))
    ok = worst <= 1e-12
    ok_all = ok_all and ok
    print(f"{'PASS' if ok else 'FAIL'} walk-dist worst-diff={worst:.3e}")
    return EXIT_OK if ok_all else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cosetcode",
        description="Sparse-matrix coset coding: diagnostics, checks, simulators.")
    sub = p.add_subparsers(dest="command")

    def common(sp, seed=False, out=False, xi=False, ensemble=False):
        sp.add_argument("--q", type=int, default=2)
        sp.add_argument("--l", type=int, default=2)
        sp.add_argument("--n", type=int, default=4)
        # with --ensemble, the default 2 is applied for mackay only
        sp.add_argument("--tau", type=int, default=None if ensemble else 2)
        if ensemble:
            sp.add_argument("--ensemble", choices=["mackay", "uniform"],
                            default="mackay")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if out:
            sp.add_argument("--out", type=str, default=None)
        if xi:
            sp.add_argument("--xi", type=float, default=0.25)

    sp = sub.add_parser("gen-matrix", help="draw a matrix and emit its text form")
    common(sp, seed=True, out=True, ensemble=True)

    sp = sub.add_parser("diag", help="ensemble diagnostics CSV")
    common(sp, out=True, xi=True, ensemble=True)

    sp = sub.add_parser("types-check", help="run the type-lemma suites")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--gamma", type=float, default=0.1)
    sp.add_argument("--gamma2", type=float, default=0.1)

    sp = sub.add_parser("hash-check", help="collision-bound suites on a tiny ensemble")
    common(sp, seed=True, xi=True)
    sp.add_argument("--cases", type=int, default=70)

    sp = sub.add_parser("run", help="run a Monte Carlo experiment from a config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("oracle", help="brute-force closed-form cross-checks")
    common(sp)
    sp.add_argument("--steps", type=int, default=8)
    return p


COMMANDS = {
    "gen-matrix": cmd_gen_matrix,
    "diag": cmd_diag,
    "types-check": cmd_types_check,
    "hash-check": cmd_hash_check,
    "run": cmd_run,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
