"""Seeded Monte Carlo runner for the coding schemes.

Each trial derives its own seed from the master seed, so results are
byte-identical for a fixed seed.  The trials of a code draw run as one batch
on the calling thread.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import schemes as sc
from .gf import is_prime
from .matrices import Streams, derive_seed, draw_streams

# top-level config keys: the required ones, then the optional ones
REQUIRED_KEYS = ("problem", "n", "trials", "seed", "scheme")
OPTIONAL_KEYS = ("best_of", "ensemble", "tau", "out")

def _integer(key: str, value, low=None) -> int:
    """`value` as an int: an integral float converts, a boolean is refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{key} must be >= {low}, got {value}")
    return value


def _check_scheme(problem: str, scheme: dict):
    """Numbers are finite, table axes match their alphabets, probability
    tables have nonnegative rows summing to 1, and so does their product,
    and every alphabet a matrix is drawn over has prime size."""
    sizes, fixed_by = {}, {}
    for key, axes in sc.SCHEME_KEYS[problem].items():
        value = scheme[key]
        if not axes:
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
            continue
        try:
            table = np.array(value)
        except ValueError:  # ragged nesting
            table = np.array(None)
        if (table.dtype.kind not in "iuf" or table.ndim != len(axes)
                or not np.isfinite(table).all()):
            raise ValueError(f"{key} must be a {len(axes)}-axis table of "
                             f"finite numbers, got {value!r}")
        for axis, size in zip(axes, table.shape):
            if sizes.setdefault(axis, size) != size:
                raise ValueError(f"{key} indexes {axis} by {size} symbols, "
                                 f"{fixed_by[axis]} by {sizes[axis]}")
            fixed_by.setdefault(axis, key)
        if key in sc.PMF_KEYS:
            if (table < 0).any():
                raise ValueError(f"{key} must have no negative entry, "
                                 f"got {value!r}")
            # the tolerance Distribution applies to a joint
            outs = tuple(range(table.ndim - sc.PMF_KEYS[key], table.ndim))
            sums = table.sum(axis=outs)
            if np.abs(sums - 1.0).max() > 1e-12:
                rows = " in each row" if sums.ndim else ""
                raise ValueError(f"{key} must sum to 1{rows}, got "
                                 f"{sums.tolist()}")
    for axis, _, _ in sc.MATRICES[problem].values():
        if not is_prime(sizes[axis]):
            raise ValueError(f"{fixed_by[axis]}: alphabet size {sizes[axis]} "
                             f"of {axis} is not prime")
    if problem == "wz" and not np.isin(scheme["f"], range(sizes["w"])).all():
        raise ValueError(f"f entries must index the {sizes['w']} columns of rho")
    sc.scheme_params(problem, scheme)


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    problem: str
    n_list: list
    trials: int
    seed: int
    scheme: dict
    best_of: int = 8
    ensemble: str = "mackay"
    tau: object = None
    out: object = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Check a config document and build the config; the only check.

        Every error is a ValueError that names the key.  An integral float
        (3.0) counts as that integer, a boolean does not, and an optional
        key may be left out but not set to null."""
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {doc!r}")
        unknown = set(doc) - set(REQUIRED_KEYS + OPTIONAL_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [key for key in REQUIRED_KEYS if key not in doc]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        problem, names = doc["problem"], (*sc.SCHEME_KEYS, "channel")
        if problem not in names:
            raise ValueError(f"problem must be one of {names}, got {problem!r}")
        if problem == "channel":
            problem = "ch"
        if not isinstance(doc["n"], list) or not doc["n"]:
            raise ValueError(f"n must be a non-empty list, got {doc['n']!r}")
        if doc.get("ensemble", "mackay") not in ("mackay", "uniform"):
            raise ValueError(f"ensemble must be 'mackay' or 'uniform', "
                             f"got {doc['ensemble']!r}")
        if "tau" in doc and doc.get("ensemble") == "uniform":
            raise ValueError("tau: the uniform ensemble has no column weight")
        if not isinstance(doc.get("out", ""), str):
            raise ValueError(f"out must be a string, got {doc['out']!r}")
        scheme = doc["scheme"]
        if not isinstance(scheme, dict):
            raise ValueError(f"scheme must be an object, got {scheme!r}")
        extra = set(scheme) - set(sc.SCHEME_KEYS[problem])
        if extra:
            raise ValueError(f"unknown scheme keys for {problem}: {sorted(extra)}")
        missing = set(sc.SCHEME_KEYS[problem]) - set(scheme)
        if missing:
            raise ValueError(f"missing scheme keys for {problem}: {sorted(missing)}")
        _check_scheme(problem, scheme)
        return cls(
            problem=problem,
            n_list=[_integer("n", n, 1) for n in doc["n"]],
            trials=_integer("trials", doc["trials"], 1),
            seed=_integer("seed", doc["seed"]),
            scheme=scheme,
            best_of=_integer("best_of", doc.get("best_of", 8), 1),
            ensemble=doc.get("ensemble", "mackay"),
            tau=_integer("tau", doc["tau"], 1) if "tau" in doc else None,
            out=doc.get("out"),
        )

    def scheme_params(self) -> sc.SchemeParams:
        """The scheme's parameters; admissibility issues are recorded in
        `eps_warnings`."""
        return sc.scheme_params(self.problem, self.scheme)


@dataclass
class TrialRecord:
    """Outcome of one simulated block."""

    n: int
    draw: int
    trial: int
    seed: int
    ok: object  # bool for error-probability problems, None otherwise
    distortion: object  # float for distortion problems, None otherwise
    encoder_failure: bool
    seconds: float = 0.0

    def __post_init__(self):
        if self.encoder_failure and self.ok:
            raise ValueError("an encoder failure cannot be a success")


def _uniforms(seeds, n: int) -> np.ndarray:
    """One row of n uniforms per stream: rng_from_seed(s).random(n) for
    each seed s, or for each stream of a Streams batch, by draw_streams."""
    return np.reshape(draw_streams(seeds, lambda rng: rng.random(n)),
                      (len(seeds), n))


def sample_source(mu, n: int, seeds) -> np.ndarray:
    """i.i.d. sampling, one (T, n) row per seed (or per stream of a Streams
    batch), each from its own stream: sample_channel with one input; joint
    pmfs yield a tuple of index arrays."""
    p = np.asarray(mu, dtype=float)
    idx = sample_channel(p.reshape(1, -1),
                         np.zeros((len(seeds), n), dtype=np.int64), seeds)
    return idx if p.ndim == 1 else np.unravel_index(idx, p.shape)


def sample_channel(cond, inputs, seeds) -> np.ndarray:
    """Memoryless channel by inverse CDF: cond indexed [input..., output];
    `inputs` are (T, n) blocks, and row j uses the stream of seeds[j] (seeds
    or a Streams batch).  The output is the number of CDF entries <= u, so a
    u equal to a CDF entry takes no output of probability 0."""
    cond = np.asarray(cond, dtype=float)
    if not isinstance(inputs, tuple):
        inputs = (inputs,)
    inputs = tuple(np.asarray(v, dtype=np.int64) for v in inputs)
    rows = cond[inputs]  # (T, n, q_out)
    cdf = np.cumsum(rows, axis=-1)
    u = _uniforms(seeds, inputs[0].shape[1])
    out = (u[..., None] >= cdf).sum(axis=-1)
    return np.minimum(out, cond.shape[-1] - 1).astype(np.int64)


def distortion_of(x, w, rho):
    """Average per-symbol distortion of a reproduction, per row of a block."""
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    if x.shape != w.shape:
        raise ValueError("length mismatch")
    rho = np.asarray(rho, dtype=float)
    return rho[x, w].mean(axis=-1)


def wilson_interval(successes: int, total: int):
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a == b).all(axis=1)


def _check(problem: str, contract: str, got, want, trials):
    """Raise AssertionError naming the scheme and the first trial (of
    `trials`, one per row) whose row of `got` differs from `want`: one
    comparison per batch, kept under `python -O`."""
    bad = ~_same(got, want)
    if bad.any():
        raise AssertionError(f"{problem} trial {trials[bad.argmax()]}: "
                             f"decoder output breaks {contract}")


# per problem, the tags of the streams that run_trial draws for each trial
TRIAL_STREAMS = {"sw": ("src",), "ch": ("msg", "chan"), "lossy": ("src",),
                 "gp": ("msg", "side", "chan"), "wz": ("src",), "oho": ("src",)}


def run_trial(params: sc.SchemeParams, inst: sc.SchemeInstance, seeds,
              streams: Streams | None = None):
    """All trials of one code draw as one batch: sample, encode, transmit,
    decode, check; one trial per seed.

    Every trial draws from its own derive_seed(seed, tag) streams (keyed by
    `streams` or here), so its outcome does not depend on the batch.
    Returns one (ok, distortion, encoder_failure) per seed.  Decoder outputs
    are checked against their syndrome contracts, and a violation raises
    AssertionError naming the scheme and the trial.  A coder's `failed` mask
    marks its own trials as encoder failures; an EncoderFailure raised by a
    coder marks them all.
    """
    problem, n, seeds = params.problem, inst.n, list(seeds)
    every = np.arange(len(seeds))
    if streams is None:
        streams = Streams([(s, tag) for s in seeds
                           for tag in TRIAL_STREAMS[problem]])

    def tagged(tag, trials=every):
        return streams.select([(seeds[j], tag) for j in trials])

    failed = np.zeros(len(seeds), dtype=bool)
    ok = np.zeros(len(seeds), dtype=bool)
    dist = np.zeros(len(seeds))
    try:
        if problem == "sw":
            x, y = sample_source(params.joint.p, n, tagged("src"))
            bx, by = inst.matrices["A"].matvec(x), inst.matrices["B"].matvec(y)
            xh, yh = sc.sw_decode(inst, params, bx, by)
            _check(problem, "A x = b_x", inst.matrices["A"].matvec(xh), bx, every)
            _check(problem, "B y = b_y", inst.matrices["B"].matvec(yh), by, every)
            ok = _same(xh, x) & _same(yh, y)
        elif problem in ("ch", "gp"):
            m = sc.sample_message(inst, tagged("msg"))
            if problem == "ch":
                x, failed = sc.ch_encode(inst, params, m)
                live = np.flatnonzero(~failed)
                _check(problem, "B x = m", inst.matrices["B"].matvec(x[live]),
                       m[live], live)
                y = sample_channel(params.cond("y", "x"), x[live],
                                   tagged("chan", live))
                m_hat = sc.ch_decode(inst, params, y)
            else:
                z = sample_source(params.marg("z"), n, tagged("side"))
                x, failed = sc.gp_encode(inst, params, m, z)
                live = np.flatnonzero(~failed)
                y = sample_channel(params.cond("y", "xz"), (x[live], z[live]),
                                   tagged("chan", live))
                m_hat = sc.gp_decode(inst, params, y)
            ok[live] = _same(m_hat, m[live])
        elif problem == "lossy":
            x = sample_source(params.marg("x"), n, tagged("src"))
            b = sc.lossy_encode(inst, params, x)
            y, failed = sc.lossy_decode(inst, params, b)
            live = np.flatnonzero(~failed)
            _check(problem, "B y = b", inst.matrices["B"].matvec(y[live]),
                   b[live], live)
            dist = distortion_of(x, y, params.rho)
        elif problem == "wz":
            x, z = sample_source(params.marg("xz"), n, tagged("src"))
            b = sc.wz_encode(inst, params, x)
            w, failed = sc.wz_decode(inst, params, b, z)
            dist = distortion_of(x, w, params.rho)
        elif problem == "oho":
            x, y = sample_source(params.marg("xy"), n, tagged("src"))
            bx = inst.matrices["Bhat"].matvec(x)
            by = sc.oho_encode_y(inst, params, y)
            xh, failed = sc.oho_decode(inst, params, bx, by)
            live = np.flatnonzero(~failed)
            _check(problem, "Bhat x = b_x",
                   inst.matrices["Bhat"].matvec(xh[live]), bx[live], live)
            ok = _same(xh, x)
    except sc.EncoderFailure:
        failed = np.ones(len(seeds), dtype=bool)
    if "rho" in sc.SCHEME_KEYS[problem]:
        rho_max = float(np.max(params.rho))
        return [(None, rho_max, True) if f else (None, float(d), False)
                for f, d in zip(failed, dist)]
    return [(False, None, True) if f else (bool(o), None, False)
            for f, o in zip(failed, ok)]


def _rate_fields(problem: str, inst: sc.SchemeInstance) -> dict:
    return {column: sc.rate_of(inst.matrices[name], inst.n)
            for name, (_, _, column) in sc.MATRICES[problem].items() if column}


def run_experiment(cfg: ExperimentConfig, threads: int = 1):
    """Run all (n, draw, trial) cells; returns (summary dict, records).

    Per code draw the trial outcomes are aggregated; the per-n row reports
    the best draw and the mean over draws.  The summary also carries the
    epsilon-admissibility warnings and, per n, which dimensions were clamped.
    The trials of each draw run as one batch on the calling thread; `threads`
    is accepted and has no effect on output or speed.
    """
    params = cfg.scheme_params()
    distortion = "rho" in sc.SCHEME_KEYS[cfg.problem]
    records = []
    rows = []
    dims_clamped = {}
    started = time.monotonic()
    inst_seeds = {(n, k): derive_seed(cfg.seed, "inst", n, k)
                  for n in cfg.n_list for k in range(cfg.best_of)}
    trial_seeds = {c: [derive_seed(cfg.seed, "trial", *c, t)
                       for t in range(cfg.trials)] for c in inst_seeds}
    streams = Streams([(s, *label) for label in sc.instance_streams(params)
                       for s in inst_seeds.values()]
                      + [(s, tag) for tag in TRIAL_STREAMS[cfg.problem]
                         for batch in trial_seeds.values() for s in batch])
    for n in cfg.n_list:
        draws = []
        for k in range(cfg.best_of):
            inst = sc.build_instance(params, n, inst_seeds[n, k],
                                     ensemble=cfg.ensemble, tau=cfg.tau,
                                     streams=streams)
            if k == 0:
                rate_fields = _rate_fields(cfg.problem, inst)
                dims_clamped[str(n)] = {m: inst.dims.clamped[m]
                                        for m in inst.matrices}
            seeds = trial_seeds[n, k]
            t0 = time.monotonic()
            outcomes = run_trial(params, inst, seeds, streams)
            # the batch's time, divided evenly among its trials
            seconds = (time.monotonic() - t0) / cfg.trials
            recs = [TrialRecord(n=n, draw=k, trial=t, seed=s, ok=ok,
                                distortion=dist, encoder_failure=fail,
                                seconds=seconds)
                    for t, (s, (ok, dist, fail)) in enumerate(zip(seeds, outcomes))]
            records.extend(recs)
            if distortion:
                vals = [r.distortion for r in recs]
                metric = float(np.mean(vals))
                sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
                half = 1.959963984540054 * sd / math.sqrt(len(vals))
                ci = (metric - half, metric + half)
            else:
                errs = sum(1 for r in recs if not r.ok)
                metric = errs / len(recs)
                ci = wilson_interval(errs, len(recs))
            fails = sum(1 for r in recs if r.encoder_failure)
            draws.append({"draw": k, "metric": metric, "ci": ci,
                          "encoder_failures": fails})
        best = min(draws, key=lambda d: (d["metric"], d["draw"]))
        row = {"n": n, **rate_fields,
               "best_metric": best["metric"],
               "mean_metric": float(np.mean([d["metric"] for d in draws])),
               "best_ci_lo": best["ci"][0], "best_ci_hi": best["ci"][1],
               "encoder_failures": sum(d["encoder_failures"] for d in draws)}
        rows.append(row)
    summary = {
        "problem": cfg.problem,
        "trials": cfg.trials,
        "best_of": cfg.best_of,
        "seed": cfg.seed,
        "metric": "distortion" if distortion else "block_error",
        "rows": rows,
        "eps_warnings": list(params.eps_warnings),
        "dims_clamped": dims_clamped,
        "wall_seconds": time.monotonic() - started,
    }
    return summary, records


def summary_csv(summary: dict) -> str:
    """Deterministic CSV of the per-n rows (no timing fields)."""
    rows = summary["rows"]
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def records_csv(records) -> str:
    cols = ["n", "draw", "trial", "seed", "ok", "distortion", "encoder_failure"]
    lines = [",".join(cols)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, c)) for c in cols))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


PLOT_SCRIPT = """set datafile separator ','
set key autotitle columnhead
set xlabel 'n'
set ylabel '{metric}'
plot '{csv}' using 1:{col} with linespoints title 'best', \\
     '{csv}' using 1:{mcol} with linespoints title 'mean'
"""


def write_outputs(summary: dict, records, prefix: str):
    """Persist CSV + JSON summary + a companion gnuplot script."""
    csv_path = f"{prefix}.csv"
    with open(csv_path, "w") as fh:
        fh.write(summary_csv(summary))
    with open(f"{prefix}_records.csv", "w") as fh:
        fh.write(records_csv(records))
    with open(f"{prefix}.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    cols = list(summary["rows"][0].keys())
    with open(f"{prefix}.gp", "w") as fh:
        fh.write(PLOT_SCRIPT.format(
            metric=summary["metric"], csv=csv_path,
            col=cols.index("best_metric") + 1,
            mcol=cols.index("mean_metric") + 1))
    return csv_path
