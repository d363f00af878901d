"""Monte Carlo runner: config validation, sampling, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from cosetcode import harness as hn
from cosetcode import schemes as sc


def sw_config(**over):
    doc = {
        "problem": "sw",
        "n": [8],
        "trials": 12,
        "seed": 7,
        "best_of": 2,
        "scheme": {
            "joint": [[0.445, 0.055], [0.055, 0.445]],
            "rate_x": 0.8,
            "rate_y": 0.8,
        },
    }
    doc.update(over)
    return doc


# -- config validation ------------------------------------------------------------

def test_config_roundtrip():
    cfg = hn.ExperimentConfig.from_dict(sw_config())
    assert cfg.problem == "sw" and cfg.n_list == [8] and cfg.best_of == 2
    params = cfg.scheme_params()
    assert params.problem == "sw"


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ValueError, match="unknown config keys: \\['bogus'\\]"):
        hn.ExperimentConfig.from_dict(sw_config(bogus=1))


def test_config_rejects_unknown_scheme_key():
    doc = sw_config()
    doc["scheme"]["bogus"] = 1
    with pytest.raises(ValueError, match="unknown scheme keys"):
        hn.ExperimentConfig.from_dict(doc)


def test_config_rejects_missing_scheme_key():
    doc = sw_config()
    del doc["scheme"]["rate_y"]
    with pytest.raises(ValueError, match="missing scheme keys"):
        hn.ExperimentConfig.from_dict(doc)


def test_config_channel_alias():
    doc = {
        "problem": "channel", "n": [6], "trials": 2, "seed": 1,
        "scheme": {"mu_x": [0.5, 0.5],
                   "channel": [[0.89, 0.11], [0.11, 0.89]],
                   "eps_a": 0.05, "eps_b": 0.05},
    }
    cfg = hn.ExperimentConfig.from_dict(doc)
    assert cfg.problem == "ch"


# -- sampling ----------------------------------------------------------------------

def test_sample_source_law():
    idx = hn.sample_source([0.25, 0.75], 40_000, [1])
    assert idx.shape == (1, 40_000)
    assert abs(idx.mean() - 0.75) < 0.01
    assert np.array_equal(idx, hn.sample_source([0.25, 0.75], 40_000, [1]))
    # each row comes from its own seed's stream, whatever the batch
    rows = hn.sample_source([0.25, 0.75], 40_000, [2, 1])
    assert np.array_equal(rows[1], idx[0]) and not np.array_equal(rows[0], idx[0])


def test_sample_source_joint_returns_tuple():
    x, y = hn.sample_source(np.full((2, 2), 0.25), 1000, [2, 3])
    assert x.shape == y.shape == (2, 1000)
    assert set(np.unique(x)) <= {0, 1}


def test_sample_source_degenerate():
    idx = hn.sample_source([0.0, 1.0], 100, [3])
    assert np.all(idx == 1)
    assert hn.sample_source([0.0, 1.0], 100, []).shape == (0, 100)


def test_samplers_take_no_zero_probability_output(monkeypatch):
    # at u equal to a CDF entry both samplers take the next output, the
    # number of entries <= u: never one of probability 0
    tables = (np.array([[0.0, 1.0], [1.0, 0.0]]),
              np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.25, 0.25, 0.5]]))
    for u in (0.0, 0.25, 0.5):
        monkeypatch.setattr(hn, "_uniforms", lambda seeds, n, u=u: np.full(
            (len(seeds), n), u))
        for cond in tables:
            x = np.arange(len(cond))[None, :]
            y = hn.sample_channel(cond, x, [0])
            assert (cond[x, y] > 0).all()
            assert y[0].tolist() == [int(hn.sample_source(row, 1, [0])[0, 0])
                                     for row in cond]


def test_sample_channel_identity_and_bsc():
    x = hn.sample_source([0.5, 0.5], 5000, [4, 14])
    y = hn.sample_channel(np.eye(2), x, [5, 15])
    assert np.array_equal(x, y)
    y = hn.sample_channel([[0.9, 0.1], [0.1, 0.9]], x, [6, 16])
    assert abs(((x != y).mean()) - 0.1) < 0.02
    assert np.array_equal(
        y[1:], hn.sample_channel([[0.9, 0.1], [0.1, 0.9]], x[1:], [16]))


def test_sample_channel_multi_input():
    x = np.zeros((2, 10), dtype=np.int64)
    z = np.ones((2, 10), dtype=np.int64)
    cond = np.zeros((2, 2, 2))
    cond[0, 1, 1] = 1.0  # (x=0, z=1) -> 1 surely
    cond[:, :, 0] = np.where(cond[:, :, 1] == 0, 1.0, 0.0)
    out = hn.sample_channel(cond, (x, z), [7, 8])
    assert np.all(out == 1)


# -- statistics ---------------------------------------------------------------------

def test_distortion_of():
    rho = [[0.0, 1.0], [1.0, 0.0]]
    assert hn.distortion_of([0, 1, 1, 0], [0, 1, 0, 1], rho) == 0.5
    assert hn.distortion_of([[0, 1, 1, 0], [0, 0, 0, 0]],
                            [[0, 1, 0, 1], [0, 0, 0, 0]], rho).tolist() == [0.5, 0.0]
    with pytest.raises(ValueError):
        hn.distortion_of([0, 1], [0], rho)


def test_wilson_interval():
    assert hn.wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = hn.wilson_interval(5, 10)
    # direct evaluation of the score interval
    z = 1.959963984540054
    denom = 1 + z * z / 10
    center = (0.5 + z * z / 20) / denom
    half = z * math.sqrt(0.25 / 10 + z * z / 400) / denom
    assert lo == pytest.approx(center - half, abs=1e-12)
    assert hi == pytest.approx(center + half, abs=1e-12)
    assert hn.wilson_interval(0, 50)[0] <= 1e-12
    assert hn.wilson_interval(50, 50)[1] >= 1.0 - 1e-12


def test_trial_record_consistency():
    with pytest.raises(ValueError):
        hn.TrialRecord(n=4, draw=0, trial=0, seed=1, ok=True,
                       distortion=None, encoder_failure=True)


# -- experiments ----------------------------------------------------------------------

def test_run_experiment_deterministic_across_threads():
    cfg = hn.ExperimentConfig.from_dict(sw_config())
    s1, r1 = hn.run_experiment(cfg, threads=1)
    s2, r2 = hn.run_experiment(cfg, threads=3)
    assert hn.summary_csv(s1) == hn.summary_csv(s2)
    assert hn.records_csv(r1) == hn.records_csv(r2)


@pytest.mark.parametrize("problem, scheme", [
    ("ch", {"mu_x": [0.5, 0.5], "channel": [[0.89, 0.11], [0.11, 0.89]],
            "eps_a": 0.05, "eps_b": 0.15}),
    ("lossy", {"mu_x": [0.5, 0.5], "test_channel": [[0.75, 0.25], [0.25, 0.75]],
               "rho": [[0.0, 1.0], [1.0, 0.0]], "eps_a": 0.01, "eps_b": 0.1}),
    # n = 16 below the rate bounds: the product decoder takes the trellis
    ("sw", {"joint": [[0.445, 0.055], [0.055, 0.445]],
            "rate_x": 0.35, "rate_y": 0.35}),
])
def test_shared_caches_thread_count_invariance(problem, scheme, monkeypatch):
    # trials run in order on the calling thread, which fills the per-instance
    # cosets, trellis sections and per-params tables: threads=4 starts no
    # thread and writes the CSVs of threads=1
    doc = {"problem": problem, "n": [16 if problem == "sw" else 8],
           "trials": 20, "seed": 11, "best_of": 2, "scheme": scheme}
    cfg = hn.ExperimentConfig.from_dict(doc)
    summary, records = hn.run_experiment(cfg, threads=1)
    serial = (hn.summary_csv(summary), hn.records_csv(records))

    def refuse(self):
        raise AssertionError("run_experiment started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    summary, records = hn.run_experiment(hn.ExperimentConfig.from_dict(doc),
                                         threads=4)
    assert (hn.summary_csv(summary), hn.records_csv(records)) == serial


def test_run_experiment_seed_changes_results():
    base = hn.run_experiment(hn.ExperimentConfig.from_dict(sw_config()))[1]
    other = hn.run_experiment(
        hn.ExperimentConfig.from_dict(sw_config(seed=8)))[1]
    assert hn.records_csv(base) != hn.records_csv(other)


def test_summary_shape_and_timing_exclusion():
    cfg = hn.ExperimentConfig.from_dict(sw_config())
    summary, records = hn.run_experiment(cfg)
    assert summary["metric"] == "block_error"
    assert len(records) == cfg.trials * cfg.best_of
    csv = hn.summary_csv(summary)
    header = csv.splitlines()[0].split(",")
    assert "n" in header and "best_metric" in header
    assert not any("second" in h for h in header)
    assert "seconds" not in hn.records_csv(records).splitlines()[0]
    # wall-clock lives in the JSON summary only
    assert "wall_seconds" in summary


def test_rate_zero_code_cannot_compress():
    # rate far below H(X|Y) must fail nearly always
    doc = sw_config(trials=30, best_of=1)
    doc["scheme"]["rate_x"] = 0.125
    doc["scheme"]["rate_y"] = 0.125
    summary, _ = hn.run_experiment(hn.ExperimentConfig.from_dict(doc))
    assert summary["rows"][0]["best_metric"] >= 0.9


def test_distortion_problem_metric():
    doc = {
        "problem": "lossy", "n": [8], "trials": 10, "seed": 3, "best_of": 2,
        "scheme": {"mu_x": [0.5, 0.5],
                   "test_channel": [[0.75, 0.25], [0.25, 0.75]],
                   "rho": [[0.0, 1.0], [1.0, 0.0]],
                   "eps_a": 0.01, "eps_b": 0.2},
    }
    summary, records = hn.run_experiment(hn.ExperimentConfig.from_dict(doc))
    assert summary["metric"] == "distortion"
    assert 0.0 <= summary["rows"][0]["best_metric"] <= 1.0
    assert all(r.ok is None for r in records)


def test_write_outputs(tmp_path):
    cfg = hn.ExperimentConfig.from_dict(sw_config(trials=3, best_of=1))
    summary, records = hn.run_experiment(cfg)
    prefix = str(tmp_path / "exp")
    csv_path = hn.write_outputs(summary, records, prefix)
    assert csv_path.endswith("exp.csv")
    for suffix in (".csv", "_records.csv", ".json", ".gp"):
        assert (tmp_path / f"exp{suffix}").exists()
    doc = json.loads((tmp_path / "exp.json").read_text())
    assert doc["problem"] == "sw"


def test_summary_reports_admissibility(tmp_path):
    doc = json.loads((Path(__file__).parent.parent / "configs" / "channel.json")
                     .read_text())
    doc.update(n=[8], trials=2, best_of=1)
    doc["scheme"]["eps_b"] = -0.15
    summary, _ = hn.run_experiment(hn.ExperimentConfig.from_dict(doc))
    assert summary["eps_warnings"] == [
        "need eps_b >= eps_a for the sqrt condition"]
    assert summary["dims_clamped"] == {"8": {"A": False, "B": False}}
    doc = sw_config(n=[8, 16], trials=2, best_of=1)
    doc["scheme"]["rate_x"] = 0.05  # 0.4 rows at n = 8, clamped to 1
    with warnings.catch_warnings():
        # the clamp is reported in the summary, not warned, as for ch above
        warnings.simplefilter("error", UserWarning)
        summary, records = hn.run_experiment(hn.ExperimentConfig.from_dict(doc))
    assert summary["eps_warnings"] == []
    assert summary["dims_clamped"] == {"8": {"A": True, "B": False},
                                       "16": {"A": False, "B": False}}
    hn.write_outputs(summary, records, str(tmp_path / "exp"))
    written = json.loads((tmp_path / "exp.json").read_text())
    assert written["eps_warnings"] == []
    assert written["dims_clamped"] == summary["dims_clamped"]
    assert (tmp_path / "exp.csv").read_text() == hn.summary_csv(summary)


def test_syndrome_checks_survive_python_O():
    # `python -O` strips assert statements; the contract checks are explicit,
    # so a decoder that returns a non-member still fails the run
    code = textwrap.dedent("""
        import numpy as np
        from cosetcode import harness as hn
        from cosetcode import schemes as sc

        if __debug__:
            raise SystemExit("not running under python -O")
        decode = sc.ml_code_product

        def non_member(coset_x, coset_y, metric):
            x, y = decode(coset_x, coset_y, metric)
            elim = coset_x.elimination
            i = np.flatnonzero(elim.matrix.any(axis=0))[0]  # A e_i != 0
            x = x.copy()
            x[..., i] = (x[..., i] + 1) % elim.q
            return x, y

        sc.ml_code_product = non_member
        hn.run_experiment(hn.ExperimentConfig.from_dict({
            "problem": "sw", "n": [8], "trials": 4, "seed": 7, "best_of": 1,
            "scheme": {"joint": [[0.445, 0.055], [0.055, 0.445]],
                       "rate_x": 0.8, "rate_y": 0.8}}))
    """)
    src = str(Path(hn.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode != 0
    assert "AssertionError: sw trial 0: decoder output breaks A x = b_x" \
        in proc.stderr, proc.stderr


# -- pinned outputs -------------------------------------------------------------------

BSC11 = [[0.89, 0.11], [0.11, 0.89]]
BSC10 = [[0.9, 0.1], [0.1, 0.9]]
BSC25 = [[0.75, 0.25], [0.25, 0.75]]
DSBS11 = [[0.445, 0.055], [0.055, 0.445]]
DSBS10 = [[0.45, 0.05], [0.05, 0.45]]
HAMMING = [[0.0, 1.0], [1.0, 0.0]]
TERNARY = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
QUINARY = [[0.8 if a == b else 0.05 for b in range(5)] for a in range(5)]


# the criterion-6 schemes first
PINNED_RUNS = [
    ("sw", 16, {"joint": DSBS11, "rate_x": 0.85, "rate_y": 0.85},
     ("72baefe2828faa8011e4a3da43f4ce8692b761a97400595d23506b8af7badf5c",
      "0eefaa87484729bae664ddf249c930f1cf55232ad8f8572edcff556dd285e434")),
    ("ch", 16, {"mu_x": [0.5, 0.5], "channel": BSC11, "eps_a": 0.05,
                "eps_b": 0.15},
     ("fdd8e4a879c3b8c048563eeb5eafb248c427e2032b15d2a8d0b2abb579001d7f",
      "754a9df792b9b48ec21d9b414d4994be6708bf63e9be5974f6d73afaf716a669")),
    ("gp", 16, {"mu_z": [0.5, 0.5], "mu_xw_z": [[[0.5, 0.0], [0.0, 0.5]]] * 2,
                "channel": [[BSC11[0]] * 2, [BSC11[1]] * 2],
                "eps_a": 0.05, "eps_b": 0.15, "eps_ahat": 0.01},
     ("fdd8e4a879c3b8c048563eeb5eafb248c427e2032b15d2a8d0b2abb579001d7f",
      "754a9df792b9b48ec21d9b414d4994be6708bf63e9be5974f6d73afaf716a669")),
    ("lossy", 16, {"mu_x": [0.5, 0.5], "test_channel": BSC25, "rho": HAMMING,
                   "eps_a": 0.01, "eps_b": 0.1},
     ("58aba29fdae641e6fd6ae07bb278f9dfaa630e1be21ef6e91f370ad8d26020f2",
      "9d1705618c8da1115b68e991562425dcd185e1bb47018489c0a6dd98bd20773d")),
    ("wz", 16, {"mu_xz": DSBS10, "test_channel": BSC25, "f": [[0, 0], [1, 1]],
                "rho": HAMMING, "eps_a": 0.01, "eps_b": 0.1},
     ("2c4d057fb9eed27baaf1a969986d0c8e06c6f58299a72a13e531bfef1bda67e4",
      "5084d2c67d6b4219d01f19f3170ecd1aca6a039c8f8f25a0c8dd08db33e9f080")),
    ("oho", 16, {"mu_xy": DSBS10, "channel": BSC10, "eps_a": 0.05,
                 "eps_b": 0.15, "eps_bhat": 0.15},
     ("7b4311741b78fb3332afd5ae82b9e52c64921d5210f36f46994fafaa78d2ea7d",
      "1403ff002c615ca4329dc2fdc1955278f31b6352093113092b2997e4647c7255")),
    # q = 3: ties among ternary members; 32 of the 40 trials are encoder
    # failures, so empty and non-empty cosets meet in one draw
    ("ch", 8, {"mu_x": [1 / 3] * 3, "channel": TERNARY, "eps_a": 0.05,
               "eps_b": 0.15},
     ("86a892a3f4908b50cd99ca7127e5f390ea0cb7abe094f72a4b7bad717ed4633f",
      "ea25e7d190e20f2d7b0ee3e78997d6e1d4e9816e5617cc6b5adb596bf20423ee")),
    # sw at rates below the bound: every trial decodes on the product
    # trellis, and block errors are mixed, so the records pin decoded pairs
    ("sw", 16, {"joint": [[0.94, 0.01], [0.01, 0.04]], "rate_x": 0.25,
                "rate_y": 0.25},
     ("0f51ae7ae209bd3e8800e969d3be6ae19b55520e663c7deffb7c8579e3bc4f7c",
      "686ab747f63beb230e32874427dd1c47d533d3579c3c17369ef86890dff488ae")),
    ("sw", 8, {"joint": [[0.9, 0.02, 0], [0.02, 0.03, 0], [0, 0, 0.03]],
               "rate_x": 0.4, "rate_y": 0.4},
     ("a4bc2168e8bc471c7b6f969afacbfd9498af2d78e653e079d870c5471f0cf422",
      "72cb6f0779ae98f243352d12dd5e4c7447b6bf4628348e6715ddc746096627b6")),
    # q = 5: eliminations that scale pivot rows and combine rows by
    # multiples other than 1 and q - 1
    ("ch", 8, {"mu_x": [0.2] * 5, "channel": QUINARY, "eps_a": 0.05,
               "eps_b": 0.15},
     ("27a87132be07de19c67c6188ad318ea038af90e63f1d5d799ad5171211846074",
      "22cc99cb09cb13e4a6fd3a6f40be4863ee58708dc5fb7f3bfb51013a7a911a58")),
]


@pytest.mark.parametrize("problem, n, scheme, digests", PINNED_RUNS)
def test_outputs_are_pinned(problem, n, scheme, digests):
    # the CSVs of fixed-seed runs, byte for byte: a decoder, sampler or
    # batching change that moves any record or summary figure fails here
    cfg = hn.ExperimentConfig.from_dict({
        "problem": problem, "n": [n], "trials": 20, "seed": 2026,
        "best_of": 2, "scheme": scheme})
    summary, records = hn.run_experiment(cfg)
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (hn.summary_csv(summary), hn.records_csv(records)))
    assert got == digests


def test_row_counts_are_pinned():
    # dims_for's rounded and clamped row counts at n = 1..128, as one digest,
    # for the criterion-6 schemes and the q = 3 and q = 5 channels: a change
    # to a rate formula, its sum order or its rounding that moves any row
    # count fails here
    counts = []
    for problem, _, scheme, _ in PINNED_RUNS[:6] + [
            run for run in PINNED_RUNS[6:] if run[0] == "ch"]:
        params = sc.scheme_params(problem, scheme)
        for n in range(1, 129):
            dims = sc.dims_for(params, n)
            counts.append([dims.rounded, dims.clamped])
    assert hashlib.sha256(json.dumps(counts).encode()).hexdigest() == (
        "2d8ea2491333131b334b1b53481bd87d0826f6a27e2bbacf214f1a50d2b2f241")
