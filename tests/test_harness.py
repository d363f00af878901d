"""Monte Carlo runner: config validation, sampling, determinism."""

import json
import math
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from cosetcode import harness as hn


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
    idx = hn.sample_source([0.25, 0.75], 40_000, seed=1)
    assert idx.shape == (40_000,)
    assert abs(idx.mean() - 0.75) < 0.01
    assert np.array_equal(idx, hn.sample_source([0.25, 0.75], 40_000, seed=1))


def test_sample_source_joint_returns_tuple():
    x, y = hn.sample_source(np.full((2, 2), 0.25), 1000, seed=2)
    assert x.shape == y.shape == (1000,)
    assert set(np.unique(x)) <= {0, 1}


def test_sample_source_degenerate():
    idx = hn.sample_source([0.0, 1.0], 100, seed=3)
    assert np.all(idx == 1)


def test_sample_channel_identity_and_bsc():
    x = hn.sample_source([0.5, 0.5], 5000, seed=4)
    y = hn.sample_channel(np.eye(2), x, seed=5)
    assert np.array_equal(x, y)
    y = hn.sample_channel([[0.9, 0.1], [0.1, 0.9]], x, seed=6)
    assert abs(((x != y).mean()) - 0.1) < 0.02


def test_sample_channel_multi_input():
    x = np.zeros(10, dtype=np.int64)
    z = np.ones(10, dtype=np.int64)
    cond = np.zeros((2, 2, 2))
    cond[0, 1, 1] = 1.0  # (x=0, z=1) -> 1 surely
    cond[:, :, 0] = np.where(cond[:, :, 1] == 0, 1.0, 0.0)
    out = hn.sample_channel(cond, (x, z), seed=7)
    assert np.all(out == 1)


# -- statistics ---------------------------------------------------------------------

def test_distortion_of():
    rho = [[0.0, 1.0], [1.0, 0.0]]
    assert hn.distortion_of([0, 1, 1, 0], [0, 1, 0, 1], rho) == 0.5
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
