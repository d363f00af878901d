"""Self-tests of the benchmark.  Run with `python3 -m pytest perfbench -q`."""

import json
import shutil
import subprocess
import sys
import threading

import pytest

import run
import tracer as tr
import workloads as wl

wl.load_cosetcode()

from cosetcode import diagnostics as dg  # noqa: E402
from cosetcode import harness as hn  # noqa: E402
from cosetcode import schemes as sc  # noqa: E402


def _shrink(make):
    """The same workload at a size that runs in about a second."""
    def small(seed):
        spec = make(seed)
        if spec["kind"] == "mc":
            spec["configs"] = [dict(c, n=c["n"][:1], trials=2, best_of=1)
                               for c in spec["configs"]]
        else:
            spec["hash_check"] = [dict(c, cases=2) for c in spec["hash_check"]]
            spec["oracle"] = [dict(c, steps=1) for c in spec["oracle"]]
            spec["types_check"] = [{"q": 2, "n": 6}]
            spec["diag"] = [{"q": 2, "l": 4, "n": 8, "tau": 2}]
        return spec
    return small


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(wl, "WORKLOADS",
                        {k: _shrink(v) for k, v in wl.WORKLOADS.items()})


def _main(capsys, *argv):
    assert run.main(list(argv)) == 0
    facts, result = capsys.readouterr().out.splitlines()[-2:]
    return json.loads(facts), json.loads(result)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_prints_every_end_to_end_metric(tiny, capsys, name):
    facts, result = _main(capsys, "--workload", name, "--seed", "3",
                          "--seconds", "0")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert facts["failed_share"] == 0.0 and facts["problems"] == []


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_reports_every_layer_and_matches_untraced(tiny, capsys, name):
    facts, result = _main(capsys, "--workload", name, "--seconds", "0",
                          "--trace", "1")
    assert result["correct"], facts["problems"]
    assert set(result["metrics"]) == set(tr.PER_LAYER)
    assert result["metrics"]["trace.traced_ops_per_s"]["value"] > 0


@pytest.mark.parametrize("name, owner, attr, fake, failed", [
    ("sw-product", sc, "sw_decode", "raise", 2),
    ("trial-heavy", sc, "oho_decode", "raise", 2),
    ("trial-heavy", sc, "ch_encode", "encoder-failure", 0),
    ("oracles", dg, "collision_bound_check", "fail-verdict", 4),
])
def test_failing_op_is_counted(tiny, monkeypatch, name, owner, attr, fake,
                               failed):
    def broken(*args, **kwargs):
        if fake == "raise":
            raise RuntimeError("injected failure")
        if fake == "encoder-failure":
            raise sc.EncoderFailure("legitimate coding outcome")
        return 1, 0  # lhs > rhs: the check reports FAIL

    rounds, run_round = [], wl.run_round

    def recorded(*args):
        rounds.append(run_round(*args))
        return rounds[-1]

    monkeypatch.setattr(owner, attr, broken)
    monkeypatch.setattr(wl, "run_round", recorded)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result, facts = run.measure(name, 5, 0, trace=False)
    assert facts["rounds"] == len(rounds) == 1
    assert result["failed"] == failed
    assert facts["failed_share"] == failed / result["attempted"]
    # the rate counts completed ops only: an abort must not read as a speedup
    rnd = rounds[0]
    assert facts["raw_ops_per_s"] == (rnd.ops - rnd.failed) / rnd.seconds
    if failed == result["attempted"]:
        assert result["metrics"]["ops_per_s"]["value"] == 0


def _originals():
    return {(owner, attr): vars(owner)[attr] for _, owner, attr, _ in tr.targets()}


def test_tracer_restores_every_wrapped_function():
    before = _originals()
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError), tracer:
        assert all(vars(o)[a] is not f for (o, a), f in before.items())
        cfg = hn.ExperimentConfig.from_dict(
            _shrink(wl.WORKLOADS["trial-heavy"])(1)["configs"][1])
        hn.run_experiment(cfg)
        raise RuntimeError("a round that dies mid-trace")
    assert _originals() == before
    names = {s[3] for s in tracer.spans()}
    assert {"harness.run_trial", "cosets.solve_coset", "gf.FieldSpec"} <= names


def test_tracer_keeps_span_stacks_per_thread():
    tracer = tr.Tracer()
    inner = tracer._wrap("inner", lambda: None, None)
    outer = tracer._wrap("outer", lambda: [inner() for _ in range(3)], None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer() for _ in range(200)])
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans()
    outer_ids = {(s[0], s[1]) for s in spans if s[3] == "outer"}
    assert len(outer_ids) == 800
    inner_spans = [s for s in spans if s[3] == "inner"]
    assert len(inner_spans) == 2400
    assert all((s[0], s[2]) in outer_ids for s in inner_spans)
    summary = tr.summarize(spans)
    assert summary["outer"]["self_ms"] < summary["outer"]["ms"]


def test_output_check_catches_a_summary_that_disagrees_with_records():
    spec = _shrink(wl.WORKLOADS["trial-heavy"])(7)
    cfg = hn.ExperimentConfig.from_dict(dict(spec["configs"][1], trials=5))
    summary, records = hn.run_experiment(cfg)
    good = hn.summary_csv(summary), hn.records_csv(records)
    assert wl.check_outputs(cfg, *good) == []
    summary["rows"][0]["mean_metric"] += 0.2
    assert wl.check_outputs(cfg, hn.summary_csv(summary), good[1])
    assert wl.check_outputs(cfg, good[0], "\n".join(
        good[1].splitlines()[:-1]) + "\n")


def test_benchmark_json_matches_the_code():
    doc = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == tr.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracles",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
