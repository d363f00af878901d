"""Command-line surface: exit codes, output formats, subcommand contracts."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cosetcode
from cosetcode import cli, schemes
from cosetcode import diagnostics as dg
from cosetcode import harness as hn
from cosetcode.cli import EXIT_OK, EXIT_USAGE, main


def test_no_args_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["diag", "--bogus", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["diag", "--seed", "1"], ["hash-check", "--out", "x"],
    ["oracle", "--seed", "1"], ["oracle", "--out", "x"],
    ["run", "--config", "x", "--threads", "2"]])
def test_flags_a_command_does_not_read_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_diag_frozen_example(capsys):
    assert main(["diag", "--q", "2", "--l", "2", "--n", "2", "--tau", "2",
                 "--xi", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    fields = dict(ln.lstrip("# ").split(",", 1) for ln in lines[:3])
    assert float(fields["alpha"]) == 1.0
    assert float(fields["beta"]) == 1.0
    assert float(fields["im_ratio"]) == 0.5
    assert lines[3] == "w,p_Aw,C_w,S"
    assert len(lines) == 6  # two weight rows


def test_diag_writes_file(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["diag", "--q", "2", "--l", "2", "--n", "2", "--tau", "2",
                 "--xi", "0.5", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith("# alpha,1.0")


def test_diag_invalid_params_usage_error(capsys):
    assert main(["diag", "--q", "2", "--l", "2", "--n", "2", "--tau", "3",
                 "--xi", "0.5"]) == EXIT_USAGE


def test_diag_past_the_float_range(capsys):
    # q**l = 2**1100 is past the float range: the log-domain float path
    assert main(["diag", "--q", "2", "--l", "1100", "--n", "4",
                 "--tau", "2"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[4:]
    assert [float(row.split(",")[1]) > 0 for row in rows] == [True] * 4
    # alpha would multiply |Im| = 2**1099: refused
    assert main(["diag", "--q", "2", "--l", "1100", "--n", "400",
                 "--tau", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: l = 1100 ")


def test_gen_matrix_roundtrip(capsys):
    args = ["gen-matrix", "--q", "3", "--l", "2", "--n", "4", "--tau", "3",
            "--seed", "5"]
    # an odd tau is allowed for q = 3, with a warning
    with pytest.warns(UserWarning, match="odd tau"):
        assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    header, *columns = first.splitlines()
    assert header == "3 2 4"
    assert [c.split()[:2] for c in columns] == [["col", str(i)]
                                                for i in range(4)]
    with pytest.warns(UserWarning, match="odd tau"):
        assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first  # seeded determinism


@pytest.mark.parametrize("argv, digest", [
    (["--q", "2", "--l", "4", "--n", "12", "--tau", "2", "--seed", "7"],
     "a5c958033465c187ddb96691f3af920604c3993d5dfca981a4ff52f0e3ad86a8"),
    (["--q", "5", "--l", "3", "--n", "6", "--tau", "4", "--seed", "7"],
     "7d61f16b1903262493f86a5be524d61ec0256ea8e041a85e19903adc8fd988ed"),
], ids=["q2", "q5"])
def test_gen_matrix_output_is_pinned(argv, digest, capsys):
    assert main(["gen-matrix"] + argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["gen-matrix", "diag"])
@pytest.mark.parametrize("argv", [
    ["--q", "2", "--l", "4", "--n", "12", "--tau", "7"],
    ["--q", "3", "--l", "3", "--n", "4", "--tau", "3"],
    ["--q", "3", "--l", "3", "--n", "4", "--tau", "2"],
], ids=["q2-odd", "q3-odd", "q3-even"])
def test_tau_with_the_uniform_ensemble_exits_2(command, argv, capsys):
    # refused as such: neither the MacKay q = 2 rule nor the odd-tau warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--ensemble", "uniform"] + argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: tau: the uniform ensemble has no column weight\n"


@pytest.mark.parametrize("command", ["gen-matrix", "diag"])
def test_tau_defaults_to_2_for_mackay_only(command, capsys):
    base = [command, "--q", "2", "--l", "4", "--n", "6"]
    assert main(base + ["--tau", "2"]) == EXIT_OK
    explicit = capsys.readouterr().out
    assert main(base) == EXIT_OK
    assert capsys.readouterr().out == explicit
    assert main(base + ["--ensemble", "uniform"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("2 4 6\n" if command ==
                                              "gen-matrix" else "# alpha,")


def test_types_check_passes(capsys):
    # at n = 1100 some type class sizes are past the float range
    for n in ("8", "1100"):
        assert main(["types-check", "--q", "2", "--n", n]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 6 and "FAIL" not in out


def test_hash_check_passes(capsys):
    assert main(["hash-check", "--q", "2", "--l", "2", "--n", "2",
                 "--tau", "2", "--xi", "0.5", "--cases", "5"]) == EXIT_OK
    assert "violations=0" in capsys.readouterr().out


def test_hash_check_output_is_pinned(capsys, monkeypatch):
    # a fixed seed draws the same sets and prints the same report line
    drawn = []
    for name in ("hash_sum_exhaustive", "collision_bound_check"):
        def record(mats, *args, _check=getattr(dg, name)):
            drawn.append(args[:-1])  # the drawn sets, without the diagnostics
            return _check(mats, *args)

        monkeypatch.setattr(dg, name, record)
    assert main(["hash-check", "--q", "3", "--l", "1", "--n", "3", "--tau",
                 "2", "--xi", "0.5", "--cases", "6", "--seed", "11"]) == EXIT_OK
    assert capsys.readouterr().out == "PASS hash-check cases=18 violations=0\n"
    assert drawn[0] == ([(1, 1, 2), (2, 1, 0), (0, 1, 1)],
                        [(2, 1, 1), (1, 0, 2), (2, 1, 2), (2, 0, 0)])
    assert hashlib.sha256(repr(drawn).encode()).hexdigest() == (
        "2fb2c9f6dbd2109041a1e2647c5a6ff5ffe80c8d7b05051e99c91b946a8f8d98")


def test_hash_check_and_walk_fractions_are_pinned(capsys, monkeypatch):
    # every exact (lhs, rhs) of the hash-check loop, 70 cases at seed 0 on
    # two ensembles, and the walk recursion's law at (q, l) = (3, 2)
    seen = []
    for name in ("hash_sum_exhaustive", "collision_bound_check",
                 "saturation_bound_check"):
        def record(*args, _check=getattr(dg, name)):
            out = _check(*args)
            seen.append(repr(out))
            return out

        monkeypatch.setattr(dg, name, record)
    for q, l in ((2, 3), (3, 1)):
        assert main(["hash-check", "--q", str(q), "--l", str(l), "--n", "3",
                     "--tau", "2", "--cases", "70", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "PASS hash-check cases=210 violations=0\n" * 2)
    seen += [repr(dg.walk_pointwise_recursive(3, 2, steps, w))
             for steps in range(9) for w in range(3)]
    assert len(seen) == 2 * 210 + 27
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "7c207f80311cd3ca84ef0c0c846c770c0641d179970d0b50b72cb601cabfed5e")


def test_oracle_passes(capsys):
    assert main(["oracle", "--q", "3", "--l", "2", "--n", "2", "--tau", "2",
                 "--steps", "6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--steps", "-3"], "--steps must be >= "),
    (["hash-check", "--cases", "0"], "--cases must be >= "),
    (["hash-check", "--cases", "-4"], "--cases must be >= "),
    (["types-check", "--n", "0"], "--n must be >= "),
    (["types-check", "--gamma", "-1"], "--gamma must be > 0, got -1.0"),
    (["types-check", "--gamma", "nan"], "--gamma must be > 0, got nan"),
    (["types-check", "--gamma2", "0"], "--gamma2 must be > 0, got 0.0"),
    (["hash-check", "--q", "2", "--l", "1", "--tau", "2", "--n", "21"],
     "--n must keep q**n <= 1048576, got 2**21"),
    (["hash-check", "--q", "2", "--l", "21", "--n", "1", "--tau", "2"],
     "--l must keep q**l <= 1048576, got 2**21"),
    (["types-check", "--q", "0"], "--q must be >= 1, got 0"),
    (["types-check", "--q", "10", "--n", "40"],
     "--q 10 --n 40 needs 2054455634 types of length 40 over 10 letters"),
    (["types-check", "--q", "10", "--n", "4"],
     "--q 10 --n 4 needs 4421275 types of length 4 over 100 letters"),
    (["types-check", "--q", "4", "--n", "8"],
     "--q 4 --n 8 needs 490314 types of length 8 over 16 letters"),
    (["oracle", "--q", "2", "--l", "21", "--n", "1", "--tau", "2"],
     "--l must keep q**l <= 1048576, got 2**21"),
], ids=["oracle-steps", "hash-check-cases-zero", "hash-check-cases-negative",
        "types-check-n", "types-check-gamma-negative", "types-check-gamma-nan",
        "types-check-gamma2-zero", "hash-check-n-over-budget",
        "hash-check-l-over-budget", "types-check-q-zero",
        "types-check-types-over-budget", "types-check-trans-types-over-budget",
        "types-check-trans-entries-over-budget", "oracle-l-over-budget"])
def test_bad_count_exits_2_before_any_enumeration(argv, message, capsys,
                                                  monkeypatch):
    def enumerate_(*args, **kwargs):
        raise AssertionError("enumeration started")

    for name in ("enumerate_mackay", "alpha_beta"):
        monkeypatch.setattr(dg, name, enumerate_)
    monkeypatch.setattr(cli, "types_check_report", enumerate_)
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


def sw_doc(**over):
    doc = {
        "problem": "sw", "n": [6], "trials": 4, "seed": 3, "best_of": 1,
        "scheme": {"joint": [[0.445, 0.055], [0.055, 0.445]],
                   "rate_x": 0.8, "rate_y": 0.8},
    }
    doc.update(over)
    return doc


CH = {"mu_x": [0.5, 0.5], "channel": [[0.89, 0.11], [0.11, 0.89]],
      "eps_a": 0.05, "eps_b": 0.15}
LOSSY = {"mu_x": [0.5, 0.5], "test_channel": [[0.75, 0.25], [0.25, 0.75]],
         "rho": [[0.0, 1.0], [1.0, 0.0]], "eps_a": 0.01, "eps_b": 0.1}
WZ = {"mu_xz": [[0.45, 0.05], [0.05, 0.45]],
      "test_channel": [[0.75, 0.25], [0.25, 0.75]], "f": [[0, 0], [1, 1]],
      "rho": [[0.0, 1.0], [1.0, 0.0]], "eps_a": 0.01, "eps_b": 0.1}
GP = {"mu_z": [0.5, 0.5], "mu_xw_z": [[[0.5, 0.0], [0.0, 0.5]]] * 2,
      "channel": [[[0.89, 0.11]] * 2, [[0.11, 0.89]] * 2],
      "eps_a": 0.05, "eps_b": 0.15, "eps_ahat": 0.01}

OHO = {"mu_xy": [[0.45, 0.05], [0.05, 0.45]],
       "channel": [[0.9, 0.1], [0.1, 0.9]],
       "eps_a": 0.05, "eps_b": 0.15, "eps_bhat": 0.15}


def raised(table):
    """`table` with 4e-13 added to every nonzero entry."""
    if isinstance(table, list):
        return [raised(row) for row in table]
    return table + 4e-13 if table else table


# each of these tables sums to 1 within 1e-12, their product only within
# 2.4e-12
GP_HIGH = {**GP, **{key: raised(GP[key])
                    for key in ("mu_z", "mu_xw_z", "channel")}}


def scheme_doc(problem, base, **over):
    return sw_doc(problem=problem, scheme={**base, **over})


def run_config(tmp_path, doc=None):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(sw_doc() if doc is None else doc))
    return path


def test_space_past_the_budget_is_refused_without_forming_it():
    # 3**(10**8) has 48 million digits: forming it before the refusal would
    # take minutes
    src = str(Path(cosetcode.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cosetcode.cli", "oracle", "--q", "3",
         "--l", "100000000", "--n", "1", "--tau", "2"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == ("error: --l must keep q**l <= 1048576, "
                           "got 3**100000000\n")


def test_run_subcommand(tmp_path, capsys):
    cfg = run_config(tmp_path)
    prefix = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(prefix)]) == EXIT_OK
    for suffix in (".csv", "_records.csv", ".json", ".gp"):
        assert (tmp_path / f"out{suffix}").exists()
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "n"


def test_run_default_prefix_is_under_cosetcode_out(tmp_path, capsys,
                                                   monkeypatch):
    # no --out flag and no config "out": <problem>_run.* in $COSETCODE_OUT
    cfg = run_config(tmp_path)
    out = tmp_path / "results"
    out.mkdir()
    monkeypatch.setenv("COSETCODE_OUT", str(out))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert f"# written: {out / 'sw_run.csv'}" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        "sw_run.csv", "sw_run.gp", "sw_run.json", "sw_run_records.csv"]


def test_run_seed_override(tmp_path, capsys):
    cfg = run_config(tmp_path)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
          "--seed", "99"])
    capsys.readouterr()
    assert (tmp_path / "a_records.csv").read_text() != (
        tmp_path / "b_records.csv").read_text()


def test_run_bad_config_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == EXIT_USAGE
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"problem": "sw"}))
    assert main(["run", "--config", str(path2)]) == EXIT_USAGE


BAD_CONFIGS = {
    "not-an-object": ([1], "config"),
    "missing-key": ({k: v for k, v in sw_doc().items() if k != "trials"},
                    "trials"),
    "unknown-key": (sw_doc(bogus=1), "bogus"),
    "problem": (sw_doc(problem="turbo"), "problem"),
    "n-not-a-list": (sw_doc(n=6), "n"),
    "n-empty": (sw_doc(n=[]), "n"),
    "n-string": (sw_doc(n=["6"]), "n"),
    "n-fraction": (sw_doc(n=[6.5]), "n"),
    "n-zero": (sw_doc(n=[6, 0]), "n"),
    "n-boolean": (sw_doc(n=[True]), "n"),
    "trials-zero": (sw_doc(trials=0), "trials"),
    "trials-fraction": (sw_doc(trials=2.5), "trials"),
    "trials-boolean": (sw_doc(trials=True), "trials"),
    "best_of-zero": (sw_doc(best_of=0), "best_of"),
    "best_of-null": (sw_doc(best_of=None), "best_of"),
    "tau-zero": (sw_doc(tau=0), "tau"),
    "tau-null": (sw_doc(tau=None), "tau"),
    "tau-uniform": (sw_doc(ensemble="uniform", tau=3), "tau"),
    "seed-string": (sw_doc(seed="3"), "seed"),
    "seed-boolean": (sw_doc(seed=False), "seed"),
    "ensemble": (sw_doc(ensemble="gaussian"), "ensemble"),
    "ensemble-null": (sw_doc(ensemble=None), "ensemble"),
    "out-number": (sw_doc(out=3), "out"),
    "out-null": (sw_doc(out=None), "out"),
    "scheme-not-an-object": (sw_doc(scheme=[]), "scheme"),
    "scheme-key": (sw_doc(scheme={"joint": [[0.5, 0.5]], "rate_x": 0.8}),
                   "scheme"),
    "rate-string": (scheme_doc("sw", sw_doc()["scheme"], rate_x="0.85"),
                    "rate_x"),
    "eps-null": (scheme_doc("ch", CH, eps_a=None), "eps_a"),
    "alphabet-not-prime": (scheme_doc("sw", sw_doc()["scheme"],
                                      joint=[[0.5, 0.5]]), "joint"),
    "rho-axes": (scheme_doc("lossy", LOSSY, rho=[[0, 1]]), "rho"),
    "channel-axes": (scheme_doc("ch", CH, channel=[[0.9, 0.1]]), "channel"),
    "channel-rows": (scheme_doc("ch", CH, channel=[[0.8, 0.1], [0.1, 1.0]]),
                     "channel"),
    "test_channel-rows": (scheme_doc("lossy", LOSSY, test_channel=[
        [0.75, 0.25], [0.25, 0.7]]), "test_channel"),
    "joint-sum": (scheme_doc("sw", sw_doc()["scheme"],
                             joint=[[0.6, 0.2], [0.2, 0.2]]), "joint"),
    "joint-product-sum": (scheme_doc("gp", GP_HIGH), "mu_xw_z"),
    "mu_x-negative": (scheme_doc("ch", CH, mu_x=[1.5, -0.5]), "mu_x"),
    "mu_xz-sum": (scheme_doc("wz", WZ, mu_xz=[[0.9, 0.1], [0.1, 0.9]]),
                  "mu_xz"),
    "channel-negative": (scheme_doc("ch", CH, channel=[[1.5, -0.5],
                                                       [0.11, 0.89]]),
                         "channel"),
}


@pytest.mark.parametrize("doc, key", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_bad_config_exits_2_before_any_draw(doc, key, tmp_path, capsys,
                                            monkeypatch):
    named = rf"\b{key}\b"
    with pytest.raises(ValueError, match=named):
        hn.ExperimentConfig.from_dict(json.loads(json.dumps(doc)))

    def draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    monkeypatch.setattr(schemes, "build_instance", draw)
    path = run_config(tmp_path, doc)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(named, err)


@pytest.mark.parametrize("where", ["flag", "config"])
def test_run_missing_output_directory_exits_2_before_any_draw(
        where, tmp_path, capsys, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    monkeypatch.setattr(schemes, "build_instance", draw)
    prefix = str(tmp_path / "missing" / "x")
    if where == "flag":
        argv = ["--out", prefix]
        path = run_config(tmp_path)
    else:
        argv = []
        path = run_config(tmp_path, sw_doc(out=prefix))
    assert main(["run", "--config", str(path)] + argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: output directory {tmp_path / 'missing'} does not exist\n"
    assert not (tmp_path / "missing").exists()


def test_run_refuses_to_write_its_summary_over_the_config(tmp_path, capsys,
                                                          monkeypatch):
    # --out D/cfg names the summary D/cfg.json, the config itself: the run
    # exits 2 before any draw, and the config keeps its bytes
    def draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    monkeypatch.setattr(schemes, "build_instance", draw)
    path = run_config(tmp_path)
    before = path.read_bytes()
    (tmp_path / "sub").mkdir()
    for prefix in (tmp_path / "cfg", tmp_path / "sub" / ".." / "cfg"):
        assert main(["run", "--config", str(path),
                     "--out", str(prefix)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{prefix}.json" in err
        assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sub"]


def test_run_seed_override_on_non_object_config(tmp_path, capsys):
    path = run_config(tmp_path, [1])
    assert main(["run", "--config", str(path), "--seed", "5"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: config must be")


@pytest.mark.parametrize("key, value", [("trials", 3.0), ("n", [6.0]),
                                        ("best_of", 2.0), ("tau", 4.0)],
                         ids=["trials", "n", "best_of", "tau"])
def test_integral_floats_run_as_integers(key, value, tmp_path, capsys):
    base = sw_doc(trials=3, best_of=2, tau=4)
    outputs = []
    for name, doc in (("int", base), ("float", {**base, key: value})):
        path = tmp_path / f"{name}_config.json"
        path.write_text(json.dumps(doc))
        prefix = tmp_path / name
        assert main(["run", "--config", str(path),
                     "--out", str(prefix)]) == EXIT_OK
        outputs.append([Path(f"{prefix}{suffix}").read_bytes()
                        for suffix in (".csv", "_records.csv")])
    assert outputs[0] == outputs[1]


def test_cli_does_not_import_jsonschema():
    src = str(Path(cosetcode.__file__).resolve().parents[1])
    code = ("import sys, cosetcode.cli, cosetcode.harness; "
            "print('jsonschema' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_reports_admissibility_on_stderr(tmp_path, capsys):
    channel = json.loads((Path(__file__).parent.parent / "configs"
                          / "channel.json").read_text())
    clamped = sw_doc(n=[8, 16], trials=2)
    clamped["scheme"]["rate_x"] = 0.05  # 0.4 rows at n = 8, clamped to 1
    for doc, warned in (
            (channel, "eps condition violated: 0.1 <= 0.7746 < 0.05"),
            (clamped, "n=8: dimension A clamped")):
        doc.update(trials=2, best_of=1)
        prefix = tmp_path / doc["problem"]
        assert main(["run", "--config", str(run_config(tmp_path, doc)),
                     "--out", str(prefix)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == f"warning: {warned}\n"
        csv = Path(f"{prefix}.csv")
        assert out == csv.read_text() + f"# written: {csv}\n"


@pytest.mark.parametrize("problem, base, key, value", [
    ("lossy", LOSSY, "eps_a", -0.01), ("wz", WZ, "eps_a", 0),
    ("oho", OHO, "eps_a", -0.05), ("gp", GP, "eps_ahat", -0.01),
], ids=["lossy", "wz", "oho", "gp"])
def test_non_positive_epsilon_runs_and_warns(problem, base, key, value,
                                             tmp_path, capsys):
    # a rate-deficient run is reported, not refused
    doc = scheme_doc(problem, base, **{key: value})
    doc.update(n=[8], trials=4)
    assert main(["run", "--config", str(run_config(tmp_path, doc)),
                 "--out", str(tmp_path / problem)]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert f"warning: need {key} > 0" in err


def test_run_over_budget_coset_is_usage_error(tmp_path, capsys):
    # ch at n = 64, and sw at rates 0.5/0.5 with n = 48: 2^48 pairs, and a
    # trellis of 48 * 2^50 branches
    configs = Path(__file__).parent.parent / "configs"
    for name, n, update, message in [
        ("channel", 64, {}, "error: coset has "),
        ("sw", 48, {"rate_x": 0.5, "rate_y": 0.5}, "error: product has "),
    ]:
        doc = json.loads((configs / f"{name}.json").read_text())
        doc.update(n=[n], trials=1, best_of=1)
        doc["scheme"].update(update)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / f"{name}_big")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(message) and "budget" in err


def test_run_refuses_an_over_budget_search_before_any_draw(
        tmp_path, capsys, monkeypatch):
    # at full rank, oho's Bhat coset and ch's shared code at n = 64 are past
    # BUDGET: the run exits 2 and draws no code
    def no_draw(*args, **kwargs):
        raise AssertionError("build_instance was called")

    monkeypatch.setattr(schemes, "build_instance", no_draw)
    configs = Path(__file__).parent.parent / "configs"
    for name, n in (("channel", 64), ("oho", 64)):
        doc = json.loads((configs / f"{name}.json").read_text())
        doc.update(n=[8, n], trials=1, best_of=1)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / f"{name}_run")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: coset has ")


def test_run_bounds_binary_mackay_codes_below_full_rank(tmp_path, capsys,
                                                        monkeypatch):
    # channel at n = 53: A has 29 rows, so its shared code has 2^24 members
    # at full rank, within BUDGET.  A binary MacKay A has even columns, so
    # its rank is at most 28 and every draw's code has 2^25 members: the run
    # exits 2 before any draw.  A uniform A can have full rank: the run
    # goes on to draw
    class Drawn(Exception):
        pass

    def draw(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(schemes, "build_instance", draw)
    doc = json.loads((Path(__file__).parent.parent / "configs"
                      / "channel.json").read_text())
    doc.update(n=[53], trials=1, best_of=1)
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    run = ["run", "--config", str(path), "--out", str(tmp_path / "run")]
    assert main(run) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        f"error: coset has {1 << 25} elements")
    path.write_text(json.dumps(dict(doc, ensemble="uniform")))
    with pytest.raises(Drawn):
        main(run)


def test_run_leaves_a_product_within_budget_to_its_draws(tmp_path):
    # sw at n = 32, rates 0.28: 9 rows each.  At full rank the product has
    # 2^46 pairs and a trellis of 2^25 branches, both past BUDGET, but a
    # binary MacKay draw has rank at most 8, whose trellis of 2^23 branches
    # is within it: the run completes
    doc = json.loads((Path(__file__).parent.parent / "configs"
                      / "sw.json").read_text())
    doc.update(n=[32], trials=1, best_of=1)
    doc["scheme"].update(rate_x=0.28, rate_y=0.28)
    path = tmp_path / "sw.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "sw_run")]) == EXIT_OK


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "cosetcode.cli", "diag", "--q", "2", "--l", "2",
         "--n", "2", "--tau", "2", "--xi", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# alpha,1.0")
