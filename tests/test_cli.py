import json

import numpy as np
import pytest

from codedmv import cli, core, oracle
from codedmv.core import Placement, plan_from_json
from codedmv.schemes import cyclic_coded, cyclic_uncoded, mds_plan

from support import run_python


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# design


def test_design_cyclic_uncoded_grid_and_file(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code, stdout, _ = run(capsys, "design", "cyclic-uncoded", "--n", "5", "--r", "3",
                          "--out", str(out))
    assert code == 0
    first_rows = [line.split() for line in stdout.splitlines()[:4]]
    assert first_rows[0] == ["W1", "W2", "W3", "W4", "W5"]
    assert first_rows[1] == ["A1", "A2", "A3", "A4", "A5"]
    assert first_rows[2] == ["A2", "A3", "A4", "A5", "A1"]
    assert first_rows[3] == ["A3", "A4", "A5", "A1", "A2"]
    assert plan_from_json(out.read_text()) == cyclic_uncoded(5, 3)


def test_design_coded_bottom_grid_marks_coded_rows(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code, stdout, _ = run(capsys, "design", "cyclic-coded-bottom", "--n", "5",
                          "--r_u", "2", "--ell_c", "1", "--out", str(out))
    assert code == 0
    assert "C(A3+A4+A5)" in stdout
    assert plan_from_json(out.read_text()) == cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)


def test_design_mds_three_workers(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code, stdout, _ = run(capsys, "design", "mds", "--n", "3", "--ell", "1",
                          "--delta", "2", "--out", str(out))
    assert code == 0
    assert stdout.count("C(A1+A2)") == 3
    plan = plan_from_json(out.read_text())
    assert oracle.brute_force_q(plan).q_true == 2
    assert oracle.straggler_resilience(plan).resilience_true == 1


def test_design_rejects_invalid_parameters(capsys):
    code, _, err = run(capsys, "design", "cyclic-uncoded", "--n", "3", "--r", "4")
    assert code == 1
    assert "r" in err


def test_design_missing_flags_is_usage_error(capsys):
    code, _, err = run(capsys, "design", "cyclic-coded-top", "--n", "5")
    assert code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


# ---------------------------------------------------------------------------
# bounds


def test_bounds_coded_top_example(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "bounds", "--placement", "coded-top", "--n", "15",
                          "--r_u", "3", "--ell_c", "1", "--out", str(out))
    assert code == 0
    assert "q_lower      18" in stdout
    assert "x=1 beta=4" in stdout
    doc = json.loads(out.read_text())
    assert doc["q_lower"] == 18 and doc["witness"] == {"beta": 4, "x": 1}


def test_bounds_from_plan_file(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(core.plan_to_json(cyclic_uncoded(5, 3)))
    code, stdout, _ = run(capsys, "bounds", "--plan", str(plan_file))
    assert code == 0
    assert "q_lower      10" in stdout


def test_bounds_csv_output(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run(capsys, "bounds", "--placement", "uncoded", "--n", "5", "--r", "3",
                     "--format", "csv", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[1].startswith("10,10,2")


def test_bounds_requires_parameters(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_cyclic_uncoded_matches_formulas(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(core.plan_to_json(cyclic_uncoded(5, 3)))
    out = tmp_path / "verify.json"
    code, stdout, _ = run(capsys, "verify", "--plan", str(plan_file), "--out", str(out))
    assert code == 0
    assert "q_true             10" in stdout
    assert "MISMATCH" not in stdout
    doc = json.loads(out.read_text())
    assert doc["oracle"]["q_true"] == 10
    assert all(c["ok"] for c in doc["checks"])


def test_verify_budget_exceeded_exit_code(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(core.plan_to_json(cyclic_uncoded(5, 3)))
    code, _, err = run(capsys, "verify", "--plan", str(plan_file), "--budget", "7")
    assert code == 3
    assert "budget" in err


def test_verify_budget_stops_threshold_search_midway(tmp_path, capsys):
    # 2**5 = 32 fits the resilience search; the threshold search needs 159
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(core.plan_to_json(cyclic_uncoded(5, 3)))
    code, _, err = run(capsys, "verify", "--plan", str(plan_file), "--budget", "40")
    assert code == 3
    assert "budget of 40" in err
    assert "Q >= " in err


def test_verify_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # regression tripwire: a wrong oracle answer must surface as exit 2
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(core.plan_to_json(cyclic_uncoded(5, 3)))

    def broken_analyze(plan, budget=None):
        return oracle.OracleReport(
            q_true=9, worst_state=(3, 3, 2, 1, 0),
            resilience_true=2, worst_straggler_set=(0, 1, 2),
        )

    monkeypatch.setattr(cli.oracle_mod, "analyze", broken_analyze)
    code, stdout, _ = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 2
    assert "MISMATCH" in stdout


def test_verify_rejects_invalid_plan_file(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    doc = core.plan_to_dict(cyclic_uncoded(3, 2))
    doc["workers"][0][0] = {"u": 1}  # duplicate within worker 1
    plan_file.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--plan", str(plan_file))
    assert code == 1
    assert "invalid" in err


# ---------------------------------------------------------------------------
# simulate


def write_sim_setup(tmp_path, trials=50):
    plans = {
        "uncoded.json": cyclic_uncoded(5, 3),
        "top.json": cyclic_coded(5, 2, 1, Placement.CODED_TOP),
    }
    for name, plan in plans.items():
        (tmp_path / name).write_text(core.plan_to_json(plan))
    config = {
        "plans": ["uncoded.json", {"id": "top", "path": "top.json"}],
        "speed": {"kind": "shifted-exponential", "shift": 1.0, "rate": 1.0},
        "cost": {"kind": "uniform"},
        "trials": trials,
        "seed": 17,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cfg


def test_simulate_writes_rows_and_summary(tmp_path, capsys):
    cfg = write_sim_setup(tmp_path)
    out = tmp_path / "rows.csv"
    code, stdout, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert stdout.startswith("plan_id,trials,mean_finish")
    lines = out.read_text().splitlines()
    assert lines[0] == "plan_id,trial,finish_time,blocks_total,decode_ok"
    assert len(lines) == 1 + 2 * 50
    assert {line.split(",")[0] for line in lines[1:]} == {"uncoded", "top"}


def test_simulate_zero_trials_usage_error(tmp_path, capsys):
    cfg = write_sim_setup(tmp_path, trials=0)
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out",
                       str(tmp_path / "x.csv"))
    assert code == 1
    assert "trials" in err


def test_simulate_inline_plan_and_halt_speed(tmp_path, capsys):
    config = {
        "plans": [{"id": "inline", "plan": core.plan_to_dict(cyclic_uncoded(3, 2))}],
        "speed": {"kind": "halt-after", "stragglers": [0], "blocks": 0},
        "cost": {"kind": "uniform"},
        "trials": 2,
        "seed": 0,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rows.csv"
    code, stdout, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert "inline" in out.read_text()


def test_simulate_halted_zero_cost_block_warns_nothing(tmp_path):
    # worker 0 halts before its first task, which is the zero-cost block
    # A_1: its never-completed tasks must not form inf * 0
    config = {
        "plans": [{"id": "inline", "plan": core.plan_to_dict(cyclic_uncoded(3, 2))}],
        "speed": {"kind": "halt-after", "stragglers": [0], "blocks": 0},
        "cost": {"kind": "sparsity-aware", "nnz": [0, 5, 5]},
        "trials": 3,
        "seed": 0,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rows.csv"
    proc = run_python(["-m", "codedmv.cli", "simulate", "--config", str(cfg),
                       "--out", str(out)])
    assert proc.returncode == 0
    assert proc.stderr == ""
    # A_2 and A_3 complete at t = 5, then worker 2's free A_1 at the same time
    assert out.read_text().splitlines()[1] == "inline,0,5.0,3,true"


# ---------------------------------------------------------------------------
# decode


def test_decode_round_trip(tmp_path, capsys):
    plan = cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM)
    (tmp_path / "plan.json").write_text(core.plan_to_json(plan))
    rng = np.random.default_rng(0)
    a = rng.integers(-5, 6, size=(7, 3)).astype(float)
    x = rng.integers(-5, 6, size=3).astype(float)
    np.savetxt(tmp_path / "a.csv", a, delimiter=",")
    np.savetxt(tmp_path / "x.csv", x, delimiter=",")
    out = tmp_path / "y.csv"
    code, _, _ = run(capsys, "decode", "--plan", str(tmp_path / "plan.json"),
                     "--matrix", str(tmp_path / "a.csv"), "--vector", str(tmp_path / "x.csv"),
                     "--state", "2,1,0", "--out", str(out))
    assert code == 0
    got = np.loadtxt(out)
    assert np.allclose(got, a @ x, rtol=1e-9, atol=1e-12)


def test_decode_refuses_insufficient_state(tmp_path, capsys):
    plan = cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM)
    (tmp_path / "plan.json").write_text(core.plan_to_json(plan))
    a = np.eye(6)
    np.savetxt(tmp_path / "a.csv", a, delimiter=",")
    np.savetxt(tmp_path / "x.csv", np.ones(6), delimiter=",")
    code, _, err = run(capsys, "decode", "--plan", str(tmp_path / "plan.json"),
                       "--matrix", str(tmp_path / "a.csv"), "--vector", str(tmp_path / "x.csv"),
                       "--state", "2,0,0")
    assert code == 1
    assert "determine" in err


def test_decode_matrix_market_input(tmp_path, capsys):
    import scipy.sparse
    from scipy.io import mmwrite

    plan = cyclic_uncoded(4, 2)
    (tmp_path / "plan.json").write_text(core.plan_to_json(plan))
    rng = np.random.default_rng(1)
    a = scipy.sparse.random(12, 5, density=0.4, random_state=rng)
    mmwrite(str(tmp_path / "a.mtx"), a)
    np.savetxt(tmp_path / "x.csv", rng.standard_normal(5), delimiter=",")
    out = tmp_path / "y.csv"
    code, _, _ = run(capsys, "decode", "--plan", str(tmp_path / "plan.json"),
                     "--matrix", str(tmp_path / "a.mtx"), "--vector", str(tmp_path / "x.csv"),
                     "--state", "2,2,2,2", "--out", str(out))
    assert code == 0
    x = np.loadtxt(tmp_path / "x.csv", delimiter=",")
    assert np.allclose(np.loadtxt(out), a.toarray() @ x, rtol=1e-9, atol=1e-12)


def test_decode_numerically_unsafe_exit_code(tmp_path, capsys):
    # exactly decodable, but the real Cauchy system is far too ill-conditioned
    (tmp_path / "plan.json").write_text(core.plan_to_json(mds_plan(12, 2, 12)))
    np.savetxt(tmp_path / "a.csv", np.eye(24)[:, :4], delimiter=",")
    np.savetxt(tmp_path / "x.csv", np.ones(4), delimiter=",")
    code, stdout, err = run(capsys, "decode", "--plan", str(tmp_path / "plan.json"),
                            "--matrix", str(tmp_path / "a.csv"),
                            "--vector", str(tmp_path / "x.csv"), "--state", ",".join(["1"] * 12))
    assert code == 2
    assert err.startswith("error: ") and "numerically unsafe" in err
    assert stdout == ""


# ---------------------------------------------------------------------------
# failures are error lines, never tracebacks


def _undecodable_plan(tmp_path):
    # valid structure, but worker 2 repeats worker 1's row: never decodes
    doc = core.plan_to_dict(mds_plan(2, 1, 2))
    doc["workers"][1] = doc["workers"][0]
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    return ["verify", "--plan", str(tmp_path / "plan.json")], {}


def _budget_not_an_integer(tmp_path):
    (tmp_path / "plan.json").write_text(core.plan_to_json(cyclic_uncoded(3, 2)))
    return ["verify", "--plan", str(tmp_path / "plan.json")], {"CODEDMV_BUDGET": "lots"}


def _config_not_an_object(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(["plan.json"]))
    return ["simulate", "--config", str(tmp_path / "config.json")], {}


def _config_entry_malformed(tmp_path):
    config = {"plans": [{"plan": {"params": {}}}], "trials": 2}  # no plan fields
    (tmp_path / "config.json").write_text(json.dumps(config))
    return ["simulate", "--config", str(tmp_path / "config.json")], {}


def _nnz_shorter_than_delta(tmp_path):
    cfg = write_sim_setup(tmp_path, trials=2)
    config = json.loads(cfg.read_text())
    config["cost"] = {"kind": "sparsity-aware", "nnz": [1, 2, 3]}  # plans have delta = 5
    cfg.write_text(json.dumps(config))
    return ["simulate", "--config", str(cfg)], {}


def _config_value(key, value):
    def setup(tmp_path):
        cfg = write_sim_setup(tmp_path, trials=2)
        config = json.loads(cfg.read_text())
        config[key] = value
        cfg.write_text(json.dumps(config))
        return ["simulate", "--config", str(cfg)], {}

    setup.__name__ = f"_{key}_is_{type(value).__name__}_{value}"
    return setup


@pytest.mark.parametrize("setup", [_undecodable_plan, _budget_not_an_integer,
                                   _config_not_an_object, _config_entry_malformed,
                                   _nnz_shorter_than_delta,
                                   _config_value("trials", 2.7), _config_value("trials", True),
                                   _config_value("trials", "3"), _config_value("seed", 1.9),
                                   _config_value("seed", False)])
def test_bad_input_is_usage_error_without_traceback(tmp_path, setup):
    argv, env = setup(tmp_path)
    proc = run_python(["-m", "codedmv.cli", *argv], env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_import_cli_leaves_scipy_unloaded():
    proc = run_python(["-c", "import sys, codedmv.cli; sys.exit('scipy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# determinism across reruns


def test_artifacts_are_byte_identical_across_reruns(tmp_path, capsys):
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        run(capsys, "design", "cyclic-coded-top", "--n", "5", "--r_u", "2",
            "--ell_c", "1", "--out", str(d / "plan.json"))
        run(capsys, "verify", "--plan", str(d / "plan.json"), "--out", str(d / "verify.json"))
        cfg = write_sim_setup(d, trials=25)
        run(capsys, "simulate", "--config", str(cfg), "--out", str(d / "rows.csv"))
    for name in ("plan.json", "verify.json", "rows.csv"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name
