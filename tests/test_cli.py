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


def test_verify_budget_of_one_is_exceeded(tmp_path, capsys, monkeypatch):
    # the one evaluation the budget allows is the fully processed state, so
    # "every set of 0 absent workers decodes" has been checked
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(core.plan_to_json(cyclic_uncoded(5, 3)))
    states = []
    decodable = core.DecodabilityChecker.decodable

    def recorded(self, state):
        states.append(state)
        return decodable(self, state)

    monkeypatch.setattr(core.DecodabilityChecker, "decodable", recorded)
    code, _, err = run(capsys, "verify", "--plan", str(plan_file), "--budget", "1")
    assert code == 3
    assert "budget of 1 " in err
    assert "every set of 0 absent workers decodes" in err
    assert states == [(3, 3, 3, 3, 3)]


def test_verify_budget_stops_threshold_search_midway(tmp_path, capsys):
    # the resilience search needs 17 evaluations; the threshold search needs 159
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


def test_simulate_seed_overrides_the_config_seed(tmp_path, capsys):
    # --seed S writes the bytes of the same config with "seed": S
    cfg = write_sim_setup(tmp_path)

    def simulate(name, *flags):
        out = tmp_path / name
        code, stdout, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out), *flags)
        assert code == 0
        return stdout.replace(str(out), "rows.csv"), out.read_bytes()

    overridden = simulate("a.csv", "--seed", "5")
    assert simulate("b.csv") != overridden  # the config's seed, 17
    doc = json.loads(cfg.read_text())
    doc["seed"] = 5
    cfg.write_text(json.dumps(doc))
    assert simulate("c.csv") == overridden


def test_simulate_cost_without_kind_is_uniform(tmp_path, capsys):
    cfg = write_sim_setup(tmp_path, trials=20)
    config = json.loads(cfg.read_text())
    outputs = []
    for cost in ({"kind": "uniform"}, {}, None):
        if cost is None:
            del config["cost"]
        else:
            config["cost"] = cost
        cfg.write_text(json.dumps(config))
        out = tmp_path / "rows.csv"
        code, stdout, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 0
        outputs.append((stdout, out.read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


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


def test_simulate_multipliers_that_fit_only_the_first_plan(tmp_path, capsys):
    # five multipliers fit the two n = 5 plans, not the n = 6 one
    cfg = write_sim_setup(tmp_path, trials=3)
    (tmp_path / "six.json").write_text(core.plan_to_json(cyclic_uncoded(6, 3)))
    config = json.loads(cfg.read_text())
    config["plans"].append("six.json")
    config["speed"]["multipliers"] = [1.0, 1.0, 1.0, 1.0, 0.2]
    cfg.write_text(json.dumps(config))
    out = tmp_path / "rows.csv"
    code, stdout, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert err == "error: need 6 multipliers, got (5,)\n"
    assert stdout == ""
    assert not out.exists()


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


def test_decode_state_takes_canonical_decimal_counts(tmp_path, capsys):
    # the setup BAD_STATES spoil decodes from the canonical 2,2,2 and 0,2,2
    for state in ("2,2,2", "0,2,2"):
        argv, _ = _decode_npy_matrix(tmp_path, np.ones((6, 2)), state)
        assert run(capsys, *argv) == (0, "2.0\n" * 6, "")
    argv, _ = _decode_npy_matrix(tmp_path, np.ones((6, 2)), "+2,2,2")
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: state must be comma-separated counts")


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


@pytest.mark.parametrize("bad, state", [(np.inf, "3,3,0,0,0"), (np.nan, "3,3,3,3,3")],
                         ids=["inf", "nan"])
def test_decode_refuses_non_finite_products(tmp_path, capsys, bad, state):
    # coded-bottom (5, 2, 1), rows 3-4 of 11 forming A_2: at 3,3,0,0,0
    # an infinite A_2 came back as a result, and at 3,3,3,3,3 a nan one
    # was reported as a disagreement between its two uncoded copies
    plan = cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)
    (tmp_path / "plan.json").write_text(core.plan_to_json(plan))
    rng = np.random.default_rng(13)
    a = rng.standard_normal((11, 3))
    a[3, 0] = bad
    np.save(tmp_path / "a.npy", a)
    np.save(tmp_path / "x.npy", rng.standard_normal(3))
    code, stdout, err = run(capsys, "decode", "--plan", str(tmp_path / "plan.json"),
                            "--matrix", str(tmp_path / "a.npy"),
                            "--vector", str(tmp_path / "x.npy"), "--state", state)
    assert code == 1
    assert stdout == ""
    assert err == "error: non-finite block products: A_2\n"


def test_decode_refuses_a_right_hand_side_that_overflows(tmp_path, capsys):
    # every block product of coded-top (5, 2, 1) is finite, but at
    # 3,2,0,3,0 the right-hand side that solves A_3 overflows: -inf was
    # printed with exit 0, after a RuntimeWarning on stderr
    (tmp_path / "plan.json").write_text(
        core.plan_to_json(cyclic_coded(5, 2, 1, Placement.CODED_TOP)))
    np.savetxt(tmp_path / "a.csv", [9e307, -3e307, -1.6e308, 9e307, -1.6e308], delimiter=",")
    np.savetxt(tmp_path / "x.csv", [1.0], delimiter=",")
    code, stdout, err = run(capsys, "decode", "--plan", str(tmp_path / "plan.json"),
                            "--matrix", str(tmp_path / "a.csv"),
                            "--vector", str(tmp_path / "x.csv"), "--state", "3,2,0,3,0")
    assert (code, stdout) == (1, "")
    assert err == "error: solving for A_3 overflows: a right-hand side is not finite\n"


@pytest.mark.parametrize("empty", ["matrix", "vector"])
def test_decode_refuses_an_empty_input_file(tmp_path, empty):
    # an empty text file was read with numpy's "input contained no data"
    # warning on stderr, then refused as a vector of the wrong shape, the
    # vector blamed even when the matrix was empty
    (tmp_path / "plan.json").write_text(
        core.plan_to_json(cyclic_coded(5, 2, 1, Placement.CODED_TOP)))
    np.savetxt(tmp_path / "matrix.csv", np.arange(10.0).reshape(5, 2), delimiter=",")
    np.savetxt(tmp_path / "vector.csv", [1.0, 2.0], delimiter=",")
    (tmp_path / f"{empty}.csv").write_text("")
    proc = run_python(["-m", "codedmv.cli", "decode", "--plan", str(tmp_path / "plan.json"),
                       "--matrix", str(tmp_path / "matrix.csv"),
                       "--vector", str(tmp_path / "vector.csv"), "--state", "1,1,1,1,1"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: cannot read {empty} {tmp_path / empty}.csv: no data\n"


# ---------------------------------------------------------------------------
# failures are error lines, never tracebacks


def _undecodable_plan(tmp_path):
    # valid structure, but worker 2 repeats worker 1's row: never decodes
    doc = core.plan_to_dict(mds_plan(2, 1, 2))
    doc["workers"][1] = doc["workers"][0]
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    return ["verify", "--plan", str(tmp_path / "plan.json")], {}


def _verify_with_budget(tmp_path, budget):
    (tmp_path / "plan.json").write_text(core.plan_to_json(cyclic_uncoded(5, 3)))
    return ["verify", "--plan", str(tmp_path / "plan.json"), "--budget", budget], {}


def _budget_zero(tmp_path):
    return _verify_with_budget(tmp_path, "0")


def _budget_negative(tmp_path):
    return _verify_with_budget(tmp_path, "-3")


def _decode_npy_matrix(tmp_path, matrix, state="2,2,2"):
    (tmp_path / "plan.json").write_text(core.plan_to_json(cyclic_uncoded(3, 2)))
    np.save(tmp_path / "a.npy", matrix)
    np.save(tmp_path / "x.npy", np.ones(2))
    return ["decode", "--plan", str(tmp_path / "plan.json"),
            "--matrix", str(tmp_path / "a.npy"), "--vector", str(tmp_path / "x.npy"),
            "--state", state], {}


def _matrix_1d_npy(tmp_path):
    return _decode_npy_matrix(tmp_path, np.ones(6))


def _matrix_3d_npy(tmp_path):
    return _decode_npy_matrix(tmp_path, np.ones((6, 2, 2)))


def _matrix_with_three_columns(tmp_path):
    return _decode_npy_matrix(tmp_path, np.ones((6, 3)))  # the vector has 2 entries


def _decode_state(state):
    # each would otherwise read as 2,2,2, which decodes
    def setup(tmp_path):
        return _decode_npy_matrix(tmp_path, np.ones((6, 2)), state)

    setup.__name__ = f"_decode_state_{ascii(state)}"
    return setup


BAD_STATES = [_decode_state(state) for state in
              ("0_2,2,2", "+2,2,2", " 2,2,2", "2,2,2 ", "02,2,2", "\uff12,2,2")]


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


def _config_value(key, value, section=None):
    def setup(tmp_path):
        cfg = write_sim_setup(tmp_path, trials=2)
        config = json.loads(cfg.read_text())
        if section is None:
            config[key] = value
        else:
            config[section[0]] = {**section[1], key: value}
        cfg.write_text(json.dumps(config))
        return ["simulate", "--config", str(cfg)], {}

    setup.__name__ = f"_{key}_is_{type(value).__name__}_{value}"[:40]
    return setup


def _out_in_missing_dir(command):
    def setup(tmp_path):
        decode_argv, _ = _decode_npy_matrix(tmp_path, np.ones((6, 2)))  # writes plan.json too
        plan = str(tmp_path / "plan.json")
        argv = {
            "design": ["design", "cyclic-uncoded", "--n", "3", "--r", "2"],
            "bounds": ["bounds", "--plan", plan],
            "verify": ["verify", "--plan", plan],
            "simulate": ["simulate", "--config", str(write_sim_setup(tmp_path, trials=2))],
            "decode": decode_argv,
        }[command]
        return [*argv, "--out", str(tmp_path / "missing" / "out")], {}

    setup.__name__ = f"_{command}_out_in_missing_dir"
    return setup


def _bad_plan_doc(edit):
    """A coded-bottom (3,1,1) plan document changed by ``edit``."""
    doc = core.plan_to_dict(cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM))
    return edit(doc) or doc


def _set_task(worker, position, task):
    def edit(doc):
        doc["workers"][worker][position] = task
    return edit


def _add_to_coefficient(delta):
    def edit(doc):
        coeffs = doc["workers"][0][1]["c"]
        block = min(coeffs)
        coeffs[block] = int(coeffs[block]) + delta
    return edit


def _add_coefficient_key(key):
    def edit(doc):
        doc["workers"][0][1]["c"][key] = "1"
    return edit


def _rename_coefficient_key(old, new):
    def edit(doc):
        coeffs = doc["workers"][0][1]["c"]
        coeffs[new] = coeffs.pop(old)
    return edit


def _set_param(key, value):
    def edit(doc):
        doc["params"][key] = value
    return edit


BAD_PLANS = {
    # shapes that are not plan documents
    "top_level_array": lambda doc: [doc],
    "params_list": lambda doc: {**doc, "params": list(doc["params"].values())},
    "workers_int": lambda doc: {**doc, "workers": 3},
    "task_string": _set_task(0, 0, "u0"),
    "u_list": _set_task(0, 0, {"u": [0]}),
    "c_list": _set_task(0, 1, {"c": [1]}),
    # values that used to be coerced silently
    "u_float": _set_task(0, 0, {"u": 0.7}),
    "u_bool": _set_task(1, 0, {"u": True}),
    "n_float": _set_param("n", 3.9),
    "n_string": _set_param("n", "3"),
    "coefficient_float": _add_to_coefficient(0.5),
    "coefficient_bool": _set_task(0, 1, {"c": {"1": True, "2": "1"}}),
    # coefficient keys that are not the canonical decimal of a block
    "key_01_repeats_block_1": _add_coefficient_key("01"),
    "key_space": _rename_coefficient_key("2", " 2"),
    "key_plus": _rename_coefficient_key("1", "+1"),
    "key_underscore": _rename_coefficient_key("1", "0_1"),
    # keys that used to be ignored, or read as an uncoded task
    "top_level_unknown_key": lambda doc: {**doc, "name": "fig2"},
    "params_unknown_key": _set_param("ell", 2),
    "task_unknown_key": _set_task(0, 0, {"u": 0, "note": "A_1"}),
    "task_u_and_c": _set_task(0, 0, {"u": 0, "c": {"1": "3"}}),
}


def _verify_bad_plan(name):
    def setup(tmp_path):
        doc = _bad_plan_doc(BAD_PLANS[name])
        (tmp_path / "plan.json").write_text(json.dumps(doc))
        return ["verify", "--plan", str(tmp_path / "plan.json")], {}

    setup.__name__ = f"_verify_plan_{name}"
    return setup


def _simulate_inline_plan_c_list(tmp_path):
    config = {"plans": [{"plan": _bad_plan_doc(BAD_PLANS["c_list"])}], "trials": 2}
    (tmp_path / "config.json").write_text(json.dumps(config))
    return ["simulate", "--config", str(tmp_path / "config.json")], {}


def _plan_entries(name, entries):
    def setup(tmp_path):
        cfg = write_sim_setup(tmp_path, trials=2)
        (tmp_path / "a,b.json").write_text((tmp_path / "top.json").read_text())
        config = json.loads(cfg.read_text())
        config["plans"] = entries
        cfg.write_text(json.dumps(config))
        return ["simulate", "--config", str(cfg)], {}

    setup.__name__ = f"_plan_id_{name}"
    return setup


BAD_PLAN_IDS = [
    _plan_entries("comma", [{"id": "a,b", "path": "top.json"}]),
    _plan_entries("list", [{"id": ["x", "y"], "path": "top.json"}]),
    _plan_entries("quote", [{"id": 'say "top"', "path": "top.json"}]),
    _plan_entries("newline", [{"id": "top\nmore", "path": "top.json"}]),
    _plan_entries("repeated", [{"id": "top", "path": "top.json"},
                               {"id": "top", "path": "uncoded.json"}]),
    _plan_entries("path_stem_comma", ["a,b.json"]),
]


HALT_AFTER = ("speed", {"kind": "halt-after", "stragglers": [0], "blocks": 1})
SPARSITY = ("cost", {"kind": "sparsity-aware"})
SHIFTED = ("speed", {"kind": "shifted-exponential"})
DETERMINISTIC = ("speed", {"kind": "deterministic"})
NO_COST_KIND = ("cost", {})  # uniform, which takes no nonzero counts


@pytest.mark.parametrize("setup", [_undecodable_plan, _budget_zero, _budget_negative,
                                   _matrix_1d_npy, _matrix_3d_npy, _matrix_with_three_columns,
                                   _config_not_an_object, _config_entry_malformed,
                                   _nnz_shorter_than_delta,
                                   _config_value("trials", 2.7), _config_value("trials", True),
                                   _config_value("trials", "3"), _config_value("seed", 1.9),
                                   _config_value("seed", False),
                                   _config_value("stragglers", [0.9, 1.7], HALT_AFTER),
                                   _config_value("blocks", 1.5, HALT_AFTER),
                                   _config_value("nnz", [2.9, 5, 5, 5, 5], SPARSITY),
                                   _config_value("rate", "nan", SHIFTED),
                                   _config_value("rate", float("nan"), SHIFTED),
                                   _config_value("shift", "inf", SHIFTED),
                                   _config_value("shift", float("inf"), SHIFTED),
                                   _config_value("shift", "2", SHIFTED),
                                   _config_value("shift", True, SHIFTED),
                                   _config_value("shift", 10**400, SHIFTED),
                                   _config_value("multipliers", [1, "nan", 1, 1, 1], SHIFTED),
                                   _config_value("multipliers", [1, float("nan"), 1, 1, 1],
                                                 SHIFTED),
                                   _config_value("per_block", "nan", HALT_AFTER),
                                   _config_value("per_block", float("nan"), HALT_AFTER),
                                   _config_value("per_block", "inf", DETERMINISTIC),
                                   _config_value("per_block", float("inf"), DETERMINISTIC),
                                   _config_value("per_block", [1, 2, False, 1, 1],
                                                 DETERMINISTIC),
                                   _config_value("multiplier", [1, 1, 1, 0.2, 0.2], SHIFTED),
                                   _config_value("nnz", [1, 2, 3, 4, 5], NO_COST_KIND),
                                   # unknown keys of the config and of a plan entry
                                   _config_value("Seed", 5),
                                   _plan_entries("unknown_key", [{"id": "top", "path": "top.json",
                                                                  "name": "top"}]),
                                   # a path and an inline plan in one entry
                                   _plan_entries("path_and_plan", [{
                                       "id": "top", "path": "top.json",
                                       "plan": core.plan_to_dict(mds_plan(5, 2, 5))}]),
                                   *BAD_STATES,
                                   *(_out_in_missing_dir(command) for command in
                                     ("design", "bounds", "verify", "simulate", "decode")),
                                   *(_verify_bad_plan(name) for name in BAD_PLANS),
                                   _simulate_inline_plan_c_list, *BAD_PLAN_IDS])
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
