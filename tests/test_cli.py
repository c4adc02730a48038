import json
import math

import numpy as np
import pytest

from codedmv import cli, core, oracle
from codedmv.core import Placement, plan_from_json
from codedmv.schemes import cyclic_coded, cyclic_uncoded, mds_plan

from support import moved_entry_plan, perturbed, relabel_blocks, run_python


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


def test_design_prints_and_writes_what_the_scheme_builds(tmp_path, capsys):
    out, cases = tmp_path / "plan.json", []
    for n in range(1, 5):
        N = ["--n", str(n)]
        cases += [(["cyclic-uncoded", *N, "--r", str(r)], cyclic_uncoded(n, r))
                  for r in range(1, n + 1)]
        cases += [([f"cyclic-{pl.value}", *N, "--r_u", str(r_u), "--ell_c", str(ell_c)],
                   cyclic_coded(n, r_u, ell_c, pl))
                  for pl in (Placement.CODED_BOTTOM, Placement.CODED_TOP)
                  for r_u in range(n + 1) for ell_c in range(n - r_u + 1) if r_u or ell_c]
        cases += [(["mds", *N, "--ell", str(ell), "--delta", str(delta)], mds_plan(n, ell, delta))
                  for ell in (1, 2) for delta in range(ell, n * ell + 1)]
    for argv, plan in cases:
        grid, text = cli.render_grid(plan), core.plan_to_json(plan)
        assert run(capsys, "design", *argv) == (0, f"{grid}\n{text}", ""), argv
        written = run(capsys, "design", *argv, "--out", str(out))
        assert written == (0, f"{grid}\nwrote {out}\n", ""), argv
        assert out.read_text() == text, argv


def test_design_mds_delta_defaults_to_n_as_in_bounds(tmp_path, capsys):
    outs = [tmp_path / "default.json", tmp_path / "five.json"]
    for out, delta in zip(outs, ([], ["--delta", "5"])):
        code, stdout, _ = run(capsys, "design", "mds", "--n", "5", "--ell", "2", *delta,
                              "--out", str(out))
        assert code == 0 and stdout.endswith(f"\nwrote {out}\n")
    assert outs[0].read_text() == outs[1].read_text() == core.plan_to_json(mds_plan(5, 2, 5))


@pytest.mark.parametrize("argv, message", [
    (["bounds"], "bounds needs either --plan or --placement with parameters"),
    (["bounds", "--placement", "uncoded"], "--n is required"),
    (["bounds", "--placement", "uncoded", "--n", "5"], "uncoded bounds need --r"),
    (["bounds", "--placement", "coded-bottom", "--n", "5", "--r_u", "2"],
     "coded bounds need --r_u and --ell_c"),
    (["bounds", "--placement", "coded-top", "--n", "5", "--ell_c", "1"],
     "coded bounds need --r_u and --ell_c"),
    (["bounds", "--placement", "mds", "--n", "5", "--delta", "5"], "mds bounds need --ell"),
    (["design", "cyclic-uncoded", "--r", "2"], "--n is required"),
    (["design", "cyclic-uncoded", "--n", "5"], "uncoded design need --r"),
    (["design", "cyclic-coded-top", "--n", "5", "--r_u", "2"],
     "coded design need --r_u and --ell_c"),
    (["design", "mds", "--n", "5", "--delta", "5"], "mds design need --ell"),
    # design refuses a system in the words bounds uses for the same flags
    (["design", "cyclic-uncoded", "--n", "3", "--r", "4"], "ell = 4 exceeds delta = 3"),
    (["bounds", "--placement", "uncoded", "--n", "3", "--r", "4"], "ell = 4 exceeds delta = 3"),
    (["design", "cyclic-uncoded", "--n", "3", "--r", "-1"],
     "ell_u, ell_c and r_u must be non-negative"),
    (["design", "cyclic-coded-bottom", "--n", "5", "--r_u", "4", "--ell_c", "2"],
     "ell = 6 exceeds delta = 5"),
    (["design", "cyclic-uncoded", "--n", "5", "--r", "0"], "need 1 <= r <= n, got r = 0, n = 5"),
    # a coded design honours --delta: with r_u >= 1 the system itself is refused,
    # and with r_u = 0 no construction has delta != n
    (["design", "cyclic-coded-top", "--n", "5", "--r_u", "2", "--ell_c", "1", "--delta", "7"],
     "n*ell_u = 10 != delta*r_u = 14"),
    (["design", "cyclic-coded-bottom", "--n", "5", "--r_u", "2", "--ell_c", "1", "--delta", "7"],
     "n*ell_u = 10 != delta*r_u = 14"),
    (["design", "cyclic-coded-top", "--n", "5", "--r_u", "0", "--ell_c", "1", "--delta", "7"],
     "construction requires delta = n"),
    (["bounds", "--placement", "coded-top", "--n", "5", "--r_u", "0", "--ell_c", "1",
      "--delta", "7"], "formula requires delta = n"),
])
def test_design_and_bounds_refusals(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["design", "cyclic-uncoded", "--n", "5", "--r", "2", "--ell_c", "3", "--ell", "4"],
     "uncoded design take no --ell_c, --ell"),
    (["design", "cyclic-uncoded", "--n", "5", "--r", "2", "--r_u", "2"],
     "uncoded design take no --r_u"),
    (["design", "cyclic-coded-top", "--n", "5", "--r_u", "2", "--ell_c", "1", "--r", "2"],
     "coded-top design take no --r"),
    (["design", "cyclic-coded-bottom", "--n", "5", "--r_u", "2", "--ell_c", "1", "--ell", "3"],
     "coded-bottom design take no --ell"),
    (["design", "mds", "--n", "5", "--ell", "2", "--r_u", "1", "--ell_c", "1"],
     "mds design take no --r_u, --ell_c"),
    (["bounds", "--placement", "uncoded", "--n", "5", "--r", "3", "--ell", "3"],
     "uncoded bounds take no --ell"),
    (["bounds", "--placement", "mds", "--n", "5", "--ell", "2", "--r", "1"],
     "mds bounds take no --r"),
    (["bounds", "--placement", "coded-top", "--n", "5", "--r_u", "2", "--ell_c", "1",
      "--ell", "3"], "coded-top bounds take no --ell"),
])
def test_design_and_bounds_refuse_flags_of_another_kind(capsys, argv, message):
    # each kind reads only the flags its system names; a stray one was
    # dropped without a word
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("extra", [
    ["--placement", "mds"], ["--n", "9"], ["--r", "2"], ["--r_u", "2"], ["--ell_c", "1"],
    ["--ell", "2"], ["--delta", "5"], ["--placement", "mds", "--n", "9"],
])
def test_bounds_from_a_plan_refuses_system_flags(tmp_path, capsys, extra):
    # the plan gives the system; bounds used to report the plan's and drop the flags
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(core.plan_to_json(cyclic_uncoded(5, 2)))
    named = ", ".join(flag for flag in extra if flag.startswith("--"))
    assert run(capsys, "bounds", "--plan", str(plan_file), *extra) == (
        1, "", f"error: bounds --plan reads the system from the plan and takes no {named}\n")
    code, stdout, _ = run(capsys, "bounds", "--plan", str(plan_file), "--format", "csv")
    assert code == 0 and stdout.startswith("system: n=5 delta=5 ")


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


def test_mds_bounds_need_only_ell(capsys):
    # --delta defaults to n, so only --ell is missing
    code, _, err = run(capsys, "bounds", "--placement", "mds", "--n", "5")
    assert code == 1
    assert "mds bounds need --ell\n" in err
    code, stdout, _ = run(capsys, "bounds", "--placement", "mds", "--n", "5", "--ell", "2")
    assert code == 0
    assert stdout.startswith("system: n=5 delta=5 ell_u=0 ell_c=2 r_u=0 placement=fully-coded\n")


def test_bounds_claim_no_exact_threshold_without_tasks(capsys):
    code, stdout, _ = run(capsys, "bounds", "--placement", "uncoded", "--n", "5", "--r", "0")
    assert code == 0
    assert stdout.splitlines()[1:4] == ["q_lower      5", "q_exact      -", "resilience   0"]


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


def run_verify(capsys, tmp_path, plan):
    """verify's exit code, stdout (the --out path shown as OUT) and --out
    text on the plan, written to a file."""
    plan_file, out = tmp_path / "plan.json", tmp_path / "verify.json"
    plan_file.write_text(core.plan_to_json(plan))
    code, stdout, _ = run(capsys, "verify", "--plan", str(plan_file), "--out", str(out))
    return code, stdout.replace(str(out), "OUT"), out.read_text()


def check_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith(("ok ", "MISMATCH "))]


def swapped(plan, i, j):
    """The plan with workers i and j trading task lists."""
    workers = list(plan.workers)
    workers[i], workers[j] = workers[j], workers[i]
    return core.AssignmentPlan(plan.params, tuple(workers))


# verify's stdout on one canonical plan per family, recorded before the
# formulas moved into one family table: (plan, stdout); the --out document
# holds the same values, see pinned_out
PINNED_VERIFY = {
    "coded-top-5-2-1": (
        lambda: cyclic_coded(5, 2, 1, Placement.CODED_TOP),
        "q_true             6\nworst_state        [3, 2, 0, 0, 0]\nresilience_true    3\n"
        "worst_stragglers   [1, 2, 3, 4]\nok       threshold bound 5 <= oracle 6\n"
        "ok       resilience formula 3 == oracle 3\nwrote OUT\n",
    ),
    "coded-bottom-7-2-1": (
        lambda: cyclic_coded(7, 2, 1, Placement.CODED_BOTTOM),
        "q_true             12\nworst_state        [2, 2, 2, 2, 2, 1, 0]\nresilience_true    4\n"
        "worst_stragglers   [1, 2, 3, 4, 5]\nok       threshold bound 12 <= oracle 12\n"
        "ok       construction meets bound: 12 == 12\nok       resilience formula 4 == oracle 4\n"
        "wrote OUT\n",
    ),
    "cyclic-uncoded-5-3": (
        lambda: cyclic_uncoded(5, 3),
        "q_true             10\nworst_state        [3, 3, 2, 1, 0]\nresilience_true    2\n"
        "worst_stragglers   [1, 2, 3]\nok       per-block fast threshold 10 == oracle 10\n"
        "ok       threshold bound 10 <= oracle 10\n"
        "ok       oracle resilience 2 <= replication bound 2\n"
        "ok       cyclic construction meets bound: 10 == 10\n"
        "ok       cyclic resilience 2 == r-1 = 2\nwrote OUT\n",
    ),
    "mds-8-2-10": (
        lambda: mds_plan(8, 2, 10),
        "q_true             10\nworst_state        [2, 2, 2, 2, 1, 0, 0, 0]\nresilience_true    3\n"
        "worst_stragglers   [1, 2, 3, 4]\nok       oracle 10 >= delta 10\n"
        "ok       any delta rows decode: oracle 10 == 10\nwrote OUT\n",
    ),
}


def pinned_out(stdout):
    """The --out text that goes with a pinned stdout."""
    lines = stdout.splitlines()
    doc = {
        "checks": [{"check": line[9:], "ok": line.startswith("ok ")} for line in check_lines(stdout)],
        "oracle": {
            "q_true": int(lines[0].split()[1]),
            "resilience_true": int(lines[2].split()[1]),
            "worst_state": json.loads(lines[1].split(maxsplit=1)[1]),
            "worst_straggler_set": [i - 1 for i in json.loads(lines[3].split(maxsplit=1)[1])],
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", PINNED_VERIFY)
def test_verify_output_on_each_family_is_pinned(tmp_path, capsys, name):
    build, stdout = PINNED_VERIFY[name]
    assert run_verify(capsys, tmp_path, build()) == (0, stdout, pinned_out(stdout))


@pytest.mark.parametrize("name", PINNED_VERIFY)
def test_verify_prints_the_canonical_lines_on_a_relabelled_scheme_plan(tmp_path, capsys, name):
    build, stdout = PINNED_VERIFY[name]
    plan = build()
    plan = relabel_blocks(plan, np.random.default_rng(1).permutation(plan.params.delta))
    assert plan != build()
    assert run_verify(capsys, tmp_path, plan) == (0, stdout, pinned_out(stdout))


# plans that are not relabelled scheme plans, with the check lines verify
# printed for them before the family table; none gains a construction check
NOT_RELABELLED = {
    "perturbed-coded-top-5-2-1": (
        lambda: perturbed(cyclic_coded(5, 2, 1, Placement.CODED_TOP), np.random.default_rng(0)),
        ["ok       threshold bound 5 <= oracle 6"],
    ),
    "perturbed-mds-7-2-5": (
        lambda: perturbed(mds_plan(7, 2, 5), np.random.default_rng(0)),
        ["ok       oracle 5 >= delta 5"],
    ),
    "moved-entry-1-2": (lambda: moved_entry_plan(1, 2), ["ok       oracle 3 >= delta 3"]),
    "swapped-coded-bottom-7-2-1": (
        lambda: swapped(cyclic_coded(7, 2, 1, Placement.CODED_BOTTOM), 0, 3),
        ["ok       threshold bound 12 <= oracle 12"],
    ),
    "swapped-coded-top-5-2-1": (
        lambda: swapped(cyclic_coded(5, 2, 1, Placement.CODED_TOP), 0, 2),
        ["ok       threshold bound 5 <= oracle 6"],
    ),
    "swapped-cyclic-uncoded-5-3": (
        lambda: swapped(cyclic_uncoded(5, 3), 1, 2),
        ["ok       per-block fast threshold 10 == oracle 10",
         "ok       threshold bound 10 <= oracle 10",
         "ok       oracle resilience 2 <= replication bound 2"],
    ),
}


@pytest.mark.parametrize("name", NOT_RELABELLED)
def test_verify_keeps_the_bound_checks_on_plans_that_are_not_relabelled_schemes(
        tmp_path, capsys, name):
    build, expected = NOT_RELABELLED[name]
    code, stdout, _ = run_verify(capsys, tmp_path, build())
    assert (code, check_lines(stdout)) == (0, expected)


@pytest.mark.parametrize("placement", [Placement.CODED_BOTTOM, Placement.CODED_TOP])
def test_verify_all_coded_plans_meet_the_fully_coded_formulas(tmp_path, capsys, placement):
    # with r_u = 0 every task is coded: any n rows decode, and n - ceil(n / ell_c)
    # absent workers leave enough; the paper's coded-bottom resilience does not hold
    for n in range(3, 13):
        for ell_c in range(1, min(n, 3) + 1):
            code, stdout, _ = run_verify(capsys, tmp_path, cyclic_coded(n, 0, ell_c, placement))
            res = n - math.ceil(n / ell_c)
            assert (code, check_lines(stdout)) == (0, [
                f"ok       threshold bound {n} <= oracle {n}",
                f"ok       construction meets bound: {n} == {n}",
                f"ok       resilience formula {res} == oracle {res}",
            ]), (n, ell_c)


def test_main_called_twice_in_one_process_matches_fresh_processes(tmp_path):
    # the parser is built once per process and reused by every later call
    assert cli.build_parser() is cli.build_parser()
    plan = tmp_path / "plan.json"
    plan.write_text(core.plan_to_json(cyclic_coded(5, 2, 1, Placement.CODED_TOP)))
    commands = [
        ["verify", "--plan", str(plan)],
        ["bounds", "--placement", "coded-top", "--n", "5", "--r_u", "2", "--ell_c", "1"],
        ["design", "cyclic-coded-top", "--n", "5"],  # missing flags
        ["verify", "--plan", str(plan), "--budget", "x"],  # argparse's own error
        ["--help"],
        ["verify", "--help"],
    ]
    script = ("import contextlib, io, json, sys\nfrom codedmv import cli\nruns = []\n"
              f"for argv in {commands!r} * 2:\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "        try:\n            code = cli.main(argv)\n"
              "        except SystemExit as e:\n            code = e.code\n"
              "    runs.append([code, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(runs))")
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for argv, first, second in zip(commands, runs, runs[len(commands):]):
        fresh = run_python(["-m", "codedmv.cli", *argv])
        assert first == second == [fresh.returncode, fresh.stdout, fresh.stderr], argv


def searched_plan_json():
    """Coded-top (5,2,1) with one coefficient moved: not count-exact, so
    ``verify`` runs the two searches on it, not the dynamic program."""
    plan = perturbed(cyclic_coded(5, 2, 1, Placement.CODED_TOP), np.random.default_rng(3))
    assert not plan.checker.count_exact
    return core.plan_to_json(plan)


def test_verify_budget_exceeded_exit_code(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(searched_plan_json())
    code, _, err = run(capsys, "verify", "--plan", str(plan_file), "--budget", "7")
    assert code == 3
    assert "budget" in err


def test_verify_budget_of_one_is_exceeded(tmp_path, capsys, monkeypatch):
    # the one evaluation the budget allows is the fully processed state, so
    # "every set of 0 absent workers decodes" has been checked
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(searched_plan_json())
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
    # the resilience search needs 27 evaluations; the threshold search needs 187
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(searched_plan_json())
    code, _, err = run(capsys, "verify", "--plan", str(plan_file), "--budget", "40")
    assert code == 3
    assert "budget of 40" in err
    assert "Q >= " in err


def test_verify_budget_stops_the_dynamic_program(tmp_path, capsys):
    # coded-bottom (10,2,1) takes the dynamic program: 137 table cells for
    # resilience, then 227 for the threshold, each after the full state
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(core.plan_to_json(cyclic_coded(10, 2, 1, Placement.CODED_BOTTOM)))
    code, _, err = run(capsys, "verify", "--plan", str(plan_file), "--budget", "227")
    assert code == 3
    assert err.startswith("error: threshold dynamic program stopped at its budget of 227 ")
    code, stdout, _ = run(capsys, "verify", "--plan", str(plan_file), "--budget", "228")
    assert code == 0
    assert "q_true             18" in stdout


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


def _respell_coefficient(respell):
    def edit(doc):
        coeffs = doc["workers"][0][1]["c"]
        coeffs["1"] = respell(coeffs["1"])
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
    # coefficient values that int() read, though not written as design writes them
    "value_leading_zero": _respell_coefficient(lambda c: "0" + c),
    "value_plus": _respell_coefficient(lambda c: "+" + c),
    "value_space": _respell_coefficient(lambda c: " " + c),
    "value_underscore": _respell_coefficient(lambda c: c[0] + "_" + c[1:]),
    "value_newline": _respell_coefficient(lambda c: c + "\n"),
    "value_arabic_indic_one": _respell_coefficient(lambda c: "\u0661"),
    # coefficient keys that are not the canonical decimal of a block
    "key_01_repeats_block_1": _add_coefficient_key("01"),
    "key_space": _rename_coefficient_key("2", " 2"),
    "key_plus": _rename_coefficient_key("1", "+1"),
    "key_underscore": _rename_coefficient_key("1", "0_1"),
    # a comma inside a key or value, which the joined text read as a separator
    "key_comma": _rename_coefficient_key("1", "0,1"),
    "value_comma": _respell_coefficient(lambda c: c + ",6"),
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


def test_simulate_leaves_numpy_ma_unloaded(tmp_path):
    # np.median and np.percentile import numpy.ma on first use: 12-16 ms and
    # about 1.9 MB of every fresh simulate process
    if run_python(["-c", "import sys, numpy; sys.exit('numpy.ma' in sys.modules)"]).returncode:
        pytest.skip("importing numpy alone loads numpy.ma")
    config = json.loads(write_sim_setup(tmp_path, trials=300).read_text())
    configs = {
        "uniform": config,  # shifted-exponential speed, uniform cost
        "sparse": {**config, "cost": {"kind": "sparsity-aware", "nnz": [1, 2, 3, 4, 5]}},
        "halt": {**config, "speed": HALT_AFTER[1]},
    }
    argv = []
    for name, doc in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv.append(["simulate", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / f"{name}.csv")])
    script = ("import sys; from codedmv import cli\n"
              f"codes = [cli.main(argv) for argv in {argv!r}]\n"
              "sys.exit(codes != [0, 0, 0] or 'numpy.ma' in sys.modules)")
    proc = run_python(["-c", script])
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
