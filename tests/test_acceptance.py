"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import json
import time
from fractions import Fraction
from math import comb

import numpy as np
import scipy.sparse

from codedmv import bounds, cli, core, oracle, sim
from codedmv.core import Placement, SystemParams, is_decodable
from codedmv.schemes import cauchy, cyclic_coded, cyclic_uncoded, mds_plan
from codedmv.field import rank

from support import (
    dominated_state,
    min_uncoded_coverage,
    random_scheme_plan,
    random_state,
    random_uncoded_plan,
)


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num, elapsed, text):
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s): {text}")


def test_c01_example1_thresholds():
    with timer() as t:
        fig1 = cyclic_uncoded(3, 2)
        fig2 = cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM)
        q_uncoded = oracle.brute_force_q(fig1).q_true
        q_coded = oracle.brute_force_q(fig2).q_true
    assert q_uncoded == 4
    assert q_coded == 3
    assert t.elapsed < 1.0
    report(1, t.elapsed, f"n=3 gamma=2/3: uncoded Q={q_uncoded}, coded Q={q_coded}")


def test_c02_example2_cyclic_uncoded():
    with timer() as t:
        plan = cyclic_uncoded(5, 3)
        q = oracle.brute_force_q(plan).q_true
        res = oracle.straggler_resilience(plan).resilience_true
        formula = bounds.uncoded_q_bound(plan.params)
    assert q == 10 == formula
    assert res == 2
    assert t.elapsed < 5.0
    report(2, t.elapsed, f"cyclic_uncoded(5,3): Q={q}=bound, resilience={res}")


def test_c03_example3_coded_bottom():
    with timer() as t:
        plan = cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM)
        q = oracle.brute_force_q(plan).q_true
        res = oracle.straggler_resilience(plan).resilience_true
        q_formula = bounds.coded_bottom_q(plan.params)
        res_formula = bounds.coded_bottom_resilience(plan.params)
    assert q == 8 == q_formula
    assert res == 3 == res_formula
    assert t.elapsed < 10.0
    report(3, t.elapsed, f"coded-bottom(5,2,1): Q={q}=formula, resilience={res}=formula")


def test_c04_example4_coded_top():
    with timer() as t:
        plan = cyclic_coded(5, 2, 1, Placement.CODED_TOP)
        q = oracle.brute_force_q(plan).q_true
        res = oracle.straggler_resilience(plan).resilience_true
    assert q == 6
    assert res == 3
    assert t.elapsed < 10.0
    report(4, t.elapsed, f"coded-top(5,2,1): Q={q}, resilience={res}")


def test_c05_opt_solver_large_system():
    with timer() as t:
        params = SystemParams(15, 15, 3, 1, 3, Placement.CODED_TOP)
        rep = bounds.coded_top_q_bound(params)
        # the witness satisfies the strict constraint in exact rationals
        feasible = Fraction(1 + 1 * 4) < 15 * Fraction(comb(12, 4), comb(15, 4))
    assert rep.q_lower == 18
    assert rep.witness == (1, 4)
    assert feasible
    report(5, t.elapsed, "opt on <15,3,1,15,3>-top: q_lower=18, witness x=1 beta=4")


def test_c06_uncoded_threshold_soundness_property():
    with timer() as t:
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            ell = int(rng.integers(1, min(n, 3) + 1))
            plan = random_uncoded_plan(n, ell, rng)
            q = oracle.brute_force_q(plan).q_true
            assert bounds.uncoded_q_bound(plan.params) <= q
            assert oracle.uncoded_q_fast(plan) == q
    assert t.elapsed < 120.0
    report(6, t.elapsed, "200 random uncoded plans: bound <= oracle, fast oracle exact")


def test_c07_cauchy_submatrices_invertible():
    with timer() as t:
        mat = cauchy(20, 20)
        entries = np.array(mat, dtype=np.int64)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(1, 21))
            rows = rng.choice(20, size=k, replace=False)
            cols = rng.choice(20, size=k, replace=False)
            sub = entries[np.ix_(rows, cols)]
            assert rank(sub) == k
    assert t.elapsed < 10.0
    report(7, t.elapsed, "1000 random square Cauchy submatrices all invertible")


def test_c08_coverage_claim_sweep():
    with timer() as t:
        for n in range(2, 9):
            for r_u in range(1, n):
                for placement in (Placement.CODED_BOTTOM, Placement.CODED_TOP):
                    plan = cyclic_coded(n, r_u, 1, placement)
                    for k in range(1, n + 1):
                        cov = min_uncoded_coverage(plan, k)
                        assert cov == min(r_u + k - 1, n), (n, r_u, k, placement)
    assert t.elapsed < 60.0
    report(8, t.elapsed, "k-subset uncoded coverage = min(ell_u+k-1, delta) for n <= 8")


def test_c09_decodability_monotone():
    with timer() as t:
        rng = np.random.default_rng(99)
        plans = [random_scheme_plan(rng) for _ in range(20)]
        for plan in plans:
            for _ in range(500):
                upper = random_state(plan, rng)
                lower = dominated_state(upper, rng)
                if is_decodable(plan, lower):
                    assert is_decodable(plan, upper)
    report(9, t.elapsed, "10^4 dominated state pairs: decodability is monotone")


def test_c10_numeric_decode_end_to_end():
    with timer() as t:
        rng = np.random.default_rng(77)
        decoded = refused = 0
        worst = 0.0
        for _ in range(50):
            plan = random_scheme_plan(rng)
            delta = plan.params.delta
            n_rows = int(rng.integers(delta, 201))
            n_cols = int(rng.integers(2, 101))
            if rng.integers(0, 2):
                a = np.asarray(
                    scipy.sparse.random(n_rows, n_cols, density=0.05, random_state=rng).todense()
                )
            else:
                a = rng.standard_normal((n_rows, n_cols))
            x = rng.standard_normal(n_cols)
            state = random_state(plan, rng)
            received = sim.state_received(plan, state)
            if is_decodable(plan, state):
                got = sim.numeric_decode(plan, a, x, received)
                expect = a @ x
                rel = np.linalg.norm(got - expect) / max(np.linalg.norm(expect), 1e-300)
                assert rel <= 1e-9, rel
                worst = max(worst, rel)
                decoded += 1
            else:
                try:
                    sim.numeric_decode(plan, a, x, received)
                    raise AssertionError("decode must refuse an undecodable state")
                except sim.NotDecodableError:
                    refused += 1
    assert decoded >= 10 and refused >= 10
    assert t.elapsed < 60.0
    report(
        10, t.elapsed,
        f"50 systems: {decoded} decodes (worst rel err {worst:.2e} <= 1e-9), {refused} refusals",
    )


def test_c11_simulation_ordering():
    with timer() as t:
        plans = [
            cyclic_coded(5, 2, 1, Placement.CODED_TOP),
            cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM),
            cyclic_uncoded(5, 3),
        ]
        rows, summaries = sim.run_experiment(
            plans, sim.ShiftedExponential(), sim.Uniform(), 10_000, seed=0,
            plan_ids=["top", "bottom", "uncoded"],
        )
        by_id = {s.plan_id: s for s in summaries}
        finishes = {
            pid: np.array([r.finish_time for r in rows if r.plan_id == pid])
            for pid in ("top", "bottom", "uncoded")
        }
        # a win is finishing no later than the paired uncoded trial
        win_rate = float((finishes["top"] <= finishes["uncoded"]).mean())
    assert by_id["top"].mean_finish <= by_id["bottom"].mean_finish <= by_id["uncoded"].mean_finish
    assert win_rate >= 0.90
    assert t.elapsed < 60.0
    report(
        11, t.elapsed,
        f"means {by_id['top'].mean_finish:.3f} <= {by_id['bottom'].mean_finish:.3f} "
        f"<= {by_id['uncoded'].mean_finish:.3f}; top-vs-uncoded win rate {win_rate:.3f}",
    )


def test_c12_cli_artifacts_deterministic(tmp_path, capsys):
    with timer() as t:
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            assert cli.main(["design", "cyclic-coded-bottom", "--n", "5", "--r_u", "2",
                             "--ell_c", "1", "--out", str(d / "plan.json")]) == 0
            assert cli.main(["verify", "--plan", str(d / "plan.json"),
                             "--out", str(d / "verify.json")]) == 0
            config = {
                "plans": [{"id": "bottom", "path": "plan.json"}],
                "speed": {"kind": "shifted-exponential"},
                "cost": {"kind": "uniform"},
                "trials": 100,
                "seed": 11,
            }
            (d / "config.json").write_text(json.dumps(config))
            assert cli.main(["simulate", "--config", str(d / "config.json"),
                             "--out", str(d / "rows.csv")]) == 0
        capsys.readouterr()
        for name in ("plan.json", "verify.json", "rows.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name
    report(12, t.elapsed, "design + verify + simulate reruns are byte-identical")
