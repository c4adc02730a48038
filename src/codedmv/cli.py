"""Command-line front end.

Subcommands: design, bounds, verify, simulate, decode.
Exit codes: 0 success, 1 usage or input error, 2 verification mismatch or
a decode refused as numerically unsafe, 3 search budget exceeded.
Identical flags and inputs always produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import oracle as oracle_mod
from . import schemes, sim
from .core import (
    AssignmentPlan,
    Placement,
    SystemParams,
    Uncoded,
    check_state,
    plan_from_dict,
    plan_from_json,
    plan_to_json,
    validate_plan,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; the exit-code contract wants 1
    def error(self, message):
        raise UsageError(message)


def _cell(task) -> str:
    if isinstance(task, Uncoded):
        return f"A{task.block + 1}"
    return "C(" + "+".join(f"A{b + 1}" for b in task.support) + ")"


def render_grid(plan: AssignmentPlan) -> str:
    """Workers as columns, tasks top to bottom, like the usual figures."""
    cols = [[f"W{i + 1}"] + [_cell(t) for t in tasks] for i, tasks in enumerate(plan.workers)]
    widths = [max(len(c) for c in col) for col in cols]
    lines = []
    for row in range(plan.ell + 1):
        lines.append("  ".join(col[row].ljust(w) for col, w in zip(cols, widths)).rstrip())
    return "\n".join(lines)


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write(path: str, text: str):
    Path(path).write_text(text)


def _load_plan(path: str) -> AssignmentPlan:
    try:
        plan = plan_from_json(Path(path).read_text())
    except (OSError, ValueError, KeyError) as e:
        raise UsageError(f"cannot read plan {path}: {e}")
    violations = validate_plan(plan)
    if violations:
        raise UsageError(f"plan {path} is invalid: " + "; ".join(violations))
    return plan


# ---------------------------------------------------------------------------
# design


def _cmd_design(args) -> int:
    try:
        if args.scheme == "cyclic-uncoded":
            if args.r is None:
                raise UsageError("cyclic-uncoded needs --n and --r")
            plan = schemes.cyclic_uncoded(args.n, args.r)
        elif args.scheme in ("cyclic-coded-bottom", "cyclic-coded-top"):
            if args.r_u is None or args.ell_c is None:
                raise UsageError(f"{args.scheme} needs --n, --r_u and --ell_c")
            placement = (
                Placement.CODED_BOTTOM
                if args.scheme == "cyclic-coded-bottom"
                else Placement.CODED_TOP
            )
            plan = schemes.cyclic_coded(args.n, args.r_u, args.ell_c, placement)
        else:
            if args.ell is None or args.delta is None:
                raise UsageError("mds needs --n, --ell and --delta")
            plan = schemes.mds_plan(args.n, args.ell, args.delta)
    except ValueError as e:
        raise UsageError(str(e))
    violations = validate_plan(plan)
    if violations:  # constructions always validate; belt and braces
        raise UsageError("constructed plan is invalid: " + "; ".join(violations))
    print(render_grid(plan))
    text = plan_to_json(plan)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def _params_from_args(args) -> SystemParams:
    if args.placement is None:
        raise UsageError("bounds needs either --plan or --placement with parameters")
    placement = {
        "uncoded": Placement.UNCODED_ONLY,
        "coded-bottom": Placement.CODED_BOTTOM,
        "coded-top": Placement.CODED_TOP,
        "mds": Placement.FULLY_CODED,
    }[args.placement]
    n = args.n
    if n is None:
        raise UsageError("--n is required")
    delta = args.delta if args.delta is not None else n
    if placement is Placement.UNCODED_ONLY:
        if args.r is None:
            raise UsageError("uncoded bounds need --r")
        return SystemParams(n, delta, args.r, 0, args.r, placement)
    if placement is Placement.FULLY_CODED:
        if args.ell is None:
            raise UsageError("mds bounds need --ell and --delta")
        return SystemParams(n, delta, 0, args.ell, 0, placement)
    if args.r_u is None or args.ell_c is None:
        raise UsageError("coded bounds need --r_u and --ell_c")
    return SystemParams(n, delta, args.r_u, args.ell_c, args.r_u, placement)


def _cmd_bounds(args) -> int:
    try:
        params = _load_plan(args.plan).params if args.plan else _params_from_args(args)
        report = bounds_mod.bound_report(params)
    except ValueError as e:
        raise UsageError(str(e))
    print(f"system: n={params.n} delta={params.delta} ell_u={params.ell_u} "
          f"ell_c={params.ell_c} r_u={params.r_u} placement={params.placement.value}")
    print(f"q_lower      {report.q_lower}")
    print(f"q_exact      {report.q_exact if report.q_exact is not None else '-'}")
    print(f"resilience   {report.resilience}")
    if report.witness is not None:
        print(f"witness      x={report.witness[0]} beta={report.witness[1]}")
    if args.out:
        if args.format == "csv":
            w = report.witness
            text = (
                "q_lower,q_exact,resilience,witness_x,witness_beta\n"
                f"{report.q_lower},"
                f"{'' if report.q_exact is None else report.q_exact},"
                f"{report.resilience},"
                f"{'' if w is None else w[0]},{'' if w is None else w[1]}\n"
            )
        else:
            text = _dump_json(report.to_dict())
        _write(args.out, text)
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _canonical_twin(plan: AssignmentPlan):
    """The scheme output for this plan's parameters, when one exists."""
    p = plan.params
    try:
        if p.placement is Placement.UNCODED_ONLY and p.delta == p.n:
            return schemes.cyclic_uncoded(p.n, p.r_u)
        if p.placement in (Placement.CODED_BOTTOM, Placement.CODED_TOP) and p.delta == p.n:
            return schemes.cyclic_coded(p.n, p.r_u, p.ell_c, p.placement)
        if p.placement is Placement.FULLY_CODED:
            return schemes.mds_plan(p.n, p.ell_c, p.delta)
    except ValueError:
        return None
    return None


def _verify_checks(plan: AssignmentPlan, report: oracle_mod.OracleReport) -> list:
    """(ok, message) pairs comparing oracle truth with the formulas."""
    p = plan.params
    q, res = report.q_true, report.resilience_true
    checks = []
    canonical = _canonical_twin(plan) == plan
    if p.placement is Placement.UNCODED_ONLY:
        fast = oracle_mod.uncoded_q_fast(plan)
        checks.append((fast == q, f"per-block fast threshold {fast} == oracle {q}"))
        b = bounds_mod.uncoded_q_bound(p)
        checks.append((b <= q, f"threshold bound {b} <= oracle {q}"))
        if p.r_u >= 1:
            r = bounds_mod.uncoded_resilience(p.r_u)
            checks.append((res <= r, f"oracle resilience {res} <= replication bound {r}"))
            if canonical:
                checks.append((b == q, f"cyclic construction meets bound: {b} == {q}"))
                checks.append((res == r, f"cyclic resilience {res} == r-1 = {r}"))
    elif p.placement is Placement.CODED_BOTTOM and p.delta == p.n:
        b = bounds_mod.coded_bottom_q(p)
        checks.append((b <= q, f"threshold bound {b} <= oracle {q}"))
        r = bounds_mod.coded_bottom_resilience(p)
        if canonical:
            checks.append((b == q, f"construction meets bound: {b} == {q}"))
            checks.append((res == r, f"resilience formula {r} == oracle {res}"))
    elif p.placement is Placement.CODED_TOP and p.delta == p.n and p.r_u >= 1:
        rep = bounds_mod.coded_top_q_bound(p)
        checks.append((rep.q_lower <= q, f"threshold bound {rep.q_lower} <= oracle {q}"))
        if canonical:
            r = bounds_mod.coded_bottom_resilience(p)
            checks.append((res == r, f"resilience formula {r} == oracle {res}"))
    elif p.placement is Placement.FULLY_CODED:
        checks.append((q >= p.delta, f"oracle {q} >= delta {p.delta}"))
        if canonical:
            checks.append((q == p.delta, f"any delta rows decode: oracle {q} == {p.delta}"))
    return checks


def _cmd_verify(args) -> int:
    plan = _load_plan(args.plan)
    try:
        report = oracle_mod.analyze(plan, args.budget)
    except ValueError as e:
        raise UsageError(str(e))
    print(f"q_true             {report.q_true}")
    print(f"worst_state        {list(report.worst_state)}")
    print(f"resilience_true    {report.resilience_true}")
    print(f"worst_stragglers   {[i + 1 for i in report.worst_straggler_set]}")
    checks = _verify_checks(plan, report)
    mismatch = False
    for ok, msg in checks:
        print(("ok       " if ok else "MISMATCH ") + msg)
        mismatch = mismatch or not ok
    if args.out:
        doc = {
            "oracle": report.to_dict(),
            "checks": [{"ok": ok, "check": msg} for ok, msg in checks],
        }
        _write(args.out, _dump_json(doc))
        print(f"wrote {args.out}")
    return EXIT_MISMATCH if mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _speed_from_config(doc) -> sim.SpeedModel:
    kind = doc.get("kind")
    if kind == "shifted-exponential":
        mult = doc.get("multipliers")
        return sim.ShiftedExponential(
            shift=float(doc.get("shift", 1.0)),
            rate=float(doc.get("rate", 1.0)),
            multipliers=None if mult is None else tuple(float(v) for v in mult),
        )
    if kind == "deterministic":
        per = doc.get("per_block", 1.0)
        if isinstance(per, (int, float)):
            return sim.Deterministic(per_block=float(per))
        return sim.Deterministic(per_block=tuple(float(v) for v in per))
    if kind == "halt-after":
        return sim.HaltAfter(
            stragglers=tuple(int(v) for v in doc.get("stragglers", ())),
            blocks=int(doc.get("blocks", 0)),
            per_block=float(doc.get("per_block", 1.0)),
        )
    raise UsageError(f"unknown speed model kind {kind!r}")


def _cost_from_config(doc) -> sim.CostModel:
    kind = doc.get("kind", "uniform")
    if kind == "uniform":
        return sim.Uniform()
    if kind == "sparsity-aware":
        return sim.SparsityAware(nnz=tuple(int(v) for v in doc["nnz"]))
    raise UsageError(f"unknown cost model kind {kind!r}")


def _config_int(cfg: dict, key: str, default: int) -> int:
    """A config value that must be a JSON integer (true and false are not)."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _experiment_from_config(cfg, base: Path, seed_override):
    """run_experiment's (plans, speed, cost, trials, seed, plan_ids)."""
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    plans, ids = [], []
    for entry in cfg.get("plans", []):
        if isinstance(entry, str):
            path = base / entry if not Path(entry).is_absolute() else Path(entry)
            plans.append(_load_plan(str(path)))
            ids.append(Path(entry).stem)
        elif "path" in entry:
            raw = entry["path"]
            path = base / raw if not Path(raw).is_absolute() else Path(raw)
            plans.append(_load_plan(str(path)))
            ids.append(entry.get("id", Path(raw).stem))
        elif "plan" in entry:
            plan = plan_from_dict(entry["plan"])
            violations = validate_plan(plan)
            if violations:
                raise UsageError("inline plan is invalid: " + "; ".join(violations))
            plans.append(plan)
            ids.append(entry.get("id", f"plan_{len(plans) - 1}"))
        else:
            raise UsageError(f"plan entry {entry!r} needs a path or an inline plan")
    if not plans:
        raise UsageError("config lists no plans")
    trials = _config_int(cfg, "trials", 0)
    if trials < 1:
        raise UsageError("trials must be >= 1")
    seed = seed_override if seed_override is not None else _config_int(cfg, "seed", 0)
    speed = _speed_from_config(cfg.get("speed", {"kind": "shifted-exponential"}))
    cost = _cost_from_config(cfg.get("cost", {"kind": "uniform"}))
    return plans, speed, cost, trials, seed, ids


def _cmd_simulate(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read config {args.config}: {e}")
    try:
        experiment = _experiment_from_config(cfg, Path(args.config).parent, args.seed)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise UsageError(f"malformed config {args.config}: {type(e).__name__}: {e}")
    try:
        rows, summaries = sim.run_experiment(*experiment)
    except ValueError as e:
        raise UsageError(str(e))
    print(sim.summaries_to_csv(summaries), end="")
    if args.out:
        _write(args.out, sim.rows_to_csv(rows))
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# decode


def _load_matrix(path: str) -> np.ndarray:
    p = Path(path)
    try:
        if p.suffix == ".mtx":
            from scipy.io import mmread

            m = mmread(str(p))
            if hasattr(m, "todense"):
                m = m.todense()
            return np.asarray(m, dtype=float)
        if p.suffix == ".npy":
            return np.asarray(np.load(str(p)), dtype=float)
        return np.loadtxt(str(p), delimiter=",", dtype=float, ndmin=2)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read matrix {path}: {e}")


def _load_vector(path: str) -> np.ndarray:
    p = Path(path)
    try:
        if p.suffix == ".npy":
            return np.asarray(np.load(str(p)), dtype=float).ravel()
        return np.loadtxt(str(p), delimiter=",", dtype=float).ravel()
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read vector {path}: {e}")


def _cmd_decode(args) -> int:
    plan = _load_plan(args.plan)
    A = _load_matrix(args.matrix)
    x = _load_vector(args.vector)
    try:
        state = tuple(int(v) for v in args.state.split(","))
    except ValueError:
        raise UsageError(f"state must be comma-separated integers, got {args.state!r}")
    try:
        check_state(plan, state)
        received = sim.state_received(plan, state)
        y = sim.numeric_decode(plan, A, x, received)
    except ValueError as e:  # NotDecodableError included
        raise UsageError(str(e))
    except sim.DecodeFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    text = "\n".join(repr(float(v)) for v in y) + "\n"
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out} ({len(y)} entries)")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codedmv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="construct an assignment plan")
    d.add_argument(
        "scheme",
        choices=["cyclic-uncoded", "cyclic-coded-bottom", "cyclic-coded-top", "mds"],
    )
    d.add_argument("--n", type=int, required=True, help="worker count")
    d.add_argument("--r", type=int, help="replication factor (cyclic-uncoded)")
    d.add_argument("--r_u", type=int, help="uncoded replication (cyclic-coded-*)")
    d.add_argument("--ell_c", type=int, help="coded rows per worker (cyclic-coded-*)")
    d.add_argument("--ell", type=int, help="rows per worker (mds)")
    d.add_argument("--delta", type=int, help="block count (mds)")
    d.add_argument("--out", help="write the plan JSON here")
    d.set_defaults(func=_cmd_design)

    b = sub.add_parser("bounds", help="closed-form bound report")
    b.add_argument("--plan", help="read parameters from a plan file")
    b.add_argument("--placement", choices=["uncoded", "coded-bottom", "coded-top", "mds"])
    b.add_argument("--n", type=int)
    b.add_argument("--r", type=int)
    b.add_argument("--r_u", type=int)
    b.add_argument("--ell_c", type=int)
    b.add_argument("--ell", type=int)
    b.add_argument("--delta", type=int)
    b.add_argument("--out")
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.set_defaults(func=_cmd_bounds)

    v = sub.add_parser("verify", help="brute-force oracle vs formulas")
    v.add_argument("--plan", required=True)
    v.add_argument("--budget", type=int, default=None,
                   help=f"max decodability evaluations (default {oracle_mod.DEFAULT_BUDGET}, "
                        "or the CODEDMV_BUDGET environment variable)")
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("simulate", help="run a trial experiment from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="write per-trial rows here")
    s.add_argument("--seed", type=int, default=None, help="override the config seed")
    s.set_defaults(func=_cmd_simulate)

    dec = sub.add_parser("decode", help="numeric decode of a computation state")
    dec.add_argument("--plan", required=True)
    dec.add_argument("--matrix", required=True, help=".mtx, .csv or .npy")
    dec.add_argument("--vector", required=True, help=".csv or .npy")
    dec.add_argument("--state", required=True, help="comma-separated per-worker counts")
    dec.add_argument("--out")
    dec.set_defaults(func=_cmd_decode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except oracle_mod.BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
