"""Command-line front end.

Subcommands: design, bounds, verify, simulate, decode.
Exit codes: 0 success, 1 usage or input error (an unreadable input or an
unwritable --out included), 2 verification mismatch or a decode refused as
numerically unsafe, 3 search budget exceeded. ``main`` alone maps a failure
to its exit code and prints it as one ``error:`` line, never a traceback.
Identical flags and inputs always produce byte-identical output files.
``simulate`` builds each speed and cost model by the ``kind`` its config
entry names, from the entry's other keys, and leaves every check of their
values to the models and ``run_experiment``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import oracle as oracle_mod
from . import schemes, sim
from .core import (
    _DECIMALS,
    AssignmentPlan,
    Placement,
    SystemParams,
    Uncoded,
    _known_keys,
    plan_from_dict,
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


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read {what} {path}: {e}")


def _plan(doc, name: str) -> AssignmentPlan:
    """The valid plan a plan document describes; ``name`` says where it is."""
    try:
        plan = plan_from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise UsageError(f"malformed {name}: {type(e).__name__}: {e}")
    violations = validate_plan(plan)
    if violations:
        raise UsageError(f"{name} is invalid: " + "; ".join(violations))
    return plan


def _load_plan(path: str) -> AssignmentPlan:
    return _plan(_read_json(path, "plan"), f"plan {path}")


# ---------------------------------------------------------------------------
# design


def _cmd_design(args) -> int:
    if args.scheme == "cyclic-uncoded":
        if args.r is None:
            raise UsageError("cyclic-uncoded needs --n and --r")
        plan = schemes.cyclic_uncoded(args.n, args.r)
    elif args.scheme in ("cyclic-coded-bottom", "cyclic-coded-top"):
        if args.r_u is None or args.ell_c is None:
            raise UsageError(f"{args.scheme} needs --n, --r_u and --ell_c")
        placement = Placement(args.scheme.removeprefix("cyclic-"))
        plan = schemes.cyclic_coded(args.n, args.r_u, args.ell_c, placement)
    else:
        if args.ell is None or args.delta is None:
            raise UsageError("mds needs --n, --ell and --delta")
        plan = schemes.mds_plan(args.n, args.ell, args.delta)
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
    params = _load_plan(args.plan).params if args.plan else _params_from_args(args)
    report = bounds_mod.bound_report(params)
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
    report = oracle_mod.analyze(plan, args.budget)
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


_SPEEDS = {
    "shifted-exponential": sim.ShiftedExponential,
    "deterministic": sim.Deterministic,
    "halt-after": sim.HaltAfter,
}
_COSTS = {"uniform": sim.Uniform, "sparsity-aware": sim.SparsityAware}


def _model(doc: dict, models: dict, what: str, kind=None):
    """The class of ``models`` that the entry's ``kind`` (default ``kind``)
    names, called with its other keys as keywords, lists as tuples; an
    unknown key is a TypeError, and the model checks its own values."""
    kind = doc.get("kind", kind)
    if kind not in models:
        raise UsageError(f"unknown {what} model kind {kind!r}")
    return models[kind](**{
        key: tuple(v) if isinstance(v, list) else v for key, v in doc.items() if key != "kind"
    })


def _experiment_from_config(cfg, base: Path, seed_override):
    """run_experiment's (plans, speed, cost, trials, seed, plan_ids); an
    unknown key of the config or of a plan entry is a TypeError."""
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    _known_keys(cfg, ("plans", "speed", "cost", "trials", "seed"), "config")
    plans, ids = [], []
    for entry in cfg.get("plans", []):
        if isinstance(entry, str):
            entry = {"path": entry}
        _known_keys(entry, ("id", "path", "plan"), "plan entry")
        if "path" in entry and "plan" in entry:
            raise UsageError(f"plan entry {entry.get('id', entry['path'])!r} names both a path "
                             "and an inline plan; give one")
        if "path" in entry:
            path = Path(entry["path"])
            plans.append(_load_plan(str(base / path)))  # an absolute path replaces base
            ids.append(entry.get("id", path.stem))
        elif "plan" in entry:
            plans.append(_plan(entry["plan"], "inline plan"))
            ids.append(entry.get("id", f"plan_{len(plans) - 1}"))
        else:
            raise UsageError(f"plan entry {entry!r} needs a path or an inline plan")
    if not plans:
        raise UsageError("config lists no plans")
    seed = seed_override if seed_override is not None else cfg.get("seed", 0)
    speed = _model(cfg.get("speed", {"kind": "shifted-exponential"}), _SPEEDS, "speed")
    cost = _model(cfg.get("cost", {}), _COSTS, "cost", "uniform")
    return plans, speed, cost, cfg.get("trials", 0), seed, ids


def _cmd_simulate(args) -> int:
    cfg = _read_json(args.config, "config")
    try:
        experiment = _experiment_from_config(cfg, Path(args.config).parent, args.seed)
    except (AttributeError, KeyError, TypeError) as e:  # a wrong shape, or an unknown key
        raise UsageError(f"malformed config {args.config}: {type(e).__name__}: {e}")
    rows, summaries = sim.run_experiment(*experiment)
    print(sim.summaries_to_csv(summaries), end="")
    if args.out:
        _write(args.out, sim.rows_to_csv(rows))
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# decode


def _load(path: str, what: str) -> np.ndarray:
    """The float array in a file: Matrix Market (a ``matrix`` only),
    ``.npy`` or comma-separated text, read as 2-D.

    Raises:
        UsageError: an unreadable file, or one with no entries.
    """
    p = Path(path)
    try:
        if p.suffix == ".mtx" and what == "matrix":
            from scipy.io import mmread

            m = mmread(str(p))
            a = np.asarray(m.todense() if hasattr(m, "todense") else m, dtype=float)
        elif p.suffix == ".npy":
            a = np.asarray(np.load(str(p)), dtype=float)
        else:
            with warnings.catch_warnings():  # an empty file is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                a = np.loadtxt(str(p), delimiter=",", dtype=float, ndmin=2)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read {what} {path}: {e}")
    if not a.size:
        raise UsageError(f"cannot read {what} {path}: no data")
    return a


def _cmd_decode(args) -> int:
    plan = _load_plan(args.plan)
    A = _load(args.matrix, "matrix")
    x = _load(args.vector, "vector").ravel()
    if not _DECIMALS.fullmatch(args.state):
        raise UsageError(
            f"state must be comma-separated counts such as 2,1,0, with no sign, space or "
            f"leading zero, got {args.state!r}"
        )
    state = tuple(int(v) for v in args.state.split(","))
    y = sim.numeric_decode(plan, A, x, sim.state_received(plan, state))
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
    v.add_argument("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET,
                   help="max decodability evaluations of each search, counted as they "
                        "are made; at least 1 (default %(default)s)")
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
    except (UsageError, ValueError, OSError) as e:  # NotDecodableError is a ValueError
        error, code = e, EXIT_USAGE
    except sim.DecodeFailure as e:
        error, code = e, EXIT_MISMATCH
    except oracle_mod.BudgetExceededError as e:
        error, code = e, EXIT_BUDGET
    print(f"error: {error}", file=sys.stderr)
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
