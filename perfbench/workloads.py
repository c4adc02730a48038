"""The benchmark's workloads and the inputs each one hands to the program.

A plan is named by a spec tuple: ("top" | "bottom", n, r_u, ell_c),
("uncoded", n, r) or ("mds", n, ell, delta).  Every plan the program sees is
designed by ``codedmv design`` and then relabelled: the workload seed picks a
permutation of the block indices, applied to uncoded blocks and coded
coefficient columns alike.  Relabelling changes the input bytes and the
column order the eliminator sees, but not Q, the resilience, or the order
in which the oracle visits states, so one reference table serves every seed.

Each ``simulate`` command after the first gets its own relabelling (the
permutation is salted with the command's index), so no two commands of a
pass hand the program equal plans and none of them reuses the
decodability cache another one filled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Simulate:
    """One ``simulate`` command per straggler multiplier."""

    plans: tuple
    multipliers: tuple  # rate multiplier of the straggling workers, per command
    stragglers: int     # how many workers straggle
    trials: int
    sparse: bool = False  # sparsity-aware cost (see cost_for) instead of uniform
    spot_checks: int = 4  # trials per plan and command replayed by the reference


@dataclass(frozen=True)
class Workload:
    name: str
    verify: tuple = ()
    simulate: Simulate | None = None
    decode_plans: tuple = ()
    decode_trials: int = 0


DECODE_SHAPE = (96, 48)  # A is 96 x 48: enough rows for delta = 12 blocks of 8


def _coded_ladder(ns):
    return tuple(spec for n in ns for spec in
                 (("top", n, 2, 1), ("bottom", n, 2, 1), ("mds", n, 2, n)))


FULL = {
    w.name: w for w in (
        # Coded-top (8,3,1) (11 s) and (9,2,2) (229 s) stay out: a pass must be
        # short enough for several to fit in one run.
        Workload("certify-low-q", verify=(("top", 5, 2, 1), ("top", 6, 2, 2), ("top", 7, 2, 2))),
        Workload("certify-high-q", verify=(
            ("bottom", 7, 2, 2), ("bottom", 8, 3, 1), ("bottom", 10, 2, 1),
            ("uncoded", 9, 3), ("uncoded", 11, 3), ("mds", 7, 2, 7), ("mds", 8, 2, 10))),
        Workload("simulate-n40", simulate=Simulate(
            plans=(("top", 40, 2, 1), ("bottom", 40, 2, 1), ("uncoded", 40, 3),
                   ("mds", 40, 2, 40)),
            multipliers=(0.2, 0.5), stragglers=8, trials=150)),
        Workload("simulate-n5-decode", simulate=Simulate(
            plans=(("top", 5, 2, 1), ("bottom", 5, 2, 1), ("uncoded", 5, 3), ("mds", 5, 2, 5)),
            multipliers=(0.2,), stragglers=2, trials=5000, sparse=True),
            decode_plans=_coded_ladder((5, 8, 10, 12)), decode_trials=100),
    )
}

# Tiny versions for the benchmark's own smoke check.
SMOKE = {
    "certify-low-q": Workload("certify-low-q", verify=(("top", 5, 2, 1),)),
    "certify-high-q": Workload("certify-high-q", verify=(("uncoded", 9, 3), ("mds", 7, 2, 7))),
    "simulate-n40": Workload("simulate-n40", simulate=Simulate(
        plans=FULL["simulate-n40"].simulate.plans, multipliers=(0.2, 0.5), stragglers=8,
        trials=3, spot_checks=1)),
    "simulate-n5-decode": Workload("simulate-n5-decode", simulate=Simulate(
        plans=FULL["simulate-n5-decode"].simulate.plans, multipliers=(0.2,), stragglers=2,
        trials=40, sparse=True), decode_plans=_coded_ladder((5, 8)), decode_trials=5),
}


def plan_id(spec) -> str:
    return "-".join(str(v) for v in spec)


def design_argv(spec, out: str) -> list:
    kind, n, *rest = spec
    argv = ["design"]
    if kind in ("top", "bottom"):
        argv += [f"cyclic-coded-{kind}", "--n", str(n), "--r_u", str(rest[0]),
                 "--ell_c", str(rest[1])]
    elif kind == "uncoded":
        argv += ["cyclic-uncoded", "--n", str(n), "--r", str(rest[0])]
    else:
        argv += ["mds", "--n", str(n), "--ell", str(rest[0]), "--delta", str(rest[1])]
    return argv + ["--out", out]


def relabel(doc: dict, perm) -> dict:
    """Plan document with block b renamed to perm[b] throughout."""
    workers = [[{"u": int(perm[t["u"]])} if "u" in t else
                {"c": {str(int(perm[int(b)])): c for b, c in t["c"].items()}}
                for t in tasks] for tasks in doc["workers"]]
    return {"params": doc["params"], "workers": workers}


@dataclass
class Inputs:
    """Everything one pass feeds the program, with the reference's view of it."""

    plans: dict = field(default_factory=dict)     # plan id -> relabelled plan doc
    paths: dict = field(default_factory=dict)     # plan id -> plan file
    configs: list = field(default_factory=list)   # (config id, path, config doc, plan docs)
    matrix: Path | None = None
    vector: Path | None = None


def _rng(seed: int, *salt) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


def block_permutation(spec, seed: int, command: int = 0):
    """Block relabelling of a plan; ``command`` is the simulate command's index."""
    delta = spec[3] if spec[0] == "mds" else spec[1]
    return _rng(seed, delta, command).permutation(delta)


def speed_for(n: int, stragglers: int, multiplier: float) -> dict:
    """Shifted-exponential speeds; the last ``stragglers`` workers run slow."""
    mult = [1.0] * (n - stragglers) + [multiplier] * stragglers
    return {"kind": "shifted-exponential", "shift": 1.0, "rate": 1.0, "multipliers": mult}


def cost_for(n: int, sparse: bool, perm) -> dict:
    """Uniform cost, or nonzero counts rising evenly from 50 to 150 over the
    designed block order, renamed by the plan's block permutation."""
    if not sparse:
        return {"kind": "uniform"}
    nnz = [0] * n
    for b, v in enumerate(np.linspace(50, 150, n).round().astype(int)):
        nnz[int(perm[b])] = int(v)
    return {"kind": "sparsity-aware", "nnz": nnz}


def make_inputs(wl: Workload, seed: int, work: Path, cli_main) -> Inputs:
    """Design, relabel and write every input of one pass into ``work``."""
    inp = Inputs()
    sim = wl.simulate
    designed = {}

    def write_plan(spec, command, name):
        pid = plan_id(spec)
        if pid not in designed:
            raw = work / f"{pid}.design.json"
            if cli_main(design_argv(spec, str(raw))) != 0:
                raise RuntimeError(f"design failed for {pid}")
            designed[pid] = json.loads(raw.read_text())
        doc = relabel(designed[pid], block_permutation(spec, seed, command))
        path = work / name
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return doc, path

    specs = list(wl.verify) + list(sim.plans if sim else ()) + list(wl.decode_plans)
    for spec in dict.fromkeys(specs):
        pid = plan_id(spec)
        inp.plans[pid], inp.paths[pid] = write_plan(spec, 0, f"{pid}.json")
    if sim:
        n = sim.plans[0][1]
        for command, m in enumerate(sim.multipliers):
            cid = f"x{m}"
            docs, entries = {}, []
            for spec in sim.plans:
                pid = plan_id(spec)
                if command == 0:
                    docs[pid], path = inp.plans[pid], inp.paths[pid]
                else:
                    docs[pid], path = write_plan(spec, command, f"{pid}.{cid}.json")
                entries.append({"id": pid, "path": path.name})
            cfg = {"plans": entries,
                   "speed": speed_for(n, sim.stragglers, m),
                   "cost": cost_for(n, sim.sparse,
                                    block_permutation(sim.plans[0], seed, command)),
                   "trials": sim.trials, "seed": seed}
            path = work / f"config-{cid}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            inp.configs.append((cid, path, cfg, docs))
    if wl.decode_plans:
        rng = _rng(seed, 3)
        inp.matrix, inp.vector = work / "A.npy", work / "x.npy"
        np.save(inp.matrix, rng.standard_normal(DECODE_SHAPE))
        np.save(inp.vector, rng.standard_normal(DECODE_SHAPE[1]))
    return inp
