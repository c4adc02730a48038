"""Reference values and independent checks for the benchmark's outputs.

Nothing here imports codedmv.  Plans are read from the JSON files the
program wrote, decodability is decided by this module's own incremental
elimination over GF(2^31 - 1), and simulated trials are replayed from the
documented speed and cost models, so a wrong answer from the program shows
up as a failed operation instead of being compared against itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

P = 2**31 - 1

# (Q, straggler resilience) per plan id, as certified by the seed program;
# both are invariant under the block relabelling the seed applies.
EXPECTED = {
    "top-5-2-1": (6, 3),
    "top-6-2-2": (6, 4),
    "top-7-2-2": (8, 5),
    "top-8-3-1": (12, 5),
    "bottom-7-2-2": (12, 5),
    "bottom-8-3-1": (19, 5),
    "bottom-10-2-1": (18, 5),
    "uncoded-9-3": (22, 2),
    "uncoded-11-3": (28, 2),
    "mds-7-2-7": (7, 3),
    "mds-8-2-10": (10, 3),
}

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    """Recorded simulate CSV digests: ``{"<workload>:<seed>": {config: sha256}}``."""
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


class Basis:
    """Row space over GF(P), grown one row at a time.

    Each stored row has a unit pivot and zeros at the pivots of the rows
    stored before it, so reducing a new row by the stored rows in order
    clears every pivot column.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows = []  # (pivot, row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def push(self, row) -> bool:
        """Add ``row``; True when it was independent of the stored rows."""
        row = [v % P for v in row]
        for pivot, basis_row in self.rows:
            f = row[pivot]
            if f:
                row = [(a - f * b) % P for a, b in zip(row, basis_row)]
        for pivot, v in enumerate(row):
            if v:
                scale = pow(v, -1, P)
                self.rows.append((pivot, [a * scale % P for a in row]))
                return True
        return False


def task_rows(plan_doc: dict) -> list:
    """Per worker, the GF(P) row of each task in processing order."""
    delta = plan_doc["params"]["delta"]
    out = []
    for tasks in plan_doc["workers"]:
        rows = []
        for t in tasks:
            row = [0] * delta
            if "u" in t:
                row[t["u"]] = 1
            else:
                for b, c in t["c"].items():
                    row[int(b)] = int(c)
            rows.append(row)
        out.append(rows)
    return out


def decodable(plan_doc: dict, state) -> bool:
    rows = task_rows(plan_doc)
    basis = Basis(plan_doc["params"]["delta"])
    for i, w in enumerate(state):
        for row in rows[i][:w]:
            basis.push(row)
    return basis.rank == basis.width


def task_weights(plan_doc: dict, cost: dict) -> np.ndarray:
    """(n, ell) cost weights: 1 for uniform cost; the summed nonzero counts
    of the blocks a task touches for sparsity-aware cost."""
    if cost.get("kind", "uniform") == "uniform":
        return np.ones((plan_doc["params"]["n"], len(plan_doc["workers"][0])))
    nnz = cost["nnz"]
    return np.array(
        [[float(nnz[t["u"]]) if "u" in t else float(sum(nnz[int(b)] for b in t["c"]))
          for t in tasks] for tasks in plan_doc["workers"]],
        dtype=float,
    )


def trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence((seed, trial)).generate_state(1)[0])


def replay(plan_doc: dict, speed: dict, weights: np.ndarray, seed: int, trial: int):
    """Replay one shifted-exponential trial: (finish_time, final_state).

    Workers finish tasks at the cumulative sums of their weighted durations;
    the master stops at the first completion (ordered by time, worker,
    position) after which its equations have full rank.
    """
    n, ell = weights.shape
    mult = np.asarray(speed["multipliers"], dtype=float)
    rng = np.random.default_rng(trial_seed(seed, trial))
    base = rng.exponential(scale=1.0, size=(n, ell))
    dur = float(speed["shift"]) + base / (float(speed["rate"]) * mult[:, None])
    times = np.cumsum(dur * weights, axis=1)
    events = sorted((times[i, k], i, k) for i in range(n) for k in range(ell))
    rows = task_rows(plan_doc)
    basis = Basis(plan_doc["params"]["delta"])
    state = [0] * n
    for t_ev, i, k in events:
        state[i] = k + 1
        basis.push(rows[i][k])
        if basis.rank == basis.width:
            return float(t_ev), tuple(state)
    return float("inf"), tuple(state)
