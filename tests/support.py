"""Shared random generators and independent reference implementations
for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import codedmv
from codedmv import core, schemes
from codedmv.field import P


def random_uncoded_plan(n, ell, rng):
    """Random valid uncoded plan with delta = n, r = ell.

    Each of ell rounds assigns a random permutation of the blocks (one per
    worker), re-drawn until no worker sees a duplicate, so every block
    lands in exactly ell workers. Per-worker processing order is shuffled.
    """
    held = [set() for _ in range(n)]
    rounds = []
    for _ in range(ell):
        for _attempt in range(10_000):
            perm = rng.permutation(n)
            if all(int(perm[i]) not in held[i] for i in range(n)):
                break
        else:
            raise RuntimeError("could not sample a conflict-free round")
        for i in range(n):
            held[i].add(int(perm[i]))
        rounds.append(perm)
    workers = []
    for i in range(n):
        blocks = [int(r[i]) for r in rounds]
        order = rng.permutation(ell)
        workers.append(tuple(core.Uncoded(blocks[int(j)]) for j in order))
    params = core.SystemParams(
        n=n, delta=n, ell_u=ell, ell_c=0, r_u=ell, placement=core.Placement.UNCODED_ONLY
    )
    return core.AssignmentPlan(params=params, workers=tuple(workers))


def random_scheme_plan(rng):
    """One plan drawn from the four construction families at small size."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(n, 3) + 1))
        return schemes.cyclic_uncoded(n, r)
    if kind in (1, 2):
        placement = (
            core.Placement.CODED_BOTTOM if kind == 1 else core.Placement.CODED_TOP
        )
        n = int(rng.integers(3, 7))
        r_u = int(rng.integers(1, min(n - 1, 2) + 1))
        ell_c = int(rng.integers(1, min(n - r_u, 2) + 1))
        return schemes.cyclic_coded(n, r_u, ell_c, placement)
    n = int(rng.integers(2, 5))
    ell = int(rng.integers(1, 3))
    delta = int(rng.integers(ell, n * ell + 1))
    return schemes.mds_plan(n, ell, delta)


def random_state(plan, rng):
    return tuple(int(rng.integers(0, plan.ell + 1)) for _ in range(plan.n))


def dominated_state(state, rng):
    """A state <= the given one, componentwise."""
    return tuple(int(rng.integers(0, v + 1)) for v in state)


def run_python(args, env=None, timeout=120):
    """Run a fresh interpreter that imports the codedmv under test."""
    src = str(Path(codedmv.__file__).resolve().parents[1])
    full_env = dict(os.environ, PYTHONPATH=src, **(env or {}))
    return subprocess.run(
        [sys.executable, *args], env=full_env, capture_output=True, text=True,
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# references, independent of codedmv.field's elimination


def reference_rank(rows):
    """Rank over GF(P) by plain Python-int elimination."""
    m = [[int(v) % P for v in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = pow(m[r][c], P - 2, P)
        m[r] = [v * scale % P for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % P for a, b in zip(m[i], m[r])]
        r += 1
    return r


def prefix_equations(plan, state):
    """What the master holds at a prefix state: the set of known uncoded
    blocks and the received coded tasks, verbatim and in worker order.

    Raises:
        ValueError: the state does not fit the plan.
    """
    w = core.check_state(plan, state)
    known = set()
    coded = []
    for i, count in enumerate(w):
        for t in plan.workers[i][:count]:
            if isinstance(t, core.Uncoded):
                known.add(t.block)
            else:
                coded.append(t)
    return frozenset(known), tuple(coded)


def reference_decodable(delta, known, coded):
    """The coded rows restricted to the unknown blocks have full column rank."""
    unknown = [b for b in range(delta) if b not in known]
    if not unknown:
        return True
    rows = [[t.coeff_map().get(b, 0) for b in unknown] for t in coded]
    return reference_rank(rows) == len(unknown)
