"""In-memory span tracer that wraps codedmv's layer functions from outside.

Each layer is a group of functions.  Installing the tracer replaces every
module binding of each function (``codedmv.field.rank`` and
``codedmv.core.rank`` alike) with a wrapper that records one span: layer,
start, end, parent span, operation id, a per-span work figure and whether
the span sits inside another span of its own layer.  A span without a
parent starts a new operation, so each CLI command or decode call issued by
the worker is one root span.  ``mark_pass`` splits the operations into the
pass's set-up and the pass itself: ``schemes.build`` is summed over the
set-up, which ``setup_s`` times, and every other layer over the pass.
Spans live in compact arrays until the pass ends; ``summary`` turns them
into per-layer figures and ``dump`` writes the raw spans out.

A function that no longer exists leaves its layer absent: the layer's
figures read 0 and the layer is listed in ``absent``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# layer -> functions it wraps, as (module, attribute) or (module, class, method)
LAYERS = {
    "cli.main": [("codedmv.cli", "main")],
    "cli.load_plan": [("codedmv.cli", "_load_plan")],
    "schemes.build": [
        ("codedmv.schemes", "cauchy"),
        ("codedmv.schemes", "cyclic_uncoded"),
        ("codedmv.schemes", "cyclic_coded"),
        ("codedmv.schemes", "mds_plan"),
    ],
    "oracle.brute_force_q": [("codedmv.oracle", "brute_force_q")],
    "oracle.straggler_resilience": [("codedmv.oracle", "straggler_resilience")],
    "sim.run_trial": [("codedmv.sim", "run_trial")],
    "sim.raw_durations": [("codedmv.sim", "raw_durations")],
    "sim.numeric_decode": [("codedmv.sim", "numeric_decode")],
    "sim.decode_from_products": [("codedmv.sim", "decode_from_products")],
    "sim.equations_decodable": [("codedmv.sim", "equations_decodable")],
    "core.decodable": [("codedmv.core", "DecodabilityChecker", "decodable")],
    "field.rank": [("codedmv.field", "rank")],
}


def _rank_cells(args, kwargs):
    mat = args[0] if args else kwargs.get("mat")
    shape = getattr(mat, "shape", None)
    if shape is not None:
        return float(shape[0] * shape[1]) if len(shape) == 2 else 0.0
    return float(len(mat) * len(mat[0])) if len(mat) else 0.0


def _lattice_size(args, kwargs):
    plan = args[0] if args else kwargs["plan"]
    return float((plan.ell + 1) ** plan.n)


def _under(parent, layer, lid):
    """Boolean mask: spans with an ancestor of layer ``lid``."""
    out = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return out
        out[live] |= layer[anc[live]] == lid
        anc[live] = parent[anc[live]]


class Tracer:
    """Records spans around the wrapped layer functions of one process."""

    def __init__(self, only=None):
        self.names = list(LAYERS)
        self.wrapped = set(self.names if only is None else only)
        self.absent = []
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.nested = array("b")
        self._stack = []
        self._active = [0] * len(self.names)
        self._ops = -1
        self._pass_op = 0  # id of the pass's first operation
        self._seen = {}  # id(checker) -> states it has been asked about
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every binding of every layer function; return self."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "codedmv" or name.startswith("codedmv."))]
        for lid, name in enumerate(self.names):
            if name not in self.wrapped:
                continue
            found = False
            for target in LAYERS[name]:
                try:
                    owner = importlib.import_module(target[0])
                    if len(target) == 3:
                        owner = getattr(owner, target[1])
                    fn = getattr(owner, target[-1])
                except (ImportError, AttributeError):
                    continue
                found = True
                if len(target) == 3:
                    wrapper = self._wrap(lid, fn, self._decodable_work)
                    self._rebind(owner, target[-1], wrapper)
                    continue
                work = {"field.rank": _rank_cells,
                        "oracle.brute_force_q": _lattice_size}.get(name)
                wrapper = self._wrap(lid, fn, work)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, attr, wrapper)
            if not found:
                self.absent.append(name)
        return self

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def mark_pass(self):
        """Start the pass: later operations are the pass, earlier ones its set-up."""
        self._pass_op = self._ops + 1
        self._seen.clear()

    def _decodable_work(self, args, kwargs):
        checker, state = args[0], args[1] if len(args) > 1 else kwargs["state"]
        seen = self._seen.setdefault(id(checker), set())
        if state in seen:
            return 1.0
        seen.add(state)
        return 0.0

    def _wrap(self, lid, fn, work):
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._ops += 1
            self.layer.append(lid)
            self.parent.append(parent)
            self.op.append(self._ops)
            self.nested.append(1 if active[lid] else 0)
            self.work.append(work(args, kwargs) if work is not None else 0.0)
            self.end.append(0.0)
            stack.append(idx)
            active[lid] += 1
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
                active[lid] -= 1

        return wrapper

    # -- results ------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.layer, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.work, dtype=np.float64),
                np.frombuffer(self.nested, dtype=np.int8).astype(bool))

    def summary(self) -> dict:
        """Per-layer figures, keyed by the metric names of the benchmark."""
        layer, parent, op, start, end, work, nested = self._arrays()
        n = layer.size
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        lid = {name: i for i, name in enumerate(self.names)}
        in_pass = op >= self._pass_op
        mask = {name: (layer == i) & (in_pass if name != "schemes.build" else ~in_pass)
                for name, i in lid.items()}

        def calls(name):
            return int(mask[name].sum())

        def self_s(name):
            return float(self_t[mask[name]].sum())

        def busy_s(name):
            return float(dur[mask[name] & ~nested].sum())

        dec = mask["core.decodable"]
        rank_children = np.bincount(parent[mask["field.rank"] & has_parent], minlength=n) > 0

        def evals_under(name):
            return int((dec & _under(parent, layer, lid[name])).sum())

        n_dec = calls("core.decodable")
        bf_evals = evals_under("oracle.brute_force_q")
        lattice = float(work[mask["oracle.brute_force_q"] & ~nested].sum())
        trials = calls("sim.run_trial")
        return {
            "field.rank.calls": calls("field.rank"),
            "field.rank.self_s": self_s("field.rank"),
            "field.rank.cells": float(work[mask["field.rank"]].sum()),
            "core.decodable.calls": n_dec,
            "core.decodable.self_s": self_s("core.decodable"),
            "core.decodable.rank_frac": float(rank_children[dec].sum() / n_dec) if n_dec else 0.0,
            "core.decodable.repeat_frac": float(work[dec].sum() / n_dec) if n_dec else 0.0,
            "core.decodable.distinct_states": sum(len(s) for s in self._seen.values()),
            "oracle.brute_force_q.busy_s": busy_s("oracle.brute_force_q"),
            "oracle.brute_force_q.evals": bf_evals,
            "oracle.brute_force_q.lattice_frac": bf_evals / lattice if lattice else 0.0,
            "oracle.straggler_resilience.busy_s": busy_s("oracle.straggler_resilience"),
            "oracle.straggler_resilience.evals": evals_under("oracle.straggler_resilience"),
            "sim.run_trial.calls": trials,
            "sim.run_trial.self_s": self_s("sim.run_trial"),
            "sim.run_trial.evals_per_trial":
                evals_under("sim.run_trial") / trials if trials else 0.0,
            "sim.raw_durations.busy_s": busy_s("sim.raw_durations"),
            "sim.numeric_decode.calls": calls("sim.numeric_decode"),
            "sim.numeric_decode.self_s": self_s("sim.numeric_decode"),
            "sim.decode_from_products.busy_s": busy_s("sim.decode_from_products"),
            "sim.equations_decodable.busy_s": busy_s("sim.equations_decodable"),
            "cli.load_plan.busy_s": busy_s("cli.load_plan"),
            "cli.main.self_s": self_s("cli.main"),
            "schemes.build.busy_s": busy_s("schemes.build"),
            "trace.spans": n,
        }

    def dump(self, path):
        """Write the raw spans (one row per span) as an ``.npz`` file."""
        layer, parent, op, start, end, work, nested = self._arrays()
        np.savez(path, layer_names=np.array(self.names), layer=layer, parent=parent, op=op,
                 pass_op=self._pass_op, start=start, end=end, work=work, nested=nested)
