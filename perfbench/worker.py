"""One pass of one workload, in a fresh process.

Started by ``run.py`` with ``src/`` on the path and BLAS pinned to one
thread.  The pass sets up its inputs, then issues the workload's public
calls one after another (a single closed-loop client), times each call,
checks each output against the reference, and prints one JSON line with
the results as the last line of its standard output.  A fixed host probe,
timed before the first call and after every CLI command and the decode
batch, records how fast the host ran during the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np

import reference
import workloads


def _args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() of the parent just before it spawned this process")
    p.add_argument("--work", required=True, help="scratch directory for this pass's files")
    p.add_argument("--trace", help="trace the pass and write its spans to this .npz file")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="perturb one reference value per check kind (smoke check only)")
    return p.parse_args()


def environment() -> dict:
    import scipy

    blas = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": blas,
            "machine": platform.machine()}


def host_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work.

    The program's own calls are a similar mix.  The probe runs with the
    cyclic garbage collector off, so its time does not depend on how many
    objects the program has left on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(100_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + i) % 2147483647
    a = np.arange(400, dtype=float).reshape(20, 20)
    for _ in range(2_500):
        b = a @ a
        a = b / b.max() + 1.0
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class Pass:
    def __init__(self, args, cli):
        self.args = args
        self.cli = cli
        self.ops = []       # one record per public call
        self.problems = []  # reference mismatches of verify / simulate outputs
        self.probes = [host_probe()]

    def call_cli(self, argv):
        """Run one CLI command with its printout discarded; return (exit code, seconds)."""
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as e:  # an uncaught error is a failed operation, not a crash
                code = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
        self.probes.append(host_probe())
        return code, dt

    def op(self, kind, name, seconds, ok, **detail):
        self.ops.append({"kind": kind, "name": name, "s": seconds, "ok": bool(ok), **detail})

    # -- verify -------------------------------------------------------------

    def verify(self, inp, spec):
        pid = workloads.plan_id(spec)
        out = Path(self.args.work) / f"verify-{pid}.json"
        code, dt = self.call_cli(["verify", "--plan", str(inp.paths[pid]), "--out", str(out)])
        q_ref, res_ref = reference.EXPECTED[pid]
        if self.args.corrupt_reference and not self.ops:
            q_ref += 1
        why = []
        if code != 0:
            why.append(f"exit {code}")
        else:
            oracle = json.loads(out.read_text())["oracle"]
            q, res, worst = oracle["q_true"], oracle["resilience_true"], oracle["worst_state"]
            if (q, res) != (q_ref, res_ref):
                why.append(f"Q/resilience {q}/{res}, reference {q_ref}/{res_ref}")
            if sum(worst) != q - 1:
                why.append(f"worst_state total {sum(worst)} != Q-1 = {q - 1}")
            elif reference.decodable(inp.plans[pid], worst):
                why.append("worst_state decodes under the reference rank")
        self.op("verify", pid, dt, not why, why=why)
        self.problems += [f"verify {pid}: {w}" for w in why]

    # -- simulate -----------------------------------------------------------

    def simulate(self, inp, wl, digests, decode_states):
        sim = wl.simulate
        # smoke passes run other configs, which have no recorded digests
        recorded = {} if self.args.smoke else digests.get(f"{wl.name}:{self.args.seed}", {})
        for command, (cid, path, cfg, docs) in enumerate(inp.configs):
            out = Path(self.args.work) / f"rows-{cid}.csv"
            code, dt = self.call_cli(["simulate", "--config", str(path), "--out", str(out)])
            why = []
            digest = None
            if code != 0:
                why.append(f"exit {code}")
            else:
                data = out.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                want = recorded.get(cid)
                if self.args.corrupt_reference:
                    want = "0" * 64
                if want is not None and digest != want:
                    why.append(f"rows digest {digest[:12]}, reference {want[:12]}")
                # the decoded final states were replayed under the first command's config
                why += self.spot_check(docs, sim, cfg, data.decode(),
                                       decode_states if command == 0 else {})
            self.op("simulate", cid, dt, not why, why=why, digest=digest,
                    trials=sim.trials * len(sim.plans))
            self.problems += [f"simulate {cid}: {w}" for w in why]

    def spot_check(self, docs, sim, cfg, text, decode_states):
        """Compare sampled rows with the reference replay of the same trials."""
        rows = {}
        for line in text.splitlines()[1:]:
            fields = line.split(",")
            if len(fields) != 5 or not fields[1].isdigit() or not fields[3].isdigit():
                return [f"malformed row {line!r}"]
            pid, trial, finish, blocks, ok = fields
            rows[(pid, int(trial))] = (finish, int(blocks), ok)
        if len(rows) != sim.trials * len(sim.plans):
            return [f"{len(rows)} distinct rows, expected {sim.trials * len(sim.plans)}"]
        rng = np.random.default_rng([self.args.seed, 4])
        why = []
        for spec in sim.plans:
            pid = workloads.plan_id(spec)
            doc = docs[pid]
            weights = reference.task_weights(doc, cfg["cost"])
            trials = {int(t) for t in rng.choice(sim.trials, size=sim.spot_checks,
                                                 replace=False)}
            trials |= {t for (p, t) in decode_states if p == pid}
            for t in sorted(trials):
                if (pid, t) in decode_states:
                    finish, state = decode_states[(pid, t)]
                else:
                    finish, state = reference.replay(doc, cfg["speed"], weights, cfg["seed"], t)
                want = (repr(finish), sum(state), "true" if finish != float("inf") else "false")
                got = rows.get((pid, t))
                if got != want:
                    why.append(f"{pid} trial {t}: row {got}, reference {want}")
        return why

    # -- decode -------------------------------------------------------------

    def decode_states(self, inp, wl):
        """Seeded final states of the first ``decode_trials`` trials per plan."""
        states = {}
        for spec in wl.decode_plans:
            pid = workloads.plan_id(spec)
            n = spec[1]
            sim = wl.simulate
            speed = workloads.speed_for(n, sim.stragglers, sim.multipliers[0])
            cost = workloads.cost_for(n, sim.sparse, workloads.block_permutation(spec, self.args.seed))
            weights = reference.task_weights(inp.plans[pid], cost)
            for t in range(wl.decode_trials):
                states[(pid, t)] = reference.replay(
                    inp.plans[pid], speed, weights, self.args.seed, t)
        return states

    def decode(self, states, plans, A, x, y_ref):
        import codedmv

        ref_norm = float(np.linalg.norm(y_ref))
        for (pid, t), (_, state) in states.items():
            received = [(i, k) for i, w in enumerate(state) for k in range(w)]
            t0 = time.perf_counter()
            try:
                y = codedmv.numeric_decode(plans[pid], A, x, received)
                err = None
            except Exception as e:  # DecodeFailure and friends count as failures
                y, err = None, f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            rel = None
            if y is not None and np.shape(y) == y_ref.shape:
                rel = float(np.linalg.norm(y - y_ref) / ref_norm)
            elif y is not None:
                err = f"decoded shape {np.shape(y)}, expected {y_ref.shape}"
            self.op("decode", f"{pid}#{t}", dt, rel is not None and rel <= 1e-9,
                    relerr=rel, error=err)
        self.probes.append(host_probe())


def main():
    args = _args()
    import codedmv
    import codedmv.cli as cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer().install()
    wl = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    inp = workloads.make_inputs(wl, args.seed, work, cli.main)
    setup_s = time.monotonic() - args.spawned
    if tracer is not None:
        tracer.mark_pass()
    result = {"setup_s": setup_s}
    if not args.setup_only:
        run = Pass(args, cli)
        states = {}
        if wl.decode_plans:  # reference work, outside the timed calls
            states = run.decode_states(inp, wl)
            A, x = np.load(inp.matrix), np.load(inp.vector)
            y_ref = A @ x
            if args.corrupt_reference:
                y_ref[0] += 1.0
            plans = {pid: codedmv.plan_from_json(p.read_text()) for pid, p in inp.paths.items()}
        for spec in wl.verify:
            run.verify(inp, spec)
        if wl.simulate:
            run.simulate(inp, wl, reference.load_digests(), states)
        if wl.decode_plans:
            run.decode(states, plans, A, x, y_ref)
        result.update(
            ops=run.ops, problems=run.problems, probes=run.probes,
            pass_s=sum(o["s"] for o in run.ops),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(),
        )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["absent_layers"] = tracer.absent
        tracer.dump(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
