#!/usr/bin/env python3
"""codedmv benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Every pass of a workload runs in a
fresh worker process (``worker.py``) with ``src/`` on the path and BLAS
pinned to one thread.  With ``--trace 0`` passes repeat until the next one
would end after ``--seconds`` (at least one pass always runs), and each
end-to-end metric is the median over the passes.  With ``--trace 1`` one untraced
pass is followed by one traced pass on the same inputs; the per-layer
metrics come from the traced pass and the tracing overhead is the ratio of
the two, each measured in host probes (see ``in_probes``).  The workload names
and the metric names and units are read from ``BENCHMARK.json``.

The last line of standard output is the result as one JSON object; the
lines before it list every metric by name and unit, the command-level
figures of each pass and the environment.  A fuller record of the run goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5   # setup_s is the median of at least this many set-ups
DEADLINE_S = 170.0  # the whole run ends well inside three minutes


class WorkerFailed(RuntimeError):
    pass


def in_probes(passes) -> float:
    """Mean call time per pass as a multiple of the mean host-probe time.

    The worker times a fixed probe before its first call and after each
    batch of calls.  Dividing by the probe time cancels the host's speed
    drift between passes and runs, which a program change cannot move.  A
    ratio of means, because a run holds as few as two passes.
    """
    return (statistics.mean(p["pass_s"] for p in passes)
            / statistics.mean(t for p in passes for t in p["probes"]))


def percentile(values, q):
    """Linearly interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        self.count = 0

    def spawn(self, *extra) -> dict:
        """Run one worker to completion and return its result."""
        self.count += 1
        tag = f"{self.args.workload}-{os.getpid()}-{self.count}"
        work = OUT / f"work-{tag}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--work", str(work), *extra]
        if self.args.smoke:
            cmd.append("--smoke")
        if self.args.corrupt_reference:
            cmd.append("--corrupt-reference")
        remaining = DEADLINE_S - (time.monotonic() - self.t0)
        if remaining <= 1:
            raise WorkerFailed("no time left for another pass")
        try:
            spawned = time.monotonic()
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker ran past the {DEADLINE_S:.0f} s deadline")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"worker exited with {proc.returncode}")
        result = json.loads(lines[-1])
        result["wall_s"] = time.monotonic() - spawned
        return result

    def passes(self) -> list:
        out = [self.spawn()]
        while time.monotonic() - self.t0 + out[-1]["wall_s"] <= self.args.seconds:
            out.append(self.spawn())
        return out


def command_figures(passes) -> dict:
    """Per-command figures, named after the commands (0 where unused)."""
    ops = [o for p in passes for o in p["ops"]]

    def kind(k):
        return [o for o in ops if o["kind"] == k]

    verify_s = [sum(o["s"] for o in p["ops"] if o["kind"] == "verify") for p in passes]
    sims = kind("simulate")
    dec_ms = [o["s"] * 1e3 for o in kind("decode")]
    errs = [o["relerr"] for o in kind("decode") if o["relerr"] is not None]
    return {
        "verify_s": statistics.median(verify_s) if kind("verify") else 0.0,
        "trials_per_s": statistics.median(o["trials"] / o["s"] for o in sims) if sims else 0.0,
        "decode_p50_ms": statistics.median(dec_ms) if dec_ms else 0.0,
        "decode_p99_ms": percentile(dec_ms, 99) if dec_ms else 0.0,
        "decode_relerr_max": max(errs) if errs else 0.0,
    }


def check(passes) -> tuple:
    """(correct, attempted, failed, problems) over all passes.

    Verify and simulate outputs that disagree with the reference make the
    run incorrect.  A decode that raises or misses the 1e-9 relative-error
    bound is a failed operation, reported but not hidden.  Every pass of a
    run issues the same operations on the same inputs, so an operation
    counts once however many passes repeated it, and fails if it failed in
    any pass: attempted and failed depend on the seed, not on how many
    passes fitted in the run.
    """
    problems = [w for p in passes for w in p["problems"]]
    digests = {}
    for p in passes:
        for o in p["ops"]:
            if o["kind"] == "simulate" and o["digest"]:
                digests.setdefault(o["name"], set()).add(o["digest"])
    for cid, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"simulate {cid}: rows digest differs between passes")
            for p in passes:
                for o in p["ops"]:
                    if o["kind"] == "simulate" and o["name"] == cid:
                        o["ok"] = False
    ok = {}
    for p in passes:
        for o in p["ops"]:
            key = (o["kind"], o["name"])
            ok[key] = ok.get(key, True) and o["ok"]
    return not problems, len(ok), sum(not v for v in ok.values()), problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny plans and few trials")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb reference values, to show that checks catch them")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "codedmv" / "cli.py").is_file():
        print(f"error: no codedmv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        if args.trace:
            base = runner.spawn()
            trace_file = OUT / f"spans-{args.workload}.npz"  # the latest traced pass
            traced = runner.spawn("--trace", str(trace_file))
            passes = [base, traced]
            figures = dict(traced["layers"], **command_figures([base]), pass_s=base["pass_s"])
            figures["trace.overhead_frac"] = in_probes([traced]) / in_probes([base]) - 1.0
            wanted = spec["per_layer"]
        else:
            passes = runner.passes()
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.spawn("--setup-only")["setup_s"])
            figures = {
                "setup_s": statistics.median(setups),
                "pass_probes": in_probes(passes),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            }
            wanted = spec["end_to_end"]
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    correct, attempted, failed, problems = check(passes)
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": passes[0]["env"], "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "absent_layers": passes[-1].get("absent_layers", []),
        "passes": [dict(command_figures([p]), pass_s=p["pass_s"], pass_probes=in_probes([p]),
                        setup_s=p["setup_s"],
                        wall_s=p["wall_s"], probes=p["probes"], ops=p["ops"])
                   for p in passes],
    }
    tag = "-smoke" if args.smoke else ""
    (OUT / f"{args.workload}{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for i, p in enumerate(record["passes"]):
        figs = {k: round(v, 6) for k, v in p.items() if k not in ("ops", "probes")}
        print(f"pass {i}: {json.dumps(figs)}")
    if record["absent_layers"]:
        print(f"absent layers: {', '.join(record['absent_layers'])}")
    for w in problems:
        print(f"problem: {w}")
    print(f"env: {json.dumps(record['env'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
