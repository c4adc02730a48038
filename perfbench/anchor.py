#!/usr/bin/env python3
"""Compare the harness with the baseline figures in ROADMAP.md.

    python3 perfbench/anchor.py

ROADMAP.md gives three baseline timings: ``brute_force_q`` on coded-top
(n, r_u, ell_c) = (8, 3, 1) at 12.5 s, and 1000 simulated trials of
coded-top at n = 5 and n = 20 at 0.11 s and 1.15 s.  Each case runs here in
a fresh process with BLAS pinned to one thread, through the same CLI calls
and span tracer the benchmark uses, and the script prints both figures side
by side.  The simulate cases use the default speed model (shift 1, rate 1,
no stragglers), uniform cost and seed 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# case -> (ROADMAP figure in seconds, what the harness times, coded-top (n, r_u, ell_c))
CASES = {
    "brute_force_q top-8-3-1": (12.5, "oracle.brute_force_q busy time inside verify", (8, 3, 1)),
    "simulate top-5-2-1 x1000": (0.11, "wall time of simulate, 1000 trials", (5, 2, 1)),
    "simulate top-20-2-1 x1000": (1.15, "wall time of simulate, 1000 trials", (20, 2, 1)),
}


def measure(case: str) -> float:
    import codedmv.cli as cli
    import spans

    n, r_u, ell_c = CASES[case][2]
    # only the oracle is wrapped, so tracing adds one span per verify
    tracer = spans.Tracer(only={"oracle.brute_force_q"}).install()
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        plan = Path(tmp) / "plan.json"
        cli.main(["design", "cyclic-coded-top", "--n", str(n), "--r_u", str(r_u),
                  "--ell_c", str(ell_c), "--out", str(plan)])
        if case.startswith("brute_force_q"):
            code = cli.main(["verify", "--plan", str(plan)])
            seconds = tracer.summary()["oracle.brute_force_q.busy_s"]
        else:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps({"plans": ["plan.json"], "trials": 1000, "seed": 0,
                                       "speed": {"kind": "shifted-exponential"}}))
            t0 = time.perf_counter()
            code = cli.main(["simulate", "--config", str(cfg), "--out", str(Path(tmp) / "rows.csv")])
            seconds = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"{case}: exit {code}")
    return seconds


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        print(json.dumps(measure(sys.argv[2])))
        return 0
    (BENCH / "out").mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rows = []
    for case, (roadmap, what, _) in CASES.items():
        proc = subprocess.run([sys.executable, __file__, "--case", case], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=170, check=True)
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append({"case": case, "measures": what, "roadmap_s": roadmap, "harness_s": got,
                     "ratio": got / roadmap})
        print(f"{case:28s} roadmap {roadmap:7.3f} s  harness {got:7.3f} s  "
              f"ratio {got / roadmap:5.2f}  ({what})", flush=True)
    (BENCH / "out" / "anchor.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
