#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on tiny plans and few trials.

    python3 perfbench/smoke.py

For every workload it runs the benchmark untraced and traced and asserts
that every metric named in BENCHMARK.json is emitted with its unit, that
the verify and simulate checks pass, and that a corrupted reference value
(``--corrupt-reference``) turns into failed operations and an incorrect run.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int, *extra) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []
    for wl in (w["name"] for w in spec["workloads"]):
        before = len(bad)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run(wl, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                bad.append(f"{wl} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                bad.append(f"{wl} trace {trace}: a metric value is not a number")
            if not res["correct"] or res["attempted"] < 1:
                bad.append(f"{wl} trace {trace}: correct={res['correct']} "
                           f"attempted={res['attempted']}")
        res = run(wl, 0, "--corrupt-reference")
        if res["correct"] or res["failed"] < 1:
            bad.append(f"{wl}: corrupted reference gave correct={res['correct']} "
                       f"failed={res['failed']}")
        print(f"{wl}: {'FAIL' if len(bad) > before else 'ok'}", flush=True)
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
