#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised as a BENCH_*.json.

Runs ``perfbench/run.py --trace 0`` for the ``run_seconds`` that
``BENCHMARK.json`` sets, once per seed in each of two source checkouts
(each holding ``BENCHMARK.json``, ``perfbench/`` and ``src/``),
alternating which side runs first, and writes per workload and end-to-end
metric: each side's median, quartiles and IQR, and the number of pairs in
which the change read lower. Quartiles are ``statistics.quantiles(n=4)``
(exclusive method). Per workload, ``failures`` totals each side's failed
and attempted operations and lists the seeds at which the change failed a
larger share than the parent; ``incorrect`` lists, per side, the seeds
whose run was not correct (a digest or reference replay did not match).
Every run's record (correct, attempted, failed and the metrics) is kept
under ``runs``. After each workload, stdout gets one line per end-to-end
metric (parent -> change median, the parent's IQR, and the pairs the
change read lower) and one line naming those seeds.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload simulate-n5-decode --seeds 501-510 --out BENCH_8.json

Runs are sequential: the pairs only mean something on an otherwise idle
host. A ``__pycache__`` under ``src/`` or ``perfbench/`` of either checkout
makes one side start from compiled bytecode and the other not, so the
script refuses to start while one exists; its own runs write none
(``PYTHONDONTWRITEBYTECODE=1``). With ``--out`` naming an existing file,
new workloads are merged into it and a workload measured again replaces
its old entry. A run that exits non-zero stops the script with exit 1: it
names the side, seed, exit code and the tail of the run's stderr, and the
workload's entry in ``--out`` holds only the ``runs`` measured before it.
Each run starts in a session of its own; SIGTERM or SIGINT kills that
run's process group, so no pass outlives the script, and exits 1.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def stale_bytecode(roots: list) -> list:
    """Every ``__pycache__`` directory under src/ or perfbench/ of the roots."""
    return [str(d) for root in roots for sub in ("src", "perfbench")
            for d in sorted((root / sub).rglob("__pycache__"))]


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run's record; a non-zero exit raises CalledProcessError. The run
    leads a process group of its own, killed whole if the wait is cut
    short (see :func:`stop`)."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, stdout, stderr)
    doc = json.loads(stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: v["value"] for k, v in doc["metrics"].items()},
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: dict, metrics: list) -> dict:
    out = {"pairs": len(runs["parent"])}
    # a larger share of failed operations rejects a change, whatever its metrics
    out["failures"] = {
        side: {key: sum(r[key] for r in runs[side]) for key in ("failed", "attempted")}
        for side in ("parent", "change")
    }
    out["failures"]["change_failed_more"] = [
        c["seed"] for p, c in zip(runs["parent"], runs["change"])
        if c["failed"] * p["attempted"] > p["failed"] * c["attempted"]
    ]
    # a run that is not correct says nothing about speed
    out["incorrect"] = {
        side: [r["seed"] for r in runs[side] if not r["correct"]] for side in ("parent", "change")
    }
    for m in metrics:
        parent = [r["metrics"][m["name"]] for r in runs["parent"]]
        change = [r["metrics"][m["name"]] for r in runs["change"]]
        out[m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": spread(parent),
            "change": spread(change),
            "change_lower": sum(c < p for p, c in zip(parent, change)),
        }
    return out


def closing_lines(workload: str, summary: dict, metrics: list) -> list:
    """The lines printed after a workload: one per end-to-end metric, then
    the seeds at which a run was not correct or the change failed a larger
    share of its operations."""
    lines = []
    for m in metrics:
        entry = summary[m["name"]]
        lines.append(
            f"{workload} {m['name']}: {entry['parent']['median']:.4g} -> "
            f"{entry['change']['median']:.4g} {m['unit']} (parent IQR "
            f"{entry['parent']['iqr']:.4g}), change lower in "
            f"{entry['change_lower']}/{summary['pairs']} pairs"
        )
    failures = summary["failures"]
    flagged = [f"{side} not correct at seeds {', '.join(map(str, seeds))}"
               for side, seeds in summary["incorrect"].items() if seeds]
    if failures["change_failed_more"]:
        seeds = ", ".join(map(str, failures["change_failed_more"]))
        flagged.append(f"change failed a larger share at seeds {seeds}")
    lines.append(f"{workload} checks: "
                 + ("; ".join(flagged) or "every run correct, no larger failed share"))
    return lines


def stop(signum, frame):
    """SIGTERM and SIGINT handler: exit 1, which kills the running run's
    process group on the way out."""
    sys.exit(f"error: stopped by {signal.Signals(signum).name}")


def write_doc(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 501-510")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    stale = stale_bytecode([args.parent, args.change])
    if stale:
        sys.exit("error: stale bytecode would bias the pairs; remove "
                 + ", ".join(stale))
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for j, seed in enumerate(args.seeds):
            order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    record = run_once(getattr(args, side), workload, seed, spec["run_seconds"])
                except subprocess.CalledProcessError as e:
                    doc[workload] = {"runs": runs}
                    write_doc(args.out, doc)
                    tail = "\n".join(e.stderr.splitlines()[-20:])
                    sys.exit(f"error: {workload}: the {side} run at seed {seed} exited "
                             f"{e.returncode}; runs so far are in {args.out}\n{tail}")
                runs[side].append(record)
                print(workload, seed, side, runs[side][-1]["metrics"]["pass_probes"],
                      file=sys.stderr, flush=True)
        summary = summarise(runs, spec["end_to_end"])
        doc[workload] = {**summary, "runs": runs}
        write_doc(args.out, doc)
        print("\n".join(closing_lines(workload, summary, spec["end_to_end"])), flush=True)


if __name__ == "__main__":
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)
    main()
