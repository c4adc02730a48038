#!/usr/bin/env python3
"""Record the simulate CSV digests that ``digests.json`` holds.

    python3 perfbench/record_digests.py

For each seed from 0 to 99 it builds the inputs of both simulate workloads
exactly as a benchmark pass does, runs ``codedmv simulate`` on them, and
writes the SHA-256 of each rows CSV into a fresh table.  The recorded
digests are the reference later runs are checked against: finish times must
stay bit-identical, so record them only from a program whose output is known
to be right, never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import codedmv.cli as cli  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(100)


def main() -> int:
    table = {}
    (BENCH / "out").mkdir(exist_ok=True)
    for wl in workloads.FULL.values():
        if wl.simulate is None:
            continue
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp, \
                    contextlib.redirect_stdout(io.StringIO()):
                inp = workloads.make_inputs(wl, seed, Path(tmp), cli.main)
                entry = {}
                for cid, path, _, _ in inp.configs:
                    out = Path(tmp) / "rows.csv"
                    if cli.main(["simulate", "--config", str(path), "--out", str(out)]) != 0:
                        raise SystemExit(f"simulate failed: {wl.name} seed {seed} {cid}")
                    entry[cid] = hashlib.sha256(out.read_bytes()).hexdigest()
            table[f"{wl.name}:{seed}"] = entry
            print(f"{wl.name} seed {seed}: {entry}", flush=True)
    reference.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
