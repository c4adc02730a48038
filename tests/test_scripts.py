"""Smoke runs of the experiment scripts in scripts/, and unit tests of the
benchmark pair summary."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from support import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("compare_schemes.py", ["--trials", "20"],
     "plan_id,trials,mean_finish,median_finish,p95_finish,failure_rate"),
    ("sparsity_penalty.py", ["--trials", "20", "--nnz", "1", "2"],
     "nnz_per_block,mds_mean,coded_bottom_mean,ratio"),
    ("threshold_sweep.py", ["--n-max", "6"], "family,n,q_true,q_lower,resilience"),
])
def test_script_runs_and_prints_csv_header(script, args, header):
    proc = run_python([str(SCRIPTS / script), *args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_threshold_sweep_reaches_n40():
    # both families at n = 5..40; about half a second on a 2-vCPU VM
    proc = run_python([str(SCRIPTS / "threshold_sweep.py"), "--n-max", "40"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 1 + 2 * 36
    assert "coded-top,40,58,46,20" in rows
    assert "coded-bottom,40,78,78,20" in rows


@pytest.mark.parametrize("script, args, message", [
    ("compare_schemes.py", ["--trials", "5", "--shift", "nan"],
     "error: shift must be a finite number, got nan"),
    ("compare_schemes.py", ["--trials", "5", "--straggler-slowdown", "-0.5"],
     "error: multipliers must be positive, got (1.0, 1.0, 1.0, -0.5, -0.5)"),
    ("compare_schemes.py", ["--trials", "0"], "error: trials must be >= 1"),
    ("sparsity_penalty.py", ["--trials", "5", "--nnz", "1", "-2"],
     "error: nonzero counts must be non-negative"),
], ids=["shift-nan", "negative-slowdown", "zero-trials", "negative-nnz"])
def test_script_refuses_a_bad_value_with_one_error_line(script, args, message):
    proc = run_python([str(SCRIPTS / script), *args])
    assert proc.returncode == 1
    assert proc.stderr == message + "\n"
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# bench_pairs.py, on made-up run records (no benchmark runs)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_seed_range():
    bench = _bench_pairs()
    assert bench.seed_range("501-505") == [501, 502, 503, 504, 505]
    assert bench.seed_range("7") == [7]


def test_bench_pairs_spread_uses_exclusive_quartiles():
    # exclusive method: quartile p sits at rank (len + 1) * p, interpolated
    assert _bench_pairs().spread([float(v) for v in range(1, 11)]) == {
        "median": 5.5, "q1": 2.75, "q3": 8.25, "iqr": 5.5,
    }


def test_bench_pairs_summarise_counts_strict_wins():
    def run(value):
        return {"seed": 0, "correct": 1, "attempted": 1, "failed": 0,
                "metrics": {"pass_probes": value}}

    runs = {"parent": [run(v) for v in (2.0, 2.0, 3.0, 5.0)],
            "change": [run(v) for v in (1.0, 2.0, 4.0, 4.0)]}
    metrics = [{"name": "pass_probes", "unit": "probes", "better": "lower", "bound": 0.25}]
    out = _bench_pairs().summarise(runs, metrics)
    assert out["pairs"] == 4
    entry = out["pass_probes"]
    assert (entry["unit"], entry["better"]) == ("probes", "lower")
    assert entry["change_lower"] == 2  # the tie in the second pair counts for neither
    assert entry["parent"] == {"median": 2.5, "q1": 2.0, "q3": 4.5, "iqr": 2.5}
    assert entry["change"] == {"median": 3.0, "q1": 1.25, "q3": 4.0, "iqr": 2.75}


def test_bench_pairs_summarise_reports_failures():
    # a seed counts against the change when it fails a larger share of its
    # attempts, even with an equal or smaller count
    def run(seed, attempted, failed):
        return {"seed": seed, "correct": 1, "attempted": attempted, "failed": failed,
                "metrics": {}}

    runs = {"parent": [run(1, 10, 2), run(2, 10, 2), run(3, 8, 2), run(4, 12, 3)],
            "change": [run(1, 10, 2), run(2, 10, 3), run(3, 10, 2), run(4, 10, 3)]}
    assert _bench_pairs().summarise(runs, [])["failures"] == {
        "parent": {"failed": 9, "attempted": 40},
        "change": {"failed": 10, "attempted": 40},
        "change_failed_more": [2, 4],
    }


def test_bench_pairs_refuses_stale_bytecode(tmp_path, monkeypatch):
    bench = _bench_pairs()
    stale = [tmp_path / "parent" / "src" / "codedmv" / "__pycache__",
             tmp_path / "change" / "perfbench" / "__pycache__"]
    for d in stale:
        d.mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": []}')

    def run_once(*args):
        raise AssertionError("ran a benchmark despite stale bytecode")

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--workload", "simulate-n5-decode",
        "--seeds", "1-2", "--out", str(tmp_path / "bench.json")])
    with pytest.raises(SystemExit) as info:
        bench.main()
    assert info.value.code not in (0, None)
    message = str(info.value.code)
    assert all(str(d) in message for d in stale)
    assert not (tmp_path / "bench.json").exists()


def test_bench_pairs_keeps_runs_when_a_run_fails(tmp_path, monkeypatch):
    bench = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "end_to_end": []}')
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root.name, seed))
        if len(calls) == 3:  # seed 2 runs the change first
            raise subprocess.CalledProcessError(
                4, ["run.py"], output="", stderr="early line\nTraceback\nboom: late line\n")
        return {"seed": seed, "correct": 1, "attempted": 1, "failed": 0,
                "metrics": {"pass_probes": 1.0}}

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--workload", "simulate-n5-decode",
        "--seeds", "1-3", "--out", str(tmp_path / "bench.json")])
    with pytest.raises(SystemExit) as info:
        bench.main()
    assert calls == [("parent", 1), ("change", 1), ("change", 2)]
    message = str(info.value.code)
    assert "change run at seed 2 exited 4" in message
    assert message.endswith("boom: late line")
    runs = json.loads((tmp_path / "bench.json").read_text())["simulate-n5-decode"]["runs"]
    assert [r["seed"] for r in runs["parent"]] == [1]
    assert [r["seed"] for r in runs["change"]] == [1]


def test_bench_pairs_summarise_lists_incorrect_runs():
    def run(seed, correct):
        return {"seed": seed, "correct": correct, "attempted": 4, "failed": 0, "metrics": {}}

    runs = {"parent": [run(1, True), run(2, False), run(3, True)],
            "change": [run(1, False), run(2, True), run(3, False)]}
    assert _bench_pairs().summarise(runs, [])["incorrect"] == {"parent": [2], "change": [1, 3]}


def _closing_runs(parent_correct=True):
    def run(seed, value, failed, correct=True):
        return {"seed": seed, "correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"pass_probes": value, "setup_s": 0.5}}

    return {"parent": [run(1, 6.0, 1), run(2, 7.0, 1, parent_correct), run(3, 6.5, 1)],
            "change": [run(1, 5.0, 1), run(2, 7.5, 2), run(3, 5.5, 1)]}


METRICS = [{"name": "pass_probes", "unit": "probes", "better": "lower", "bound": 0.25},
           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_bench_pairs_closing_lines():
    bench = _bench_pairs()
    summary = bench.summarise(_closing_runs(parent_correct=False), METRICS)
    assert bench.closing_lines("simulate-n5-decode", summary, METRICS) == [
        "simulate-n5-decode pass_probes: 6.5 -> 5.5 probes (parent IQR 1), "
        "change lower in 2/3 pairs",
        "simulate-n5-decode setup_s: 0.5 -> 0.5 s (parent IQR 0), change lower in 0/3 pairs",
        "simulate-n5-decode checks: parent not correct at seeds 2; "
        "change failed a larger share at seeds 2",
    ]


def test_bench_pairs_closing_lines_when_every_run_is_clean():
    bench = _bench_pairs()
    runs = _closing_runs()
    runs["change"][1]["failed"] = 1
    summary = bench.summarise(runs, METRICS[:1])
    assert bench.closing_lines("w", summary, METRICS[:1])[-1] == (
        "w checks: every run correct, no larger failed share")


def test_bench_pairs_prints_the_closing_lines(tmp_path, monkeypatch, capsys):
    bench = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": METRICS}))
    runs = _closing_runs()

    def run_once(root, workload, seed, seconds):
        return runs[root.name][seed - 1]

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr("sys.argv", [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--workload", "simulate-n40",
        "--seeds", "1-3", "--out", str(tmp_path / "bench.json")])
    bench.main()
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("simulate-n40 pass_probes: 6.5 -> 5.5 probes")
    assert out[-1] == "simulate-n40 checks: change failed a larger share at seeds 2"
    assert len(out) == 3
    doc = json.loads((tmp_path / "bench.json").read_text())["simulate-n40"]
    assert doc["incorrect"] == {"parent": [], "change": []}


def _alive(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_bench_pairs_kills_the_run_and_its_child_when_stopped(tmp_path):
    # a checkout whose run starts one sleeping child of its own, as
    # perfbench/run.py starts its passes
    pids = tmp_path / "pids"
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent(f"""
        import os, subprocess, sys, time
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        with open({str(pids) + ".part"!r}, "w") as fh:
            fh.write(f"{{os.getpid()}} {{child.pid}}")
        os.replace({str(pids) + ".part"!r}, {str(pids)!r})
        time.sleep(60)
    """))
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--parent", str(tmp_path),
         "--change", str(tmp_path), "--workload", "simulate-n40", "--seeds", "1-2",
         "--out", str(tmp_path / "bench.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    started = []
    try:
        deadline = time.monotonic() + 30
        while not pids.exists():
            assert proc.poll() is None and time.monotonic() < deadline, proc.communicate()
            time.sleep(0.05)
        started = [int(v) for v in pids.read_text().split()]
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 1
        assert err == "error: stopped by SIGTERM\n"
        deadline = time.monotonic() + 10
        while any(map(_alive, started)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, started))
        assert not (tmp_path / "bench.json").exists()
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_alive, started):
            os.kill(pid, signal.SIGKILL)
