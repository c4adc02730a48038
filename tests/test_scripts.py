"""Smoke runs of the experiment scripts in scripts/."""

from pathlib import Path

import pytest

from support import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("compare_schemes.py", ["--trials", "20"],
     "plan_id,trials,mean_finish,median_finish,p95_finish,failure_rate"),
    ("sparsity_penalty.py", ["--trials", "20", "--nnz", "1", "2"],
     "nnz_per_block,mds_mean,coded_bottom_mean,ratio"),
])
def test_script_runs_and_prints_csv_header(script, args, header):
    proc = run_python([str(SCRIPTS / script), *args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
