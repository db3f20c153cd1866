"""scripts/ab_bench.py rejects run counts and lengths that measure nothing."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--pairs", "0", "--pairs must be at least 1"),
        ("--seconds", "0", "--seconds must be positive"),
    ],
)
def test_ab_bench_rejects_an_empty_run(flag, value, message):
    args = {"--pairs": "1", "--seconds": "1", flag: value}
    cmd = [sys.executable, "scripts/ab_bench.py", "--parent", ".", "--change", ".",
           "--workload", "bar-exact", "--seed", "0"]
    for name, x in args.items():
        cmd += [name, x]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""
