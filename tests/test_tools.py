"""The comparison scripts in tools/ must run against this checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_walks_without_walks():
    # benchmark pairs alone: no walk runs, so there is no walk to summarise
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_walks.py"), src, src,
                           "--repeats", "0", "--pairs", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["walks"] == {} and report["perfbench"] == {}
