"""The comparison scripts in tools/ must run against this checkout."""

import importlib.util
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


def test_projections_arithmetic_ignores_sweeps(monkeypatch):
    # one more sweep per call moves `projections` and not its sweeps-free line
    import sphereproj as sp

    spec = importlib.util.spec_from_file_location("trace_digest", ROOT / "tools" / "trace_digest.py")
    td = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(td)
    monkeypatch.setattr(td, "PROJECTION_CALLS", 200)
    before = td.projection_digest(sp)
    real_project = sp.project

    def one_more_sweep(region, x, start=()):
        z, stats = real_project(region, x, start)
        return z, stats._replace(sweeps=stats.sweeps + 1)

    monkeypatch.setattr(sp, "project", one_more_sweep)
    after = td.projection_digest(sp)
    assert after.full.hexdigest() != before.full.hexdigest()
    assert after.arithmetic.hexdigest() == before.arithmetic.hexdigest()


def test_trace_digest_same_tree_twice():
    # two fresh processes on one tree: the same walks, CLI bytes and projections
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "trace_digest.py"), src, src],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "identical: yes"
    names = ["full", "arithmetic", "projections", "projections-arithmetic"]
    digests = [line.split() for line in lines if line.startswith("  ")]
    assert [d[0] for d in digests] == names * 2
    assert digests[:4] == digests[4:]
