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


def test_bench_walks_one_tree_twice_in_one_process(monkeypatch):
    # each copy is its own package, and both step the same iterates
    spec = importlib.util.spec_from_file_location("bench_walks", ROOT / "tools" / "bench_walks.py")
    bw = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bw)
    monkeypatch.setattr(bw, "WALKS", {"cq": ("two-rotation", 20250801, "cq", 120),
                                      "shrinking": ("single-rotation", 20250802, "shrinking", 120)})
    monkeypatch.setattr(bw, "WARMUP_STEPS", 10)
    try:
        walks = bw.compare_walks([ROOT / "src", ROOT / "src"], 2)
        a, b = sys.modules["sphereproj_a"], sys.modules["sphereproj_b"]
        assert a.cq_step is not b.cq_step
        assert sys.modules["sphereproj_b_workloads"].sp is b
    finally:
        # only the trees' copies: numpy, if this test imported it first,
        # cannot be loaded twice in one process
        for name in [n for n in sys.modules if n.startswith("sphereproj_")]:
            del sys.modules[name]
    assert list(walks) == ["cq", "shrinking"]
    for w in walks.values():
        assert w["xn_identical"]
        assert len(w["wall_s"]["before"]) == len(w["wall_s"]["after"]) == 2
        assert w["speedup"] > 0.0
        # one tree on both sides makes the same solves
        solves, square = w["solves_per_step"], w["square_solves_per_step"]
        assert solves["before"] == solves["after"] > 0.0
        assert square["before"] == square["after"] <= solves["before"]
        # the step path never binds the cap
        assert w["cap_binding_steps"] == {"before": 0, "after": 0}


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
    # two fresh processes on one tree: the same walks, CLI bytes and
    # projections, and the lines pinned in tools/DIGESTS
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
    pinned = [line.split() for line in (ROOT / "tools" / "DIGESTS").read_text().splitlines()
              if line and not line.startswith("#")]
    assert digests[:4] == pinned
