#!/usr/bin/env python3
"""Time three long walks, and optionally the benchmark, on one or two source trees.

    python3 tools/bench_walks.py src                       # one tree: print its walks
    python3 tools/bench_walks.py OLD/src NEW/src --repeats 5 --pairs 10 \\
        --out BENCH_lean_step.json                         # before/after file

The walks are the 3000-step two-rotation shrinking walk, the 10,000-step
two-rotation CQ walk and the 500-step two-rotation CQ walk from the c05
anchor (20250801), and the 10,000-step single-rotation CQ walk from the
c06 anchor (20250802), stepped through the library's run loop ``iterate``
for a fixed number of steps.  The 500-step walk is the first job of the
``two-rotation-cq`` benchmark panel: in the long walks the trace copy of
every step grows with n and dilutes a change to the step kernel.  For each
walk the script reports the wall time of the steps alone (the first of them
includes ``initial_state``), the mean solver sweeps per step, d(x_n, P_F x1)
at the end, a SHA-256 over the bytes of every iterate x_n (equal digests
mean bitwise-equal iterates), ``first_stalled``: the index n of the
first state the step kernel marked stalled, or null when none was, and
``solves_per_step`` and ``square_solves_per_step``: the equality solves
of the projection solver (``regions._CutCone._solve``) per step, and
those on a square active set (as many cuts as the dimension), and
``cap_binding_steps``: the steps whose projection reports the cap active
(``SolveStats.cap_active``), which the step path never makes bind (0 on
every walk).  These are counted in one more pass of each walk, untimed,
with that tree's ``_solve`` and ``iteration.project`` wrapped.

With two trees, both are imported into one process, each under a package
name of its own (``sphereproj_a`` and ``sphereproj_b``; the package uses
only relative imports), together with a copy of ``perfbench/workloads.py``
bound to it, which builds its problems.  Every walk first runs a few
hundred untimed steps on both trees.  Then each repeat runs every walk on
both trees side by side: the two take turns for ``SLICE_STEPS`` steps at a
time, the first turn alternating, so that a drift of the machine's speed
falls on both alike.  (Whole walks in turn do not suffice: one walk's wall
moves by up to 15 % from one run to the next on an idle 2-core machine.)
``speedup`` is the summed wall of the first tree over that of the second,
above 1 when the second is faster; the per-repeat walls are kept as well.
One tree given twice reads 1.00 within a few percent: one repeat's ratio
still moves by a few percent (0.96 to 1.08 seen for one tree against
itself), which the sum over the repeats averages out.  With ``--repeats 0`` no walk runs and ``walks`` stays
empty.  ``--pairs N`` also runs
``perfbench/run.py --workload W --seed 1 --seconds S --trace 0`` from the
checkout around each tree for each of the four workloads, in child
processes alternating in the same way, and keeps its end-to-end metrics.
``--out`` writes everything to one JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALKS = {
    "two-rotation/shrinking 3000": ("two-rotation", 20250801, "shrinking", 3000),
    "two-rotation/cq 10000": ("two-rotation", 20250801, "cq", 10_000),
    "two-rotation/cq 500": ("two-rotation", 20250801, "cq", 500),
    "single-rotation/cq 10000": ("single-rotation", 20250802, "cq", 10_000),
}
WARMUP_STEPS = 300
SLICE_STEPS = 50
WORKLOADS = ("two-rotation-cq", "two-rotation-shrinking", "single-rotation", "cli-sweep")
PERFBENCH_METRICS = ("steps_per_s", "step_ms.p50", "step_ms.p95", "config_ms.p50",
                     "config_ms.p95", "setup_s", "d_target.gmean", "residual.gmean",
                     "peak_rss_mb")


def load_tree(src: Path, name: str):
    """The sphereproj package in src, imported as `name`, and a copy of
    perfbench's workloads module that builds its problems with it."""
    spec = importlib.util.spec_from_file_location(
        name, src / "sphereproj" / "__init__.py",
        submodule_search_locations=[str(src / "sphereproj")])
    sp = importlib.util.module_from_spec(spec)
    sys.modules[name] = sp
    spec.loader.exec_module(sp)
    # oracle only because perfbench/workloads.py imports it
    for sub in ("cli", "oracle"):
        importlib.import_module(f"{name}.{sub}")
    # workloads.py imports `sphereproj`: hand it this tree while it loads
    saved = sys.modules.get("sphereproj")
    sys.modules["sphereproj"] = sp
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        wl = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = wl   # its dataclasses look their module up
        spec.loader.exec_module(wl)
    finally:
        if saved is None:
            del sys.modules["sphereproj"]
        else:
            sys.modules["sphereproj"] = saved
    return sp, wl


class Walk:
    """One walk on one tree, stepped a slice at a time; its wall covers the
    steps alone."""

    def __init__(self, tree, name: str):
        self.sp, wl = tree
        fam, anchor, method, self.budget = WALKS[name]
        self.case = wl.Case(fam, 4, anchor)
        self.problem = self.case.problem()
        self.states = self.sp.iterate(self.problem, method)
        self.state = None
        self.digest = hashlib.sha256()
        self.wall = 0.0
        self.first_stalled = None

    def advance(self, steps: int) -> None:
        states, state = self.states, self.state
        for _ in range(steps):
            t0 = time.perf_counter()
            state = next(states)
            self.wall += time.perf_counter() - t0
            self.digest.update(state.x_n.coords.tobytes())
            if self.first_stalled is None and state.stalled:
                self.first_stalled = state.n
        self.state = state

    def result(self) -> dict:
        trace = self.state.trace
        return {
            "wall_s": self.wall,
            "mean_sweeps": sum(rec.solver_sweeps for rec in trace) / len(trace),
            "d_target": self.sp.distance(self.state.x_n, self.problem.target),
            "xn_sha256": self.digest.hexdigest(),
            "first_stalled": self.first_stalled,
        }


def walk(tree, name: str) -> dict:
    """Step one walk on one tree through its budget."""
    w = Walk(tree, name)
    w.advance(w.budget)
    return w.result()


def count_solves(tree, name: str) -> dict:
    """Solver equality solves per step over one untimed pass of the walk,
    all of them and those on a square active set, and the steps whose
    projection binds the cap."""
    cone, it = tree[0].regions._CutCone, tree[0].iteration
    real_solve, real_project = cone._solve, it.project
    counts = [0, 0, 0]

    def counted(self, b, idx):
        counts[0] += 1
        counts[1] += len(idx) == b.size
        return real_solve(self, b, idx)

    def counted_project(region, x, start=()):
        z, stats = real_project(region, x, start)
        counts[2] += stats.cap_active
        return z, stats

    cone._solve, it.project = counted, counted_project
    try:
        w = Walk(tree, name)
        w.advance(w.budget)
    finally:
        cone._solve, it.project = real_solve, real_project
    return {"solves_per_step": counts[0] / w.budget,
            "square_solves_per_step": counts[1] / w.budget,
            "cap_binding_steps": counts[2]}


def walk_pair(trees, name: str, steps: int | None = None) -> list[dict]:
    """Step one walk on both trees side by side: they take turns for
    SLICE_STEPS steps at a time, the first turn alternating."""
    walks = [Walk(tree, name) for tree in trees]
    steps = walks[0].budget if steps is None else steps
    for k, done in enumerate(range(0, steps, SLICE_STEPS)):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            walks[side].advance(min(SLICE_STEPS, steps - done))
    return [w.result() for w in walks]


def _threads_to_one():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")


def compare_walks(srcs: list[Path], repeats: int) -> dict:
    """Both trees in this process, alternating walk by walk."""
    if not repeats:
        return {}
    _threads_to_one()
    trees = [load_tree(src, f"sphereproj_{tag}") for src, tag in zip(srcs, "ab")]
    for name in WALKS:
        walk_pair(trees, name, WARMUP_STEPS)
    runs = {name: ([], []) for name in WALKS}
    for _ in range(repeats):
        for name in WALKS:
            for side, result in enumerate(walk_pair(trees, name)):
                runs[name][side].append(result)
    solves = {name: [count_solves(tree, name) for tree in trees] for name in WALKS}
    out = {}
    for name, (before, after) in runs.items():
        walls = {"before": [r["wall_s"] for r in before], "after": [r["wall_s"] for r in after]}
        out[name] = {
            "wall_s": walls,
            "wall_s_sum": {side: sum(v) for side, v in walls.items()},
            "wall_s_median": {side: statistics.median(v) for side, v in walls.items()},
            "speedup": sum(walls["before"]) / sum(walls["after"]),
            "mean_sweeps": {"before": before[0]["mean_sweeps"], "after": after[0]["mean_sweeps"]},
            "d_target": {"before": before[0]["d_target"], "after": after[0]["d_target"]},
            "xn_sha256": {"before": before[0]["xn_sha256"], "after": after[0]["xn_sha256"]},
            "xn_identical": len({r["xn_sha256"] for r in before + after}) == 1,
            "first_stalled": {"before": before[0]["first_stalled"],
                              "after": after[0]["first_stalled"]},
            **{key: {side: counts[key] for side, counts in zip(("before", "after"), solves[name])}
               for key in ("solves_per_step", "square_solves_per_step", "cap_binding_steps")},
        }
    return out


def _child(args: list[str]) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.strip().splitlines()[-1]


def perfbench(src: Path, workload: str, seconds: float) -> dict:
    """End-to-end metrics of one benchmark run from the checkout around src."""
    line = _child([str(src.parent / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", f"{seconds:g}", "--trace", "0"])
    result = json.loads(line)
    metrics = {k: result["metrics"][k]["value"] for k in PERFBENCH_METRICS}
    return {"correct": result["correct"], "failed": result["failed"], **metrics}


def _alternate(count: int, run) -> list[list]:
    """count pairs of run(0), run(1), the order swapped on every other pair."""
    pairs = []
    for k in range(count):
        pair = [None, None]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            pair[side] = run(side)
        pairs.append(pair)
    return pairs


def compare(srcs: list[Path], repeats: int, pairs: int, seconds: float) -> dict:
    report = {
        "command": " ".join(["tools/bench_walks.py", "BEFORE/src", "AFTER/src",
                             f"--repeats {repeats}", f"--pairs {pairs}",
                             f"--seconds {seconds:g}"]),
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "platform": platform.platform()},
        "walks": compare_walks(srcs, repeats),
        "perfbench": {},
    }
    for workload in WORKLOADS if pairs else ():
        runs = _alternate(pairs, lambda side: perfbench(srcs[side], workload, seconds))
        report["perfbench"][workload] = {
            "pairs": [{"before": b, "after": a} for b, a in runs],
            "steps_per_s_median": {
                "before": statistics.median(b["steps_per_s"] for b, _ in runs),
                "after": statistics.median(a["steps_per_s"] for _, a in runs)},
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", type=Path, help="one or two sphereproj source trees")
    parser.add_argument("--repeats", type=int, default=5, help="walk runs per tree")
    parser.add_argument("--pairs", type=int, default=0, help="benchmark pairs per workload")
    parser.add_argument("--seconds", type=float, default=20.0, help="seconds per benchmark run")
    parser.add_argument("--out", type=Path, help="write the comparison here")
    args = parser.parse_args(argv)
    srcs = [s.resolve() for s in args.src]
    for src in srcs:
        if not (src / "sphereproj" / "__init__.py").is_file():
            parser.error(f"no sphereproj sources at {src}")
    if len(srcs) == 1:
        _threads_to_one()
        tree = load_tree(srcs[0], "sphereproj_a")
        print(json.dumps({name: {**walk(tree, name), **count_solves(tree, name)}
                          for name in WALKS}))
        return 0
    if len(srcs) != 2:
        parser.error("give one or two source trees")
    text = json.dumps(compare(srcs, args.repeats, args.pairs, args.seconds), indent=2)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
