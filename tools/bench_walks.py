#!/usr/bin/env python3
"""Time two long walks, and optionally the benchmark, on one or two source trees.

    python3 tools/bench_walks.py src                       # one tree: print its walks
    python3 tools/bench_walks.py OLD/src NEW/src --repeats 3 --pairs 3 \\
        --out BENCH_warm_start.json                        # before/after file

The walks are the 3000-step two-rotation shrinking walk from the c05 anchor
(20250801) and the 10,000-step single-rotation CQ walk from the c06 anchor
(20250802), stepped through ``initial_state`` and ``shrink_step`` /
``cq_step`` for a fixed number of steps.  For each walk the script reports
the wall time of the steps alone, the mean solver sweeps per step, d(x_n,
P_F x1) at the end, and a SHA-256 over the bytes of every iterate x_n:
equal digests mean bitwise-equal iterates.  The machine's speed drifts
between and during long walks, so reference slices of ``Speed`` from
``perfbench/run.py`` run before and after each walk and, as in the
benchmark's walks, between steps every ``SPEED_EVERY_S``, outside the timed
span; ``speed_factor`` is their nominal over their mean time (above 1 when
the machine is fast), and ``wall_s_corrected = wall_s * speed_factor`` is
the wall time at nominal speed.

With two trees, every measurement runs in a fresh child process, and the two
trees alternate: each repeat (and each benchmark pair) runs both, with the
order swapped on every other one, so that a drift of the machine's speed
falls on both sides.  ``speedup_median`` compares the medians of the
corrected walls; the raw walls and their medians are kept as well, and with
``--repeats 0`` no walk runs and ``walks`` stays empty.  ``--pairs
N`` also runs ``perfbench/run.py --workload W --seed 1 --seconds S --trace
0`` from the checkout around each tree for each of the four workloads and
keeps its end-to-end metrics.  ``--out`` writes everything to one JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
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
    "single-rotation/cq 10000": ("single-rotation", 20250802, "cq", 10_000),
}
WORKLOADS = ("two-rotation-cq", "two-rotation-shrinking", "single-rotation", "cli-sweep")
PERFBENCH_METRICS = ("steps_per_s", "step_ms.p50", "step_ms.p95", "config_ms.p50",
                     "config_ms.p95", "setup_s", "d_target.gmean", "residual.gmean",
                     "peak_rss_mb")


def walks(src: Path) -> dict:
    """Step both walks with the sphereproj found in src."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import sphereproj as sp
    import workloads as wl
    from run import Speed

    out = {}
    for name, (fam, anchor, method, steps) in WALKS.items():
        case = wl.Case(fam, 4, anchor)
        problem = case.problem()
        step = {"cq": sp.cq_step, "shrinking": sp.shrink_step}[method]
        digest = hashlib.sha256()
        speed = Speed()
        speed.sample()
        state = sp.initial_state(problem)
        wall = 0.0
        for _ in range(steps):
            t0 = time.perf_counter()
            state = step(problem, state)
            wall += time.perf_counter() - t0
            digest.update(state.x_n.coords.tobytes())
            speed()
        speed.sample()
        factor = speed.factor()
        out[name] = {
            "wall_s": wall,
            "speed_factor": factor,
            "wall_s_corrected": wall * factor,
            "mean_sweeps": sum(rec.solver_sweeps for rec in state.trace) / steps,
            "d_target": sp.distance(state.x_n, case.target(problem.x1)),
            "xn_sha256": digest.hexdigest(),
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
    me = str(Path(__file__).resolve())
    walk_runs = _alternate(repeats, lambda side: json.loads(_child([me, str(srcs[side])])))
    report = {
        "command": " ".join(["tools/bench_walks.py", "BEFORE/src", "AFTER/src",
                             f"--repeats {repeats}", f"--pairs {pairs}",
                             f"--seconds {seconds:g}"]),
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "platform": platform.platform()},
        "walks": {},
        "perfbench": {},
    }
    for name in WALKS if walk_runs else ():
        before = [p[0][name] for p in walk_runs]
        after = [p[1][name] for p in walk_runs]
        series = {key: {"before": [r[key] for r in before], "after": [r[key] for r in after]}
                  for key in ("wall_s", "speed_factor", "wall_s_corrected")}
        medians = {key: {side: statistics.median(v) for side, v in series[key].items()}
                   for key in ("wall_s", "wall_s_corrected")}
        report["walks"][name] = {
            **series,
            "wall_s_median": medians["wall_s"],
            "wall_s_corrected_median": medians["wall_s_corrected"],
            "speedup_median": (medians["wall_s_corrected"]["before"]
                               / medians["wall_s_corrected"]["after"]),
            "mean_sweeps": {"before": before[0]["mean_sweeps"], "after": after[0]["mean_sweeps"]},
            "d_target": {"before": before[0]["d_target"], "after": after[0]["d_target"]},
            "xn_sha256": {"before": before[0]["xn_sha256"], "after": after[0]["xn_sha256"]},
            "xn_identical": len({r["xn_sha256"] for r in before + after}) == 1,
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
    parser.add_argument("--repeats", type=int, default=3, help="walk runs per tree")
    parser.add_argument("--pairs", type=int, default=0, help="benchmark pairs per workload")
    parser.add_argument("--seconds", type=float, default=20.0, help="seconds per benchmark run")
    parser.add_argument("--out", type=Path, help="write the comparison here")
    args = parser.parse_args(argv)
    srcs = [s.resolve() for s in args.src]
    for src in srcs:
        if not (src / "sphereproj" / "__init__.py").is_file():
            parser.error(f"no sphereproj sources at {src}")
    if len(srcs) == 1:
        print(json.dumps(walks(srcs[0])))
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
