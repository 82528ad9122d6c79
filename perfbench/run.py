#!/usr/bin/env python3
"""Benchmark for sphereproj: four workloads, checked outputs, one command.

    python3 perfbench/run.py --workload two-rotation-cq --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --baseline

Run from anywhere; the library is imported from the ``src/`` directory next
to this one, never from an installed copy.  One process, one thread, one
call at a time (a closed loop).  Prints one line per job of the first pass,
every metric with its unit, and as its last line one JSON object with the
keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Modules that import sphereproj (workloads, layers, numpy users) are imported
# inside functions, once main() has put src/ first on the path.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("two-rotation-cq", "two-rotation-shrinking", "single-rotation", "cli-sweep")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# A reference slice runs after every SPEED_EVERY_S of measuring; its
# nominal time is its median on the 2-core machine the bounds were set on.
SPEED_EVERY_S = 0.25
REF_SLICE_NOMINAL_S = 0.005
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import sphereproj; print(time.perf_counter() - t0)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="orders the jobs of each pass")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="replay the four ROADMAP Baseline walks and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.baseline:
        parser.error("--workload is required")

    # Before numpy is imported, so that BLAS starts single-threaded.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "sphereproj" / "__init__.py").is_file():
        print(f"error: no sphereproj sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sphereproj
    import_s = time.perf_counter() - t0
    if Path(sphereproj.__file__).resolve().parent != (SRC / "sphereproj").resolve():
        print(f"error: imported sphereproj from {sphereproj.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(environment())
    if args.baseline:
        return baseline()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        return bench(args, import_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def environment() -> str:
    import numpy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return (f"env: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} commit={git_commit()} "
            f"src_sha256={digest.hexdigest()[:16]} blas_threads=1")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "none"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "none"
    return "unknown"


class Speed:
    """How fast the machine runs right now, from a fixed reference slice.

    On a shared machine the speed of the same code drifts by tens of percent
    over tens of seconds; one run cannot average that away.  Slices run at
    even intervals through the measurement, outside every timed span, and
    their mean time against the nominal gives the run's speed factor.  The
    slice uses numpy and math on 4-vectors like the library, but no library
    code, so no library change moves it."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20250801)
        v = rng.standard_normal((8, 4))
        self.vectors = v / np.linalg.norm(v, axis=1)[:, None]
        self.slices: list[float] = []
        self.last = -math.inf

    def sample(self):
        v, acc = self.vectors, 0.0
        t0 = time.perf_counter()
        for i in range(1000):
            a, b = v[i % 8], v[(i * 3 + 1) % 8]
            c = float(a @ b)
            w = a - c * b
            acc += math.acos(max(-1.0, min(1.0, c))) + math.sqrt(float(w @ w))
        self.last = time.perf_counter()
        self.slices.append(self.last - t0)

    def __call__(self):
        if time.perf_counter() - self.last >= SPEED_EVERY_S:
            self.sample()

    def factor(self, first: int = 0) -> float:
        """Nominal / mean time of the slices from index `first` on: above 1
        when the machine is fast."""
        return REF_SLICE_NOMINAL_S / statistics.fmean(self.slices[first:])


class Bench:
    """Set-up and job runner for one workload."""

    def __init__(self, workload: str):
        import workloads as wl
        self.wl = wl
        self.jobs = wl.PANELS[workload]
        self.is_cli = workload == "cli-sweep"
        self.cases = list(dict.fromkeys(job.case for job in self.jobs))

    def setup(self):
        """Build every Problem of the workload (and write the CLI configs)."""
        self.built = {}
        for case in self.cases:
            problem = case.problem()
            self.built[case] = (problem, case.target(problem.x1))
        if self.is_cli:
            (WORK / "cfg").mkdir(parents=True, exist_ok=True)
            (WORK / "out").mkdir(parents=True, exist_ok=True)
            for i, case in enumerate(self.cases):
                (WORK / "cfg" / f"{i}.cfg").write_text(case.config_text(), encoding="utf-8")

    def runner(self, pace, tracer=None):
        """A function (job, first_pass) -> Result; traced when tracer is set."""
        import sphereproj as sp
        wl = self.wl
        if self.is_cli:
            call = tracer.span("cli.invocation", wl.call_cli) if tracer else wl.call_cli
            index = {case: i for i, case in enumerate(self.cases)}

            def run(job, first):
                i = index[job.case]
                return wl.run_invocation(job, WORK / "cfg" / f"{i}.cfg", WORK / "out" / str(i),
                                         self.built[job.case][1], repeat=first, call=call,
                                         pace=pace)
            return run
        steps = {"cq": sp.cq_step, "shrinking": sp.shrink_step}
        if tracer:
            steps = {m: tracer.span("iteration.step", fn) for m, fn in steps.items()}

        def run(job, first):
            problem, target = self.built[job.case]
            return wl.run_walk(job, problem, target, steps[job.method], pace)
        return run


def measure(jobs, run, seconds: float, seed: int):
    """Whole passes over the jobs, in a seeded order, until `seconds` is
    nearer than half a pass.  Every pass runs the same jobs, so the mix is the
    same however many passes fit."""
    import numpy as np
    rng = np.random.default_rng(seed)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = [None] * len(jobs)
        for i in rng.permutation(len(jobs)):
            results[i] = run(jobs[i], not passes)
        passes.append(results)
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return passes


def replay_problems(passes) -> list[str]:
    """Every pass must reproduce the first one's outputs exactly."""
    out = []
    for later in passes[1:]:
        for a, b in zip(passes[0], later):
            if a.fingerprint != b.fingerprint:
                out.append(f"{a.label}: a replay gave different outputs")
    return out


def gmean(values) -> float:
    """Geometric mean, 0 for no values.  Values are floored at 1e-16, below
    double resolution for unit vectors, so an exact zero cannot end the log."""
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(max(v, 1e-16)) for v in values))


def pct(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_s: float) -> dict:
    results = [r for p in passes for r in p]
    step_ms = [x for r in results for x in r.step_ms]
    job_ms = [r.wall * 1e3 for r in results]
    first = passes[0]
    return {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (sum(r.steps for r in results) / sum(r.wall for r in results), "1/s"),
        "step_ms.p50": (statistics.median(step_ms), "ms"),
        "step_ms.p95": (pct(step_ms, 95), "ms"),
        "config_ms.p50": (statistics.median(job_ms), "ms"),
        "config_ms.p95": (pct(job_ms, 95), "ms"),
        "d_target.gmean": (gmean([x for r in first for x in r.d_target]), "rad"),
        "residual.gmean": (gmean([x for r in first for x in r.residual]), "rad"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, setup_snap, passes, overhead: float, failed_frac: float) -> dict:
    """Per-layer metrics, in seconds or calls per pass over the workload's
    jobs; mappings.check_cap_s adds one traced set-up build."""
    from workloads import CHECKPOINTS
    n = len(passes)
    end = tracer.snapshot()

    def per_pass(kind, name):
        return (end[kind].get(name, 0) - setup_snap[kind].get(name, 0)) / n

    first = passes[0]
    sweeps = [s for r in first for s in r.sweeps]
    project_calls = per_pass("calls", "regions.project")
    zero_effort = (end["zero_effort"] - setup_snap["zero_effort"]) / n
    m = {
        "regions.project_s": (per_pass("total", "regions.project"), "s"),
        "regions.project_calls": (project_calls, "count"),
        "regions.solver_iters.mean": (statistics.fmean(sweeps) if sweeps else 0.0, "count"),
        "regions.solver_iters.max": (max(sweeps, default=0), "count"),
        "regions.solver_failures": (per_pass("errors", "regions.project"), "count"),
        "regions.inside_frac": (zero_effort / project_calls if project_calls else 0.0, "ratio"),
        "regions.region_s": (per_pass("total", "regions.region"), "s"),
        "regions.contains_s": (per_pass("total", "regions.contains"), "s"),
        "regions.slack_calls": (per_pass("calls", "regions.slack"), "count"),
        "regions.cuts.max": (max(r.cuts_max for r in first), "count"),
        "regions.cuts_s": (per_pass("total", "regions.cuts"), "s"),
        "mappings.wmap_s": (per_pass("total", "mappings.wmap"), "s"),
        "mappings.wmap_calls": (per_pass("calls", "mappings.wmap"), "count"),
        "mappings.residuals_s": (per_pass("total", "mappings.residuals"), "s"),
        "geometry.distance_calls": (per_pass("calls", "geometry.distance"), "count"),
        "geometry.distance_s": (per_pass("total", "geometry.distance"), "s"),
        "geometry.combine_calls": (per_pass("calls", "geometry.combine"), "count"),
        "iteration.step_s": (per_pass("total", "iteration.step"), "s"),
        "iteration.self_s": (per_pass("self", "iteration.step"), "s"),
        "mappings.check_cap_s": (per_pass("total", "mappings.check_cap")
                                 + setup_snap["total"].get("mappings.check_cap", 0.0), "s"),
        "cli.build_problem_s": (per_pass("total", "cli.build_problem"), "s"),
        "cli.parse_s": (per_pass("total", "cli.parse"), "s"),
        "cli.emit_s": (per_pass("total", "cli.emit"), "s"),
        "cli.run_s": (per_pass("total", "cli.run"), "s"),
    }
    # Convergence rate: geometric mean over the walks that reached step k of
    # the distance to the target there, and the log-log slope through them.
    points = []
    for k in CHECKPOINTS:
        reached = [r.checkpoints[k] for r in first if k in r.checkpoints]
        d = gmean(reached)
        m[f"iteration.d_at_n{k}"] = (d, "rad")
        if reached:
            points.append((math.log(k), math.log(d)))
    slope = 0.0
    if len(points) >= 2:
        mx = statistics.fmean(p[0] for p in points)
        my = statistics.fmean(p[1] for p in points)
        slope = (sum((x - mx) * (y - my) for x, y in points)
                 / sum((x - mx) ** 2 for x, _ in points))
    m["iteration.rate_slope"] = (slope, "ratio")
    m["failed_frac"] = (failed_frac, "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.absent"] = (len(tracer.absent), "count")
    return m


def import_times(first: float, after_each) -> list[float]:
    """This process's import time plus fresh imports in child processes."""
    out = [first]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], env=os.environ,
                               capture_output=True, text=True, timeout=60, check=True)
        out.append(float(child.stdout))
        after_each()
    return out


def bench(args, import_s: float) -> int:
    import layers
    b = Bench(args.workload)
    speed = Speed()
    speed.sample()
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        b.setup()
        builds.append(time.perf_counter() - t0)
        speed.sample()   # set-up is short: a slice after every build and import
    setup_s = statistics.median(import_times(import_s, speed.sample)) + statistics.median(builds)
    speed.sample()
    setup_factor, setup_slices = speed.factor(), len(speed.slices)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} jobs/pass={len(b.jobs)}")

    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = measure(b.jobs, b.runner(speed), seconds, args.seed)
    speed.sample()
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        traced_speed = Speed()
        try:
            b.setup()
            setup_snap = tracer.snapshot()
            traced_speed.sample()
            run = b.runner(traced_speed, tracer)
            traced = [[run(job, False) for job in b.jobs] for _ in passes]
            traced_speed.sample()
        finally:
            tracer.uninstall()
        # both walls corrected for the machine's speed while they ran
        overhead = (sum(r.wall for p in traced for r in p) * traced_speed.factor()
                    / (sum(r.wall for p in passes for r in p) * speed.factor(setup_slices)))
        passes += traced

    problems = replay_problems(passes)
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failed for p in passes for r in p) + len(problems)
    for r in passes[0]:
        d = " ".join(f"{x:.3e}" for x in r.d_target)
        print(f"job {r.label}: {r.steps} steps, stop={r.stop}, d_target={d}, "
              f"wall={r.wall:.3f}s" + "".join(f"\n  CHECK FAILED: {p}" for p in r.problems))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems and not any(r.problems for p in passes for r in p)
    print(f"passes={len(passes)} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4g} correct={correct}")

    if args.trace:
        metrics = per_layer(tracer, setup_snap, traced, overhead, failed / attempted)
        for name in tracer.absent:
            print(f"trace: {name} absent")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
    else:
        f = speed.factor(setup_slices)
        print(f"speed: set-up factor={setup_factor:.4f} from {setup_slices} reference slices, "
              f"factor={f:.4f} from {len(speed.slices) - setup_slices}; nominal slice "
              f"{REF_SLICE_NOMINAL_S * 1e3:g} ms")
        raw = end_to_end(passes, setup_s)
        metrics = {}
        for name, (value, unit) in raw.items():
            scale = setup_factor if name == "setup_s" else {"ms": f, "1/s": 1 / f}.get(unit, 1.0)
            metrics[name] = (value * scale, unit)
            timed = f" (as timed: {value:.6g})" if scale != 1.0 else ""
            print(f"metric {name} = {value * scale:.6g} {unit}{timed}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def baseline() -> int:
    """The four walks of the ROADMAP Baseline table, 500-step budget."""
    import sphereproj as sp
    import workloads as wl
    steps = {"cq": sp.cq_step, "shrinking": sp.shrink_step}
    for walk in wl.BASELINE:
        problem = walk.case.problem()
        r = wl.run_walk(walk, problem, walk.case.target(problem.x1), steps[walk.method])
        print(f"{walk.label}: {r.steps} steps, stop={r.stop}, d_target={r.d_target[0]:.3e}, "
              f"wall={r.wall:.1f}s, checks={'ok' if not r.problems else r.problems}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
