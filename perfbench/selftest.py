#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: corrupted results must count
as failed, intact ones must pass.

    python3 perfbench/selftest.py

Exits 0 when every corruption below is caught and the intact runs pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import sphereproj as sp  # noqa: E402
import workloads as wl  # noqa: E402

WORK = run.WORK / "selftest"


def walk_cases():
    walk = wl.Walk(wl.Case("two-rotation", 4, wl.ANCHOR0), "cq", 20)
    problem = walk.case.problem()
    target = walk.case.target(problem.x1)
    yield "intact walk", False, wl.run_walk(walk, problem, target, sp.cq_step)

    def corrupt_after(n, corrupt):
        """A step function that corrupts the state it returns at step n."""
        def step(problem, state):
            state = sp.cq_step(problem, state)
            return corrupt(state) if state.n - 1 == n else state
        return step

    def outside(state):   # last iterate moved out of its region
        far = sp.SpherePoint(-problem.cap_pole.coords)
        return sp.IterationState(state.n, far, state.y_n, state.region, state.trace)

    def shuffled(state):  # trace records out of order: the Fejer audit fails
        return sp.IterationState(state.n, state.x_n, state.y_n, state.region, state.trace[::-1])

    def cut_off(state):   # a region whose cut excludes the fixed point
        bad = sp.Halfspace(state.x_n.coords - target.coords)
        region = sp.Region(state.region.cap, (*state.region.linear, bad), state.x_n)
        return sp.IterationState(state.n, state.x_n, state.y_n, region, state.trace)

    for name, corrupt in (("iterate outside region", outside), ("trace out of order", shuffled),
                          ("cut excludes fixed point", cut_off)):
        yield name, True, wl.run_walk(walk, problem, target, corrupt_after(walk.budget, corrupt))
    # a wrong answer for the target: the walk ends farther from the anchor than it
    yield "target nearer than iterate", True, wl.run_walk(walk, problem, problem.x1, sp.cq_step)


def cli_cases():
    inv = wl.Invocation(wl.Case("two-rotation", 4, wl.ANCHOR0), byte_check=True)
    problem = inv.case.problem()
    target = inv.case.target(problem.x1)
    cfg = WORK / "case.cfg"
    cfg.write_text(inv.case.config_text(), encoding="utf-8")

    def edited(edit):
        def call(cfg, prefix):
            rc = wl.call_cli(cfg, prefix)
            edit(Path(str(prefix)))
            return rc
        return call

    def shift_distance(prefix):
        path = Path(f"{prefix}_compare.json")
        payload = json.loads(path.read_text())
        payload["cq"]["dist_to_known_PF"] += 1e-3
        path.write_text(json.dumps(payload))

    def drop_row(prefix):
        path = Path(f"{prefix}_shrinking_trace.csv")
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    def nondeterministic(prefix):
        if prefix.name.endswith("-again"):
            with open(f"{prefix}_cq_trace.csv", "a") as fh:
                fh.write("\n")

    yield "intact invocation", False, wl.run_invocation(inv, cfg, WORK / "ok", target, True)
    for name, edit in (("distance to fixed point altered", shift_distance),
                       ("trace row missing", drop_row),
                       ("repeat call differs", nondeterministic)):
        yield name, True, wl.run_invocation(inv, cfg, WORK / name.replace(" ", "-"), target, True,
                                            call=edited(edit))
    yield "exit code 1", True, wl.run_invocation(inv, cfg, WORK / "rc", target, True,
                                                 call=lambda cfg, prefix: 1)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    ok = True
    try:
        for name, corrupted, result in (*walk_cases(), *cli_cases()):
            caught = result.failed == corrupted
            ok = ok and caught
            print(f"{'ok  ' if caught else 'MISS'} {name}: failed={result.failed} "
                  f"{result.problems or result.stop}")
        a = wl.Result("job", 1.0, 1, [1.0], "budget", False, [], [1.0], [1.0], b"a")
        b = wl.Result("job", 1.0, 1, [1.0], "budget", False, [], [1.0], [1.0], b"b")
        caught = bool(run.replay_problems([[a], [b]]))
        ok = ok and caught
        print(f"{'ok  ' if caught else 'MISS'} replay with different outputs")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
