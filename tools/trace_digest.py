#!/usr/bin/env python3
"""SHA-256 digests over the benchmark panels' iterates and outputs, and over projections.

    python3 tools/trace_digest.py src            # this checkout
    python3 tools/trace_digest.py /path/to/other/src
    python3 tools/trace_digest.py OLD/src NEW/src   # compare two trees

Pins OpenBLAS to one thread, then loads ``sphereproj`` from the given
source directory, with the job panels of ``perfbench/workloads.py`` bound to
it, through ``bench_walks.load_tree`` (read only).  numpy loads with the
tree, after the pin.  The digest covers, in panel order:

* every walk of the three walk workloads, stepped through the library's run
  loop ``iterate`` until its budget, convergence under the library's own
  ``StopRule`` at the benchmark's epsilons, or an error:
  per step, the iterate's bytes and every field of its ``TraceRecord``; per
  walk, how it stopped (an error as ``iterate`` annotates it);
* every ``cli-sweep`` call (``sphereproj compare``): the exit code, the
  printed lines and the bytes of the three files it writes
  (``_cq_trace.csv``, ``_shrinking_trace.csv`` and ``_compare.json``,
  ``CLI_OUTPUTS`` below).  A missing file fails the run.

Four digests are printed.  ``full`` covers all of the above.
``arithmetic`` leaves out solver effort: the ``solver_sweeps`` record field,
the last column of the CLI trace CSVs and the ``total_solver_sweeps`` lines
of ``_compare.json``.  Equal ``arithmetic`` digests for two source trees mean
that their arithmetic agrees bit for bit on these inputs; equal ``full``
digests mean that the solver did the same work as well.

``projections`` covers ``project`` alone, on inputs no benchmark walk
reaches: 4000 calls drawn from a fixed seed, in dimension 3 to 6, with 0 to
6 cuts (some of them nearly parallel pairs), start sets that mix valid and
past-the-end indices, and about a sixth of the calls with the cap binding,
so that the cap's bisection runs.  Per call it hashes the returned point and
every ``SolveStats`` field, or the error raised.  ``projections-arithmetic``
hashes the same calls without ``sweeps``: the point, ``active_cuts``,
``cap_active`` and ``kkt_residual``, or the error.  As ``arithmetic`` is for
the walks, it is the line a change that only saves solver work must keep.
Floats are hashed by their exact hexadecimal form.

``tools/DIGESTS`` holds the four lines of this checkout, with the platform
they were read on; ``tests/test_tools.py`` compares a run on ``src`` with them.

With two source trees, each is digested in its own child process, the two
children run at once, both sets of digests are printed in argument order,
and a last line says ``identical: yes`` or ``identical: no``.  The exit
status is 1 when any digest differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path

WALK_PANELS = ("two-rotation-cq", "two-rotation-shrinking", "single-rotation")
RECORD_FIELDS = ("n", "dist_x1_xn", "step_len", "residuals", "constraint_count")
CSV_SUFFIXES = ("_cq_trace.csv", "_shrinking_trace.csv")
CLI_OUTPUTS = (*CSV_SUFFIXES, "_compare.json")
PROJECTION_CALLS = 4000
PROJECTION_SEED = 20250803


class Digests:
    """The ``full`` digest and the ``arithmetic`` one, fed side by side."""

    def __init__(self):
        self.full = hashlib.sha256()
        self.arithmetic = hashlib.sha256()

    def update(self, data: bytes, arithmetic: bytes | None = None) -> None:
        """Feed data to both digests, or arithmetic to the second instead."""
        self.full.update(data)
        self.arithmetic.update(data if arithmetic is None else arithmetic)


def _field(value) -> bytes:
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, tuple):
        return b"(" + b",".join(_field(v) for v in value) + b")"
    return repr(value).encode()


def walk_digest(h, sp, wl, walk) -> None:
    states = sp.iterate(walk.case.problem(), walk.method)
    rule = sp.StopRule(wl.EPS, wl.EPS)
    h.update(walk.label.encode())
    stop = "budget"
    for _ in range(walk.budget):
        try:
            state = next(states)
        except sp.SphereProjError as e:
            stop = f"{type(e).__name__}: {e}"
            break
        rec = state.trace[-1]
        h.update(state.x_n.coords.tobytes())
        fields = b"|".join(_field(getattr(rec, f)) for f in RECORD_FIELDS)
        h.update(fields + b"|" + _field(rec.solver_sweeps), fields)
        if rule.reason(state) is sp.StopReason.CONVERGED:
            stop = "converged"
            break
    h.update(stop.encode())


def cli_digest(h, sp, inv, tmp: Path, i: int) -> None:
    cfg = tmp / f"{i}.cfg"
    cfg.write_text(inv.case.config_text(), encoding="utf-8")
    prefix = tmp / f"out{i}"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = sp.cli.main(["compare", str(cfg), "--out", str(prefix)])
    h.update(f"{inv.label} exit {rc}\n{sink.getvalue()}".encode())
    for suffix in CLI_OUTPUTS:
        data = Path(f"{prefix}{suffix}").read_bytes()
        h.update(suffix.encode() + data, suffix.encode() + _without_sweeps(suffix, data))


def _without_sweeps(suffix: str, data: bytes) -> bytes:
    """A CLI output with its solver-effort fields dropped."""
    lines = data.split(b"\n")
    if suffix in CSV_SUFFIXES:
        lines = [line.rsplit(b",", 1)[0] for line in lines]
    else:
        lines = [line for line in lines if b'"total_solver_sweeps"' not in line]
    return b"\n".join(lines)


def _unit(v):
    return v / math.sqrt(v.dot(v))


def projection_digest(sp) -> Digests:
    """The ``projections`` digest of PROJECTION_CALLS seeded ``project``
    calls, as ``full``, and its sweeps-free form, as ``arithmetic``.

    Every input is drawn before the call, and the draws never depend on a
    result, so two source trees see the same inputs.  The pole witnesses
    each region: every cut normal is turned to face it.
    """
    import numpy as np   # here, so that main pins BLAS to one thread before it loads

    h = Digests()
    rng = np.random.default_rng(PROJECTION_SEED)
    for _ in range(PROJECTION_CALLS):
        d = int(rng.integers(3, 7))
        pole = _unit(rng.standard_normal(d))
        radius = float(rng.uniform(0.05, 0.75))
        normals = []
        for _ in range(int(rng.integers(0, 7))):
            if normals and rng.random() < 0.3:
                a = normals[-1] + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(d)
            else:
                # a cut whose boundary passes within about 0.3 of the pole
                a = rng.standard_normal(d)
                a -= a.dot(pole) * pole
                a += rng.uniform(0.0, 0.3) * np.sqrt(a.dot(a)) * pole
            normals.append(a if a.dot(pole) >= 0.0 else -a)
        # x at angle t from the pole, along a random tangent direction
        g = rng.standard_normal(d)
        g = _unit(g - g.dot(pole) * pole)
        t = float(rng.uniform(0.0, 1.3 * radius))
        x = np.cos(t) * pole + np.sin(t) * g
        start = tuple(int(i) for i in rng.integers(0, len(normals) + 2,
                                                   int(rng.integers(0, 3))))
        region = sp.Region(sp.Cap(sp.SpherePoint(pole), radius),
                           [sp.SpherePoint(a).coords for a in normals], sp.SpherePoint(pole))
        try:
            z, stats = sp.project(region, sp.SpherePoint(x), start)
        except sp.SphereProjError as e:
            h.update(f"{type(e).__name__}: {e}".encode())
            continue
        point = z.coords.tobytes() + b"|"
        certificate = (_field(stats.active_cuts) + b"|" + _field(stats.cap_active)
                       + b"|" + _field(stats.kkt_residual))
        h.update(point + _field(stats.sweeps) + b"|" + certificate, point + certificate)
    return h


def compare(srcs: list[Path]) -> int:
    """Digest the two trees in two child processes that run at once; 0 when
    all digests agree.  Results are read and printed in argument order."""
    children = [subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(src)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for src in srcs]
    done = [child.communicate() for child in children]
    outputs = []
    for src, child, (stdout, stderr) in zip(srcs, children, done):
        if child.returncode != 0:
            print(f"error: digesting {src} failed:\n{stderr}", file=sys.stderr)
            return 2
        outputs.append(stdout.splitlines())
        print(src)
        for line in outputs[-1]:
            print(f"  {line}")
    identical = outputs[0] == outputs[1]
    print(f"identical: {'yes' if identical else 'no'}")
    return 0 if identical else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="+", type=Path, help="one or two sphereproj source trees")
    args = parser.parse_args(argv)
    srcs = [s.resolve() for s in args.src]
    for src in srcs:
        if not (src / "sphereproj" / "__init__.py").is_file():
            parser.error(f"no sphereproj sources at {src}")
    if len(srcs) > 2:
        parser.error("give one or two source trees")
    if len(srcs) == 2:
        return compare(srcs)
    from bench_walks import _threads_to_one, load_tree   # this script's directory
    _threads_to_one()
    sp, wl = load_tree(srcs[0], "sphereproj")

    h = Digests()
    for name in WALK_PANELS:
        for walk in wl.PANELS[name]:
            walk_digest(h, sp, wl, walk)
    with tempfile.TemporaryDirectory() as tmp:
        for i, inv in enumerate(wl.PANELS["cli-sweep"]):
            cli_digest(h, sp, inv, Path(tmp), i)
    print(f"full {h.full.hexdigest()}")
    print(f"arithmetic {h.arithmetic.hexdigest()}")
    p = projection_digest(sp)
    print(f"projections {p.full.hexdigest()}")
    print(f"projections-arithmetic {p.arithmetic.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
