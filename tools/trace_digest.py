#!/usr/bin/env python3
"""One SHA-256 over every iterate and output the benchmark panels produce.

    python3 tools/trace_digest.py src            # this checkout
    python3 tools/trace_digest.py /path/to/other/src

Imports ``sphereproj`` from the given source directory and the job panels
from ``perfbench/workloads.py`` next to this directory (read only).  The
digest covers, in panel order:

* every walk of the three walk workloads, stepped through ``initial_state``
  and ``cq_step`` / ``shrink_step`` until its budget, the benchmark's stop
  rule or an error: per step, the iterate's bytes and every field of its
  ``TraceRecord``; per walk, how it stopped;
* every ``cli-sweep`` call (``sphereproj compare``): the exit code, the
  printed lines and the bytes of its five output files.

Equal digests for two source trees mean that their arithmetic agrees bit for
bit on these inputs.  Floats are hashed by their exact hexadecimal form.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALK_PANELS = ("two-rotation-cq", "two-rotation-shrinking", "single-rotation")


def _field(value) -> bytes:
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, tuple):
        return b"(" + b",".join(_field(v) for v in value) + b")"
    return repr(value).encode()


def walk_digest(h, sp, wl, walk) -> None:
    problem = walk.case.problem()
    step = {"cq": sp.cq_step, "shrinking": sp.shrink_step}[walk.method]
    state = sp.initial_state(problem)
    h.update(walk.label.encode())
    stop = "budget"
    for _ in range(walk.budget):
        try:
            state = step(problem, state)
        except sp.SphereProjError as e:
            stop = f"{type(e).__name__}: {e}"
            break
        rec = state.trace[-1]
        h.update(state.x_n.coords.tobytes())
        h.update(b"|".join(_field(getattr(rec, f)) for f in
                           ("n", "dist_x1_xn", "step_len", "residuals",
                            "constraint_count", "solver_sweeps")))
        if wl._stop_met(problem, state):
            stop = "converged"
            break
    h.update(stop.encode())


def cli_digest(h, wl, inv, tmp: Path, i: int) -> None:
    from sphereproj import cli
    cfg = tmp / f"{i}.cfg"
    cfg.write_text(inv.case.config_text(), encoding="utf-8")
    prefix = tmp / f"out{i}"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(["compare", str(cfg), "--out", str(prefix)])
    h.update(f"{inv.label} exit {rc}\n{sink.getvalue()}".encode())
    for suffix in wl.CLI_OUTPUTS:
        path = Path(f"{prefix}{suffix}")
        h.update(suffix.encode() + (path.read_bytes() if path.is_file() else b"<missing>"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: trace_digest.py <src-dir>", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "sphereproj" / "__init__.py").is_file():
        print(f"error: no sphereproj sources at {src}", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import sphereproj as sp
    import workloads as wl

    h = hashlib.sha256()
    for name in WALK_PANELS:
        for walk in wl.PANELS[name]:
            walk_digest(h, sp, wl, walk)
    with tempfile.TemporaryDirectory() as tmp:
        for i, inv in enumerate(wl.PANELS["cli-sweep"]):
            cli_digest(h, wl, inv, Path(tmp), i)
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
