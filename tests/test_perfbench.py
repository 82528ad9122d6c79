"""The benchmark's self-test must keep passing against this checkout's
library: it builds states, regions and cuts through the public API, so a
library change that breaks what it reads shows here first.  So must the
per-layer tracer's list of the library names it wraps."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest(tmp_path):
    # A copy of perfbench/ next to a link to src/, so that its work
    # directory lands under tmp_path and not in the checkout.
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "selftest.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout


# Traced names that the library does not define; the benchmark counts them
# in trace.absent.
# The cap's slack is `Cap.slack`, and `Halfspace` is a function that returns
# a cut's unit row, with no `slack`, so the counted regions.slack_calls
# reads 0; no per-layer metric has a bound.
# The W-map is `MappingFamily.apply`, so mappings.wmap reads 0 and its
# stages count under geometry.combine.
# The step path appends its cuts with `regions._append`, so the walks'
# regions.region reads 0; `intersect` checks outside cuts only.
ABSENT_TRACED = ["sphereproj.iteration.intersect", "sphereproj.iteration.contains",
                 "sphereproj.mappings.WMapping.apply", "sphereproj.iteration.geodesic_combine",
                 "sphereproj.regions.Halfspace.slack"]


def test_traced_names_present():
    # A library name the per-layer tracer wraps that disappears would zero
    # its metric silently; so the absent list is pinned.  The child imports
    # perfbench/layers.py in place, writing no bytecode there.
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; import layers; "
            "t = layers.Tracer(); t.install(); t.uninstall(); print(json.dumps(t.absent))")
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ABSENT_TRACED
