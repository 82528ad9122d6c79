"""The closed-form nearest-fixed-point oracle, kept for the benchmark.

Nothing here is called from the algorithm modules.  The tests' other
reference code lives in `tests/reference.py`; `subspace_project` alone stays
in the package because `perfbench/workloads.py` imports it to get each
walk's target independently of `Problem.target`, until the benchmark stops
importing it (ROADMAP item 4a).  The tests compare `Problem.target` with it
bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput
from .geometry import SpherePoint


def subspace_project(x: SpherePoint, basis: np.ndarray) -> SpherePoint:
    """Metric projection onto the unit sphere of a subspace (orthonormal
    columns): its renormalized component, the closed-form nearest-fixed-
    point oracle for linear maps.  For columns e_i, e_j it zeroes every
    other coordinate: the projection onto a great circle."""
    comp = basis @ (basis.T @ x.coords)
    n = float(np.linalg.norm(comp))
    if n <= 1e-12:
        raise DegenerateInput("point is orthogonal to the subspace")
    return SpherePoint._wrap(comp / n)
