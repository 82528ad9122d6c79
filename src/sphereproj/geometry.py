"""Spherical geometry kernel.

The unit sphere of d-dimensional space carries the metric
d(x, y) = arccos<x, y>.  This module provides the metric, the geodesic
combination (spherical linear interpolation written as a weighted
combination) and seeded sampling inside spherical caps.

All functions are pure and operate on immutable values; inner products are
clamped to [-1, 1] before any arccos and results of combinations are
renormalized, so repeated application over thousands of iterations does not
drift off the sphere.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import AntipodalPoints

# Inner products this close to -1 are treated as antipodal.  Iterations keep
# all points inside a cap of radius < pi/4, so antipodality signals caller
# error rather than a legitimate configuration.
ANTIPODAL_TOL = 1e-12

# Builds a point without running __init__ (see SpherePoint._wrap).
_new = object.__new__


class SpherePoint:
    """A unit vector in d-dimensional space (d >= 2).

    The constructor accepts any finite nonzero vector and renormalizes it;
    the stored coordinate array is read-only.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        v = np.array(coords, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a sphere point needs a 1-d coordinate vector with d >= 2")
        if not np.isfinite(v).all():
            raise ValueError("sphere point coordinates must be finite")
        n = float(np.linalg.norm(v))
        if n <= 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector onto the sphere")
        v /= n
        v.setflags(write=False)
        self.coords = v

    @staticmethod
    def _wrap(unit_coords: np.ndarray) -> "SpherePoint":
        """Wrap an already-unit vector without re-validating (internal).

        The array itself becomes the point's coords, marked read-only with
        one `setflags` call; nothing is copied or checked.  A static method
        building through the module's `_new`, so a call looks up no class
        and binds none."""
        p = _new(SpherePoint)
        unit_coords.setflags(write=False)
        p.coords = unit_coords
        return p

    @staticmethod
    def _rows(stack: np.ndarray) -> list["SpherePoint"]:
        """One point per row of a stack of already-unit rows (internal).

        The stack is marked read-only once, so every row, a view into it,
        is read-only too: no row is copied, checked or flagged on its own."""
        stack.setflags(write=False)
        points = []
        for row in stack:
            p = _new(SpherePoint)
            p.coords = row
            points.append(p)
        return points

    @property
    def dim(self) -> int:
        return self.coords.size

    def __repr__(self) -> str:
        return f"SpherePoint({np.array2string(self.coords, precision=6)})"


def basis_point(axis: int, dim: int) -> SpherePoint:
    """The standard basis vector e_axis as a sphere point, checked as any
    is; the 0-based axis is an integer (a float raises TypeError)."""
    axis = operator.index(axis)
    if not 0 <= axis < dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    v = np.zeros(dim)
    v[axis] = 1.0
    return SpherePoint(v)


def inner(x: SpherePoint, y: SpherePoint) -> float:
    """Ambient inner product, clamped to [-1, 1] so arccos never sees a
    rounding excursion past the ends."""
    c = float(x.coords.dot(y.coords))
    if c > 1.0:
        return 1.0
    if c < -1.0:
        return -1.0
    return c


def distance(x: SpherePoint, y: SpherePoint) -> float:
    """Geodesic distance arccos<x, y>, in [0, pi]."""
    return math.acos(inner(x, y))


def geodesic_combine(alpha: float, x: SpherePoint, y: SpherePoint) -> SpherePoint:
    """The point z on the geodesic [x, y] with d(y, z) = alpha * d(x, y).

    With theta = d(x, y) > 0 the result is
    (sin(alpha*theta) * x + sin((1-alpha)*theta) * y) / sin(theta),
    renormalized.  The endpoints are returned exactly, and coincident inputs
    return x (the unique continuous extension).

    Raises AntipodalPoints when x and y are (numerically) antipodal, in which
    case no unique geodesic exists.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 1.0:
        return x
    if alpha == 0.0:
        return y
    c = float(x.coords.dot(y.coords))
    if c <= -1.0 + ANTIPODAL_TOL:
        raise AntipodalPoints("no unique geodesic between antipodal points")
    if c >= 1.0:
        return x
    theta = math.acos(c)
    s = math.sin(theta)
    v = math.sin(alpha * theta) * x.coords
    v += math.sin((1.0 - alpha) * theta) * y.coords
    v /= s
    v /= math.sqrt(v.dot(v))
    return SpherePoint._wrap(v)


def sample_cap(center: np.ndarray, rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points of the closed cap of radius rho around a unit vector.

    Returns an (n, d) array of unit rows.  The polar angle is uniform on
    [0, rho); the tangent direction is an isotropic Gaussian draw.  The exact
    draws matter: every seeded anchor (`random_point_in_cap`: the CLI's, the
    benchmark's, the acceptance suite's) comes from here, so they fix the
    CLI output bytes and the pinned digests.  `check_preserves_cap`'s
    samples come from here too, but they only decide whether a build
    passes or raises: they fix no output byte.
    """
    d = center.size
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ center, center)
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms <= 1e-12):
        bad = norms <= 1e-12
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        g[bad] -= np.outer(g[bad] @ center, center)
        norms = np.linalg.norm(g, axis=1)
    g /= norms[:, None]
    a = rho * rng.random(n)
    pts = np.cos(a)[:, None] * center + np.sin(a)[:, None] * g
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts


def random_point_in_cap(center: SpherePoint, rho: float, seed: int) -> SpherePoint:
    """Deterministic seeded sample at distance <= rho from center."""
    if not 0.0 < rho < math.pi / 2:
        raise ValueError(f"cap radius must be in (0, pi/2), got {rho}")
    rng = np.random.default_rng(seed)
    return SpherePoint._wrap(sample_cap(center.coords, rho, 1, rng)[0])
