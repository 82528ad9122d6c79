"""Spherical geometry kernel.

The unit sphere of d-dimensional space carries the metric
d(x, y) = arccos<x, y>.  This module provides the metric, the geodesic
combination (spherical linear interpolation written as a weighted
combination), the comparison inequality used by the convergence proofs of
the projection methods, and seeded sampling inside spherical caps.

All functions are pure and operate on immutable values; inner products are
clamped to [-1, 1] before any arccos and results of combinations are
renormalized, so repeated application over thousands of iterations does not
drift off the sphere.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import AntipodalPoints, PerimeterTooLarge

# Inner products this close to -1 are treated as antipodal.  Iterations keep
# all points inside a cap of radius < pi/4, so antipodality signals caller
# error rather than a legitimate configuration.
ANTIPODAL_TOL = 1e-12

TWO_PI = 2.0 * math.pi


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

    @classmethod
    def _wrap(cls, unit_coords: np.ndarray) -> "SpherePoint":
        """Wrap an already-unit vector without re-validating (internal)."""
        p = object.__new__(cls)
        unit_coords.setflags(write=False)
        p.coords = unit_coords
        return p

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
    v = (math.sin(alpha * theta) * x.coords + math.sin((1.0 - alpha) * theta) * y.coords) / s
    v /= math.sqrt(v.dot(v))
    return SpherePoint._wrap(v)


def pal_inequality_gap(t: float, x: SpherePoint, y: SpherePoint, z: SpherePoint) -> float:
    """Left minus right side of the spherical comparison inequality

        cos d(v,z) sin d(x,y) >= cos d(x,z) sin(t d(x,y)) + cos d(y,z) sin((1-t) d(x,y))

    where v is the geodesic combination of x and y with weight t on x.  The
    inequality holds whenever the triangle perimeter is below 2*pi, so the
    returned gap is nonnegative (up to rounding) on every valid input.
    """
    dxy = distance(x, y)
    dyz = distance(y, z)
    dzx = distance(z, x)
    if dxy + dyz + dzx >= TWO_PI:
        raise PerimeterTooLarge(
            f"triangle perimeter {dxy + dyz + dzx:.6f} is not below 2*pi"
        )
    v = geodesic_combine(t, x, y)
    lhs = math.cos(distance(v, z)) * math.sin(dxy)
    rhs = math.cos(dzx) * math.sin(t * dxy) + math.cos(dyz) * math.sin((1.0 - t) * dxy)
    return lhs - rhs


def pal_inequality_gaps(t, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized comparison-inequality gaps for row-stacked unit vectors.

    Same formula as pal_inequality_gap, one gap per row; used for large
    sweeps where per-call overhead would dominate.  Rows with coincident x
    and y use the continuous extension v = x.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    ixy = np.clip(np.einsum("ij,ij->i", x, y), -1.0, 1.0)
    if np.any(ixy <= -1.0 + ANTIPODAL_TOL):
        raise AntipodalPoints("no unique geodesic between antipodal points")
    dxy = np.arccos(ixy)
    dyz = np.arccos(np.clip(np.einsum("ij,ij->i", y, z), -1.0, 1.0))
    dzx = np.arccos(np.clip(np.einsum("ij,ij->i", z, x), -1.0, 1.0))
    if np.any(dxy + dyz + dzx >= TWO_PI):
        raise PerimeterTooLarge("a triangle perimeter is not below 2*pi")

    s = np.sin(dxy)
    safe = s > 0.0
    denom = np.where(safe, s, 1.0)
    v = (np.sin(t * dxy)[:, None] * x + np.sin((1.0 - t) * dxy)[:, None] * y)
    v = np.where(safe[:, None], v / denom[:, None], x)
    v /= np.linalg.norm(v, axis=1)[:, None]
    dvz = np.arccos(np.clip(np.einsum("ij,ij->i", v, z), -1.0, 1.0))
    return (np.cos(dvz) * np.sin(dxy)
            - np.cos(dzx) * np.sin(t * dxy)
            - np.cos(dyz) * np.sin((1.0 - t) * dxy))


def sample_cap(center: np.ndarray, rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points of the closed cap of radius rho around a unit vector.

    Returns an (n, d) array of unit rows.  The polar angle is uniform on
    [0, rho); the tangent direction is an isotropic Gaussian draw.  Only used
    for test-data generation, so the exact distribution is unimportant as
    long as it is supported on the cap and deterministic per generator state.
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
