"""Independent answer generators and inequality checkers for the tests.

None of this is library code: the tests and the acceptance suite call it
to check the library against answers it derives on its own.  The
brute-force grid projection re-derives feasibility and distances from raw
dot products so that it shares no code path with the active-set projection
it validates.  The comparison-inequality gaps and the sine-splitting check
test the inequalities the convergence proofs of the projection methods
rest on.  The per-sample cap check is the library's sampled check as it
was written before it stacked each member's images.  The closed-form
subspace projection stays in `sphereproj.oracle`.
"""

from __future__ import annotations

import math

import numpy as np

from sphereproj.errors import AntipodalPoints, SphereProjError
from sphereproj.geometry import (
    ANTIPODAL_TOL,
    SpherePoint,
    distance,
    geodesic_combine,
    sample_cap,
)
from sphereproj.mappings import CAP_CHECK_SAMPLES, CAP_CHECK_SEED, CAP_CHECK_TOL
from sphereproj.regions import Region


class PerimeterTooLarge(SphereProjError):
    """Triangle perimeter is >= 2*pi, outside the comparison inequality's domain."""


class NoFeasibleGridPoint(SphereProjError):
    """Brute-force projection found no feasible grid point; the region is
    thinner than the grid resolution."""


TWO_PI = 2.0 * math.pi


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


class GeodesicGrid:
    """Points covering a cap on the 2-sphere at a given angular resolution.

    Rings of polar step h around the center, each sampled at azimuthal arc
    step <= h, leave every cap point within h of some grid point (worst case
    about h / sqrt(2)).  Rows of `points` are unit vectors.
    """

    __slots__ = ("center", "rho", "resolution", "points")

    def __init__(self, center: SpherePoint, rho: float, resolution: float):
        if center.dim != 3:
            raise ValueError("geodesic grids are only built on the 2-sphere")
        if not 0.0 < resolution <= rho:
            raise ValueError("need 0 < resolution <= cap radius")
        self.center = center
        self.rho = float(rho)
        self.resolution = float(resolution)
        self.points = _cap_grid(center.coords, rho, resolution)


def _tangent_frame(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal vectors spanning the tangent plane at a unit vector."""
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(c)))] = 1.0
    u = pick - (pick @ c) * c
    u /= np.linalg.norm(u)
    v = np.cross(c, u)
    return u, v


def _ring(a: float, h: float) -> np.ndarray:
    """The ring at polar angle a around e_z, sampled at arc step <= h."""
    m = max(4, int(math.ceil(2.0 * math.pi * math.sin(a) / h)))
    b = 2.0 * math.pi * np.arange(m) / m
    return np.column_stack((math.sin(a) * np.cos(b), math.sin(a) * np.sin(b),
                            np.full(m, math.cos(a))))


# Per resolution h: the center e_z and the rings at polar angles h, 2h, ...
# stacked as unit rows, and the row at which each ring starts.  Every grid
# of resolution h shares them; only the frame and the last ring differ.
_RINGS: dict[float, tuple[np.ndarray, list[int]]] = {}


def _canonical_rings(h: float, count: int) -> np.ndarray:
    """The center and rings 1 .. count - 1 of resolution h around e_z,
    extending the cached stack when it holds fewer rings."""
    rows, starts = _RINGS.get(h, (np.array([[0.0, 0.0, 1.0]]), [0, 1]))
    if len(starts) <= count:
        new = [_ring(k * h, h) for k in range(len(starts) - 1, count)]
        for ring in new:
            starts.append(starts[-1] + len(ring))
        new = np.vstack(new)
        new /= np.linalg.norm(new, axis=1)[:, None]
        rows = np.vstack((rows, new))
        rows.setflags(write=False)
        _RINGS[h] = rows, starts
    return rows[:starts[count]]


def _cap_grid(c: np.ndarray, rho: float, h: float) -> np.ndarray:
    """The center c, the rings at polar angles h, 2h, ... below rho and a
    last ring at exactly rho: the canonical rings turned into the frame
    (u, v, c), then the rho ring.  That ring lies on the cap boundary, so it
    is computed in the frame directly and normalized: turning a canonical
    ring moves its last bits, which flips some of its points across the
    boundary and moved brute-force optima by up to 2.4e-4."""
    u, v = _tangent_frame(c)
    inner = _canonical_rings(h, int(math.ceil(rho / h)))
    m = max(4, int(math.ceil(2.0 * math.pi * math.sin(rho) / h)))
    b = 2.0 * math.pi * np.arange(m) / m
    edge = math.cos(rho) * c + math.sin(rho) * (np.cos(b)[:, None] * u + np.sin(b)[:, None] * v)
    pts = np.empty((len(inner) + m, 3))
    np.matmul(inner, np.array([u, v, c]), out=pts[:len(inner)])
    pts[len(inner):] = edge / np.linalg.norm(edge, axis=1)[:, None]
    return pts


def _feasible_mask(pts: np.ndarray, region: Region) -> np.ndarray:
    mask = pts @ region.cap.pole >= region.cap.cos_r
    for a in region.normals:
        mask &= pts @ a >= 0.0
    return mask


def brute_project(region: Region, x: SpherePoint, h: float = 1e-2) -> SpherePoint:
    """Grid-search metric projection on the 2-sphere, with an exact polish.

    Scans a cap-covering grid at resolution h for the feasible point nearest
    to x, refines once on a local grid at resolution h/100, then polishes by
    enumerating every constraint active set in closed form and keeping the
    best feasible candidate.  The grid performs the global search; the
    polish is needed because a grid argmax only pins the position of a
    smooth constrained optimum to about sqrt(gradient * resolution) along
    flat boundary directions, which is coarser than the 1e-3 comparisons the
    oracle supports.  Everything here is plain linear algebra, sharing no
    machinery with the NNLS-based solver it validates.
    """
    if x.dim != 3:
        raise ValueError("brute_project only runs on the 2-sphere")
    if h > 1e-2:
        raise ValueError("coarse resolution must be <= 1e-2")
    grid = GeodesicGrid(SpherePoint._wrap(region.cap.pole.copy()),
                        region.cap.radius, h)
    mask = _feasible_mask(grid.points, region)
    if not mask.any():
        raise NoFeasibleGridPoint(
            f"no feasible grid point at resolution {h:g}; region thinner than the grid"
        )
    feas = grid.points[mask]
    best = feas[int(np.argmax(feas @ x.coords))]

    local = _cap_grid(best, 2.0 * h, h / 100.0)
    mask = _feasible_mask(local, region)
    cand = np.vstack([local[mask], best[None, :]])
    best = cand[int(np.argmax(cand @ x.coords))]

    for z in _active_set_candidates(region, x):
        if float(z @ x.coords) > float(best @ x.coords):
            best = z
    return SpherePoint(best)


def _null_basis(rows: np.ndarray, dim: int) -> np.ndarray:
    if rows.size == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-12))
    return vt[rank:].T


def _active_set_candidates(region: Region, x: SpherePoint):
    """Stationary points of <x, .> on the unit sphere for every combination
    of tight constraints (each cut as an equality, cap boundary or not)."""
    cuts = region.normals
    if len(cuts) > 12:
        return
    p = region.cap.pole
    beta = region.cap.cos_r
    out = []
    for mask in range(1 << len(cuts)):
        rows = np.array([cuts[i] for i in range(len(cuts)) if mask >> i & 1])
        v = _null_basis(rows, x.dim)
        if v.shape[1] == 0:
            continue
        c = v.T @ x.coords
        # cap inactive: maximize <x, z> on the sphere of the cut subspace
        nc = float(np.linalg.norm(c))
        if nc > 1e-12:
            out.append(v @ (c / nc))
        # cap boundary active: additionally require <p, z> = cos(radius)
        b = v.T @ p
        bb = float(b @ b)
        if bb <= beta * beta or bb <= 1e-24:
            continue
        y_par = (beta / bb) * b
        rem = 1.0 - beta * beta / bb
        c_perp = c - (float(c @ b) / bb) * b
        ncp = float(np.linalg.norm(c_perp))
        if ncp > 1e-12:
            out.append(v @ (y_par + math.sqrt(rem) * (c_perp / ncp)))
        else:
            out.append(v @ y_par / float(np.linalg.norm(v @ y_par)))
    for z in out:
        z = z / float(np.linalg.norm(z))
        slack = float(z @ p) - beta
        if slack < -1e-10:
            continue
        if all(float(z @ a) >= -1e-10 for a in cuts):
            yield z


def sin_lemma_check(delta_grid, alpha: float) -> bool:
    """Check strict concavity splitting of sin on a grid of angles.

    Returns True iff sin(delta) < sin(alpha*delta) + sin((1-alpha)*delta)
    for every delta in the grid.  Strictness for delta in (0, pi/2] is what
    forces vanishing displacement limits to be exactly zero.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("empty grid")
    if deltas.min() <= 0.0 or deltas.max() > math.pi / 2:
        raise ValueError("grid values must lie in (0, pi/2]")
    lhs = np.sin(deltas)
    rhs = np.sin(alpha * deltas) + np.sin((1.0 - alpha) * deltas)
    return bool(np.all(lhs < rhs))


def check_preserves_cap_loop(family, pole: SpherePoint, radius: float) -> None:
    """`MappingFamily.check_preserves_cap` one sample at a time: the same
    samples, each wrapped afresh for each member and measured from the pole
    with its own `distance` call, raising on the first image past the cap
    with the same message."""
    rng = np.random.default_rng(CAP_CHECK_SEED)
    pts = sample_cap(pole.coords, radius, CAP_CHECK_SAMPLES, rng)
    for T in family.maps:
        for row in pts:
            img = T.apply(SpherePoint._wrap(row.copy()))
            if distance(img, pole) > radius + CAP_CHECK_TOL:
                raise ValueError(
                    f"{T!r} maps a cap point {distance(img, pole) - radius:.3e} "
                    "outside the cap"
                )
