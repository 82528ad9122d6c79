"""Nonexpansive mappings of the sphere and their staged geodesic averaging.

The certified zoo consists of linear isometries: plane rotations, products
of plane rotations, and the identity.  For these, nonexpansiveness is exact,
fixed-point sets are null spaces, read from apply on the axes the maps move
(every other axis is fixed as it stands), and invariance of a cap follows
whenever the cap pole is fixed.  apply is the only description of a map,
and is_linear is the one certification marker: a family admits only
members that carry it, so every problem has a known common fixed set.

A family (T_1..T_r, alpha_1..alpha_r) combines into a single self-mapping by
the staged recursion

    u_0 = x,   u_k = alpha_k T_k(u_{k-1}) (+) (1 - alpha_k) x,

where (+) is the geodesic combination and the second argument is always the
original point x.  The final stage u_r is the W-mapping of the family; its
fixed points are exactly the common fixed points of the T_i.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .geometry import SpherePoint, basis_point, distance, geodesic_combine, sample_cap

# Row remainders below this (relative) threshold count as zero when
# extracting fixed subspaces.
NULLSPACE_TOL = 1e-10

# The sampled cap check: how many cap points, from which generator seed, and
# how far past the cap boundary an image may land.
CAP_CHECK_SAMPLES = 1000
CAP_CHECK_SEED = 0
CAP_CHECK_TOL = 1e-9


class Identity:
    """The identity mapping."""

    is_linear = True

    def apply(self, x: SpherePoint) -> SpherePoint:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class PlaneRotation:
    """Rotation of the (axis_i, axis_j) coordinate plane by a fixed angle.

    Indices are 0-based with axis_i < axis_j; all other coordinates are
    fixed.  Plane rotations are isometries of the sphere, hence nonexpansive
    with equality.
    """

    is_linear = True

    __slots__ = ("axis_i", "axis_j", "angle", "_cos", "_sin")

    def __init__(self, axis_i: int, axis_j: int, angle: float):
        if not 0 <= axis_i < axis_j:
            raise ValueError("need 0 <= axis_i < axis_j")
        if not -math.pi < angle <= math.pi:
            raise ValueError(f"rotation angle must be in (-pi, pi], got {angle}")
        self.axis_i = axis_i
        self.axis_j = axis_j
        self.angle = float(angle)
        self._cos = math.cos(angle)
        self._sin = math.sin(angle)

    def apply(self, x: SpherePoint) -> SpherePoint:
        if x.dim <= self.axis_j:
            raise ValueError(
                f"rotation plane ({self.axis_i},{self.axis_j}) needs dim > {self.axis_j}"
            )
        v = x.coords.copy()
        vi = v.item(self.axis_i)
        vj = v.item(self.axis_j)
        v[self.axis_i] = self._cos * vi - self._sin * vj
        v[self.axis_j] = self._sin * vi + self._cos * vj
        return SpherePoint._wrap(v)

    def __repr__(self) -> str:
        return f"PlaneRotation({self.axis_i}, {self.axis_j}, {self.angle})"


class RotationProduct:
    """Composition of plane rotations, applied first-to-last."""

    is_linear = True

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[PlaneRotation]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a rotation product needs at least one factor")
        if not all(isinstance(f, PlaneRotation) for f in factors):
            raise TypeError("rotation product factors must be plane rotations")
        self.factors = factors

    def apply(self, x: SpherePoint) -> SpherePoint:
        for f in self.factors:
            x = f.apply(x)
        return x

    def __repr__(self) -> str:
        return f"RotationProduct({list(self.factors)})"


def common_fixed_basis(maps: Sequence, dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the intersection of fixed subspaces.

    Only defined for linear maps (TypeError otherwise), and each is read
    only through apply: row j of its moves is T(e_j) - e_j, built one axis
    at a time and kept only where it is nonzero.  An axis that no map moves
    is fixed as it stands and enters the basis unchanged, in index order;
    the null space of the stacked moves, taken on the moved axes alone,
    follows.
    """
    for T in maps:
        if not getattr(T, "is_linear", False):
            raise TypeError(f"{T!r} is not linear; cannot derive a fixed basis")
    moves = [{} for _ in maps]
    for j in range(dim):
        axis = basis_point(j, dim)
        for T, rows in zip(maps, moves):
            row = T.apply(axis).coords - axis.coords
            if row.any():
                rows[j] = row
    moved = set().union(*moves)
    if not moved:
        return np.eye(dim)
    still = [j for j in range(dim) if j not in moved]
    shifted = sorted(moved)
    zero = np.zeros(dim)
    null = _null_space(np.vstack([np.array([rows.get(j, zero) for j in shifted]).T
                                  for rows in moves]))
    basis = np.zeros((dim, len(still) + null.shape[1]))
    basis[still, np.arange(len(still))] = 1.0
    basis[shifted, len(still):] = null
    return basis


def nearest_fixed_point(basis: np.ndarray, x: SpherePoint) -> SpherePoint | None:
    """Metric projection of x onto the unit sphere of a fixed subspace.

    Returns None when x is (numerically) orthogonal to the subspace, in
    which case no nearest point is defined.
    """
    if basis.shape[1] == 0:
        return None
    comp = basis @ (basis.T @ x.coords)
    n = float(np.linalg.norm(comp))
    if n <= 1e-9:
        return None
    return SpherePoint._wrap(comp / n)


def _null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of m.

    Pivoted Gram-Schmidt (QR with column pivoting on m^T) spans the row
    space, stopping once no remaining row exceeds NULLSPACE_TOL times the
    largest row norm; the coordinate axes, with that span projected out,
    complete it the same way.  Plain numpy rather than an SVD: the
    matrices have one column per moved axis, and keeping LAPACK unloaded
    saves about 1 MB of resident memory in every process that builds a
    Problem.
    """
    dim = m.shape[1]
    scale = max(1.0, float(np.sqrt((m * m).sum(axis=1)).max(initial=0.0)))
    rows = _pivoted_basis(m, np.empty((0, dim)), NULLSPACE_TOL * scale, dim)
    return _pivoted_basis(np.eye(dim), rows, 0.0, dim - len(rows)).T


def _pivoted_basis(vectors: np.ndarray, fixed: np.ndarray, cut: float,
                   limit: int) -> np.ndarray:
    """Orthonormal rows spanning `vectors` modulo the orthonormal rows of
    `fixed`: repeatedly take the largest remainder, until `limit` rows or
    no remainder above `cut`.  Every projection is applied twice, which
    keeps the rows orthogonal to working precision."""
    rest = np.array(vectors, dtype=float)
    out = []
    for _ in range(2):
        rest -= (rest @ fixed.T) @ fixed
    while len(out) < limit and len(rest):
        norms = np.sqrt((rest * rest).sum(axis=1))
        i = int(np.argmax(norms))
        if norms[i] <= cut:
            break
        q = rest[i] / norms[i]
        for _ in range(2):
            rest -= np.outer(rest @ q, q)
        out.append(q)
    return np.array(out).reshape(len(out), rest.shape[1])


class MappingFamily:
    """An ordered family of self-mappings with stage weights.

    alphas holds the base weight row (each in the open interval (0, 1), so
    some margin [a, 1-a] with 0 < a < 1/2 contains them all); an optional
    schedule callback supplies a per-iteration row and is validated on use.
    Every member must be a certified isometry (is_linear set; ValueError
    otherwise).
    """

    __slots__ = ("maps", "alphas", "schedule")

    def __init__(self, maps: Sequence, alphas: Sequence[float] | None = None,
                 schedule: Callable[[int], Sequence[float]] | None = None):
        maps = tuple(maps)
        if not maps:
            raise ValueError("a mapping family needs at least one mapping")
        for T in maps:
            if not getattr(T, "is_linear", False):
                raise ValueError(f"{T!r} is not a certified isometry")
        if alphas is None:
            alphas = (0.5,) * len(maps)
        alphas = self._check_row(tuple(float(a) for a in alphas), len(maps))
        self.maps = maps
        self.alphas = alphas
        self.schedule = schedule

    @staticmethod
    def _check_row(row: tuple[float, ...], r: int) -> tuple[float, ...]:
        if len(row) != r:
            raise ValueError(f"expected {r} stage weights, got {len(row)}")
        for a in row:
            if not 0.0 < a < 1.0:
                raise ValueError(f"stage weights must lie strictly in (0, 1), got {a}")
        return row

    @property
    def r(self) -> int:
        return len(self.maps)

    def alphas_at(self, n: int) -> tuple[float, ...]:
        """Weight row for iteration n (the base row unless a schedule is set)."""
        if self.schedule is None:
            return self.alphas
        return self._check_row(tuple(float(a) for a in self.schedule(n)), self.r)

    def check_preserves_cap(self, pole: SpherePoint, radius: float) -> None:
        """Sampled check that every member maps the cap into itself."""
        rng = np.random.default_rng(CAP_CHECK_SEED)
        pts = sample_cap(pole.coords, radius, CAP_CHECK_SAMPLES, rng)
        for T in self.maps:
            for row in pts:
                img = T.apply(SpherePoint._wrap(row.copy()))
                if distance(img, pole) > radius + CAP_CHECK_TOL:
                    raise ValueError(
                        f"{T!r} maps a cap point {distance(img, pole) - radius:.3e} "
                        "outside the cap"
                    )

    def __repr__(self) -> str:
        return f"MappingFamily(r={self.r}, alphas={self.alphas})"


class WMapping:
    """Staged geodesic averaging of a mapping family (the W-mapping)."""

    __slots__ = ("family",)

    def __init__(self, family: MappingFamily):
        self.family = family

    def stages(self, x: SpherePoint, n: int = 1) -> tuple[SpherePoint, ...]:
        """All stage outputs u_1..u_r at iteration n (u_r is the W value)."""
        alphas = self.family.alphas_at(n)
        out = []
        u = x
        for T, a in zip(self.family.maps, alphas):
            u = geodesic_combine(a, T.apply(u), x)
            out.append(u)
        return tuple(out)

    def apply(self, x: SpherePoint, n: int = 1,
              images: Sequence[SpherePoint] | None = None) -> SpherePoint:
        """u_r at iteration n, the W value.  `images`, when given, holds
        T_i x for each member in order (as `residuals` takes them); the
        first stage reads T_1 x from it instead of applying T_1 again."""
        maps = self.family.maps
        alphas = self.family.alphas_at(n)
        u = geodesic_combine(alphas[0], maps[0].apply(x) if images is None else images[0], x)
        for T, a in zip(maps[1:], alphas[1:]):
            u = geodesic_combine(a, T.apply(u), x)
        return u

    def __repr__(self) -> str:
        return f"WMapping({self.family!r})"


def residuals(family: MappingFamily, x: SpherePoint,
              images: Sequence[SpherePoint] | None = None) -> np.ndarray:
    """Displacements d(T_i x, x) for each family member, in order.

    `images` holds the T_i x when the caller has them already; otherwise
    they are computed here."""
    if images is None:
        images = [T.apply(x) for T in family.maps]
    return np.array([distance(img, x) for img in images])
