"""Nonexpansive mappings of the sphere and their staged geodesic averaging.

The certified zoo is closed: coordinate-plane rotations and the identity.
These are linear isometries, so nonexpansiveness is exact, each one fixes
exactly the axes outside its plane, and invariance of a cap follows
whenever the cap pole is fixed.  The common fixed set of a family is
therefore the span of the axes that no member moves, read from apply on
the two axes of each rotation's plane and held as a mask (`fixed_axes`),
and the family fixes the pole exactly when the pole has no coordinate off
those axes (`Problem` checks it).
apply is the only description of a map; a family admits only members of
the zoo, so every problem has a known common fixed set.

A family (T_1..T_r, alpha_1..alpha_r) combines into a single self-mapping by
the staged recursion

    u_0 = x,   u_k = alpha_k T_k(u_{k-1}) (+) (1 - alpha_k) x,

where (+) is the geodesic combination and the second argument is always the
original point x.  The final stage u_r is the W-mapping of the family,
evaluated by `MappingFamily.apply` as a map's value is by its own apply;
its fixed points are exactly the common fixed points of the T_i.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .geometry import SpherePoint, basis_point, distance, geodesic_combine, sample_cap

# The cap check: how many cap points are sampled, from which generator seed,
# and how far a sampled image may land past the cap.
CAP_CHECK_SAMPLES = 1000
CAP_CHECK_SEED = 0
CAP_CHECK_TOL = 1e-9


class Identity:
    """The identity mapping."""

    def apply(self, x: SpherePoint) -> SpherePoint:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class PlaneRotation:
    """Rotation of the (axis_i, axis_j) coordinate plane by a fixed angle.

    Indices are 0-based integers with axis_i < axis_j (a float raises
    TypeError; numpy integers and bools become int); all other coordinates
    are fixed.  Plane rotations are isometries of the sphere, hence
    nonexpansive with equality.
    """

    __slots__ = ("axis_i", "axis_j", "angle", "_cos", "_sin")

    def __init__(self, axis_i: int, axis_j: int, angle: float):
        axis_i, axis_j = operator.index(axis_i), operator.index(axis_j)
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
        """The rotated point, on a copy of x's coords.  A point too short
        for the plane raises ValueError from the read of its coordinates:
        the IndexError of the index past its end, turned into the plane's
        message."""
        i, j = self.axis_i, self.axis_j
        v = x.coords.copy()
        try:
            vi = v.item(i)
            vj = v.item(j)
        except IndexError:
            raise ValueError(f"rotation plane ({i},{j}) needs dim > {j}") from None
        v[i] = self._cos * vi - self._sin * vj
        v[j] = self._sin * vi + self._cos * vj
        return SpherePoint._wrap(v)

    def __repr__(self) -> str:
        return f"PlaneRotation({self.axis_i}, {self.axis_j}, {self.angle})"


# The closed zoo: the only classes a family admits.
_ZOO = (PlaneRotation, Identity)


class MappingFamily:
    """An ordered family of self-mappings with one row of stage weights.

    alphas holds the weight row, one per member, each in the open interval
    (0, 1), so some margin [a, 1-a] with 0 < a < 1/2 contains them all.
    It is checked once, here, and every step uses it as it stands.  Every
    member must be a certified isometry, a PlaneRotation or the Identity
    (ValueError otherwise).  apply is the family's W-mapping.
    """

    __slots__ = ("maps", "alphas")

    def __init__(self, maps: Sequence, alphas: Sequence[float] | None = None):
        maps = tuple(maps)
        if not maps:
            raise ValueError("a mapping family needs at least one mapping")
        for T in maps:
            if not isinstance(T, _ZOO):
                raise ValueError(f"{T!r} is not a certified isometry")
        alphas = (0.5,) * len(maps) if alphas is None else tuple(float(a) for a in alphas)
        if len(alphas) != len(maps):
            raise ValueError(f"expected {len(maps)} stage weights, got {len(alphas)}")
        for a in alphas:
            if not 0.0 < a < 1.0:
                raise ValueError(f"stage weights must lie strictly in (0, 1), got {a}")
        self.maps = maps
        self.alphas = alphas

    @property
    def r(self) -> int:
        return len(self.maps)

    def apply(self, x: SpherePoint, *,
              images: Sequence[SpherePoint] | None = None) -> SpherePoint:
        """u_r, the W-mapping of the family at x, under its one weight row.
        `images`, when given, holds T_i x for each member in order (as
        `residuals` takes them, and as `_measure` passes them);
        the first stage reads T_1 x from it instead of applying T_1 again."""
        maps = self.maps
        alphas = self.alphas
        u = geodesic_combine(alphas[0], maps[0].apply(x) if images is None else images[0], x)
        for T, a in zip(maps[1:], alphas[1:]):
            u = geodesic_combine(a, T.apply(u), x)
        return u

    def check_preserves_cap(self, pole: SpherePoint, radius: float) -> None:
        """Check, on sampled cap points, that every member maps the cap into
        itself.  A linear isometry does exactly when it fixes the pole, which
        `Problem` checks first from the common fixed set: the samples alone
        let pole moves of 1e-3 through.

        The CAP_CHECK_SAMPLES points, drawn from CAP_CHECK_SEED, are the
        rows of one stack, made read-only once and wrapped row by row as
        views (`SpherePoint._rows`), and every member shares them.  Each
        member's images come from its own apply, the one description of a
        map, stacked into one array and measured from the pole with one
        product and one arccos.  The members are tried in order, and the
        first sample whose image lies more than CAP_CHECK_TOL past the cap
        raises ValueError with that image's excess: the decision and the
        message of one `distance` call per sample.  The check only passes or raises; no output depends on its
        samples.  It stays until the benchmark's memory stops growing with
        the work a run does (ROADMAP items 4a and 4c)."""
        rng = np.random.default_rng(CAP_CHECK_SEED)
        pts = sample_cap(pole.coords, radius, CAP_CHECK_SAMPLES, rng)
        xs = SpherePoint._rows(pts)
        image = np.dtype((float, pole.dim))
        for T in self.maps:
            imgs = np.fromiter((T.apply(x).coords for x in xs), image, len(xs))
            dist = np.arccos(np.clip(imgs.dot(pole.coords), -1.0, 1.0))
            out = np.flatnonzero(dist > radius + CAP_CHECK_TOL)
            if out.size:
                raise ValueError(
                    f"{T!r} maps a cap point {dist[out[0]] - radius:.3e} outside the cap"
                )

    def __repr__(self) -> str:
        return f"MappingFamily(r={self.r}, alphas={self.alphas})"


def fixed_axes(family: MappingFamily, dim: int) -> np.ndarray:
    """Read-only mask of the axes that span the family's common fixed set F.

    A zoo member fixes exactly the axes outside its plane, so apply runs on
    axis_i, then axis_j, of each PlaneRotation (a plane past dim raises its
    ValueError).  F is spanned by the axes, True in the mask, that apply
    leaves exactly in place under every member: a rotation by any nonzero
    angle, however small, moves both axes of its plane, as the W-map, the
    cuts and the residuals all see it do.
    """
    fixed = np.ones(dim, dtype=bool)
    for T in family.maps:
        if isinstance(T, PlaneRotation):
            for j in (T.axis_i, T.axis_j):
                axis = basis_point(j, dim)
                fixed[j] &= np.array_equal(T.apply(axis).coords, axis.coords)
    fixed.setflags(write=False)
    return fixed


def residuals(family: MappingFamily, x: SpherePoint,
              images: Sequence[SpherePoint] | None = None) -> np.ndarray:
    """Displacements d(T_i x, x) for each family member, in order.

    `images` holds the T_i x when the caller has them already, as
    `_measure` does; otherwise they are computed here."""
    if images is None:
        images = [T.apply(x) for T in family.maps]
    return np.array([distance(img, x) for img in images])
