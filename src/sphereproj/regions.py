"""Constraint regions on the sphere and the metric projection onto them.

A region is the intersection of one spherical cap (the ambient constraint
set, radius < pi/4 so any two members are less than a quarter turn apart)
with finitely many cuts <a, z> >= 0, each kept as its unit normal a.  Both
cut families used by the iteration drivers admit exact forms of this kind:

* "closer to y than to x" rewrites, via monotonicity of arccos, to
  <y - x, z> >= 0;
* the localization condition cos d(x1,xn) cos d(xn,z) >= cos d(x1,z)
  rewrites to <cos d(x1,xn) xn - x1, z> >= 0.

Minimizing arccos<x, z> over unit z in such a region equals maximizing
<x, z>, whose solution is the Euclidean projection of x onto the cone hull
of the region (halfspace cones plus the circular cone spanned by the cap),
renormalized.  The projection is computed by a finite method: Lawson-Hanson
nonnegative least squares on the dual of the cut cone, plus a bisection for
the cap's multiplier when the cap binds (see `project`).  A solver sweep is
one KKT pass over every constraint: it reads every cut's slack at the
current multipliers and either certifies optimality or changes the active
set.  This identity is validated against an independent brute-force oracle
in the test suite rather than assumed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import EmptyOrDegenerate, NoConvergence, WitnessInfeasible
from .geometry import SpherePoint, inner

# Cap radii are kept strictly below pi/4; equivalently the cap offset
# cos(radius) stays above cos(pi/4).
MAX_CAP_RADIUS = math.pi / 4

# Vector differences below this norm give no cut (the trivial halfspace).
DEGENERATE_TOL = 1e-12

# Witnesses must satisfy every constraint with at least this slack.
WITNESS_TOL = 1e-10

# Projection solver contract.  A sweep is one KKT pass over every
# constraint; the solver returns only after a sweep finds no cut violated by
# more than SOLVER_TOL relative to the size of the terms in its slack.  The
# budget guards against an active set that cycles under rounding.  `project`
# reads both at call time.
SOLVER_TOL = 1e-14
SOLVER_MAX_SWEEPS = 10_000

# Largest cap multiplier tried while bracketing; a region that needs more
# only touches the cap, and the final region check decides.
MAX_CAP_MULTIPLIER = 2.0 ** 60

# The projection result must satisfy the region to this tolerance.
RESULT_TOL = 1e-8


class Halfspace:
    """A linear constraint <normal, z> >= offset on the ambient space.

    The normal is unit length, or the zero vector for the trivial constraint
    (which then requires offset <= 0 so it is always satisfied).  The cap
    has offset cos(radius); outside input gives cuts with offset 0.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset: float = 0.0):
        v = np.array(normal, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("halfspace normal must be a 1-d vector with d >= 2")
        if not np.isfinite(v).all():
            raise ValueError("halfspace normal must be finite")
        offset = float(offset)
        if not -1.0 <= offset < 1.0:
            raise ValueError(f"halfspace offset must be in [-1, 1), got {offset}")
        n = float(np.linalg.norm(v))
        if n <= DEGENERATE_TOL:
            if offset > 0.0:
                raise ValueError("trivial halfspace requires offset <= 0")
            v = np.zeros(v.size)
        else:
            v /= n
        v.setflags(write=False)
        self.normal = v
        self.offset = offset

    @classmethod
    def cap(cls, pole: SpherePoint, radius: float) -> "Halfspace":
        """The cap {z : <pole, z> >= cos(radius)} of radius < pi/4."""
        if not 0.0 < radius < MAX_CAP_RADIUS:
            raise ValueError(f"cap radius must be in (0, pi/4), got {radius}")
        return cls(pole.coords, math.cos(radius))

    @property
    def is_trivial(self) -> bool:
        return not self.normal.any()

    def slack(self, z: SpherePoint) -> float:
        """<normal, z> - offset; nonnegative iff z satisfies the constraint."""
        return float(self.normal.dot(z.coords)) - self.offset

    def __repr__(self) -> str:
        return f"Halfspace(normal={np.array2string(self.normal, precision=6)}, offset={self.offset:.6g})"


class Region:
    """A cap intersected with ordered homogeneous cuts, plus a witness.

    Each cut <a, z> >= 0 is a row a of the read-only (m, d) array
    `normals`, so that every membership test is one product.  The witness
    is a sphere point known to satisfy every constraint; it certifies
    nonemptiness.  The constructor, for outside input, takes the cuts as
    homogeneous Halfspaces and drops trivial ones, as `intersect` does.
    Regions are immutable values: `intersect` returns a new region.
    """

    __slots__ = ("cap", "normals", "witness")

    def __init__(self, cap: Halfspace, halfspaces=(), witness: SpherePoint = None):
        # a positive offset also excludes a zero normal (see Halfspace)
        if cap.offset <= math.cos(MAX_CAP_RADIUS):
            raise ValueError("region cap must have radius in (0, pi/4)")
        halfspaces = tuple(halfspaces)
        for h in halfspaces:
            if h.offset != 0.0:
                raise ValueError("linear region constraints must be homogeneous")
        if witness is None:
            raise ValueError("a region requires a feasibility witness")
        rows = [h.normal for h in halfspaces if not h.is_trivial]
        normals = np.array(rows, dtype=float).reshape(len(rows), cap.normal.size)
        self._set(cap, normals, witness)

    def _set(self, cap: Halfspace, normals: np.ndarray, witness: SpherePoint,
             unchecked: np.ndarray | None = None) -> None:
        # shared with `intersect`, which passes the normals already stacked
        # and, when the witness is known to satisfy the cap and every other
        # row, the rows left to check as `unchecked`
        normals.setflags(write=False)
        self.cap = cap
        self.normals = normals
        self.witness = witness
        if unchecked is None:
            bad = min(cap.slack(witness),
                      float(normals.dot(witness.coords).min(initial=math.inf)))
        else:
            bad = float(unchecked.dot(witness.coords).min(initial=math.inf))
        # written as `not bad >= -tol` so that a NaN witness is rejected too
        if not bad >= -WITNESS_TOL:
            raise WitnessInfeasible(
                f"witness violates a region constraint by {-bad:.3e}"
            )

    @classmethod
    def from_cap(cls, pole: SpherePoint, radius: float) -> "Region":
        """The bare ambient cap; the pole itself witnesses feasibility."""
        return cls(Halfspace.cap(pole, radius), (), pole)

    @property
    def cap_radius(self) -> float:
        return math.acos(self.cap.offset)

    @property
    def linear(self) -> tuple[Halfspace, ...]:
        """The cuts as Halfspaces holding the rows of `normals` bit for bit."""
        out = tuple(Halfspace(a) for a in self.normals)
        for h, a in zip(out, self.normals):
            h.normal = a   # renormalizing can move the last bit of a row
        return out

    def __repr__(self) -> str:
        return f"Region(cap_radius={self.cap_radius:.6g}, n_linear={len(self.normals)})"


class SolveStats(NamedTuple):
    """Projection solver effort and optimality certificate.

    sweeps counts KKT passes over every constraint (0 for a point already in
    the region); active_cuts are the indices of the cuts with a positive
    multiplier; cap_active tells whether the cap binds; kkt_residual is the
    largest primal or complementarity violation of the returned point.  A
    named tuple: immutable, compared field by field, and cheap to build once
    per projection.
    """

    sweeps: int
    active_cuts: tuple[int, ...] = ()
    cap_active: bool = False
    kkt_residual: float = 0.0


def contains(region: Region, z: SpherePoint, tol: float) -> bool:
    """True iff z satisfies every constraint of the region with slack >= -tol."""
    # written as `not tol >= 0` so that NaN is rejected too
    if not tol >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    if not region.cap.slack(z) >= -tol:
        return False
    return bool((region.normals.dot(z.coords) >= -tol).all())


def make_cn(x_n: SpherePoint, y_n: SpherePoint) -> np.ndarray | None:
    """Unit normal of the cut {z : d(y_n, z) <= d(x_n, z)}.

    arccos is decreasing, so the condition is <y_n - x_n, z> >= 0.  When
    y_n = x_n the set is everything: there is no cut, and None is returned.
    """
    return _cut(y_n.coords - x_n.coords)


def make_qn(x_1: SpherePoint, x_n: SpherePoint) -> np.ndarray | None:
    """Unit normal of the cut {z : cos d(x1,xn) cos d(xn,z) >= cos d(x1,z)}.

    Expanding the cosines gives <cos d(x1,xn) xn - x1, z> >= 0.  At n = 1
    (x_n = x_1) the normal vanishes and None is returned: the first
    localization cut is all of the ambient set.
    """
    return _cut(inner(x_1, x_n) * x_n.coords - x_1.coords)


def _cut(v: np.ndarray) -> np.ndarray | None:
    """Read-only unit normal of the cut <v, z> >= 0, or None if v vanishes.

    The normal is normalized a second time, as passing it to the Halfspace
    constructor would: the walks are steered by the last bits of the cuts.
    """
    n = math.sqrt(float(v.dot(v)))
    if n <= DEGENERATE_TOL:
        return None
    v = v / n
    v /= math.sqrt(float(v.dot(v)))
    v.setflags(write=False)
    return v


def intersect(region: Region, cuts, new_witness: SpherePoint) -> Region:
    """Append a sequence of cut normals to the region in order, replacing the witness.

    Every step of both methods builds its region this way.  The new witness
    must satisfy all the cuts and existing constraints with slack >= -1e-10
    (WitnessInfeasible otherwise; one product checks them all).  When the
    new witness is the region's own, it already satisfies the cap and the
    existing cuts, so only the fresh cuts are checked.  None is no cut and
    is not appended, so constraint counts only grow for real cuts.
    """
    fresh = [a for a in cuts if a is not None]
    old = region.normals
    if not fresh:
        normals, rows = old, old[:0]
    else:
        rows = np.array(fresh)
        normals = np.concatenate((old, rows)) if len(old) else rows
    out = Region.__new__(Region)
    out._set(region.cap, normals, new_witness,
             rows if new_witness is region.witness else None)
    return out


class _CutCone:
    """Euclidean projection onto the cut cone {z : A z >= 0}, through its dual.

    The projection of b is z = b + A^T lam, where lam >= 0 minimizes
    ||b + A^T lam||.  The Lawson-Hanson active-set method solves that
    nonnegative least-squares problem exactly in finitely many sweeps.  Each
    sweep reads the slack of every cut; it certifies optimality when no cut
    outside the active set is violated beyond tolerance, and otherwise
    activates the most violated cut and re-solves the equality problem on
    the active set, stepping back along the segment whenever a multiplier
    would turn negative.  A cut whose own multiplier comes out nonpositive
    on entry is violated only at rounding level; as in Lawson and Hanson's
    original routine it is passed over for the rest of the call, which
    keeps the active set from cycling.  Sweeps count against one budget
    over every call.  The first call starts from the `start` cuts (indices
    outside the region's cuts are ignored) and each later call from the
    previous call's active set.  Before its first sweep a call solves on
    that set, deactivates every cut whose multiplier comes out nonpositive
    and solves again, until the multipliers are all positive or no cut is
    left: the simplest form of block principal pivoting (Judice and Pires,
    1994), which changes several active cuts at once.  The start changes
    only the number of sweeps: the returned point is always the solve on
    the final active set, in index order, and that set is the optimum's
    active set whatever the start, barring cuts tight at the optimum with a
    zero multiplier.
    """

    def __init__(self, normals: np.ndarray, start: tuple[int, ...] = ()):
        self.normals = normals
        self.sweeps = 0
        self.active = np.zeros(len(normals), dtype=bool)
        if start:
            self.active[[i for i in start if 0 <= i < len(normals)]] = True

    def _solve(self, b: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """Projection of b onto the subspace where the cuts idx (the active
        ones, in index order) are tight, and their multipliers.

        The active normals are orthonormalized by Gram-Schmidt with one
        reorthogonalization pass ("twice is enough"), so the projection
        stays orthogonal to working precision however close to parallel
        the cuts are; the multipliers come from back substitution.  Every
        product of two or more terms is one BLAS call; the triangular
        factor and the one-term products are Python floats.
        """
        q = self.normals[idx]
        k = len(q)
        r00 = math.sqrt(float(q[0].dot(q[0])))
        q[0] /= r00
        if k == 1:
            c = q.dot(b)
            return b - c.dot(q), [-float(c[0]) / r00]
        diag = [r00]
        rows = [[] for _ in range(k)]   # each row of the factor right of its diagonal
        for j in range(1, k):
            v, head = q[j], q[:j]
            c1 = head.dot(v)
            v -= c1.dot(head)
            c2 = head.dot(v)
            v -= c2.dot(head)
            for row, x, y in zip(rows, c1.tolist(), c2.tolist()):
                # summed from zero, as accumulating into a zeroed factor would
                row.append(0.0 + x + y)
            diag.append(math.sqrt(float(v.dot(v))))
            v /= diag[j]
        c = q.dot(b)
        cs = c.tolist()
        s = [0.0] * k
        for j in range(k - 1, -1, -1):
            row = rows[j]
            if not row:
                t = 0.0
            elif len(row) == 1:
                t = 0.0 + row[0] * s[j + 1]   # a dot sums from zero
            else:
                t = float(np.array(row).dot(np.array(s[j + 1:])))
            s[j] = (-cs[j] - t) / diag[j]
        return b - c.dot(q), s

    def project(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, active = self.normals, self.active
        lam = np.zeros(len(a))
        z = b
        # block pivoting: drop every cut of the start whose multiplier is
        # nonpositive at once, until the rest are all positive
        idx = active.nonzero()[0]
        while len(idx):
            z_warm, s = self._solve(b, idx)
            if min(s) > 0.0:
                z, lam[idx] = z_warm, s
                break
            active[idx[np.array(s) <= 0.0]] = False
            idx = active.nonzero()[0]
        # cuts that may not enter: the active ones and those passed over
        blocked = active.copy()
        scale = math.sqrt(float(b.dot(b)))
        while True:
            if self.sweeps >= SOLVER_MAX_SWEEPS:
                raise NoConvergence(
                    f"KKT conditions not certified within {SOLVER_MAX_SWEEPS} sweeps "
                    f"({len(a)} cuts)"
                )
            self.sweeps += 1
            violation = -a.dot(z)
            violation[blocked] = -math.inf
            t = int(violation.argmax()) if len(a) else -1
            if t < 0 or violation[t] <= SOLVER_TOL * (scale + float(lam.sum())):
                return z, lam
            active[t] = blocked[t] = True
            entering = True
            while True:
                idx = active.nonzero()[0]
                z_new, s = self._solve(b, idx)
                if min(s) > 0.0:
                    z, lam[idx] = z_new, s
                    break
                if entering and s[int(idx.searchsorted(t))] <= 0.0:
                    active[t] = False
                    break
                entering = False
                # step from lam toward s until the first multiplier hits zero
                s = np.array(s)
                cur = lam[idx]
                neg = s <= 0.0
                ratios = cur[neg] / (cur[neg] - s[neg])
                alpha = float(ratios.min())
                lam[idx] = cur + alpha * (s - cur)
                lam[idx[neg][ratios <= alpha]] = 0.0
                drop = idx[lam[idx] <= 0.0]
                active[drop] = blocked[drop] = False
                lam[drop] = 0.0
                if not active.any():
                    z = b
                    break


def project(region: Region, x: SpherePoint,
            start: tuple[int, ...] = ()) -> tuple[SpherePoint, SolveStats]:
    """Metric projection of x onto the region.

    The answer is the normalized Euclidean projection of x onto the cone
    hull of the region, found exactly by a finite method.  The cut cone is
    handled by Lawson-Hanson NNLS on its dual (see _CutCone).  When the
    normalized cut-cone projection of x breaks the cap, the cap binds: its
    multiplier mu >= 0 is the root of <p, z(mu)> = cos(radius) ||z(mu)||
    with z(mu) the cut-cone projection of x + mu p, which is nondecreasing
    in mu once normalized; it is bracketed by doubling and bisected to
    adjacent floats.  Points already in the region are returned unchanged
    with zero solver effort.  `start` names cuts expected to be active,
    such as the previous projection's `SolveStats.active_cuts`; it seeds
    the active set, from which the solver first drops every cut with a
    nonpositive multiplier, and changes only `SolveStats.sweeps`.  Indices
    outside the region's cuts are ignored.  Dykstra's alternating
    projections (Boyle & Dykstra, 1986) would avoid the dual, but their
    error shrinks per sweep only by a factor set by the angle between
    active cuts, so they stall on the nearly parallel cuts both methods
    generate.

    Raises NoConvergence if SOLVER_MAX_SWEEPS KKT sweeps pass without one that
    certifies optimality, or if the result violates the region beyond
    RESULT_TOL; raises EmptyOrDegenerate if x is not finite or the cone
    projection collapses to zero (x at least a quarter turn from the region,
    which the cap invariant excludes for every query the iteration methods
    make).
    """
    pole = region.cap.normal
    cos_r = region.cap.offset
    normals = region.normals
    xc = x.coords
    # the test of `contains` at tol = 0, inline; a NaN or infinite query
    # has a non-finite cap slack and is never taken for a member
    cap_slack = float(pole.dot(xc)) - cos_r
    if not math.isfinite(cap_slack):
        raise EmptyOrDegenerate("query point is not finite")
    if cap_slack >= 0.0 and (normals.dot(xc) >= 0.0).all():
        return x, SolveStats(0)
    cone = _CutCone(normals, start)

    def solve(b):
        z, lam = cone.project(b)
        norm = math.sqrt(float(z.dot(z)))
        return float(pole.dot(z)) - cos_r * norm, z, lam, norm

    mu = 0.0
    cap_gap, z, lam, n = solve(xc)
    if cap_gap < 0.0:
        lo, hi = 0.0, 1.0
        cap_gap, z, lam, n = solve(xc + hi * pole)
        while cap_gap < 0.0 and hi < MAX_CAP_MULTIPLIER:
            lo, hi = hi, 2.0 * hi
            cap_gap, z, lam, n = solve(xc + hi * pole)
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            mid_gap, z_mid, lam_mid, n_mid = solve(xc + mid * pole)
            if mid_gap >= 0.0:
                hi, cap_gap, z, lam, n = mid, mid_gap, z_mid, lam_mid, n_mid
            else:
                lo = mid
        mu = hi

    # written as `not a > b` so that NaN fails
    if not n > 0.0 or not float(xc.dot(z)) > 1e-9 * n:
        raise EmptyOrDegenerate("cone projection collapsed to the zero vector")
    rc = z / n
    slack = normals.dot(rc)
    min_slack = float(slack.min(initial=0.0))
    cap_slack = float(pole.dot(rc)) - cos_r
    if not cap_slack >= -RESULT_TOL or not min_slack >= -RESULT_TOL:
        raise NoConvergence("projection result violates the region beyond tolerance")
    # numpy scans every cut, Python only the active ones
    active = (lam > 0.0).nonzero()[0].tolist()
    kkt = max(0.0, -min_slack, max([abs(slack.item(i)) for i in active], default=0.0),
              abs(cap_slack) if mu > 0.0 else -cap_slack)
    return SpherePoint._wrap(rc), SolveStats(cone.sweeps, tuple(active), mu > 0.0, kkt)
