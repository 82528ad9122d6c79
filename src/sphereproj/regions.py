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
set.  This identity is validated against an independent brute-force grid
projection (in `tests/reference.py`) rather than assumed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import EmptyOrDegenerate, FeasibilityViolated, NoConvergence
from .geometry import SpherePoint, inner

# Cap radii are kept strictly below pi/4.
MAX_CAP_RADIUS = math.pi / 4

# Vector differences below this norm give no cut.
DEGENERATE_TOL = 1e-12

# Witnesses must satisfy every constraint with at least this slack, an
# angle for the cap (`Cap.slack`) as for every cut.
WITNESS_TOL = 1e-10

# Projection solver contract.  A sweep is one KKT pass over every
# constraint; the solver returns only after a sweep finds no cut violated by
# more than SOLVER_TOL relative to the size of the terms in its slack.  The
# budget guards against an active set that cycles under rounding.  `project`
# reads both at call time.
SOLVER_TOL = 1e-14
SOLVER_MAX_SWEEPS = 10_000

# The projection result must satisfy the region to this tolerance.
RESULT_TOL = 1e-8


def _min(v: np.ndarray) -> float:
    """The least entry of a nonempty v, as `v.min()` gives it but without
    numpy's Python-level reduction wrapper: `argmin` returns the first NaN,
    so a NaN entry still fails every `>=` test."""
    return v.item(v.argmin())


class Cap:
    """The ambient cap {z : <pole, z> >= cos(radius)} of radius in
    (0, pi/4), with cos(radius) < 1: below about 1.05e-8 it rounds to 1.0.

    `pole` is the read-only coordinates of SpherePoint(pole.coords), and
    `cos_r` and `sin_r` are cos(radius) and sin(radius).  `slack` reads
    (<pole, z> - cos_r) / sin_r, which near the boundary is radius -
    d(pole, z) to first order: every tolerance on it is an angle, as it is
    on a unit-normal cut, at every radius.
    """

    __slots__ = ("pole", "radius", "cos_r", "sin_r")

    def __init__(self, pole: SpherePoint, radius: float):
        if not 0.0 < radius < MAX_CAP_RADIUS:
            raise ValueError(f"cap radius must be in (0, pi/4), got {radius}")
        if math.cos(radius) == 1.0:
            raise ValueError(f"cap radius is too small for cos to resolve, got {radius}")
        self.pole = SpherePoint(pole.coords).coords
        self.radius = float(radius)
        self.cos_r = math.cos(radius)
        self.sin_r = math.sin(radius)

    def slack(self, z: SpherePoint) -> float:
        """(<pole, z> - cos_r) / sin_r, about radius - d(pole, z) near the
        boundary; nonnegative iff z lies in the cap."""
        return (float(self.pole.dot(z.coords)) - self.cos_r) / self.sin_r

    def __repr__(self) -> str:
        return f"Cap(pole={np.array2string(self.pole, precision=6)}, radius={self.radius:.6g})"


class Halfspace:
    """A cut <normal, z> >= 0 from outside input.

    The normal is the read-only coordinates of SpherePoint(normal): a
    normal that SpherePoint rejects raises its ValueError, prefixed with
    "halfspace normal: ".
    """

    __slots__ = ("normal",)

    def __init__(self, normal):
        try:
            self.normal = SpherePoint(normal).coords
        except ValueError as e:
            raise ValueError(f"halfspace normal: {e}") from e

    def __repr__(self) -> str:
        return f"Halfspace(normal={np.array2string(self.normal, precision=6)})"


class Region:
    """A cap intersected with ordered homogeneous cuts, plus a witness.

    Each cut <a, z> >= 0 is a row a of the read-only (m, d) array
    `normals`, so that the cuts' membership test is one product.  `slack`
    is the one reader of membership over the whole region.  The witness
    is a sphere point known to satisfy every constraint; it certifies
    nonemptiness.  The constructor `Region(cap, halfspaces, witness)`, for
    outside input, takes all three: a `Cap`, the cuts as `Halfspace`s (a
    bare cap has none), and a witness whose `slack` it checks
    (FeasibilityViolated otherwise).  Regions are immutable values:
    `intersect` returns a new region.
    """

    __slots__ = ("cap", "normals", "witness")

    def __init__(self, cap: Cap, halfspaces, witness: SpherePoint):
        if not isinstance(cap, Cap):
            raise ValueError(f"region cap must be a Cap, got {type(cap).__name__}")
        halfspaces = tuple(halfspaces)
        for h in halfspaces:
            if not isinstance(h, Halfspace):
                raise ValueError(f"region cuts must be Halfspaces, got {type(h).__name__}")
        rows = [h.normal for h in halfspaces]
        normals = np.array(rows, dtype=float).reshape(len(rows), cap.pole.size)
        self._set(cap, normals, witness)

    def _set(self, cap: Cap, normals: np.ndarray, witness: SpherePoint,
             bad: float | None = None) -> None:
        # shared with `intersect`, which passes the normals already stacked
        # and, as bad, the witness's least slack over the fresh rows alone;
        # by default the witness is checked against the whole region
        normals.setflags(write=False)
        self.cap = cap
        self.normals = normals
        self.witness = witness
        bad = self.slack(witness) if bad is None else bad
        # written as `not bad >= -tol` so that a NaN witness is rejected too
        if not bad >= -WITNESS_TOL:
            raise FeasibilityViolated(f"witness violates a region constraint by {-bad:.3e}")

    def slack(self, z: SpherePoint) -> float:
        """The least of `Cap.slack(z)` and every cut's <a, z>: an angle,
        nonnegative iff z lies in the region, and NaN when any slack is."""
        s = self.cap.slack(z)
        c = _min(self.normals.dot(z.coords)) if len(self.normals) else s
        # a NaN cut slack is returned as it is; `min` returns its first
        # argument, the cap slack, when that is NaN
        return c if c != c else min(s, c)

    @property
    def linear(self) -> tuple[Halfspace, ...]:
        """The cuts as Halfspaces holding the rows of `normals` bit for bit."""
        out = tuple(Halfspace(a) for a in self.normals)
        for h, a in zip(out, self.normals):
            h.normal = a   # renormalizing can move the last bit of a row
        return out

    def __repr__(self) -> str:
        return f"Region(radius={self.cap.radius:.6g}, n_linear={len(self.normals)})"


class SolveStats(NamedTuple):
    """Projection solver effort and optimality certificate.

    sweeps counts KKT passes over every constraint (0 for a point already in
    the region); active_cuts are the indices of the cuts with a positive
    multiplier; cap_active tells whether the cap binds; kkt_residual is the
    largest primal or complementarity violation of the returned point, the
    cap's read by `Cap.slack`, so that every term is an angle.  A
    named tuple: immutable, compared field by field, and cheap to build once
    per projection.
    """

    sweeps: int
    active_cuts: tuple[int, ...] = ()
    cap_active: bool = False
    kkt_residual: float = 0.0


def contains(region: Region, z: SpherePoint, tol: float) -> bool:
    """True iff `region.slack(z) >= -tol`.

    The slacks are `Cap.slack` and <a, z> for each unit normal a, so tol is
    an angle: about how far z may lie outside the cap or past a cut.  A NaN
    slack is never contained."""
    # written as `not tol >= 0` so that NaN is rejected too
    if not tol >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    return region.slack(z) >= -tol


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
    v = inner(x_1, x_n) * x_n.coords
    v -= x_1.coords
    return _cut(v)


def _cut(v: np.ndarray) -> np.ndarray | None:
    """Read-only unit normal of the cut <v, z> >= 0, or None if v vanishes.

    v is a fresh array, normalized in place.  The normal is normalized a
    second time, as passing it to the Halfspace constructor would: the
    walks are steered by the last bits of the cuts.
    """
    n = math.sqrt(float(v.dot(v)))
    if n <= DEGENERATE_TOL:
        return None
    v /= n
    v /= math.sqrt(float(v.dot(v)))
    v.setflags(write=False)
    return v


def intersect(region: Region, cuts) -> Region:
    """Append a sequence of cut normals to the region in order, keeping its witness.

    Every step of both methods builds its region this way.  The witness
    already satisfies the cap and the existing cuts, so one product checks
    it against the fresh cuts alone (slack >= -1e-10, FeasibilityViolated
    with the margin otherwise).  None is no cut and is not appended, and neither is a cut
    bitwise equal to the row before it (the region's last row, or the cut
    appended before it in the same call): a repeated cut adds nothing, so
    constraint counts only grow for new cuts.  A stalled shrinking walk
    regenerates its last cut at every step and so keeps its region.  With
    nothing appended the region itself is returned.
    """
    fresh, last = [], region.normals[-1].tobytes() if len(region.normals) else None
    for a in cuts:
        if a is not None and (row := a.tobytes()) != last:
            fresh.append(a)
            last = row
    if not fresh:
        return region
    rows = np.array(fresh)
    old = region.normals
    out = Region.__new__(Region)
    out._set(region.cap, np.concatenate((old, rows)) if len(old) else rows, region.witness,
             _min(rows.dot(region.witness.coords)))
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
    keeps the active set from cycling.  When every cut is active no cut
    may enter, so the sweep's outcome is fixed: it is counted and certifies
    without reading a slack.  Sweeps count against one budget over every
    call.  The first call starts from the `start` cuts (indices
    outside the region's cuts are ignored) and each later call from the
    previous call's active set.  Before its first sweep a call solves on
    that set, deactivates the cut with the most negative multiplier and
    solves again, until the multipliers are all positive or no cut is left:
    single principal pivoting (Murty, 1974).  Block pivoting (Judice and
    Pires, 1994) drops every nonpositive cut at once, and with it cuts that
    the optimum needs and later sweeps must add back.  The start changes
    only the number of sweeps: the returned point is always the solve on
    the final active set, in index order, and that set is the optimum's
    active set whatever the start, barring cuts tight at the optimum with a
    zero multiplier.  The sweeps keep Lawson and Hanson's step back:
    dropping the most negative multiplier's cut there instead cycles, and
    raised NoConvergence within 100 steps on every shrinking walk of the
    benchmark's two-rotation and single-rotation panels.

    A solve on a square active set, as many cuts as dimensions, is tight
    only at 0.  Its multipliers come from one LAPACK solve, and Gram-Schmidt
    runs only when all of them are positive (see `_solve`).  On the step
    path they never all are, because the optimum is never 0: the pole p
    lies in every cut, so <P_K x1, p> >= <x1, p> >= cos r > 0.
    """

    def __init__(self, normals: np.ndarray, start: tuple[int, ...] = ()):
        self.normals = normals
        self.sweeps = 0
        self.active = np.zeros(len(normals), dtype=bool)
        for i in start:
            if 0 <= i < len(normals):
                self.active[i] = True

    def _solve(self, b: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray | None, list[float]]:
        """Projection of b onto the subspace where the cuts idx (the active
        ones, in index order) are tight, and their multipliers.

        The active normals are orthonormalized by Gram-Schmidt with one
        reorthogonalization pass ("twice is enough"), so the projection
        stays orthogonal to working precision however close to parallel
        the cuts are; the multipliers come from back substitution.  Every
        product of two or more terms is one BLAS call; the triangular
        factor and the one-term products are Python floats.  A back
        substitution row of two or more terms stays one BLAS call because a
        Python sum of its products rounds differently: with OpenBLAS on
        x86-64 the two disagree in 25-42 % of random 2- to 5-term rows.
        One active cut takes the same path, reading -c - 0.0, which is -c
        bit for bit.

        A square set, d cuts in R^d, is tight only at z = 0, and its
        multipliers solve A_idx^T s = -b: one LAPACK solve reads them.  When
        one is nonpositive the set can only pick the cut to drop, so z is
        None and Gram-Schmidt is skipped: both callers use z only when every
        multiplier is positive.  On the step path that is every square set,
        since the optimum there is never 0 (see the class docstring).
        Positive multipliers, or a singular set, fall through to
        Gram-Schmidt, whose multipliers decide as they did before the rule,
        so outside input whose cone projection is 0 still raises in
        `project`.  The point returned is always the Gram-Schmidt solve on
        the final set, bit for bit.
        """
        q = self.normals.take(idx, axis=0)
        k = len(q)
        if k == b.size:
            try:
                s = np.linalg.solve(q.T, -b).tolist()
            except np.linalg.LinAlgError:   # a singular set
                pass
            else:
                if min(s) <= 0.0:
                    return None, s
        q0 = q[0]
        r00 = math.sqrt(float(q0.dot(q0)))
        q0 /= r00
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
            # a cut in the span of those before it gets a zero multiplier
            diag.append(math.sqrt(float(v.dot(v))) or math.inf)
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
        """The projection of b and the final active cuts' indices: exactly
        the cuts with a positive multiplier."""
        a, active = self.normals, self.active
        lam = np.zeros(len(a))
        z = b
        # single pivoting: drop the start's cut with the most negative
        # multiplier (the first on a tie) until the rest are all positive
        idx = active.nonzero()[0]
        while len(idx):
            z_warm, s = self._solve(b, idx)
            if min(s) > 0.0:
                z, lam[idx] = z_warm, s
                break
            active[idx[s.index(min(s))]] = False
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
            if len(idx) == len(a):
                # every cut is active, so none may enter and the sweep certifies
                return z, idx
            # the most violated cut that may enter, the first on a tie
            slack = a.dot(z)
            slack[blocked] = math.inf
            t = int(slack.argmin())
            if -slack.item(t) <= SOLVER_TOL * (scale + float(np.add.reduce(lam))):
                return z, idx
            active[t] = blocked[t] = True
            idx = active.nonzero()[0]
            entering = True
            while True:
                z_new, s = self._solve(b, idx)
                if min(s) > 0.0:
                    z, lam[idx] = z_new, s
                    break
                if entering and s[int(idx.searchsorted(t))] <= 0.0:
                    active[t] = False
                    idx = active.nonzero()[0]
                    break
                entering = False
                # step from lam toward s until the first multiplier hits zero
                s = np.array(s)
                cur = lam[idx]
                neg = s <= 0.0
                ratios = cur[neg] / (cur[neg] - s[neg])
                alpha = _min(ratios)
                lam[idx] = cur + alpha * (s - cur)
                lam[idx[neg][ratios <= alpha]] = 0.0
                drop = idx[lam[idx] <= 0.0]
                active[drop] = blocked[drop] = False
                lam[drop] = 0.0
                idx = active.nonzero()[0]
                if not len(idx):
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
    in mu once normalized.  The cut-cone projection is positively
    homogeneous, so x + mu p and (1 - t) x + t p with mu = t / (1 - t)
    project to the same direction: the root is bisected in t on [0, 1] to
    adjacent floats, and t = 1, the pole itself, is the limit mu -> oo,
    where a region that only touches the cap is left to the final region
    check.  SolveStats.cap_active is t > 0.  Points that `contains` admits
    at tol = 0 (`region.slack` >= 0) are returned unchanged with zero
    solver effort.  `start` names cuts expected to be active, such as the
    previous projection's `SolveStats.active_cuts`; it seeds the active
    set, which loses its most negative multiplier's cut per solve until all
    are positive, and changes only `SolveStats.sweeps`.  Indices outside
    the region's cuts are ignored.  Dykstra's alternating projections
    (Boyle & Dykstra, 1986) would avoid the dual, but their error shrinks
    per sweep only by a factor set by the angle between active cuts, so
    they stall on the nearly parallel cuts both methods generate.

    The returned point is checked against the region as `contains` checks
    it, with `Cap.slack` for the cap, so RESULT_TOL and the certificate's
    cap term are angles, as they are for every cut.

    Raises NoConvergence if SOLVER_MAX_SWEEPS KKT sweeps pass without one that
    certifies optimality, or if the result violates the region beyond
    RESULT_TOL; raises EmptyOrDegenerate if `region.slack(x)` is not
    finite (x or a cut is not finite) or the cone projection collapses to
    zero (x at least a quarter turn from the region, which the cap
    invariant excludes for every query the iteration methods make).
    """
    s = region.slack(x)
    if not math.isfinite(s):
        raise EmptyOrDegenerate("query point or a region cut is not finite")
    if s >= 0.0:
        return x, SolveStats(0)
    pole = region.cap.pole
    cos_r = region.cap.cos_r
    normals = region.normals
    xc = x.coords
    cone = _CutCone(normals, start)

    def solve(b):
        z, idx = cone.project(b)
        norm = math.sqrt(float(z.dot(z)))
        return float(pole.dot(z)) - cos_r * norm, z, idx, norm

    t = 0.0
    cap_gap, z, idx, n = solve(xc)
    if cap_gap < 0.0:
        lo, hi = 0.0, 1.0
        _, z, idx, n = solve(pole)
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            mid_gap, z_mid, idx_mid, n_mid = solve((1.0 - mid) * xc + mid * pole)
            if mid_gap >= 0.0:
                hi, z, idx, n = mid, z_mid, idx_mid, n_mid
            else:
                lo = mid
        t = hi

    # written as `not a > b` so that NaN fails
    if not n > 0.0 or not float(xc.dot(z)) > 1e-9 * n:
        raise EmptyOrDegenerate("cone projection collapsed to the zero vector")
    out = SpherePoint._wrap(z / n)
    slack = normals.dot(out.coords)
    min_slack = _min(slack) if len(slack) else 0.0
    cap_slack = region.cap.slack(out)
    if not cap_slack >= -RESULT_TOL or not min_slack >= -RESULT_TOL:
        raise NoConvergence("projection result violates the region beyond tolerance")
    active = idx.tolist()
    kkt = max(0.0, -min_slack, max([abs(slack.item(i)) for i in active], default=0.0),
              abs(cap_slack) if t > 0.0 else -cap_slack)
    return out, SolveStats(cone.sweeps, tuple(active), t > 0.0, kkt)
