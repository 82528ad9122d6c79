"""Tests for constraint regions and the metric projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereproj.errors import EmptyOrDegenerate, NoConvergence, WitnessInfeasible
from sphereproj.geometry import (
    SpherePoint,
    basis_point,
    distance,
    geodesic_combine,
    sample_cap,
)
from sphereproj.regions import (
    Halfspace,
    Region,
    _CutCone,
    contains,
    intersect,
    make_cn,
    make_qn,
    project,
)


def e(i, dim=4):
    return basis_point(i, dim)


class TestHalfspace:
    def test_normal_is_normalized(self):
        h = Halfspace([2.0, 0, 0, 0], 0.0)
        np.testing.assert_allclose(h.normal, [1, 0, 0, 0])

    def test_trivial_requires_nonpositive_offset(self):
        with pytest.raises(ValueError):
            Halfspace(np.zeros(4), 0.5)

    def test_trivial_always_satisfied(self):
        h = Halfspace(np.zeros(4))
        assert h.is_trivial
        assert h.slack(e(2)) == 0.0

    def test_offset_range(self):
        with pytest.raises(ValueError):
            Halfspace([1.0, 0, 0, 0], 1.0)

    def test_cap_radius_range(self):
        with pytest.raises(ValueError):
            Halfspace.cap(e(0), math.pi / 4)


class TestRegionAndContains:
    def test_witness_invariant(self):
        r = Region.from_cap(e(0), 0.6)
        assert contains(r, r.witness, 1e-10)

    def test_vacuous_linear_conjunction(self):
        r = Region.from_cap(e(0), 0.6)
        z = SpherePoint([math.cos(0.3), math.sin(0.3), 0, 0])
        assert contains(r, z, 0.0)

    def test_antipode_of_witness_outside_cap(self):
        r = Region.from_cap(e(0), math.pi / 6)
        z = SpherePoint(-r.witness.coords)
        assert not contains(r, z, 1e-10)

    def test_infeasible_witness_rejected(self):
        h = Halfspace([-1.0, 0, 0, 0], 0.0)
        with pytest.raises(WitnessInfeasible):
            Region(Halfspace.cap(e(0), 0.6), (h,), e(0))

    def test_nan_witness_rejected(self):
        with pytest.raises(WitnessInfeasible):
            Region(Halfspace.cap(e(0), 0.6), (), SpherePoint._wrap(np.full(4, np.nan)))

    @pytest.mark.parametrize("cuts", [(), (Halfspace([1.0, 0, 0, 0]),)])
    def test_nan_point_not_contained(self, cuts):
        # with no cuts only the cap test can reject it
        r = Region(Halfspace.cap(e(0), 0.6), cuts, e(0))
        z = SpherePoint._wrap(np.array([1.0, math.nan, 0.0, 0.0]))
        assert not contains(r, z, 1e-10)

    @pytest.mark.parametrize("tol", [-1e-3, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        r = Region.from_cap(e(3), 0.6)
        z = SpherePoint([0.1, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            contains(r, z, tol)

    def test_linear_constraints_must_be_homogeneous(self):
        h = Halfspace([1.0, 0, 0, 0], 0.1)
        with pytest.raises(ValueError):
            Region(Halfspace.cap(e(0), 0.6), (h,), e(0))

    def test_trivial_halfspace_dropped(self):
        """The constructor drops a trivial halfspace, as `intersect` does: a
        zero row among the normals would break the solver's warm start."""
        r = Region(Halfspace.cap(e(0), 0.6),
                   (Halfspace(np.zeros(4)), Halfspace([0, 1.0, 0, 0])), e(0))
        assert r.normals.shape == (1, 4)
        x = SpherePoint([math.cos(0.3), -math.sin(0.3), 0, 0])
        p_cold, _ = project(r, x)
        for start in [(0,), (1,), (0, 1)]:
            p, _ = project(r, x, start)
            assert p.coords.tobytes() == p_cold.coords.tobytes()


class TestMakeCn:
    def test_equal_points_give_trivial(self):
        assert make_cn(e(0), e(0)) is None

    def test_returns_read_only_normal(self):
        a = make_cn(e(0), SpherePoint([0.6, 0.8, 0, 0]))
        assert isinstance(a, np.ndarray) and a.shape == (4,)
        assert not a.flags.writeable

    def test_orthogonal_pair_normal(self):
        a = make_cn(e(0), e(1))
        s = math.sqrt(2) / 2
        np.testing.assert_allclose(a, [-s, s, 0, 0], atol=1e-15)

    def test_geodesic_midpoint_on_boundary(self):
        a = make_cn(e(0), e(1))
        mid = geodesic_combine(0.5, e(0), e(1))
        assert abs(float(a.dot(mid.coords))) <= 1e-12

    def test_sign_agreement_with_metric_inequality(self):
        """Linear membership must match d(y,z) <= d(x,z) computed via arccos."""
        rng = np.random.default_rng(10)
        pts = sample_cap(e(0).coords, 0.7, 2000, rng)
        zs = rng.standard_normal((1000, 4))
        zs /= np.linalg.norm(zs, axis=1)[:, None]
        for k in range(1000):
            x = SpherePoint(pts[2 * k])
            y = SpherePoint(pts[2 * k + 1])
            z = SpherePoint(zs[k])
            a = make_cn(x, y)
            lin = float(a.dot(z.coords))
            met = distance(x, z) - distance(y, z)
            if abs(lin) > 1e-10 and abs(met) > 1e-10:
                assert (lin > 0) == (met > 0)


class TestCutEquivalenceProperty:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_linear_and_metric_memberships_agree(self, seed):
        """Both cut constructors encode their defining metric inequalities."""
        rng = np.random.default_rng(seed)
        pts = sample_cap(e(0).coords, 0.7, 2, rng)
        a, b = SpherePoint(pts[0]), SpherePoint(pts[1])
        z = SpherePoint(rng.standard_normal(4))
        lin_c = float(make_cn(a, b).dot(z.coords))
        met_c = distance(a, z) - distance(b, z)
        if abs(lin_c) > 1e-10 and abs(met_c) > 1e-10:
            assert (lin_c > 0) == (met_c > 0)
        lin_q = float(make_qn(a, b).dot(z.coords))
        met_q = (math.cos(distance(a, b)) * math.cos(distance(b, z))
                 - math.cos(distance(a, z)))
        if abs(lin_q) > 1e-10 and abs(met_q) > 1e-10:
            assert (lin_q > 0) == (met_q > 0)


class TestMakeQn:
    def test_same_point_gives_trivial(self):
        assert make_qn(e(0), e(0)) is None

    def test_orthogonal_anchor_normal(self):
        """cos d(x1,xn) = 0 reduces the condition to <x1, z> <= 0."""
        a = make_qn(e(0), e(1))
        np.testing.assert_allclose(a, [-1, 0, 0, 0], atol=1e-15)

    def test_xn_on_boundary(self):
        rng = np.random.default_rng(11)
        pts = sample_cap(e(0).coords, 0.7, 4, rng)
        x1, xn = SpherePoint(pts[0]), SpherePoint(pts[1])
        assert abs(float(make_qn(x1, xn).dot(xn.coords))) <= 1e-12

    def test_sign_agreement_with_cosine_inequality(self):
        rng = np.random.default_rng(12)
        pts = sample_cap(e(0).coords, 0.7, 2000, rng)
        zs = rng.standard_normal((1000, 4))
        zs /= np.linalg.norm(zs, axis=1)[:, None]
        for k in range(1000):
            x1 = SpherePoint(pts[2 * k])
            xn = SpherePoint(pts[2 * k + 1])
            z = SpherePoint(zs[k])
            a = make_qn(x1, xn)
            lin = float(a.dot(z.coords))
            met = (math.cos(distance(x1, xn)) * math.cos(distance(xn, z))
                   - math.cos(distance(x1, z)))
            if abs(lin) > 1e-10 and abs(met) > 1e-10:
                assert (lin > 0) == (met > 0)


class TestProject:
    def test_member_is_fixed(self):
        r = Region.from_cap(e(0), 0.6)
        x = SpherePoint([math.cos(0.3), math.sin(0.3), 0, 0])
        p, stats = project(r, x)
        assert distance(p, x) <= 1e-10
        assert stats.sweeps == 0

    def test_single_halfspace_closed_form(self):
        """Drop the negative component and renormalize (KKT)."""
        h = Halfspace([1.0, 0, 0, 0], 0.0)
        r = Region(Halfspace.cap(e(1), 0.7), (h,), e(1))
        p, _ = project(r, SpherePoint([-0.6, 0.8, 0, 0]))
        np.testing.assert_allclose(p.coords, [0, 1, 0, 0], atol=1e-12)

    def test_cap_only_closed_form(self):
        """Slide along the geodesic toward the pole until distance rho."""
        r = Region.from_cap(e(0), math.pi / 6)
        p, _ = project(r, e(1))
        expected = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6), 0, 0])
        np.testing.assert_allclose(p.coords, expected, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        pole = e(0)
        for k in range(25):
            w = SpherePoint(sample_cap(pole.coords, 0.5, 1, rng)[0])
            cuts = []
            for _ in range(rng.integers(0, 4)):
                a = rng.standard_normal(4)
                if a @ w.coords < 0:
                    a = -a
                cuts.append(Halfspace(a, 0.0))
            r = Region(Halfspace.cap(pole, 0.7), tuple(cuts), w)
            x = SpherePoint(rng.standard_normal(4))
            if x.coords @ pole.coords < 0.1:
                continue
            p1, _ = project(r, x)
            p2, _ = project(r, p1)
            # chordal comparison: arccos cannot resolve separations below
            # ~1.5e-8, while the coordinate norm stays exact near zero
            assert np.linalg.norm(p1.coords - p2.coords) <= 1e-8

    def test_quasinonexpansive_toward_members(self):
        """d(Px, w) <= d(x, w) for every feasible w."""
        rng = np.random.default_rng(14)
        pole = e(0)
        for _ in range(25):
            w = SpherePoint(sample_cap(pole.coords, 0.5, 1, rng)[0])
            a = rng.standard_normal(4)
            if a @ w.coords < 0:
                a = -a
            r = Region(Halfspace.cap(pole, 0.7), (Halfspace(a, 0.0),), w)
            x = SpherePoint(sample_cap(pole.coords, 1.2, 1, rng)[0])
            p, _ = project(r, x)
            members = [w] + [
                SpherePoint(row)
                for row in sample_cap(pole.coords, 0.7, 40, rng)
                if contains(r, SpherePoint(row), 0.0)
            ]
            for m in members:
                assert distance(p, m) <= distance(x, m) + 1e-8

    def test_result_feasible(self):
        rng = np.random.default_rng(15)
        pole = e(0)
        for _ in range(25):
            w = SpherePoint(sample_cap(pole.coords, 0.5, 1, rng)[0])
            cuts = []
            for _ in range(3):
                a = rng.standard_normal(4)
                if a @ w.coords < 0:
                    a = -a
                cuts.append(Halfspace(a, 0.0))
            r = Region(Halfspace.cap(pole, 0.7), tuple(cuts), w)
            x = SpherePoint(sample_cap(pole.coords, 1.3, 1, rng)[0])
            p, _ = project(r, x)
            assert contains(r, p, 1e-8)

    def test_degenerate_query_raises(self):
        r = Region.from_cap(e(0), 0.3)
        with pytest.raises(EmptyOrDegenerate):
            project(r, SpherePoint(-e(0).coords))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("cuts, start", [((), ()), ((Halfspace([0, 1.0, 0, 0]),), (0,))])
    def test_non_finite_query_raises(self, bad, cuts, start):
        """A NaN or infinite query is never returned as a member, nor left
        to the solver: it raises a typed error."""
        r = Region(Halfspace.cap(e(0), 0.6), cuts, e(0))
        x = SpherePoint._wrap(np.array([1.0, bad, 0.0, 0.0]))
        with pytest.raises(EmptyOrDegenerate):
            project(r, x, start)

    def test_sweep_budget_exhaustion_raises(self, monkeypatch):
        """Exhausting the sweep budget surfaces as NoConvergence."""
        monkeypatch.setattr("sphereproj.regions.SOLVER_MAX_SWEEPS", 1)
        h = Halfspace([1.0, 0, 0, 0], 0.0)
        r = Region(Halfspace.cap(e(1), 0.7), (h,), e(1))
        with pytest.raises(NoConvergence):
            project(r, SpherePoint([-0.6, 0.8, 0, 0]))

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_narrow_wedge_closed_form(self, eps):
        """Two cuts at angle eps, with x in the polar cone of their wedge:
        the projection drops the first two coordinates and renormalizes.
        Alternating projections stall on this wedge, since each sweep
        shrinks the error only by a factor set by the angle between the
        cuts; an exact solver must not."""
        cuts = (Halfspace([1.0, 0, 0, 0], 0.0),
                Halfspace([math.cos(eps), math.sin(eps), 0, 0], 0.0))
        r = Region(Halfspace.cap(e(3), 0.6), cuts, e(3))
        x = SpherePoint([-0.3 * math.cos(eps / 2), -0.3 * math.sin(eps / 2), 0.1, 1.0])
        p, stats = project(r, x)
        expected = np.array([0.0, 0.0, 0.1, 1.0]) / math.sqrt(1.01)
        np.testing.assert_allclose(p.coords, expected, rtol=0.0, atol=1e-12)
        assert contains(r, p, 1e-12)
        assert stats.active_cuts == (0, 1) and not stats.cap_active


class TestWarmStart:
    """A start set seeds the solver's active set and changes only its sweep
    count.  In the region below the optimum has cut 0 active alone: x breaks
    cuts 0 and 1, projecting onto cut 0 also satisfies cut 1, and x already
    satisfies cut 2.  The solver drops every cut of a start whose multiplier
    comes out nonpositive, and solves again on the rest, until all of them
    are positive."""

    X = SpherePoint([-0.3, -0.1, 0.05, 0.95])
    CUTS = (Halfspace([1.0, 0, 0, 0]), Halfspace([1.0, -1.0, 0, 0]),
            Halfspace([0, 0, 1.0, 0]))
    STALE = {
        "past the end": (7,),
        "negative multiplier": (2,),   # x satisfies cut 2 strictly
        "non-binding cut": (1,),       # positive alone, then stepped back
        "mixed": (1, 2, 7),
        "two dropped at once": (0, 1, 2),   # multipliers +, -, -
    }

    def region(self, radius):
        return Region(Halfspace.cap(e(3), radius), self.CUTS, e(3))

    @pytest.mark.parametrize("radius, cap_binds", [(0.6, False), (0.1, True)])
    @pytest.mark.parametrize("name", sorted(STALE))
    def test_stale_start_gives_the_cold_answer(self, name, radius, cap_binds):
        r = self.region(radius)
        p_cold, cold = project(r, self.X)
        p, warm = project(r, self.X, self.STALE[name])
        assert cold.active_cuts == (0,) and cold.cap_active is cap_binds
        assert p.coords.tobytes() == p_cold.coords.tobytes()
        assert warm.active_cuts == cold.active_cuts
        assert warm.cap_active == cold.cap_active
        assert warm.kkt_residual == cold.kkt_residual

    @pytest.mark.parametrize("radius, cap_binds", [(0.6, False), (0.4, True)])
    def test_drops_in_rounds(self, radius, cap_binds, monkeypatch):
        """A start whose first solve has two nonpositive multipliers, and
        whose second solve, on the other two cuts, has one more: the solver
        drops cuts 0 and 3, then cut 2, keeps cut 1 and still gives the cold
        answer bit for bit.  At radius 0.4 the cap binds next to cut 1."""
        cuts = [Halfspace(a) for a in ([-0.7, 0.6, -0.1, 0.7], [0.4, 0.8, -1.6, 0.4],
                                       [-1.0, -0.2, -1.3, 0.1], [0.0, -0.3, -1.0, 0.5])]
        r = Region(Halfspace.cap(e(3), radius), cuts, e(3))
        x = SpherePoint([-0.33, -0.41, 0.07, 1.0])
        p_cold, cold = project(r, x)
        solves = []
        real_solve = _CutCone._solve

        def spy(cone, b, idx):
            z, s = real_solve(cone, b, idx)
            solves.append((tuple(idx.tolist()), [v > 0.0 for v in s]))
            return z, s

        monkeypatch.setattr(_CutCone, "_solve", spy)
        p, warm = project(r, x, (0, 1, 2, 3))
        assert solves[:3] == [((0, 1, 2, 3), [False, True, True, False]),
                              ((1, 2), [True, False]), ((1,), [True])]
        assert cold.active_cuts == (1,) and cold.cap_active is cap_binds
        assert p.coords.tobytes() == p_cold.coords.tobytes()
        assert warm.active_cuts == cold.active_cuts
        assert warm.cap_active == cold.cap_active
        assert warm.kkt_residual == cold.kkt_residual

    @pytest.mark.parametrize("radius", [0.6, 0.1])
    def test_negative_index_is_ignored(self, radius):
        # a negative index must not wrap around to cut 0, the optimum's cut
        r = self.region(radius)
        p_cold, cold = project(r, self.X)
        p, warm = project(r, self.X, (-3,))
        assert p.coords.tobytes() == p_cold.coords.tobytes()
        assert warm == cold

    @pytest.mark.parametrize("radius", [0.6, 0.1])
    def test_optimal_start_saves_a_sweep(self, radius):
        r = self.region(radius)
        p_cold, cold = project(r, self.X)
        p, warm = project(r, self.X, cold.active_cuts)
        assert p.coords.tobytes() == p_cold.coords.tobytes()
        assert warm.sweeps == cold.sweeps - 1


class TestIntersect:
    def test_trivial_halfspace_not_appended(self):
        r = Region.from_cap(e(0), 0.6)
        r2 = intersect(r, (None,), e(0))
        assert len(r2.normals) == len(r.normals)

    def test_appended_constraint_holds_for_witness(self):
        r = Region.from_cap(e(0), 0.6)
        h = Halfspace([0.0, 1.0, 0, 0], 0.0)
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0, 0])
        r2 = intersect(r, (h.normal,), w)
        assert contains(r2, w, 1e-10)
        assert len(r2.normals) == 1

    def test_infeasible_new_witness_rejected(self):
        r = Region.from_cap(e(0), 0.6)
        h = Halfspace([0.0, -1.0, 0, 0], 0.0)
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0, 0])
        with pytest.raises(WitnessInfeasible):
            intersect(r, (h.normal,), w)

    def test_several_cuts_append_in_order(self):
        """One call appends every non-trivial cut in order, exactly as the
        constructor stacks them, and checks the witness against all of them."""
        r = Region.from_cap(e(0), 0.6)
        h1 = Halfspace([0.0, 1.0, 0.0, 0.0], 0.0)
        h2 = Halfspace([0.0, 0.3, 1.0, 0.0], 0.0)
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
        r2 = intersect(r, (h1.normal, None, h2.normal), w)
        built = Region(r.cap, (h1, h2), w)
        assert r2.normals.tobytes() == built.normals.tobytes()
        assert r2.normals.shape == built.normals.shape
        assert len(r2.normals) == 2

        w2 = SpherePoint([math.cos(0.1), 0.0, math.sin(0.1), 0.0])
        r3 = intersect(r2, (), w2)
        assert r3.normals.tobytes() == r2.normals.tobytes()
        assert r3.witness is w2

        # inside the cap and h1, outside h2 only
        bad = SpherePoint([math.cos(0.2), 0.1, -0.15, 0.0])
        assert h1.slack(bad) > 0.0 and r.cap.slack(bad) > 0.0 and h2.slack(bad) < 0.0
        with pytest.raises(WitnessInfeasible):
            intersect(r, (h1.normal, h2.normal), bad)

    def test_own_witness_checked_against_fresh_cuts(self):
        """Keeping the region's witness skips only the checks it has
        passed: a fresh cut that excludes it still raises."""
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
        r = intersect(Region.from_cap(e(0), 0.6), (Halfspace([0.0, 1.0, 0, 0]).normal,), w)
        ok = Halfspace([0.0, 0.0, 1.0, 0.0]).normal
        assert intersect(r, (ok,), r.witness).normals.tobytes() == \
            Region(r.cap, (Halfspace(r.normals[0]), Halfspace(ok)), w).normals.tobytes()
        with pytest.raises(WitnessInfeasible):
            intersect(r, (ok, Halfspace([0.0, -1.0, 0.5, 0]).normal), r.witness)

    def test_other_witness_rechecks_old_cuts(self):
        """A witness other than the region's own is checked against the
        cap and every old cut, not only the fresh ones."""
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
        r = intersect(Region.from_cap(e(0), 0.6), (Halfspace([0.0, 1.0, 0, 0]).normal,), w)
        fresh = Halfspace([0.0, 0.0, 1.0, 0.0]).normal
        # satisfies the fresh cut, violates the old one
        other = SpherePoint([math.cos(0.2), -0.1, 0.1, 0.0])
        with pytest.raises(WitnessInfeasible):
            intersect(r, (fresh,), other)
        # satisfies both cuts, lies outside the cap
        outside = SpherePoint([math.cos(0.8), 0.0, math.sin(0.8), 0.0])
        with pytest.raises(WitnessInfeasible):
            intersect(r, (fresh,), outside)
        with pytest.raises(WitnessInfeasible):
            intersect(r, (), outside)

    def test_nested_regions_monotone(self):
        """Membership in a later region implies membership in every earlier one."""
        rng = np.random.default_rng(16)
        pole = e(0)
        w = pole
        regions = [Region.from_cap(pole, 0.7)]
        for _ in range(4):
            a = rng.standard_normal(4)
            if a @ w.coords < 0:
                a = -a
            regions.append(intersect(regions[-1], (Halfspace(a, 0.0).normal,), w))
        zs = rng.standard_normal((1000, 4))
        zs /= np.linalg.norm(zs, axis=1)[:, None]
        for row in zs:
            z = SpherePoint(row)
            flags = [contains(r, z, 1e-12) for r in regions]
            for earlier, later in zip(flags, flags[1:]):
                assert earlier or not later
