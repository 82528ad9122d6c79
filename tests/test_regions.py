"""Tests for constraint regions and the metric projection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sphereproj.errors import (
    EmptyOrDegenerate,
    FeasibilityViolated,
    NoConvergence,
)
from sphereproj.geometry import (
    SpherePoint,
    basis_point,
    distance,
    geodesic_combine,
    random_point_in_cap,
    sample_cap,
)
from sphereproj.iteration import Problem, iterate
from sphereproj.mappings import MappingFamily, PlaneRotation
from sphereproj.regions import (
    Cap,
    Halfspace,
    Region,
    SolveStats,
    _append,
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
    """`Halfspace(v)` is the unit row of the cut <v, z> >= 0."""

    def test_normal_is_normalized(self):
        row = Halfspace([2.0, 0, 0, 0])
        assert isinstance(row, np.ndarray) and row.shape == (4,)
        np.testing.assert_allclose(row, [1, 0, 0, 0])

    def test_zero_normal_rejected(self):
        for normal in (np.zeros(4), np.full(4, 1e-13)):
            with pytest.raises(ValueError, match="^halfspace normal: cannot normalize"):
                Halfspace(normal)

    @pytest.mark.parametrize("normal, cause", [
        (np.eye(4), "a sphere point needs a 1-d coordinate vector with d >= 2"),
        ([1.0, math.nan, 0.0, 0.0], "sphere point coordinates must be finite"),
        ([1.0, 0.0, math.inf, 0.0], "sphere point coordinates must be finite"),
    ], ids=["2-d", "nan", "inf"])
    def test_bad_normal_rejected_as_a_sphere_point(self, normal, cause):
        with pytest.raises(ValueError, match=f"^halfspace normal: {cause}$"):
            Halfspace(normal)

    def test_normal_bits_are_the_sphere_point_coords(self):
        a = [0.3, -1.7, 2.9, 1e-3]
        row = Halfspace(a)
        assert row.tobytes() == SpherePoint(a).coords.tobytes()
        assert not row.flags.writeable


class TestCap:
    def test_bits_are_the_sphere_point_coords_and_cos(self):
        """The pole is renormalized as SpherePoint(pole.coords) renormalizes
        it, so a pole whose norm does not round to 1 keeps those bits."""
        pole = SpherePoint._wrap(np.array([0.3, -1.7, 2.9, 1e-3]))
        assert float(np.linalg.norm(pole.coords)) != 1.0
        cap = Cap(pole, 0.6)
        assert cap.pole.tobytes() == SpherePoint(pole.coords).coords.tobytes()
        assert cap.pole.tobytes() != pole.coords.tobytes()
        assert not cap.pole.flags.writeable
        assert cap.cos_r == math.cos(0.6) and cap.radius == 0.6
        assert cap.sin_r == math.sin(0.6)

    @pytest.mark.parametrize("r", [1e-6, 1e-3, 0.6])
    def test_slack_reads_the_angle_to_the_boundary(self, r):
        """Near the boundary the slack is r - d(pole, z) to first order, at
        every radius: <pole, z> - cos r alone would read about sin r times it."""
        cap = Cap(e(3), r)
        for f in (0.9, 0.99, 1.01, 1.1):
            d = f * r
            z = SpherePoint([math.sin(d), 0.0, 0.0, math.cos(d)])
            assert 0.9 <= cap.slack(z) / (r - d) <= 1.1

    def test_cap_radius_range(self):
        for radius in (0.0, -0.1, math.pi / 4, 1.0, math.nan):
            with pytest.raises(ValueError, match=rf"^cap radius must be in \(0, pi/4\), got {radius}$"):
                Cap(e(0), radius)

    def test_cap_radius_cos_cannot_resolve(self):
        """Below about 1.05e-8, cos(radius) rounds to 1.0: the message names
        the radius, not the cosine it would give."""
        assert math.cos(1.1e-8) < 1.0 == math.cos(1e-9)
        Cap(e(0), 1.1e-8)
        with pytest.raises(ValueError, match=r"^cap radius is too small for cos to resolve, got 1e-09$"):
            Cap(e(0), 1e-9)


class TestRegionAndContains:
    def test_witness_invariant(self):
        r = Region(Cap(e(0), 0.6), (), e(0))
        assert contains(r, r.witness, 1e-10)

    def test_vacuous_linear_conjunction(self):
        r = Region(Cap(e(0), 0.6), (), e(0))
        z = SpherePoint([math.cos(0.3), math.sin(0.3), 0, 0])
        assert contains(r, z, 0.0)
        # with no cuts the region's slack is the cap's; the least cut slack
        # wins where it is lower
        assert r.slack(z) == r.cap.slack(z)
        r = Region(r.cap, (Halfspace([0.1, 1.0, 0, 0]), Halfspace([0.2, 0, 1.0, 0])), e(0))
        cut_slacks = r.normals.dot(z.coords)
        assert cut_slacks.min() < r.cap.slack(z)
        assert r.slack(z) == cut_slacks.min()

    def test_antipode_of_witness_outside_cap(self):
        r = Region(Cap(e(0), math.pi / 6), (), e(0))
        z = SpherePoint(-r.witness.coords)
        assert not contains(r, z, 1e-10)

    def test_infeasible_witness_rejected(self):
        h = Halfspace([-1.0, 0, 0, 0])
        with pytest.raises(FeasibilityViolated,
                           match=r"^witness violates a region constraint by 1\.000e\+00$"):
            Region(Cap(e(0), 0.6), (h,), e(0))

    def test_item_9_tiny_cap_rejects_a_far_witness(self):
        """A witness 1.4e-5 from the pole of cap(e3, 1e-6), 14 radii out,
        misses <pole, z> - cos r by only 9.8e-11, inside WITNESS_TOL = 1e-10.
        `Cap.slack` divides that by sin r = 1e-6 and reads -9.7e-5, so the
        region rejects it."""
        w = SpherePoint([math.sin(1.4e-5), 0.0, 0.0, math.cos(1.4e-5)])
        with pytest.raises(FeasibilityViolated):
            Region(Cap(e(3), 1e-6), (), w)

    def test_tiny_cap_tolerance_is_an_angle(self):
        """At tol = 1e-10, a point 1.1e-6 from the pole of cap(e3, 1e-6) is
        1e-7 outside it and is rejected; one 0.9e-6 away is inside."""
        r = Region(Cap(e(3), 1e-6), (), e(3))
        for d, inside in ((1.1e-6, False), (0.9e-6, True)):
            z = SpherePoint([math.sin(d), 0.0, 0.0, math.cos(d)])
            assert contains(r, z, 1e-10) is inside

    def test_nan_witness_rejected(self):
        with pytest.raises(FeasibilityViolated):
            Region(Cap(e(0), 0.6), (), SpherePoint._wrap(np.full(4, np.nan)))

    @pytest.mark.parametrize("cuts", [(), (Halfspace([1.0, 0, 0, 0]),)])
    def test_nan_point_not_contained(self, cuts):
        # with no cuts only the cap test can reject it
        r = Region(Cap(e(0), 0.6), cuts, e(0))
        z = SpherePoint._wrap(np.array([1.0, math.nan, 0.0, 0.0]))
        assert math.isnan(r.slack(z))
        assert not contains(r, z, 1e-10)

    @pytest.mark.parametrize("tol", [-1e-3, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        r = Region(Cap(e(3), 0.6), (), e(3))
        z = SpherePoint([0.1, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            contains(r, z, tol)

    def test_hand_built_cap_radius_range(self):
        """Only a Cap is accepted as the region cap."""
        with pytest.raises(ValueError, match=r"^region cap must be a Cap, got ndarray$"):
            Region(Halfspace(e(0).coords), (), e(0))

    def test_witness_must_be_a_sphere_point(self):
        """A bare coordinate array as witness is refused by name, before the
        dimension check would fail on its missing `dim`."""
        with pytest.raises(ValueError,
                           match=r"^region witness must be a SpherePoint, got ndarray$"):
            Region(Cap(e(3), 0.6), (), np.array([0, 0, 0, 1.0]))

    def test_linear_constraints_must_be_homogeneous(self):
        """A cap passed as a cut is rejected by the row check that
        `intersect` shares."""
        with pytest.raises(ValueError, match=r"^cut normal is not a finite unit vector "
                                             r"of dimension 4: got Cap$"):
            Region(Cap(e(0), 0.6), (Cap(e(0), 0.1),), e(0))

    def test_witness_of_another_dimension_rejected(self):
        """The constructor names both dimensions; `Cap.slack` would fail
        inside numpy."""
        with pytest.raises(ValueError, match=r"^region witness has dimension 3, its cap 4$"):
            Region(Cap(e(3), 0.6), (), e(2, dim=3))

    def test_rows_or_array_give_the_same_region(self):
        """A sequence of rows and their (m, d) stack build the same bits,
        and `linear` hands the rows back, bit for bit."""
        rows = (Halfspace([0.1, 1.0, 0, 0]), Halfspace([0.2, 0, 1.0, 0]))
        r = Region(Cap(e(0), 0.6), rows, e(0))
        stacked = np.array(rows)
        assert Region(r.cap, stacked, e(0)).normals.tobytes() == r.normals.tobytes()
        assert r.normals.shape == (2, 4) and not r.normals.flags.writeable
        assert [a.tobytes() for a in r.linear] == [a.tobytes() for a in rows]


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
        r = Region(Cap(e(0), 0.6), (), e(0))
        x = SpherePoint([math.cos(0.3), math.sin(0.3), 0, 0])
        p, stats = project(r, x)
        assert distance(p, x) <= 1e-10
        assert stats.sweeps == 0

    def test_single_halfspace_closed_form(self):
        """Drop the negative component and renormalize (KKT)."""
        h = Halfspace([1.0, 0, 0, 0])
        r = Region(Cap(e(1), 0.7), (h,), e(1))
        p, _ = project(r, SpherePoint([-0.6, 0.8, 0, 0]))
        np.testing.assert_allclose(p.coords, [0, 1, 0, 0], atol=1e-12)

    def test_cap_only_closed_form(self):
        """Slide along the geodesic toward the pole until distance rho."""
        r = Region(Cap(e(0), math.pi / 6), (), e(0))
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
                cuts.append(Halfspace(a))
            r = Region(Cap(pole, 0.7), tuple(cuts), w)
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
            r = Region(Cap(pole, 0.7), (Halfspace(a),), w)
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
                cuts.append(Halfspace(a))
            r = Region(Cap(pole, 0.7), tuple(cuts), w)
            x = SpherePoint(sample_cap(pole.coords, 1.3, 1, rng)[0])
            p, _ = project(r, x)
            assert contains(r, p, 1e-8)

    def test_degenerate_query_raises(self):
        r = Region(Cap(e(0), 0.3), (), e(0))
        with pytest.raises(EmptyOrDegenerate):
            project(r, SpherePoint(-e(0).coords))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("cuts, start", [((), ()), ((Halfspace([0, 1.0, 0, 0]),), (0,))])
    def test_non_finite_query_raises(self, bad, cuts, start):
        """A NaN or infinite query is never returned as a member, nor left
        to the solver: it raises a typed error."""
        r = Region(Cap(e(0), 0.6), cuts, e(0))
        x = SpherePoint._wrap(np.array([1.0, bad, 0.0, 0.0]))
        with pytest.raises(EmptyOrDegenerate):
            project(r, x, start)

    def test_sweep_budget_exhaustion_raises(self, monkeypatch):
        """Exhausting the sweep budget surfaces as NoConvergence."""
        monkeypatch.setattr("sphereproj.regions.SOLVER_MAX_SWEEPS", 1)
        h = Halfspace([1.0, 0, 0, 0])
        r = Region(Cap(e(1), 0.7), (h,), e(1))
        with pytest.raises(NoConvergence):
            project(r, SpherePoint([-0.6, 0.8, 0, 0]))

    def test_passed_over_cut_cannot_leak_out(self, monkeypatch):
        """If the solver passes over a violated cut (its entering
        multiplier comes out nonpositive), the result breaks that cut, and
        the final check must raise rather than return it."""
        base = Region(Cap(e(0), 0.6), (), SpherePoint([1, 0.3, 0, 0]))
        r = intersect(base, (e(1).coords,))
        monkeypatch.setattr(_CutCone, "_solve", lambda self, b, idx: (b, [0.0] * len(idx)))
        with pytest.raises(NoConvergence,
                           match="^projection result violates the region beyond tolerance$"):
            project(r, SpherePoint([1, -0.2, 0.1, 0]))

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_narrow_wedge_closed_form(self, eps):
        """Two cuts at angle eps, with x in the polar cone of their wedge:
        the projection drops the first two coordinates and renormalizes.
        Alternating projections stall on this wedge, since each sweep
        shrinks the error only by a factor set by the angle between the
        cuts; an exact solver must not."""
        cuts = (Halfspace([1.0, 0, 0, 0]),
                Halfspace([math.cos(eps), math.sin(eps), 0, 0]))
        r = Region(Cap(e(3), 0.6), cuts, e(3))
        x = SpherePoint([-0.3 * math.cos(eps / 2), -0.3 * math.sin(eps / 2), 0.1, 1.0])
        p, stats = project(r, x)
        expected = np.array([0.0, 0.0, 0.1, 1.0]) / math.sqrt(1.01)
        np.testing.assert_allclose(p.coords, expected, rtol=0.0, atol=1e-12)
        assert contains(r, p, 1e-12)
        assert stats.active_cuts == (0, 1) and not stats.cap_active

    @pytest.mark.parametrize("cuts", [([1.0, 0, 0, 0], [0, 1.0, 0, 0]),
                                      ([0, 1.0, 0, 0], [1.0, 0, 0, 0])],
                             ids=["axis-0-first", "axis-1-first"])
    def test_tie_enters_the_lower_index(self, cuts, monkeypatch):
        """x breaks both cuts by the same amount, bit for bit: the sweep
        enters cut 0 first, whichever axis it holds, and then cut 1."""
        r = Region(Cap(e(3), 0.6), [Halfspace(a) for a in cuts], e(3))
        x = SpherePoint([-0.1, -0.1, 0.05, 1.0])
        slack = r.normals.dot(x.coords)
        assert slack[0] == slack[1] < 0.0
        solves = []
        real_solve = _CutCone._solve

        def spy(cone, b, idx):
            solves.append(tuple(idx.tolist()))
            return real_solve(cone, b, idx)

        monkeypatch.setattr(_CutCone, "_solve", spy)
        _, stats = project(r, x)
        assert solves == [(0,), (0, 1)]
        assert stats.active_cuts == (0, 1) and stats.sweeps == 3


class TestMembershipProperty:
    """`project` gives the query itself with zero solver effort exactly when
    `contains` at tolerance 0 admits it.  Regions carry 0 to d + 4 cuts
    facing the pole, which witnesses them.  The queries are a point near
    the cap, the pole, and the projection of the first: a point on the
    boundary, where the last bit of a slack decides membership."""

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_returns_the_query_iff_contained(self, seed, data):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 7))
        pole = rng.standard_normal(d)
        pole /= np.linalg.norm(pole)
        radius = float(rng.uniform(0.05, 0.75))
        normals = []
        for _ in range(data.draw(st.integers(0, d + 4))):
            a = rng.standard_normal(d)
            a -= a.dot(pole) * pole
            a += rng.uniform(0.0, 0.5) * np.linalg.norm(a) * pole
            normals.append(a)
        g = rng.standard_normal(d)
        g -= g.dot(pole) * pole
        t = radius * rng.uniform(0.0, 1.5)
        x = SpherePoint(math.cos(t) * pole + math.sin(t) * g / np.linalg.norm(g))
        r = Region(Cap(SpherePoint(pole), radius),
                   [Halfspace(a) for a in normals], SpherePoint(pole))
        for q in (x, r.witness, project(r, x)[0]):
            p, stats = project(r, q)
            assert (p is q and stats == SolveStats(0)) == contains(r, q, 0.0)
            assert (r.slack(q) >= 0.0) == contains(r, q, 0.0)


class TestWarmStart:
    """A start set seeds the solver's active set and changes only its sweep
    count.  In the region below the optimum has cut 0 active alone: x breaks
    cuts 0 and 1, projecting onto cut 0 also satisfies cut 1, and x already
    satisfies cut 2.  While a solve on the start gives a nonpositive
    multiplier, the solver drops the one cut with the most negative
    multiplier and solves again on the rest."""

    X = SpherePoint([-0.3, -0.1, 0.05, 0.95])
    CUTS = (Halfspace([1.0, 0, 0, 0]), Halfspace([1.0, -1.0, 0, 0]),
            Halfspace([0, 0, 1.0, 0]))
    STALE = {
        "past the end": (7,),
        "negative multiplier": (2,),   # x satisfies cut 2 strictly
        "non-binding cut": (1,),       # positive alone, then stepped back
        "mixed": (1, 2, 7),
        "two dropped at once": (0, 1, 2),   # multipliers +, -, -: two solves drop them
    }

    def region(self, radius):
        return Region(Cap(e(3), radius), self.CUTS, e(3))

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
        """A start whose first solve has two nonpositive multipliers.  The
        solver drops one cut per solve, the most negative: cut 3, then cut 0,
        then cut 2, whose multiplier turns negative once cut 0 is gone.  It
        keeps cut 1 and still gives the cold answer bit for bit.  At radius
        0.4 the cap binds next to cut 1."""
        cuts = [Halfspace(a) for a in ([-0.7, 0.6, -0.1, 0.7], [0.4, 0.8, -1.6, 0.4],
                                       [-1.0, -0.2, -1.3, 0.1], [0.0, -0.3, -1.0, 0.5])]
        r = Region(Cap(e(3), radius), cuts, e(3))
        x = SpherePoint([-0.33, -0.41, 0.07, 1.0])
        p_cold, cold = project(r, x)
        solves = []
        real_solve = _CutCone._solve

        def spy(cone, b, idx):
            z, s = real_solve(cone, b, idx)
            solves.append((tuple(idx.tolist()), s))
            return z, s

        monkeypatch.setattr(_CutCone, "_solve", spy)
        p, warm = project(r, x, (0, 1, 2, 3))
        assert [idx for idx, _ in solves[:4]] == [(0, 1, 2, 3), (0, 1, 2), (1, 2), (1,)]
        for (idx, s), (after, _) in zip(solves[:3], solves[1:4]):
            dropped = idx[s.index(min(s))]
            assert min(s) <= 0.0 and after == tuple(i for i in idx if i != dropped)
        assert min(solves[3][1]) > 0.0
        assert cold.active_cuts == (1,) and cold.cap_active is cap_binds
        assert p.coords.tobytes() == p_cold.coords.tobytes()
        assert warm.active_cuts == cold.active_cuts
        assert warm.cap_active == cold.cap_active
        assert warm.kkt_residual == cold.kkt_residual

    @pytest.mark.parametrize("radius", [0.6, 0.1])
    def test_duplicate_cuts_in_start(self, radius):
        # two copies of cut 0 are linearly dependent: the second gets a zero
        # multiplier and is dropped, instead of dividing by zero
        r = Region(Cap(e(3), radius), self.CUTS + (self.CUTS[0],), e(3))
        p_cold, cold = project(r, self.X)
        p, warm = project(r, self.X, (0, 3))
        assert p.coords.tobytes() == p_cold.coords.tobytes()
        assert warm._replace(sweeps=0) == cold._replace(sweeps=0)

    @pytest.mark.parametrize("radius", [0.6, 0.1])
    def test_square_start_with_a_repeated_cut(self, radius):
        # four cuts in R^4, cut 0 twice: the square set is singular
        r = Region(Cap(e(3), radius), self.CUTS + (self.CUTS[0],), e(3))
        p_cold, cold = project(r, self.X)
        p, warm = project(r, self.X, (0, 1, 2, 3))
        assert p.coords.tobytes() == p_cold.coords.tobytes()
        assert warm._replace(sweeps=0) == cold._replace(sweeps=0)

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


class TestEveryCutActive:
    """When the start leaves every cut active, no cut may enter, so the
    certifying sweep is counted without reading a slack.  The region is the
    narrow wedge of `TestProject`, whose optimum has both cuts active: the
    start (0, 1) that every CQ step after the first passes."""

    EPS = 1e-2
    X = SpherePoint([-0.3 * math.cos(EPS / 2), -0.3 * math.sin(EPS / 2), 0.1, 1.0])

    def region(self):
        cuts = (Halfspace([1.0, 0, 0, 0]),
                Halfspace([math.cos(self.EPS), math.sin(self.EPS), 0, 0]))
        return Region(Cap(e(3), 0.6), cuts, e(3))

    def test_one_solve_and_one_counted_sweep(self, monkeypatch):
        r = self.region()
        p_cold, cold = project(r, self.X)
        solves = []
        real_solve = _CutCone._solve

        def spy(cone, b, idx):
            solves.append(tuple(idx.tolist()))
            return real_solve(cone, b, idx)

        monkeypatch.setattr(_CutCone, "_solve", spy)
        p, warm = project(r, self.X, (0, 1))
        assert solves == [(0, 1)] and warm.sweeps == 1
        assert cold.active_cuts == (0, 1) and cold.sweeps == 3
        assert p.coords.tobytes() == p_cold.coords.tobytes()
        assert warm.active_cuts == cold.active_cuts
        assert warm.kkt_residual == cold.kkt_residual
        assert warm.cap_active is cold.cap_active is False

    def test_certifying_sweep_reads_no_slack(self):
        """The region's cut matrix is multiplied twice, by the query for the
        membership test and by the result for its check: the sweep adds no
        product of its own."""
        r = self.region()
        products = []

        class Rows(np.ndarray):
            def dot(self, *args):
                products.append(self is r.normals)
                return np.ndarray.dot(self, *args)

        r.normals = r.normals.view(Rows)
        project(r, self.X, (0, 1))
        assert products.count(True) == 2

    def test_spent_budget_still_raises(self, monkeypatch):
        monkeypatch.setattr("sphereproj.regions.SOLVER_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence, match="within 0 sweeps"):
            project(self.region(), self.X, (0, 1))

    def test_bare_cap(self, monkeypatch):
        """With no cuts every call's one sweep is counted: a member costs
        nothing, and a point outside is the cap's closed form, one sweep per
        bisection solve."""
        r = Region(Cap(e(0), math.pi / 6), (), e(0))
        inside = SpherePoint([math.cos(0.3), math.sin(0.3), 0, 0])
        p, stats = project(r, inside)
        assert p is inside and stats == SolveStats(0)
        calls = []
        real_project = _CutCone.project

        def spy(cone, b):
            calls.append(cone.sweeps)
            return real_project(cone, b)

        monkeypatch.setattr(_CutCone, "project", spy)
        p, stats = project(r, e(1))
        expected = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6), 0, 0])
        np.testing.assert_allclose(p.coords, expected, atol=1e-12)
        assert calls == list(range(len(calls))) and stats.sweeps == len(calls) > 2
        assert stats.active_cuts == () and stats.cap_active


class TestSquareSet:
    """d cuts in R^d are all tight only at z = 0.  When a multiplier of
    such a set is nonpositive, `_solve` returns no point, and Gram-Schmidt
    runs only when every multiplier is positive."""

    @staticmethod
    def spy_on_solve(monkeypatch):
        solves = []
        real_solve = _CutCone._solve

        def spy(cone, b, idx):
            z, s = real_solve(cone, b, idx)
            solves.append((len(idx), z, s))
            return z, s

        monkeypatch.setattr(_CutCone, "_solve", spy)
        return solves

    def test_step_path_never_orthonormalizes_a_square_set(self, monkeypatch):
        """30 shrinking steps on the c05 problem: the pole lies in every cut,
        so the projection is never 0 and a square set only drops a cut."""
        pole = e(3)
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        problem = Problem(4, pole, math.pi / 5, fam,
                          random_point_in_cap(pole, math.pi / 5, 20250801))
        solves = self.spy_on_solve(monkeypatch)
        states = iterate(problem, "shrinking")
        for _ in range(30):
            next(states)
        square = [(z, s) for k, z, s in solves if k == 4]
        assert square
        assert all(z is None and min(s) <= 0.0 for z, s in square)

    @pytest.mark.parametrize("x", [[-1.0, -1.0, -1.0, -1.0], [-1.0, -1.0, -1.0, -0.9],
                                   [-1.0, -0.5, -1.0, -0.9]])
    def test_positive_square_multipliers_take_gram_schmidt(self, x, monkeypatch):
        """Outside input whose cone projection is 0: the cuts e0..e3 bound
        the positive orthant and x lies in its polar, so all four
        multipliers are positive, Gram-Schmidt gives the point and
        `project` raises as it did before the square rule."""
        w = SpherePoint([0.5, 0.5, 0.5, 0.5])
        r = Region(Cap(w, 0.6), [Halfspace(e(i).coords) for i in range(4)], w)
        solves = self.spy_on_solve(monkeypatch)
        with pytest.raises(EmptyOrDegenerate, match="^cone projection collapsed to the zero vector$"):
            project(r, SpherePoint(x), (0, 1, 2, 3))
        square = [(z, s) for k, z, s in solves if k == 4]
        assert square
        assert all(z is not None and min(s) > 0.0 for z, s in square)


class TestStartSetProperty:
    """Any start set gives the cold call's answer bit for bit: the point,
    `active_cuts`, `cap_active` and `kkt_residual`; only the sweeps may
    differ.  The region has d to d + 4 cuts, some nearly parallel to the one
    before, all facing the pole, which witnesses the region.  A query inside
    the cap leaves the cap free (the pole lies in the cut cone); one well
    outside it usually makes the cap bind.  Starts mix valid and past-the-end
    indices, and may name more than d cuts, which are linearly dependent;
    the second start names exactly d cuts, one more than a nonzero
    projection can keep active."""

    @pytest.mark.parametrize("cap_binds", [False, True])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_start_gives_the_cold_answer(self, cap_binds, seed, data):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 7))
        pole = rng.standard_normal(d)
        pole /= np.linalg.norm(pole)
        radius = float(rng.uniform(0.05, 0.75))
        normals = []
        for _ in range(int(rng.integers(d, d + 5))):
            if normals and rng.random() < 0.3:
                a = normals[-1] + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(d)
            else:
                a = rng.standard_normal(d)
                a -= a.dot(pole) * pole
                a += rng.uniform(0.0, 0.3) * np.linalg.norm(a) * pole
            normals.append(a if a.dot(pole) >= 0.0 else -a)
        g = rng.standard_normal(d)
        g -= g.dot(pole) * pole
        t = radius * (rng.uniform(1.2, 2.0) if cap_binds else rng.uniform(0.0, 1.0))
        x = SpherePoint(math.cos(t) * pole + math.sin(t) * g / np.linalg.norm(g))
        r = Region(Cap(SpherePoint(pole), radius),
                   [Halfspace(a) for a in normals], SpherePoint(pole))
        m = len(normals)
        p_cold, cold = project(r, x)
        assume(cold.cap_active is cap_binds)
        starts = [data.draw(st.lists(st.integers(0, m + 1), max_size=m + 2)),
                  data.draw(st.permutations(range(m)))[:d]]
        for start in starts:
            p, warm = project(r, x, tuple(start))
            assert p.coords.tobytes() == p_cold.coords.tobytes()
            assert warm._replace(sweeps=0) == cold._replace(sweeps=0)


class TestIntersect:
    def test_trivial_halfspace_not_appended(self):
        r = Region(Cap(e(0), 0.6), (), e(0))
        r2 = intersect(r, (None,))
        assert len(r2.normals) == len(r.normals)

    def test_appended_constraint_holds_for_witness(self):
        h = Halfspace([0.0, 1.0, 0, 0])
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0, 0])
        r2 = intersect(Region(Cap(e(0), 0.6), (), w), (h,))
        assert r2.witness is w
        assert contains(r2, w, 1e-10)
        assert len(r2.normals) == 1

    def test_nan_cut_rejected(self):
        """A NaN in a fresh cut makes the witness's least slack NaN, which
        the witness check of the step path's `_append` rejects; `intersect`
        rejects the row before that, as not a unit vector."""
        r = Region(Cap(e(3), 0.6), (), e(3))
        row = np.array([math.nan, 0.0, 0.0, 1.0])
        with pytest.raises(FeasibilityViolated, match="by nan$"):
            _append(r, (row,))
        with pytest.raises(ValueError, match="squared norm nan$"):
            intersect(r, (row,))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("x", [[1.0, 0.2, 0.0, -0.1], [0.5, 0.1, 0.2, 0.0]],
                             ids=["slack-inf", "slack-nan"])
    def test_non_finite_cut_raises_on_projection(self, x):
        """A non-finite row, which only the step path's `_append` takes
        unchecked, gives x a slack of -inf or NaN, which `project` rejects
        with a typed error before the solver starts."""
        r = _append(Region(Cap(e(3), 0.6), (), e(3)),
                    (np.array([0.0, 0.0, 0.0, math.inf]),))
        with pytest.raises(EmptyOrDegenerate, match="^query point or a region cut is not finite$"):
            project(r, SpherePoint(x))

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0, math.inf], [3.0, 0.0, 0.0, 1.0]],
                             ids=["inf", "non-unit"])
    def test_item_4c_bad_row_rejected(self, row):
        """The witness e3 passes both rows (inf * 1 is inf), so the witness
        check alone would append them, and `contains` and `project` would
        read the first as z3 > 0.  `intersect`, the entry point for outside
        cuts, refuses every row that is not a finite unit vector (ROADMAP
        item 19), and appends nothing."""
        r = Region(Cap(e(3), 0.6), (), e(3))
        ok = np.array([0.0, 0.0, 0.6, 0.8])
        with pytest.raises(ValueError, match="^cut normal is not a finite unit vector"):
            intersect(r, (ok, np.array(row)))
        assert len(r.normals) == 0
        assert intersect(r, (ok,)).normals.tobytes() == ok.tobytes()

    @pytest.mark.parametrize("row, detail", [
        (np.array([0.0, 0.6, 0.8]), r"shape \(3,\)"),
        (np.array([[0.0, 0.0, 0.6, 0.8]]), r"shape \(1, 4\)"),
        (np.array(1.0), r"shape \(\)"),
        ([0.0, 0.0, 0.6, 0.8], "got list"),
    ], ids=["length-3", "1x4", "0-d", "list"])
    def test_wrong_shaped_row_rejected(self, row, detail):
        """`intersect` and `Region` share one row check: a row that is not
        a 1-d array of the cap's dimension raises its ValueError, not
        numpy's, and nothing is appended or built."""
        r = Region(Cap(e(3), 0.6), (), e(3))
        ok = np.array([0.0, 0.0, 0.6, 0.8])
        message = f"^cut normal is not a finite unit vector of dimension 4: {detail}$"
        with pytest.raises(ValueError, match=message):
            intersect(r, (ok, row))
        assert len(r.normals) == 0
        with pytest.raises(ValueError, match=message):
            Region(r.cap, (ok, row), e(3))

    def test_infeasible_new_witness_rejected(self):
        h = Halfspace([0.0, -1.0, 0, 0])
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0, 0])
        with pytest.raises(FeasibilityViolated):
            intersect(Region(Cap(e(0), 0.6), (), w), (h,))

    def test_several_cuts_append_in_order(self):
        """One call appends every non-trivial cut in order, exactly as the
        constructor stacks them, and checks the witness against all of them."""
        cap = Cap(e(0), 0.6)
        h1 = Halfspace([0.0, 1.0, 0.0, 0.0])
        h2 = Halfspace([0.0, 0.3, 1.0, 0.0])
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
        r2 = intersect(Region(cap, (), w), (h1, None, h2))
        built = Region(cap, (h1, h2), w)
        assert r2.normals.tobytes() == built.normals.tobytes()
        assert r2.normals.shape == built.normals.shape
        assert len(r2.normals) == 2

        # inside the cap and h1, outside h2 only
        bad = SpherePoint([math.cos(0.2), 0.1, -0.15, 0.0])
        assert h1.dot(bad.coords) > 0.0 and cap.slack(bad) > 0.0
        assert h2.dot(bad.coords) < 0.0
        with pytest.raises(FeasibilityViolated):
            intersect(Region(cap, (), bad), (h1, h2))

    def test_own_witness_checked_against_fresh_cuts(self):
        """Keeping the region's witness skips only the checks it has
        passed: a fresh cut that excludes it still raises."""
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
        base = Region(Cap(e(0), 0.6), (), w)
        r = intersect(base, (Halfspace([0.0, 1.0, 0, 0]),))
        ok = Halfspace([0.0, 0.0, 1.0, 0.0])
        assert intersect(r, (ok,)).normals.tobytes() == \
            Region(r.cap, (Halfspace(r.normals[0]), Halfspace(ok)), w).normals.tobytes()
        with pytest.raises(FeasibilityViolated):
            intersect(r, (ok, Halfspace([0.0, -1.0, 0.5, 0])))

    def test_repeated_last_row_not_appended(self):
        """A cut bitwise equal to the row before it adds nothing: the region
        itself comes back, and a repeat inside one call is appended once."""
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
        a = Halfspace([0.0, 1.0, 0.0, 0.0])
        b = Halfspace([0.0, 0.3, 1.0, 0.0])
        r = intersect(Region(Cap(e(0), 0.6), (), w), (a, b))
        assert intersect(r, (r.normals[-1],)) is r
        assert intersect(r, (None, b.copy(), None)) is r
        c = Halfspace([0.0, 0.2, 0.0, 1.0])
        for cuts in ((c, c), (b, c, c), (c, None, c)):
            r2 = intersect(r, cuts)
            assert r2.normals.tobytes() == np.concatenate((r.normals, [c])).tobytes()
        bare = Region(Cap(e(0), 0.6), (), w)
        assert len(intersect(bare, (a, a)).normals) == 1

    def test_older_or_one_ulp_off_repeat_appended(self):
        """Only the row just before counts, and only bit for bit."""
        w = SpherePoint([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
        a = Halfspace([0.0, 1.0, 0.0, 0.0])
        b = Halfspace([0.0, 0.3, 1.0, 0.0])
        r = intersect(Region(Cap(e(0), 0.6), (), w), (a, b))
        older = intersect(r, (r.normals[0],))
        assert len(older.normals) == 3
        assert older.normals[2].tobytes() == a.tobytes()
        ulp = b.copy()
        ulp[2] = np.nextafter(ulp[2], 2.0)
        off = intersect(r, (ulp,))
        assert len(off.normals) == 3
        assert off.normals[2].tobytes() == ulp.tobytes() != b.tobytes()

    def test_nested_regions_monotone(self):
        """Membership in a later region implies membership in every earlier one."""
        rng = np.random.default_rng(16)
        pole = e(0)
        w = pole
        regions = [Region(Cap(pole, 0.7), (), pole)]
        for _ in range(4):
            a = rng.standard_normal(4)
            if a @ w.coords < 0:
                a = -a
            regions.append(intersect(regions[-1], (Halfspace(a),)))
        zs = rng.standard_normal((1000, 4))
        zs /= np.linalg.norm(zs, axis=1)[:, None]
        for row in zs:
            z = SpherePoint(row)
            flags = [contains(r, z, 1e-12) for r in regions]
            for earlier, later in zip(flags, flags[1:]):
                assert earlier or not later
