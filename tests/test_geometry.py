"""Tests for the spherical geometry kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereproj.errors import AntipodalPoints
from sphereproj.geometry import (
    SpherePoint,
    basis_point,
    distance,
    geodesic_combine,
    inner,
    random_point_in_cap,
    sample_cap,
)

from reference import PerimeterTooLarge, pal_inequality_gap, pal_inequality_gaps


def e(i, dim=4):
    return basis_point(i, dim)


def random_unit(rng, dim=4):
    v = rng.standard_normal(dim)
    return SpherePoint(v)


class TestSpherePoint:
    def test_renormalizes_on_construction(self):
        p = SpherePoint([0.0, 0.8, 0.0, 0.0])
        np.testing.assert_allclose(p.coords, [0, 1, 0, 0], atol=1e-15)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            SpherePoint([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpherePoint([np.nan, 1.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            SpherePoint([0.0, 0.0, 0.0])

    def test_coords_read_only(self):
        p = e(0)
        with pytest.raises(ValueError):
            p.coords[0] = 2.0
        # _wrap marks the array it is given read-only, in place
        v = np.array([0.6, 0.8])
        q = SpherePoint._wrap(v)
        assert q.coords is v and not v.flags.writeable
        with pytest.raises(ValueError):
            q.coords[0] = 2.0

    def test_rows_are_read_only_views_of_the_stack(self):
        stack = sample_cap(e(3).coords, 0.5, 5, np.random.default_rng(0))
        points = SpherePoint._rows(stack)
        assert not stack.flags.writeable
        assert len(points) == len(stack)
        for p, row in zip(points, stack):
            assert type(p) is SpherePoint
            assert np.shares_memory(p.coords, stack)
            assert p.coords.tobytes() == row.tobytes()
            assert not p.coords.flags.writeable
            with pytest.raises(ValueError):
                p.coords[0] = 2.0

    def test_basis_point_is_a_sphere_point(self):
        """Bools and numpy integers are axes, a float is not, and d >= 2
        holds as for any sphere point."""
        for axis, j in ((True, 1), (False, 0), (np.int64(2), 2)):
            assert basis_point(axis, 4).coords.tolist() == np.eye(4)[j].tolist()
        with pytest.raises(TypeError):
            basis_point(1.5, 4)
        with pytest.raises(ValueError, match="d >= 2"):
            basis_point(0, 1)
        with pytest.raises(ValueError, match="out of range"):
            basis_point(4, 4)


class TestInnerAndDistance:
    def test_inner_identical(self):
        assert inner(e(0), e(0)) == 1.0

    def test_inner_orthogonal(self):
        assert inner(e(0), e(1)) == 0.0

    def test_inner_antipodal(self):
        m = SpherePoint(-e(0).coords)
        assert inner(e(0), m) == -1.0

    def test_inner_clamped(self):
        # construct a pair whose raw dot product rounds past 1
        v = np.full(4, 0.5)
        p, q = SpherePoint(v), SpherePoint(v * (1 + 1e-16))
        assert -1.0 <= inner(p, q) <= 1.0
        assert distance(p, q) == pytest.approx(0.0, abs=1e-7)

    def test_distance_identity(self):
        assert distance(e(0), e(0)) == 0.0

    def test_distance_orthogonal(self):
        assert distance(e(0), e(1)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_distance_planar_rotation(self):
        p = SpherePoint([math.cos(0.3), math.sin(0.3), 0.0, 0.0])
        assert distance(e(0), p) == pytest.approx(0.3, abs=1e-12)

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = random_unit(rng), random_unit(rng)
            assert distance(x, y) == distance(y, x)

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            x, y, z = (random_unit(rng) for _ in range(3))
            assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-10


class TestGeodesicCombine:
    def test_endpoint_alpha_one_exact(self):
        x, y = e(0), e(1)
        assert geodesic_combine(1.0, x, y) is x

    def test_endpoint_alpha_zero_exact(self):
        x, y = e(0), e(1)
        assert geodesic_combine(0.0, x, y) is y

    def test_midpoint_of_orthogonal_pair(self):
        m = geodesic_combine(0.5, e(0), e(1))
        s = math.sqrt(2) / 2
        np.testing.assert_allclose(m.coords, [s, s, 0, 0], atol=1e-15)

    def test_coincident_inputs_return_x(self):
        x = e(2)
        assert geodesic_combine(0.5, x, SpherePoint(x.coords.copy())) is not None
        assert distance(geodesic_combine(0.3, x, x), x) == 0.0

    def test_antipodal_raises(self):
        x = e(0)
        y = SpherePoint(-x.coords)
        with pytest.raises(AntipodalPoints):
            geodesic_combine(0.5, x, y)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            geodesic_combine(1.5, e(0), e(1))

    def test_distance_split_random(self):
        """d(y,z) = alpha*d(x,y) and d(x,z) = (1-alpha)*d(x,y)."""
        rng = np.random.default_rng(2)
        center = e(0)
        pts = sample_cap(center.coords, 1.0, 400, rng)
        alphas = rng.random(200)
        for k in range(200):
            x = SpherePoint(pts[2 * k])
            y = SpherePoint(pts[2 * k + 1])
            a = float(alphas[k])
            z = geodesic_combine(a, x, y)
            theta = distance(x, y)
            assert distance(y, z) == pytest.approx(a * theta, abs=1e-10)
            assert distance(x, z) == pytest.approx((1 - a) * theta, abs=1e-10)

    def test_result_in_span_of_inputs(self):
        """The combination stays on the great circle through x and y."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = random_unit(rng), random_unit(rng)
            if inner(x, y) < -0.9:
                continue
            z = geodesic_combine(rng.random(), x, y)
            u = x.coords
            w = y.coords - (y.coords @ u) * u
            w /= np.linalg.norm(w)
            resid = z.coords - (z.coords @ u) * u - (z.coords @ w) * w
            assert np.linalg.norm(resid) <= 1e-12

    @given(st.floats(1e-3, 1 - 1e-3), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_distance_split_hypothesis(self, alpha, seed):
        # alpha bounded away from the endpoints: below ~1e-8 the split
        # distance itself drops under arccos measurement precision
        rng = np.random.default_rng(seed)
        pts = sample_cap(e(0).coords, 1.2, 2, rng)
        x, y = SpherePoint(pts[0]), SpherePoint(pts[1])
        z = geodesic_combine(alpha, x, y)
        theta = distance(x, y)
        assert abs(distance(y, z) - alpha * theta) <= 1e-10


class TestComparisonInequality:
    def test_endpoint_t_one_collapses(self):
        """v = x makes both sides equal up to rounding."""
        rng = np.random.default_rng(4)
        pts = sample_cap(e(0).coords, 0.7, 3, rng)
        x, y, z = (SpherePoint(p) for p in pts)
        assert pal_inequality_gap(1.0, x, y, z) == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_with_z_at_endpoint(self):
        """Frozen case: x=e1, y=e2, z=e1, t=1/2 gives gap exactly 0.

        Both sides evaluate to sqrt(2)/2 (z lies on the geodesic): LHS =
        cos(pi/4)*sin(pi/2); RHS = cos(0)*sin(pi/4) + cos(pi/2)*sin(pi/4).
        """
        gap = pal_inequality_gap(0.5, e(0), e(1), e(0))
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert gap >= -1e-10

    def test_gap_nonnegative_random_sweep(self):
        rng = np.random.default_rng(5)
        pts = sample_cap(e(0).coords, 0.7, 3000, rng).reshape(1000, 3, 4)
        ts = rng.random(1000)
        worst = min(
            pal_inequality_gap(float(ts[k]), SpherePoint(pts[k, 0]),
                               SpherePoint(pts[k, 1]), SpherePoint(pts[k, 2]))
            for k in range(1000)
        )
        assert worst >= -1e-10

    def test_perimeter_too_large_raises(self):
        x, y = e(0), e(1)
        z = SpherePoint(-(x.coords + y.coords))
        with pytest.raises(PerimeterTooLarge):
            pal_inequality_gap(0.5, x, y, z)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        pts = sample_cap(e(0).coords, 0.7, 1500, rng).reshape(500, 3, 4)
        ts = rng.random(500)
        gaps = pal_inequality_gaps(ts, pts[:, 0], pts[:, 1], pts[:, 2])
        for k in range(500):
            scalar = pal_inequality_gap(float(ts[k]), SpherePoint(pts[k, 0]),
                                        SpherePoint(pts[k, 1]),
                                        SpherePoint(pts[k, 2]))
            assert abs(scalar - float(gaps[k])) <= 1e-12

    def test_batch_coincident_rows_use_extension(self):
        x = e(0).coords[None, :]
        z = e(1).coords[None, :]
        gap = pal_inequality_gaps(np.array([0.3]), x, x.copy(), z)
        assert gap[0] == pytest.approx(0.0, abs=1e-15)

    def test_batch_perimeter_guard(self):
        x = e(0).coords[None, :]
        y = e(1).coords[None, :]
        z = -(x + y) / np.linalg.norm(x + y)
        with pytest.raises(PerimeterTooLarge):
            pal_inequality_gaps(np.array([0.5]), x, y, z)


class TestRandomPointInCap:
    def test_deterministic_for_fixed_seed(self):
        a = random_point_in_cap(e(0), 0.5, 123)
        b = random_point_in_cap(e(0), 0.5, 123)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_within_cap_sweep(self):
        rng = np.random.default_rng(6)
        pts = sample_cap(e(0).coords, 0.5, 10_000, rng)
        d = np.arccos(np.clip(pts @ e(0).coords, -1, 1))
        assert d.max() <= 0.5 + 1e-12

    def test_tiny_radius_approaches_center(self):
        p = random_point_in_cap(e(0), 1e-9, 99)
        assert distance(p, e(0)) <= 1e-9

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            random_point_in_cap(e(0), 0.0, 1)
        with pytest.raises(ValueError):
            random_point_in_cap(e(0), math.pi / 2, 1)
