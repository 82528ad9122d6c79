"""Tests for the brute-force and closed-form oracles."""

import math

import numpy as np
import pytest

from sphereproj.errors import DegenerateInput, NoFeasibleGridPoint
from sphereproj.geometry import SpherePoint, basis_point, distance, sample_cap
from sphereproj.oracle import (
    GeodesicGrid,
    brute_project,
    circle_project,
    sin_lemma_check,
    subspace_project,
)
from sphereproj.regions import Halfspace, Region, project


def e3(i):
    return basis_point(i, 3)


class TestGeodesicGrid:
    def test_requires_two_sphere(self):
        with pytest.raises(ValueError):
            GeodesicGrid(basis_point(0, 4), 0.5, 0.01)

    def test_covering_radius(self):
        """Every cap point lies within the resolution of some grid point."""
        grid = GeodesicGrid(e3(2), 0.6, 0.02)
        rng = np.random.default_rng(30)
        pts = sample_cap(e3(2).coords, 0.6, 2000, rng)
        cos_best = (grid.points @ pts.T).max(axis=0)
        worst = float(np.arccos(np.clip(cos_best, -1, 1)).max())
        assert worst <= 0.02

    def test_points_are_unit(self):
        grid = GeodesicGrid(e3(0), 0.5, 0.05)
        np.testing.assert_allclose(np.linalg.norm(grid.points, axis=1), 1.0,
                                   atol=1e-12)


class TestBruteProject:
    def test_feasible_point_recovered(self):
        r = Region.from_cap(e3(2), 0.5)
        x = SpherePoint([math.sin(0.2), 0.0, math.cos(0.2)])
        p = brute_project(r, x, h=0.01)
        assert distance(p, x) <= 2e-4

    def test_single_halfspace_matches_kkt(self):
        h = Halfspace([1.0, 0, 0], 0.0)
        r = Region(Halfspace.cap(e3(1), 0.7), (h,), e3(1))
        p = brute_project(r, SpherePoint([-0.6, 0.8, 0.0]), h=0.01)
        np.testing.assert_allclose(p.coords, [0, 1, 0], atol=2e-4)

    def test_cap_only_matches_closed_form(self):
        r = Region.from_cap(e3(0), math.pi / 6)
        p = brute_project(r, e3(1), h=0.01)
        expected = [math.cos(math.pi / 6), math.sin(math.pi / 6), 0.0]
        np.testing.assert_allclose(p.coords, expected, atol=2e-4)

    def test_region_thinner_than_grid(self):
        """A region whose feasible set is a single boundary point defeats
        any grid: the halfspace through a rim point shaves off the cap.  The
        rim azimuth is chosen off the grid's sampling lattice."""
        rho = 0.3
        w = SpherePoint([math.sin(rho) * math.cos(0.37),
                         math.sin(rho) * math.sin(0.37),
                         math.cos(rho)])
        normal = -(e3(2).coords - math.cos(rho) * w.coords)
        r = Region(Halfspace.cap(e3(2), rho), (Halfspace(normal, 0.0),), w)
        with pytest.raises(NoFeasibleGridPoint):
            brute_project(r, e3(0), h=0.01)

    def test_dimension_guard(self):
        r = Region.from_cap(basis_point(0, 4), 0.5)
        with pytest.raises(ValueError):
            brute_project(r, basis_point(1, 4), h=0.01)

    def test_projection_beats_every_grid_point(self):
        """Distance-level optimality: no feasible grid point at resolution
        1e-3 is closer to the query than the production projection, beyond
        the grid tolerance."""
        rng = np.random.default_rng(34)
        for _ in range(100):
            pole = SpherePoint(rng.standard_normal(3))
            rho = float(rng.uniform(0.3, 0.75))
            w = SpherePoint(sample_cap(pole.coords, 0.6 * rho, 1, rng)[0])
            cuts = []
            for _ in range(int(rng.integers(0, 4))):
                a = rng.standard_normal(3)
                margin = float(a @ w.coords)
                if margin < 0.05:
                    a += (0.15 - margin) * w.coords
                cuts.append(Halfspace(a, 0.0))
            r = Region(Halfspace.cap(pole, rho), tuple(cuts), w)
            x = SpherePoint(sample_cap(pole.coords, 1.2, 1, rng)[0])
            p, _ = project(r, x)
            grid = GeodesicGrid(pole, rho, 1e-3).points
            mask = grid @ r.cap.normal >= r.cap.offset
            for a in r.normals:
                mask &= grid @ a >= 0.0
            assert mask.any()  # witness guarantees a nonempty neighborhood
            best = math.acos(min(1.0, float((grid @ x.coords)[mask].max())))
            assert distance(x, p) <= best + 1e-3

    def test_agrees_with_brute_projection(self):
        """Spot check of the cone-hull identity on random small regions; the
        full 100-case validation runs in the acceptance suite."""
        rng = np.random.default_rng(31)
        for _ in range(10):
            pole = SpherePoint(rng.standard_normal(3))
            rho = float(rng.uniform(0.3, 0.7))
            w = SpherePoint(sample_cap(pole.coords, 0.6 * rho, 1, rng)[0])
            cuts = []
            for _ in range(int(rng.integers(0, 3))):
                a = rng.standard_normal(3)
                a -= 0.9 * (a @ w.coords) * w.coords if a @ w.coords < 0 else 0.0
                if a @ w.coords < 0.05:
                    a += 0.2 * w.coords
                cuts.append(Halfspace(a, 0.0))
            r = Region(Halfspace.cap(pole, rho), tuple(cuts), w)
            x = SpherePoint(sample_cap(pole.coords, 1.2, 1, rng)[0])
            fast, _ = project(r, x)
            slow = brute_project(r, x, h=0.01)
            assert distance(fast, slow) <= 1e-3


class TestCircleProject:
    def test_zero_out_and_renormalize(self):
        p = circle_project(SpherePoint([0.6, 0.0, 0.8, 0.0]), (2, 3))
        np.testing.assert_allclose(p.coords, [0, 0, 1, 0], atol=1e-15)

    def test_point_on_circle_fixed(self):
        x = SpherePoint([0.0, 0.0, math.cos(0.4), math.sin(0.4)])
        p = circle_project(x, (2, 3))
        np.testing.assert_allclose(p.coords, x.coords, atol=1e-15)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            circle_project(basis_point(0, 4), (2, 3))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            circle_project(basis_point(0, 4), (1, 1))

    def test_distance_is_arccos_of_plane_component(self):
        """Right spherical triangle: d(x, P x) = arccos ||x restricted to the
        kept plane||, cross-checked against a dense circle search on S^2."""
        rng = np.random.default_rng(32)
        ts = 2 * math.pi * np.arange(200_000) / 200_000
        circle = np.zeros((200_000, 3))
        circle[:, 0] = np.cos(ts)
        circle[:, 1] = np.sin(ts)
        for _ in range(20):
            x = SpherePoint(rng.standard_normal(3))
            comp = math.hypot(x.coords[0], x.coords[1])
            if comp <= 1e-6:
                continue
            p = circle_project(x, (0, 1))
            assert distance(x, p) == pytest.approx(math.acos(min(comp, 1.0)),
                                                   abs=1e-12)
            best = float(np.arccos(np.clip(circle @ x.coords, -1, 1)).min())
            assert distance(x, p) <= best + 1e-9


class TestSubspaceProject:
    def test_matches_circle_project_on_coordinate_plane(self):
        basis = np.zeros((4, 2))
        basis[2, 0] = 1.0
        basis[3, 1] = 1.0
        rng = np.random.default_rng(33)
        for _ in range(50):
            x = SpherePoint(rng.standard_normal(4))
            a = subspace_project(x, basis)
            b = circle_project(x, (2, 3))
            np.testing.assert_allclose(a.coords, b.coords, atol=1e-14)

    def test_degenerate(self):
        basis = np.zeros((4, 1))
        basis[3, 0] = 1.0
        with pytest.raises(DegenerateInput):
            subspace_project(basis_point(0, 4), basis)


class TestSinLemmaCheck:
    def test_right_angle_case(self):
        """sin(pi/2) = 1 < sqrt(2) = two halves at alpha = 1/2."""
        assert sin_lemma_check([math.pi / 2], 0.5)

    def test_near_zero_strictness(self):
        assert sin_lemma_check([1e-6], 0.5)

    def test_grid_sweep_all_alphas(self):
        deltas = np.linspace(1e-6, math.pi / 2, 10_000)
        for alpha in np.arange(0.1, 0.95, 0.1):
            assert sin_lemma_check(deltas, float(alpha))

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            sin_lemma_check([0.5], 1.0)

    def test_grid_range_validated(self):
        with pytest.raises(ValueError):
            sin_lemma_check([0.0, 0.5], 0.5)
        with pytest.raises(ValueError):
            sin_lemma_check([2.0], 0.5)
