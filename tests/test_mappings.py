"""Tests for the mapping zoo and staged geodesic averaging."""

import math
import tracemalloc

import numpy as np
import pytest

from sphereproj.geometry import (
    SpherePoint,
    basis_point,
    distance,
    geodesic_combine,
    sample_cap,
)
from sphereproj.mappings import (
    Identity,
    MappingFamily,
    PlaneRotation,
    RotationProduct,
    WMapping,
    common_fixed_basis,
    nearest_fixed_point,
    residuals,
)


def e(i, dim=4):
    return basis_point(i, dim)


class Uncertified:
    """A map with apply but no is_linear marker."""

    def apply(self, x):
        return x


class TestApplyMap:
    def test_identity(self):
        x = e(2)
        assert Identity().apply(x) is x

    def test_quarter_turn(self):
        img = PlaneRotation(0, 1, math.pi / 2).apply(e(0))
        np.testing.assert_allclose(img.coords, e(1).coords, atol=1e-15)

    def test_off_plane_coordinates_fixed(self):
        img = PlaneRotation(0, 1, 1.234).apply(e(3))
        np.testing.assert_allclose(img.coords, e(3).coords, atol=0)

    def test_rotation_angle_range(self):
        with pytest.raises(ValueError):
            PlaneRotation(0, 1, 3.5)

    def test_rotation_product_order(self):
        rp = RotationProduct([PlaneRotation(0, 1, math.pi / 2),
                              PlaneRotation(1, 2, math.pi / 2)])
        img = rp.apply(e(0))
        np.testing.assert_allclose(img.coords, e(2).coords, atol=1e-15)

    def test_isometry_random_pairs(self):
        """Rotations preserve the metric exactly, hence are nonexpansive."""
        rng = np.random.default_rng(21)
        maps = [PlaneRotation(0, 1, 0.8),
                PlaneRotation(1, 3, -2.0),
                RotationProduct([PlaneRotation(0, 2, 0.5), PlaneRotation(1, 2, 1.1)])]
        for T in maps:
            for _ in range(300):
                x = SpherePoint(rng.standard_normal(4))
                y = SpherePoint(rng.standard_normal(4))
                assert distance(T.apply(x), T.apply(y)) == pytest.approx(
                    distance(x, y), abs=1e-12)


class TestOneStageQuasinonexpansive:
    def test_averaged_map_contracts_toward_fixed_points(self):
        """x -> alpha*Tx (+) (1-alpha)*x never moves away from a fixed point."""
        rng = np.random.default_rng(22)
        T = PlaneRotation(0, 1, 0.8)
        p = e(3)  # fixed by T
        for _ in range(1000):
            x = SpherePoint(sample_cap(p.coords, 1.2, 1, rng)[0])
            a = float(rng.uniform(0.05, 0.95))
            y = geodesic_combine(a, T.apply(x), x)
            assert distance(y, p) <= distance(x, p) + 1e-10


class TestFixedSetBasis:
    def test_plane_rotation_complement(self):
        b = common_fixed_basis([PlaneRotation(0, 1, 0.7)], 4)
        assert b.shape == (4, 2)
        np.testing.assert_allclose(b.T @ b, np.eye(2), atol=1e-14)
        # span must be exactly coords 2 and 3
        assert np.allclose(b[0], 0) and np.allclose(b[1], 0)

    def test_identity_full_basis(self):
        b = common_fixed_basis([Identity()], 4)
        assert b.shape == (4, 4)

    def test_zero_angle_rotation_full_basis(self):
        b = common_fixed_basis([PlaneRotation(0, 1, 0.0)], 4)
        assert b.shape == (4, 4)

    def test_composition_basis(self):
        """A product of two rotations sharing axis 0 restricts to an SO(3)
        element on coords 0..2, which always has a rotation axis (Euler), so
        the fixed subspace is two-dimensional: span{axis, e3}."""
        rp = RotationProduct([PlaneRotation(0, 1, 0.7), PlaneRotation(0, 2, 0.4)])
        b = common_fixed_basis([rp], 4)
        assert b.shape == (4, 2)
        for col in b.T:
            np.testing.assert_allclose(rp.apply(SpherePoint(col)).coords, col,
                                       atol=1e-12)
        np.testing.assert_allclose(b.T @ b, np.eye(2), atol=1e-12)
        # e3 lies in the span
        proj = b @ (b.T @ np.array([0.0, 0, 0, 1]))
        np.testing.assert_allclose(proj, [0, 0, 0, 1], atol=1e-12)

    def test_nonlinear_rejected(self):
        with pytest.raises(TypeError):
            common_fixed_basis([Uncertified()], 4)

    def test_common_fixed_basis_pair(self):
        b = common_fixed_basis([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)], 4)
        assert b.shape == (4, 1)
        np.testing.assert_allclose(np.abs(b[:, 0]), [0, 0, 0, 1], atol=1e-12)

    def test_agrees_with_svd_null_space(self):
        """Seeded families of 1 to 3 maps in d = 4..8: b b^T is the projector
        onto the SVD null space of the stacked T - I, each T - I read from
        apply on the axes, and every column is fixed by every map."""
        rng = np.random.default_rng(27)

        def rotation(dim):
            i, j = sorted(rng.choice(dim, 2, replace=False).tolist())
            return PlaneRotation(i, j, float(rng.uniform(-math.pi, math.pi)))

        def draw(dim):
            kind = int(rng.integers(5))
            if kind == 0:
                return rotation(dim)
            if kind == 1:
                return RotationProduct([rotation(dim) for _ in range(int(rng.integers(2, 4)))])
            if kind == 2:
                return Identity()
            if kind == 3:
                return PlaneRotation(0, int(rng.integers(1, dim)), 0.0)
            theta = float(rng.uniform(0.1, 3.0))
            return RotationProduct([PlaneRotation(0, 1, theta), PlaneRotation(0, 1, -theta)])

        for _ in range(200):
            dim = int(rng.integers(4, 9))
            maps = [draw(dim) for _ in range(int(rng.integers(1, 4)))]
            b = common_fixed_basis(maps, dim)
            axes = [e(j, dim) for j in range(dim)]
            stacked = np.vstack([np.array([T.apply(a).coords - a.coords for a in axes]).T
                                 for T in maps])
            _, sv, vt = np.linalg.svd(stacked)
            null = vt[int((sv > 1e-8).sum()):].T
            np.testing.assert_allclose(b @ b.T, null @ null.T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.T @ b, np.eye(b.shape[1]), rtol=0, atol=1e-12)
            for T in maps:
                for col in b.T:
                    np.testing.assert_allclose(T.apply(SpherePoint(col)).coords, col,
                                               rtol=0, atol=1e-12)
            with pytest.raises(ValueError):
                common_fixed_basis(maps + [PlaneRotation(1, dim, 0.3)], dim)

    def test_memory_at_high_dimension(self):
        """The two-rotation family at d = 1024: only the moved rows of each
        map are held, so the peak is about the returned d x (d - 3) basis
        (8.4 MB) and not r dense d x d arrays of moves."""
        maps = [PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)]
        tracemalloc.start()
        try:
            b = common_fixed_basis(maps, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(b, np.eye(1024)[:, 3:])
        assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"

    def test_nearest_fixed_point(self):
        b = common_fixed_basis([PlaneRotation(0, 1, 0.7)], 4)
        x = SpherePoint([0.6, 0.0, 0.8, 0.0])
        p = nearest_fixed_point(b, x)
        np.testing.assert_allclose(p.coords, [0, 0, 1, 0], atol=1e-12)

    def test_nearest_fixed_point_orthogonal_returns_none(self):
        b = common_fixed_basis([PlaneRotation(0, 1, 0.7)], 4)
        assert nearest_fixed_point(b, e(0)) is None


class TestMappingFamily:
    def test_needs_at_least_one_map(self):
        with pytest.raises(ValueError):
            MappingFamily([])

    def test_default_alphas(self):
        fam = MappingFamily([Identity(), Identity()])
        assert fam.alphas == (0.5, 0.5)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            MappingFamily([Identity()], alphas=[1.0])

    def test_experimental_gate(self):
        """Only certified isometries join a family, and there is no opt-out."""
        with pytest.raises(ValueError, match="not a certified isometry"):
            MappingFamily([Identity(), Uncertified()])
        with pytest.raises(TypeError):
            MappingFamily([Uncertified()], allow_experimental=True)

    def test_schedule_rows_validated(self):
        fam = MappingFamily([Identity()], schedule=lambda n: [1.0 / (n + 1)])
        assert fam.alphas_at(1) == (0.5,)
        with pytest.raises(ValueError):
            MappingFamily([Identity()], schedule=lambda n: [0.0]).alphas_at(1)

    def test_cap_preservation_check(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8)])
        fam.check_preserves_cap(e(3), math.pi / 5)  # pole fixed: passes
        with pytest.raises(ValueError):
            fam.check_preserves_cap(e(0), math.pi / 5)  # pole rotated away


class TestWMapping:
    def test_common_fixed_point_is_fixed(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        w = WMapping(fam)
        img = w.apply(e(3))
        assert distance(img, e(3)) <= 1e-12

    def test_single_stage_midpoint(self):
        fam = MappingFamily([PlaneRotation(0, 1, math.pi / 2)], alphas=[0.5])
        img = WMapping(fam).apply(e(0))
        s = math.sqrt(2) / 2
        np.testing.assert_allclose(img.coords, [s, s, 0, 0], atol=1e-15)

    def test_two_stage_hand_unrolled(self):
        """The staged recursion matches an independent unrolling, and the
        second combination argument is the original point at every stage."""
        t1 = PlaneRotation(0, 1, 0.8)
        t2 = PlaneRotation(0, 2, 0.5)
        fam = MappingFamily([t1, t2], alphas=[0.5, 0.5])
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = SpherePoint(sample_cap(e(3).coords, math.pi / 5, 1, rng)[0])
            u1 = geodesic_combine(0.5, t1.apply(x), x)
            u2 = geodesic_combine(0.5, t2.apply(u1), x)
            w = WMapping(fam)
            np.testing.assert_allclose(w.apply(x).coords, u2.coords, atol=1e-14)
            stages = w.stages(x)
            np.testing.assert_allclose(stages[0].coords, u1.coords, atol=1e-14)
            np.testing.assert_allclose(stages[1].coords, u2.coords, atol=1e-14)
            # apply, with or without T_1 x given, is the last stage bit for bit
            assert w.apply(x).coords.tobytes() == stages[-1].coords.tobytes()
            assert w.apply(x, 1, (t1.apply(x), t2.apply(x))).coords.tobytes() == \
                stages[-1].coords.tobytes()

    def test_fixed_points_are_exactly_common_fixed_points(self):
        """Points fixed by the staged average are the family's common fixed
        points: common ones do not move, every other cap point does."""
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        w = WMapping(fam)
        assert distance(w.apply(e(3)), e(3)) <= 1e-10
        rng = np.random.default_rng(24)
        pts = sample_cap(e(3).coords, math.pi / 5, 1000, rng)
        for row in pts:
            x = SpherePoint(row)
            if distance(x, e(3)) < 1e-6:
                continue
            assert distance(w.apply(x), x) > 1e-8

    def test_cap_preserved_by_w(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        w = WMapping(fam)
        rng = np.random.default_rng(25)
        for row in sample_cap(e(3).coords, math.pi / 5, 300, rng):
            x = SpherePoint(row)
            assert distance(w.apply(x), e(3)) <= math.pi / 5 + 1e-12


class TestResiduals:
    def test_zero_at_common_fixed_point(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        np.testing.assert_allclose(residuals(fam, e(3)), [0.0, 0.0], atol=1e-15)

    def test_rotation_moves_plane_point_by_angle(self):
        for theta in (0.1, 1.0, math.pi / 2, math.pi):
            fam = MappingFamily([PlaneRotation(0, 1, theta)])
            assert residuals(fam, e(0))[0] == pytest.approx(theta, abs=1e-12)

    def test_permutation_equivariance(self):
        t1, t2 = PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)
        rng = np.random.default_rng(26)
        x = SpherePoint(rng.standard_normal(4))
        r12 = residuals(MappingFamily([t1, t2]), x)
        r21 = residuals(MappingFamily([t2, t1]), x)
        np.testing.assert_allclose(r12, r21[::-1])
