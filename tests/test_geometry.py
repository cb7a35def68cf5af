"""Geometry: signed distances, Hausdorff, smooth inner approximation, rays."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from lsmlab.geometry import (Annulus, Ball, Cap, DegenerateApproximationError, FullBall,
                             GeometryError, GridRegion, Intersection, boundary_samples,
                             connected_components, hausdorff_distance, load_mask_csv,
                             project_to_boundary_batch, rasterize, ray_exit, save_mask_csv,
                             signed_distance, smooth_inner_approximation)
from lsmlab.grids import cartesian_grid


class TestSignedDistance:
    def test_ball_inside(self):
        assert signed_distance(Ball((0.0, 0.0), 0.5), np.array([0.3, 0.0])) == pytest.approx(-0.2)

    def test_full_ball_boundary_point(self):
        assert signed_distance(FullBall(2), np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_annulus_midway(self):
        d = signed_distance(Annulus((0.0, 0.0), 0.2, 0.8), np.array([0.5, 0.0]))
        assert d == pytest.approx(-0.3)

    def test_cap_sign(self):
        cap = Cap((1.0, 0.0), 0.5)
        assert signed_distance(cap, np.array([0.8, 0.0])) < 0
        assert signed_distance(cap, np.array([0.2, 0.0])) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            signed_distance(Ball((0.0, 0.0), 0.5), np.array([0.1, 0.2, 0.3]))

    def test_grid_region_interior(self):
        region = rasterize(Ball((0.0, 0.0), 0.5), n=256)
        assert signed_distance(region, np.array([0.0, 0.0])) == pytest.approx(-0.5, abs=0.02)
        assert signed_distance(region, np.array([0.7, 0.0])) == pytest.approx(0.2, abs=0.02)

    def test_grid_region_table_belongs_to_its_region(self):
        # Each region is freed before the next is built, so CPython may reuse
        # its address: a distance table cached by id() would be served to a
        # disc of another radius.
        coords, spacing = cartesian_grid(129)
        node_r = np.linalg.norm(coords, axis=-1)

        def origin_distance(radius):
            return signed_distance(GridRegion(mask=node_r < radius, spacing=spacing), np.zeros(2))

        radii = 0.05 + 0.9 * np.arange(400) / 400
        errors = np.array([origin_distance(r) + r for r in radii])
        assert np.max(np.abs(errors)) <= spacing

    @given(st.floats(0.1, 0.9), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
    @settings(max_examples=40, deadline=None)
    def test_lipschitz_ball(self, r, cx, cy):
        dom = Ball((cx, cy), r)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(200, 2))
        d = signed_distance(dom, pts)
        i, j = rng.integers(0, 200, size=50), rng.integers(0, 200, size=50)
        gaps = np.abs(d[i] - d[j])
        dists = np.linalg.norm(pts[i] - pts[j], axis=1)
        assert np.all(gaps <= dists + 1e-12)

    def test_lipschitz_all_variants(self):
        rng = np.random.default_rng(7)
        doms = [Ball((0.1, -0.2), 0.4), Annulus((0.0, 0.0), 0.2, 0.7),
                Cap((0.0, 1.0), 0.3), FullBall(2),
                rasterize(Annulus((0.0, 0.0), 0.15, 0.6), n=256)]
        for dom in doms:
            pts = rng.uniform(-1, 1, size=(1000, 2))
            d = signed_distance(dom, pts)
            i = rng.integers(0, 1000, size=1000)
            j = rng.integers(0, 1000, size=1000)
            gaps = np.abs(d[i] - d[j])
            dists = np.linalg.norm(pts[i] - pts[j], axis=1)
            tol = 2 * (dom.spacing if isinstance(dom, GridRegion) else 0.0) + 1e-12
            assert np.all(gaps <= dists + tol), f"lipschitz violated for {dom}"


class TestIntersection:
    PARTS = (Ball((0.1, 0.0), 0.6), Annulus((0.0, 0.0), 0.15, 0.8), Cap((0.0, 1.0), -0.3))

    def test_signed_distance_is_max_over_parts(self):
        pts = np.random.default_rng(3).uniform(-1, 1, size=(2000, 2))
        parts = self.PARTS + (rasterize(Ball((0.0, 0.0), 0.5), n=128),)
        want = np.max([signed_distance(p, pts) for p in parts], axis=0)
        assert np.array_equal(signed_distance(Intersection(parts), pts), want)
        assert signed_distance(Intersection(parts), pts[0]) == want[0]

    def test_projection_lands_on_binding_part(self):
        pts = np.random.default_rng(4).uniform(-1, 1, size=(4000, 2))
        dom = Intersection(self.PARTS)
        pts = pts[signed_distance(dom, pts) < 0.0]
        binding = np.argmax([signed_distance(p, pts) for p in self.PARTS], axis=0)
        assert set(binding) == {0, 1, 2}
        out = project_to_boundary_batch(dom, pts)
        for k, part in enumerate(self.PARTS):
            sel = binding == k
            assert np.max(np.abs(signed_distance(part, out[sel]))) <= 1e-12

    def test_parts_must_share_a_dimension(self):
        with pytest.raises(GeometryError):
            Intersection((Ball((0.0, 0.0), 0.5), FullBall(3)))
        with pytest.raises(GeometryError):
            Intersection(())


class TestHausdorff:
    def test_identical_singletons(self):
        assert hausdorff_distance([[0.0, 0.0]], [[0.0, 0.0]]) == 0.0

    def test_unit_separation(self):
        assert hausdorff_distance([[0.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(1.0)

    def test_concentric_circles_brute_force(self):
        # Independent oracle: dense double-loop max-min on the same samplings.
        ang = 2 * np.pi * np.arange(360) / 360
        a = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        b = 0.9 * a
        diff = a[:, None, :] - b[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        brute = max(dist.min(axis=1).max(), dist.min(axis=0).max())
        assert hausdorff_distance(a, b) == pytest.approx(brute, abs=1e-12)
        assert hausdorff_distance(a, b) == pytest.approx(0.1, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            hausdorff_distance(np.zeros((0, 2)), [[0.0, 0.0]])


class TestSmoothInnerApproximation:
    def test_ball_mask_matches_exact_shrink(self):
        region = rasterize(Ball((0.0, 0.0), 0.5), n=512)
        out = smooth_inner_approximation(region, 0.05)
        # Oracle: the exact shrunken ball at the sublevel offset delta/2.
        assert isinstance(out, Ball)
        assert out.radius == pytest.approx(0.5 - 0.025, abs=0.01)
        dh = hausdorff_distance(boundary_samples(region, 512),
                                boundary_samples(out, 512))
        assert dh < 0.05

    def test_annulus_keeps_two_boundary_components(self):
        region = rasterize(Annulus((0.0, 0.0), 0.1, 0.6), n=512)
        out = smooth_inner_approximation(region, 0.02)
        if isinstance(out, GridRegion):
            # Complement flood fill: an annulus splits the rest of the square
            # into the hole and the outside, so two non-region components.
            inv = GridRegion(mask=~out.mask & rasterize(FullBall(2), n=out.mask.shape[0]).mask,
                             spacing=out.spacing)
            _, n = connected_components(inv)
            assert n == 2
        else:
            assert isinstance(out, Annulus)
            assert out.inner == pytest.approx(0.11, abs=0.02)
            assert out.outer == pytest.approx(0.59, abs=0.02)

    def test_oversized_shrink_rejected(self):
        region = rasterize(Ball((0.0, 0.0), 0.4), n=256)
        with pytest.raises(DegenerateApproximationError):
            smooth_inner_approximation(region, 0.3)

    def test_output_closure_inside_input(self):
        region = rasterize(Ball((0.2, 0.1), 0.4), n=512)
        delta = 0.05
        out = smooth_inner_approximation(region, delta)
        pts = boundary_samples(out, 256)
        assert np.all(signed_distance(region, pts) <= -delta / 4)

    def test_hausdorff_bound_on_shapes(self):
        shapes = [Ball((0.0, 0.0), 0.5), Ball((0.2, 0.1), 0.4),
                  Annulus((0.0, 0.0), 0.1, 0.6)]
        for shape in shapes:
            region = rasterize(shape, n=512)
            for delta in (0.05, 0.02):
                out = smooth_inner_approximation(region, delta)
                dh = hausdorff_distance(boundary_samples(region, 512),
                                        boundary_samples(out, 512))
                assert dh < delta, f"{shape} at delta={delta}: {dh}"


class TestRaysAndProjection:
    def test_ray_exit_ball(self):
        t, pt = ray_exit(Ball((0.0, 0.0), 0.5), np.array([0.1, 0.0]), np.array([1.0, 0.0]))
        assert t == pytest.approx(0.4)
        npt.assert_allclose(pt, [0.5, 0.0], atol=1e-12)

    def test_ray_exit_annulus_inner(self):
        t, pt = ray_exit(Annulus((0.0, 0.0), 0.2, 0.8), np.array([0.5, 0.0]),
                         np.array([-1.0, 0.0]))
        assert t == pytest.approx(0.3)
        npt.assert_allclose(pt, [0.2, 0.0], atol=1e-12)

    def test_ray_exit_cap_plane(self):
        cap = Cap((1.0, 0.0), 0.3)
        t, pt = ray_exit(cap, np.array([0.6, 0.0]), np.array([-1.0, 0.0]))
        assert pt[0] == pytest.approx(0.3)

    def test_ray_exit_grid_region(self):
        region = rasterize(Ball((0.0, 0.0), 0.5), n=512)
        t, pt = ray_exit(region, np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        assert np.linalg.norm(pt) == pytest.approx(0.5, abs=0.01)

    def test_projection_variants(self):
        cases = [
            (Ball((0.0, 0.0), 0.5), np.array([0.3, 0.0]), [0.5, 0.0]),
            (FullBall(2), np.array([0.0, 0.9]), [0.0, 1.0]),
            (Annulus((0.0, 0.0), 0.2, 0.8), np.array([0.3, 0.0]), [0.2, 0.0]),
        ]
        for dom, x, want in cases:
            npt.assert_allclose(project_to_boundary_batch(dom, x[None, :])[0], want, atol=1e-12)
        batch = project_to_boundary_batch(Ball((0.0, 0.0), 0.5),
                                          np.array([[0.3, 0.0], [0.0, -0.1]]))
        npt.assert_allclose(batch, [[0.5, 0.0], [0.0, -0.5]], atol=1e-12)


class TestMaskSerialisation:
    def test_roundtrip(self, tmp_path):
        region = rasterize(Annulus((0.0, 0.0), 0.2, 0.6), n=128)
        path = tmp_path / "mask.csv"
        save_mask_csv(region, path)
        back = load_mask_csv(path)
        assert back.spacing == pytest.approx(region.spacing)
        assert np.array_equal(back.mask, region.mask)
        header = path.read_text().splitlines()[0]
        assert header.startswith("2,128,128,")
