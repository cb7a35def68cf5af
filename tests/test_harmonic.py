"""Harmonic evaluation: Poisson quadrature, radial closed forms, walk on spheres."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lsmlab import rng as rngmod
from lsmlab.geometry import Annulus, Ball, FullBall, rasterize
from lsmlab.harmonic import (INF, BoundaryData, NonTerminationError, WosConfig,
                             constant_data, poisson_ball_eval, radial_annulus_harmonic,
                             wos_exit_batch, wos_harmonic_eval)
from lsmlab.majorant import MajorantError, cap_patch


class TestPoisson:
    def test_first_coordinate_data(self):
        v = poisson_ball_eval(np.zeros(2), 1.0, BoundaryData(lambda p: p[:, 0]),
                              np.array([0.3, 0.0]))
        assert v == pytest.approx(0.3, abs=1e-10)

    def test_constant_data(self):
        v = poisson_ball_eval(np.array([0.1, -0.2]), 0.5, constant_data(0.7),
                              np.array([0.2, -0.1]))
        assert v == pytest.approx(0.7, abs=1e-10)

    def test_center_is_boundary_mean(self):
        data = BoundaryData(lambda p: 0.3 + p[:, 0] ** 2 - 0.5 * p[:, 1])
        center = np.array([0.0, 0.0])
        v = poisson_ball_eval(center, 1.0, data, center, nodes=512)
        theta = np.pi * (np.polynomial.legendre.leggauss(512)[0] + 1.0)
        w = np.pi * np.polynomial.legendre.leggauss(512)[1]
        ys = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        mean = (data(ys) * w).sum() / (2 * np.pi)
        assert v == pytest.approx(mean, abs=1e-10)

    def test_outside_gives_sentinel(self):
        v = poisson_ball_eval(np.zeros(2), 0.5, constant_data(1.0), np.array([0.8, 0.0]))
        assert v == INF

    def test_maximum_principle_random(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            c = rng.uniform(-0.2, 0.2, size=2)
            r = rng.uniform(0.2, 0.7)
            a, b, ph = rng.uniform(-1, 1, size=3)
            data = BoundaryData(lambda p, a=a, b=b, ph=ph:
                                a + b * np.sin(np.arctan2(p[:, 1] - c[1], p[:, 0] - c[0]) + ph))
            x = c + rng.uniform(-0.5, 0.5, size=2) * r / np.sqrt(2)
            v = poisson_ball_eval(c, r, data, x)
            assert a - abs(b) - 1e-10 <= v <= a + abs(b) + 1e-10

    def test_d3_linear_data(self):
        v = poisson_ball_eval(np.zeros(3), 1.0, BoundaryData(lambda p: p[:, 2]),
                              np.array([0.0, 0.0, 0.4]), nodes=1024)
        assert v == pytest.approx(0.4, abs=1e-8)


class TestRadialAnnulus:
    def test_log_interpolation_value(self):
        v = radial_annulus_harmonic(0.5, 1.0, 1.25, 0.0, 0.75, 2)
        assert v == pytest.approx(1.25 * np.log(0.75) / np.log(0.5), abs=1e-12)
        assert v == pytest.approx(0.51880, abs=5e-6)

    def test_endpoints(self):
        assert radial_annulus_harmonic(0.3, 0.9, 0.7, 0.2, 0.3, 2) == pytest.approx(0.7)
        assert radial_annulus_harmonic(0.3, 0.9, 0.7, 0.2, 0.9, 2) == pytest.approx(0.2)

    def test_d3_power_form(self):
        v = radial_annulus_harmonic(0.25, 1.0, 1.0, 0.0, 0.5, 3)
        assert v == pytest.approx((0.5 ** -1 - 1.0) / (0.25 ** -1 - 1.0), abs=1e-12)
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_outside_sentinel(self):
        assert radial_annulus_harmonic(0.3, 0.8, 1.0, 0.0, 0.1, 2) == INF

    @given(st.floats(0.05, 0.4), st.floats(0.5, 1.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_between_endpoints(self, a, b, va, vb):
        rs = np.linspace(a, b, 64)
        vals = radial_annulus_harmonic(a, b, va, vb, rs, 2)
        lo, hi = min(va, vb), max(va, vb)
        assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)


class TestAffine:
    """The affine closed form (c - u.v)/z as the cap patch computes it."""

    def test_boundary_tangent_vanishes(self):
        gstar, delta = 1.25, 0.49
        x = np.array([1.0, 0.0])
        v = cap_patch(x, delta / gstar, gstar).value(x)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_truncation_sentinel(self):
        gstar = 1.0
        u = np.array([-0.9, 0.0])
        assert cap_patch(np.array([1.0, 0.0]), 0.5, gstar).value(u) == INF

    def test_gradient_magnitude(self):
        gstar, delta = 1.25, 0.49
        z = delta / gstar
        patch = cap_patch(np.array([0.0, 1.0]), z, gstar)
        h = 1e-6
        u = np.array([0.1, 0.7])  # inside the cap: (1 - u.v)/z < gstar
        grad = np.array([
            (patch.value(u + [h, 0.0]) - patch.value(u - [h, 0.0])) / (2 * h),
            (patch.value(u + [0.0, h]) - patch.value(u - [0.0, h])) / (2 * h),
        ])
        assert np.linalg.norm(grad) == pytest.approx(gstar / delta, rel=1e-6)

    def test_bad_z(self):
        # z < 0 puts the cap's level-g* plane outside the ball.
        with pytest.raises(MajorantError):
            cap_patch(np.array([1.0, 0.0]), -0.1, 1.0)


class TestWos:
    def test_center_exit_is_uniform(self):
        cfg = WosConfig(walks=100_000, seed=2)
        exits = wos_exit_batch(FullBall(2), np.zeros(2), cfg)
        # Oracle: direct uniform sphere sampling has coordinate mean 0 with
        # sigma = sqrt(1/2)/sqrt(n).
        sigma = np.sqrt(0.5) / np.sqrt(cfg.walks)
        assert abs(exits[:, 0].mean()) <= 3 * sigma
        assert abs(exits[:, 1].mean()) <= 3 * sigma
        assert np.allclose(np.linalg.norm(exits, axis=1), 1.0, atol=1e-9)

    def test_shell_point_projects_immediately(self):
        cfg = WosConfig(shell=1e-4, walks=1, seed=0)
        x = np.array([0.5 - 5e-5, 0.0])
        out = wos_exit_batch(Ball((0.0, 0.0), 0.5), x, cfg, n=1)[0]
        assert np.linalg.norm(out) == pytest.approx(0.5, abs=1e-12)

    def test_annulus_exit_matches_closed_form(self):
        cfg = WosConfig(walks=100_000, seed=4)
        exits = wos_exit_batch(Annulus((0.0, 0.0), 0.3, 0.8), np.array([0.5, 0.0]), cfg)
        p_outer = float(np.mean(np.linalg.norm(exits, axis=1) > 0.55))
        expect = radial_annulus_harmonic(0.3, 0.8, 0.0, 1.0, 0.5, 2)
        sigma = np.sqrt(expect * (1 - expect) / cfg.walks)
        assert abs(p_outer - expect) <= 3 * sigma

    def test_harmonic_eval_matches_poisson(self):
        cfg = WosConfig(walks=100_000, seed=6)
        data = BoundaryData(lambda p: p[:, 0])
        mean, sem = wos_harmonic_eval(FullBall(2), data, np.array([0.3, 0.0]), cfg)
        assert abs(mean - 0.3) <= 3 * sem

    def test_constant_data_exact(self):
        cfg = WosConfig(walks=500, seed=1)
        mean, sem = wos_harmonic_eval(Ball((0.0, 0.0), 0.6), constant_data(0.8),
                                      np.array([0.1, 0.1]), cfg)
        assert mean == pytest.approx(0.8)
        assert sem == pytest.approx(0.0, abs=1e-15)

    def test_grid_region_matches_disc(self):
        region = rasterize(Ball((0.0, 0.0), 0.5), n=512)
        data = BoundaryData(lambda p: p[:, 0] + 0.5)
        cfg = WosConfig(walks=40_000, seed=8)
        mean, sem = wos_harmonic_eval(region, data, np.array([0.2, 0.0]), cfg)
        exact = poisson_ball_eval(np.zeros(2), 0.5, data, np.array([0.2, 0.0]))
        assert abs(mean - exact) <= 3 * sem + 2 * region.spacing

    def test_nontermination_reported(self):
        cfg = WosConfig(walks=16, seed=0, max_steps=2)
        with pytest.raises(NonTerminationError):
            wos_exit_batch(FullBall(2), np.array([0.3, 0.2]), cfg)


class TestStreams:
    def test_reproducible(self):
        a = rngmod.stream(7, 1).standard_normal(4)
        b = rngmod.stream(7, 1).standard_normal(4)
        assert np.array_equal(a, b)

    def test_independent_keys(self):
        a = rngmod.stream(7, 1).standard_normal(4)
        b = rngmod.stream(7, 2).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_uniform_directions_normalised(self):
        d = rngmod.uniform_directions(rngmod.stream(0, 0), 128, 3)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
