"""Harmonic evaluation: Poisson quadrature, radial closed forms, exact planar
exits and walk on spheres."""

import numpy as np
import pytest
from conftest import rasterize
from hypothesis import given, settings, strategies as st

from lsmlab import harmonic, rng as rngmod
from lsmlab.geometry import (Annulus, Ball, Cap, FullBall, GeometryError, Intersection,
                             signed_distance)
from lsmlab.harmonic import (INF, BoundaryData, HarmonicError, NonTerminationError,
                             constant_data, planar_sampler, poisson_ball_eval,
                             radial_annulus_harmonic, wos_exit_batch, wos_harmonic_eval)
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

    def test_quadrature_rule_is_computed_once_and_read_only(self):
        x, w = harmonic._gauss_legendre(512)
        assert harmonic._gauss_legendre(512)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

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

    @pytest.mark.parametrize("d, tol", [(2, 1e-3), (3, 1e-2)])
    @pytest.mark.parametrize("depth", [1e-3, 1e-4])
    def test_stays_in_the_data_range_near_the_sphere(self, d, tol, depth):
        # Dividing by the quadrature's kernel mass keeps each value an average
        # of the data where the kernel is too sharp for the nodes: 512 nodes
        # read within 6.7e-4 of the exact value in d = 2 and 7.7e-3 in d = 3
        # at these depths.
        data = BoundaryData(lambda p: 0.3 + p[:, 0])
        for u in (np.eye(d)[-1], np.ones(d) / np.sqrt(d)):
            x = (0.5 - depth) * u
            v = poisson_ball_eval(np.zeros(d), 0.5, data, x)
            assert -0.2 <= v <= 0.8
            assert v == pytest.approx(0.3 + x[0], abs=tol)

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
        n = 100_000
        exits = wos_exit_batch(FullBall(2), np.zeros(2), rngmod.stream(2, 0), n=n)
        # Oracle: direct uniform sphere sampling has coordinate mean 0 with
        # sigma = sqrt(1/2)/sqrt(n).
        sigma = np.sqrt(0.5) / np.sqrt(n)
        assert abs(exits[:, 0].mean()) <= 3 * sigma
        assert abs(exits[:, 1].mean()) <= 3 * sigma
        assert np.allclose(np.linalg.norm(exits, axis=1), 1.0, atol=1e-9)

    def test_shell_point_projects_immediately(self):
        # The shell is a walked domain's: the start lies in the lens's shell,
        # half a shell inside its outer disc of radius 0.8.
        x = np.array([0.8 - 0.5 * harmonic.SHELL, 0.0])
        out = wos_exit_batch(LENS, x, rngmod.stream(0, 0), n=1)[0]
        assert np.linalg.norm(out) == pytest.approx(0.8, abs=1e-12)

    def test_annulus_exit_matches_closed_form(self):
        n = 100_000
        exits = wos_exit_batch(Annulus((0.0, 0.0), 0.3, 0.8), np.array([0.5, 0.0]),
                               rngmod.stream(4, 0), n=n)
        p_outer = float(np.mean(np.linalg.norm(exits, axis=1) > 0.55))
        expect = radial_annulus_harmonic(0.3, 0.8, 0.0, 1.0, 0.5, 2)
        sigma = np.sqrt(expect * (1 - expect) / n)
        assert abs(p_outer - expect) <= 3 * sigma

    def test_harmonic_eval_matches_poisson(self):
        data = BoundaryData(lambda p: p[:, 0])
        mean, sem = wos_harmonic_eval(FullBall(2), data, np.array([0.3, 0.0]),
                                      rngmod.stream(6, 0), n=100_000)
        assert abs(mean - 0.3) <= 3 * sem

    def test_constant_data_exact(self):
        mean, sem = wos_harmonic_eval(Ball((0.0, 0.0), 0.6), constant_data(0.8),
                                      np.array([0.1, 0.1]), rngmod.stream(1, 0), n=500)
        assert mean == pytest.approx(0.8)
        assert sem == pytest.approx(0.0, abs=1e-15)

    def test_eval_needs_a_walk(self):
        with pytest.raises(HarmonicError):
            wos_harmonic_eval(Ball((0.0, 0.0), 0.6), constant_data(0.8),
                              np.array([0.1, 0.1]), rngmod.stream(1, 0), n=0)

    def test_grid_region_matches_disc(self):
        region = rasterize(Ball((0.0, 0.0), 0.5), n=512)
        data = BoundaryData(lambda p: p[:, 0] + 0.5)
        mean, sem = wos_harmonic_eval(region, data, np.array([0.2, 0.0]),
                                      rngmod.stream(8, 0), n=40_000)
        exact = poisson_ball_eval(np.zeros(2), 0.5, data, np.array([0.2, 0.0]))
        assert abs(mean - exact) <= 3 * sem + 2 * region.spacing

    def test_nontermination_reported(self, monkeypatch):
        monkeypatch.setattr(harmonic, "MAX_STEPS", 2)
        with pytest.raises(NonTerminationError):
            wos_exit_batch(LENS, np.array([0.3, 0.2]), rngmod.stream(0, 0), n=16)

    def test_lens_exit_mean_is_the_start(self):
        # Two discs that are not concentric have no exact sampler: this walks.
        assert planar_sampler(LENS) is None
        x = np.array([0.3, 0.2])
        n = 100_000
        exits = wos_exit_batch(LENS, x, rngmod.stream(5, 0), n=n)
        sigma = exits[:, 0].std() / np.sqrt(n)
        assert abs(exits[:, 0].mean() - x[0]) <= 4 * sigma
        assert np.max(np.abs(signed_distance(LENS, exits))) <= 1e-12


# A lens: the intersection of two discs that are not concentric.
LENS = Intersection((Ball((0.0, 0.0), 0.8), Ball((0.4, 0.3), 0.6)))


def _complex(pts):
    return pts[:, 0] + 1j * pts[:, 1]


# Each exact domain with a start inside it and a pole outside its closure.
EXACT = {
    "disc": (Ball((0.1, -0.2), 0.6), (0.4, 0.1), 0.8 + 0.0j),
    "full-ball": (FullBall(2), (0.3, 0.5), 1.2 - 0.3j),
    "annulus": (Annulus((0.0, 0.0), 0.1, 0.5), (0.2, 0.15), 0.05 + 0.0j),
    "off-centre-annulus": (Annulus((0.2, -0.1), 0.2, 0.6), (-0.1, 0.1), 0.25 - 0.05j),
    "ball-and-annulus": (Intersection((Ball((0.0, 0.0), 0.9), Annulus((0.0, 0.0), 0.1, 0.95))),
                         (0.3, 0.2), 0.05j),
    "annulus-and-full-ball": (Intersection((Annulus((0.0, 0.0), 0.3, 1.5), FullBall(2))),
                              (-0.5, 0.4), 0.1 + 0.1j),
    "two-annuli": (Intersection((Annulus((0.0, 0.0), 0.2, 0.8), Annulus((0.0, 0.0), 0.1, 0.6))),
                   (0.0, -0.4), 0.7 + 0.0j),
    "cap-0.3": (Cap((np.cos(1.0), np.sin(1.0)), 0.3), (0.7 * np.cos(1.2), 0.7 * np.sin(1.2)),
                0.25 * np.exp(1.0j)),
    "cap-0": (Cap((1.0, 0.0), 0.0), (0.3, 0.5), -0.05 + 0.2j),
    "cap-neg": (Cap((0.0, 1.0), -0.4), (0.1, -0.2), -0.45j),
    "cap-0.95": (Cap((1.0, 0.0), 0.95), (0.97, 0.01), 0.94 + 0.0j),
    "cap-neg-0.97": (Cap((1.0, 0.0), -0.97), (-0.9, 0.1), -0.98 + 0.0j),
}


class TestExactExits:
    """The one-uniform exit samplers of discs, annuli and caps, and the
    concentric intersections that reduce to a disc or an annulus."""

    N = 1_000_000

    @pytest.fixture(scope="class", params=sorted(EXACT))
    def case(self, request):
        dom, x, pole = EXACT[request.param]
        x = np.array(x)
        assert planar_sampler(dom) is not None
        assert signed_distance(dom, np.array([pole.real, pole.imag])) > 0.0
        exits = wos_exit_batch(dom, x, rngmod.stream(7, 1), n=self.N)
        return dom, x, pole, exits

    def test_harmonic_means_are_the_start_values(self, case):
        dom, x, pole, exits = case
        z, z0 = _complex(exits), complex(*x)
        for f in (lambda w: w.real, lambda w: (w ** 3).real, lambda w: np.log(np.abs(w - pole))):
            vals = f(z)
            sigma = vals.std() / np.sqrt(self.N)
            assert abs(vals.mean() - f(np.array([z0]))[0]) <= 4 * sigma

    def test_exits_lie_on_the_boundary(self, case):
        dom, _x, _pole, exits = case
        assert np.max(np.abs(signed_distance(dom, exits))) <= 1e-12

    def test_annulus_side_probability(self):
        a, b, x = 0.1, 0.5, np.array([0.2, 0.15])
        exits = wos_exit_batch(Annulus((0.0, 0.0), a, b), x, rngmod.stream(3, 0), n=self.N)
        p_outer = np.log(np.linalg.norm(x) / a) / np.log(b / a)
        outer = np.mean(np.linalg.norm(exits, axis=1) > np.sqrt(a * b))
        assert abs(outer - p_outer) <= 4 * np.sqrt(p_outer * (1 - p_outer) / self.N)

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_boundary_start_returns_itself(self, name):
        dom, x = EXACT[name][:2]
        exits = wos_exit_batch(dom, np.array(x), rngmod.stream(1, 0), n=64)
        edges = exits[signed_distance(dom, exits) >= 0.0][:4]
        assert edges.size
        for edge in edges:
            assert np.allclose(wos_exit_batch(dom, edge, rngmod.stream(1, 0), n=8), edge,
                               rtol=0.0, atol=1e-15)
        # As rows among inside starts, boundary starts keep their places.
        out = wos_exit_batch(dom, np.concatenate([np.tile(x, (4, 1)), edges]),
                             rngmod.stream(1, 0))
        assert np.allclose(out[4:], edges, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(signed_distance(dom, out))) <= 1e-12

    @pytest.mark.parametrize("dom, x", [
        (Annulus((0.0, 0.0), 0.5, 0.5005), (0.50025, 0.0)),
        (Cap((1.0, 0.0), 0.99), (0.995, 0.0)),
        (Cap((0.0, 1.0), -0.99), (0.0, -0.5)),
        (Cap((1.0, 0.0), 0.99), (0.99 + 1e-13, 0.14)),
    ])
    def test_narrow_domains_give_finite_exits(self, dom, x):
        exits = wos_exit_batch(dom, np.array(x), rngmod.stream(2, 0), n=100_000)
        assert np.all(np.isfinite(exits))
        assert np.max(np.abs(signed_distance(dom, exits))) <= 1e-12

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_identical_stream_gives_identical_bits(self, name):
        dom, x = EXACT[name][:2]
        a = wos_exit_batch(dom, np.array(x), rngmod.stream(4, 2), n=64)
        b = wos_exit_batch(dom, np.array(x), rngmod.stream(4, 2), n=64)
        assert np.array_equal(a, b)
        rows = np.tile(np.array(x), (64, 1))
        c = wos_exit_batch(dom, rows, rngmod.stream(4, 2))
        assert np.array_equal(a, c)

    def test_start_outside_the_shell_raises(self):
        with pytest.raises(GeometryError):
            wos_exit_batch(Cap((1.0, 0.0), 0.3), np.array([0.2, 0.0]), rngmod.stream(0, 0), n=4)


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
