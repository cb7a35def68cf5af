"""Gain fields: spiked family, mollification, derived constants."""

import threading
import tracemalloc

import numpy as np
import pytest

import lsmlab.gain as gain_module
from lsmlab.gain import (MOLLIFY_BLOCK, DegenerateGainError, GainError, GainField, _bump_kernel,
                         gain_from_config, mollify, offset_bump_gain, outer_running_max,
                         radial_bump_gain, spiked_gain)


class TestSpiked:
    def test_plateau_value(self):
        g = spiked_gain(0.05)
        assert g(np.array([0.0, 0.0])) == 1.0

    def test_dome_value(self):
        g = spiked_gain(0.05)
        assert g(np.array([0.3, 0.0])) == pytest.approx(np.sqrt(0.25 - 0.09))

    def test_outside_support(self):
        g = spiked_gain(0.05)
        assert g(np.array([0.6, 0.0])) == 0.0

    def test_eps_bound(self):
        with pytest.raises(GainError):
            spiked_gain(0.5)

    def test_spike_dominates_flat(self):
        g0 = spiked_gain(0.0)
        geps = spiked_gain(0.1)
        r = np.linspace(0, 0.99, 500)
        assert np.all(geps.profile(r) >= g0.profile(r) - 1e-15)

    def test_flagged_discontinuous(self):
        assert spiked_gain(0.05).lipschitz == np.inf

    def test_profile_matches_the_where_chain(self):
        eps = 0.05
        g = spiked_gain(eps)
        grid = np.linspace(-0.1, 0.8, 9001)
        points = np.array([0.0, eps, np.nextafter(eps, 1.0), 0.5, 0.7])
        for r in (grid, points, np.array(0.0), np.array(eps), np.array(0.3), np.array(0.7)):
            expected = np.where(r <= eps, 1.0,
                                np.where(r < 0.5, np.sqrt(np.clip(0.25 - r * r, 0.0, None)), 0.0))
            got = g.profile(r)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


def _mollify_oracle_at_origin(eps, width):
    """Independent polar quadrature of the convolution at x = 0."""
    g = spiked_gain(eps)
    s = np.linspace(0, width, 4001)[1:]
    t = s / width
    psi = np.exp(-1.0 / (1.0 - np.clip(t, 0, 1 - 1e-12) ** 2))
    weights = psi * s  # d = 2 radial kernel weight
    vals = g.profile(s)
    return float((vals * weights).sum() / weights.sum())


def _mollify_full_arrays(g, width, profile_points, r):
    """The radial quadrature on whole (profile_points, 32, 64) arrays, evaluated at r."""
    reach = g.support_radius - float(np.linalg.norm(g.center)) + width
    r_nodes = np.linspace(0.0, min(reach * 1.01, 1.0), profile_points)
    s_x, s_w = np.polynomial.legendre.leggauss(32)
    s = 0.5 * width * (s_x + 1.0)
    s_w = 0.5 * width * s_w
    t_x, t_w = np.polynomial.legendre.leggauss(64)
    theta = 0.5 * np.pi * (t_x + 1.0)
    t_w = 0.5 * np.pi * t_w
    psi = _bump_kernel(s, width)
    if g.dim == 2:
        radial_weight, ang_weight = psi * s * s_w, 2.0 * t_w
    else:
        radial_weight, ang_weight = psi * s * s * s_w, np.sin(theta) * t_w
    rr = r_nodes[:, None, None]
    ss = s[None, :, None]
    tt = theta[None, None, :]
    dist = np.sqrt(np.maximum(rr * rr + ss * ss - 2.0 * rr * ss * np.cos(tt), 0.0))
    gv = g.profile(dist.ravel()).reshape(dist.shape)
    weights = radial_weight[None, :, None] * ang_weight[None, None, :]
    values = np.clip((gv * weights).sum(axis=(1, 2)) / float(weights.sum()), 0.0, None)
    return np.where(r >= reach, 0.0, np.interp(r, r_nodes, values))


class _ProfileError(RuntimeError):
    pass


class TestMollify:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("points", [2 * MOLLIFY_BLOCK, 1000, 3])
    def test_blocks_match_the_full_array_quadrature(self, monkeypatch, dim, points):
        # On one CPU the caller runs every block; on two each thread runs every
        # other one.  Three points make one block, fewer than the threads.
        gains = {"spike": spiked_gain(0.05, dim=dim),
                 "radial-bump": radial_bump_gain(0.3, 0.15, dim=dim)}
        if dim == 2:
            gains["offset-bump"] = offset_bump_gain((0.4, 0.0), 0.15)
        r = np.linspace(0.0, 0.99, 4001)
        for kind, g in gains.items():
            expected = _mollify_full_arrays(g, 0.01, points, r)
            for cpus in (1, 2):
                monkeypatch.setattr(gain_module, "_cpus", lambda: cpus)
                got = mollify(g, 0.01, profile_points=points).profile(r)
                assert np.array_equal(got, expected), (kind, cpus)

    @pytest.mark.parametrize("where,cpus", [("some-distances", 1), ("some-distances", 2),
                                            ("worker-thread", 2)])
    def test_a_profile_error_is_raised_once_every_thread_stops(self, monkeypatch, where, cpus):
        monkeypatch.setattr(gain_module, "_cpus", lambda: cpus)
        spike = spiked_gain(0.05)

        def profile(s):
            if where == "some-distances" and np.any((0.2 < s) & (s < 0.21)):
                raise _ProfileError("bad distance")
            if where == "worker-thread" and threading.current_thread() is not threading.main_thread():
                raise _ProfileError("bad thread")
            return spike.profile(s)

        g = GainField(profile_fn=profile, support_radius=0.5, max_gain=1.0, gstar=1.25,
                      lipschitz=np.inf)
        before = threading.active_count()
        with pytest.raises(_ProfileError):
            mollify(g, 0.01)
        assert threading.active_count() == before

    def test_quadrature_memory_does_not_grow_with_the_profile(self):
        # Whole (4096, 32, 64) float arrays take 64 MiB each; one reused block
        # buffer and the profile of one block stay near 1.7 MiB.
        g = spiked_gain(0.05)
        tracemalloc.start()
        try:
            mollify(g, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_zero_region_stays_zero(self):
        g = mollify(spiked_gain(0.05), 0.01)
        r = np.linspace(0.52, 0.95, 200)
        assert np.all(g.profile(r) == 0.0)

    def test_origin_value_bracket(self):
        g = mollify(spiked_gain(0.05), 0.01)
        v = g(np.array([0.0, 0.0]))
        assert np.sqrt(0.25 - 0.0036) <= v <= 1.0

    def test_origin_against_quadrature_oracle(self):
        g = mollify(spiked_gain(0.05), 0.01)
        oracle = _mollify_oracle_at_origin(0.05, 0.01)
        assert g(np.array([0.0, 0.0])) == pytest.approx(oracle, abs=2e-6)

    def test_max_does_not_grow(self):
        base = radial_bump_gain(0.3, 0.15)
        out = mollify(base, 0.02)
        assert out.max_gain <= base.max_gain + 1e-12

    def test_support_growth(self):
        g = mollify(spiked_gain(0.05), 0.01)
        assert g.support_radius == pytest.approx(0.51)
        assert g.profile(np.array([0.512]))[0] == 0.0

    def test_width_too_large(self):
        with pytest.raises(GainError):
            mollify(spiked_gain(0.05), 0.3)

    def test_averaging_within_lipschitz_band(self):
        base = radial_bump_gain(0.3, 0.15)
        out = mollify(base, 0.01)
        rng = np.random.default_rng(3)
        r = rng.uniform(0.0, 0.6, size=1000)
        gap = np.abs(out.profile(r) - base.profile(r))
        assert np.all(gap <= base.lipschitz * 0.01 + 1e-9)

    def test_nonradial_mollify(self):
        base = offset_bump_gain((0.4, 0.0), 0.15)
        out = mollify(base, 0.02)
        assert not out.radial
        assert out(np.array([0.4, 0.0])) == pytest.approx(base.max_gain, rel=0.05)


class TestDeriveConstants:
    """The constants the majorant machinery reads off a GainField."""

    def test_spiked_defaults(self):
        g = mollify(spiked_gain(0.05), 0.01)
        assert g.max_gain == pytest.approx(1.0, abs=1e-6)
        assert g.gstar == pytest.approx(1.25, abs=1e-6)
        assert g.support_gap == pytest.approx(0.49)
        assert g.lipschitz_bound == pytest.approx(max(g.lipschitz, g.gstar / g.support_gap))

    def test_degenerate_gain_rejected(self):
        with pytest.raises((DegenerateGainError, GainError)):
            radial_bump_gain(0.3, 0.15, height=0.0)

    @pytest.mark.parametrize("width", [0.0, -0.1])
    def test_bump_width_must_be_positive(self, width):
        with pytest.raises(GainError, match="width"):
            radial_bump_gain(0.3, width)

    def test_margin_one(self):
        g = mollify(spiked_gain(0.05, gstar_margin=1.0), 0.01)
        assert g.gstar == pytest.approx(2.0, abs=1e-6)


class TestInvariants:
    def test_nonnegative_compact_support(self):
        rng = np.random.default_rng(5)
        for g in (mollify(spiked_gain(0.05), 0.01), radial_bump_gain(0.3, 0.15),
                  offset_bump_gain((0.4, 0.0), 0.15)):
            pts = rng.uniform(-1, 1, size=(10_000, 2))
            vals = g(pts)
            assert np.all(vals >= 0.0)
            outside = np.linalg.norm(pts, axis=1) >= g.support_radius
            assert np.all(vals[outside] == 0.0)

    def test_outer_running_max(self):
        g = radial_bump_gain(0.3, 0.15)
        r = np.linspace(0.0, 1.0, 257)
        big = outer_running_max(g, r)
        prof = g.profile(r)
        assert np.all(big >= prof - 1e-15)
        assert np.all(np.diff(big) <= 1e-15)
        assert big[0] == pytest.approx(g.max_gain, abs=1e-3)


class TestConfig:
    def test_spiked_block(self):
        g = gain_from_config({"kind": "spiked", "epsilon": 0.05, "mollify": 0.01,
                              "gstar_margin": 0.25})
        assert g.gstar == pytest.approx(1.25, abs=1e-6)

    def test_unknown_kind(self):
        with pytest.raises(GainError):
            gain_from_config({"kind": "nope"})
