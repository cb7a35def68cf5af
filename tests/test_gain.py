"""Gain fields: spiked family, mollification, derived constants."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lsmlab.gain import (MOLLIFY_POINTS, DegenerateGainError, GainError, GainField, _bump_kernel,
                         gain_from_config, mollify, offset_bump_gain, outer_running_max,
                         radial_bump_gain, spiked_gain)

REPO = Path(__file__).resolve().parents[1]


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


def _mollify_polar(g, width, r, radius_nodes=256, angle_nodes=512):
    """The convolution at the distances r by a fine polar (s, theta) Gauss-Legendre rule."""
    s_x, s_w = np.polynomial.legendre.leggauss(radius_nodes)
    s = 0.5 * width * (s_x + 1.0)
    t_x, t_w = np.polynomial.legendre.leggauss(angle_nodes)
    theta = 0.5 * np.pi * (t_x + 1.0)
    radial = _bump_kernel(s, width) * s ** (g.dim - 1) * s_w
    angular = t_w if g.dim == 2 else np.sin(theta) * t_w
    weights = radial[:, None] * angular[None, :]
    weights /= weights.sum()
    ss, cos_t = s[:, None], np.cos(theta)[None, :]
    return np.array([(g.profile(np.sqrt(np.maximum(x * x + ss * ss - 2.0 * x * ss * cos_t, 0.0)))
                      * weights).sum() for x in r])


def _profile_nodes(g, width):
    """The distances at which ``mollify`` computes the profile (it interpolates between them)."""
    reach = g.support_radius - float(np.linalg.norm(g.center)) + width
    return np.linspace(0.0, min(reach * 1.01, 1.0), MOLLIFY_POINTS), reach


class _ProfileError(RuntimeError):
    pass


# Sup error bounds against the polar reference.  Each spike bound is 2.3 to
# 2.8 times the largest error the axial rule measured at that width, d = 2 and
# 3 together (1.04e-3 at 0.002, 3.8e-4 at 0.006, 3.6e-4 at 0.01, 1.07e-3 at
# 0.05).  Each bump bound is 2.7 and 2.9 times the largest error of the radial
# and offset bump at any width up to 0.01 (5.6e-13), and at 0.05 (1.04e-11).
# At 0.05 the kernel takes every fifth lattice offset or more.  The polar rule
# of 32 by 64 nodes that mollify used before measured 1.6e-3 to 6.9e-3 on the
# spike and up to 2.6e-10 on the bumps, and fails 11 of the 16 cases.
ACCURACY = {"spike": {0.002: 2.5e-3, 0.006: 1e-3, 0.01: 1e-3, 0.05: 2.5e-3},
            "bump": {0.002: 1.5e-12, 0.006: 1.5e-12, 0.01: 1.5e-12, 0.05: 3e-11}}


class TestMollify:
    @pytest.mark.parametrize("width", [0.002, 0.006, 0.01, 0.05])
    @pytest.mark.parametrize("kind", ["spike-2", "spike-3", "radial-bump", "offset-bump"])
    def test_matches_a_fine_polar_reference(self, kind, width):
        g = {"spike-2": spiked_gain(0.05), "spike-3": spiked_gain(0.05, dim=3),
             "radial-bump": radial_bump_gain(0.3, 0.15),
             "offset-bump": offset_bump_gain((0.4, 0.0), 0.15)}[kind]
        family = "spike" if kind.startswith("spike") else "bump"
        nodes, reach = _profile_nodes(g, width)
        if family == "spike":
            # Profile nodes on both sides of the jump at 0.05, the plateau and the dome.
            near = nodes[(nodes > 0.05 - width) & (nodes < 0.05 + width)]
            r = np.concatenate([near[::max(1, near.size // 16)], nodes[[0, 1500, 3000]]])
        else:
            r = nodes[:int(np.searchsorted(nodes, reach)):200]
        error = np.abs(mollify(g, width).profile(r) - _mollify_polar(g, width, r)).max()
        assert error < ACCURACY[family][width]

    @pytest.mark.parametrize("band", [(0.0, 0.001), (0.2, 0.21)],
                             ids=["some-distances-1", "some-distances-2"])
    def test_a_profile_error_is_raised_once_every_thread_stops(self, band):
        # The profile raises in the first table block, or in a later one; mollify
        # starts no thread, so none is left behind.
        spike = spiked_gain(0.05)

        def profile(s):
            if np.any((band[0] < s) & (s < band[1])):
                raise _ProfileError("bad distance")
            return spike.profile(s)

        g = GainField(profile_fn=profile, support_radius=0.5, max_gain=1.0, gstar=1.25,
                      lipschitz=np.inf)
        before = threading.active_count()
        with pytest.raises(_ProfileError):
            mollify(g, 0.01)
        assert threading.active_count() == before

    def test_quadrature_memory_does_not_grow_with_the_profile(self):
        # Built in one block of every node, the table, the profile's temporaries
        # and the product peak at 5.6 (spike) to 9.2 MiB (offset bump); blocks
        # of about 256 new rows, plus the product rows the next block reads
        # again, peak at 0.6 to 1.6 MiB.
        for g in (spiked_gain(0.05), radial_bump_gain(0.3, 0.15),
                  offset_bump_gain((0.4, 0.0), 0.15)):
            tracemalloc.start()
            try:
                mollify(g, 0.01)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    def test_profile_has_the_same_bits_at_one_and_two_blas_threads(self):
        # The matrix product's threads split rows and columns, never a sum.
        probe = ("import hashlib, numpy as np; import lsmlab as L; "
                 "r = np.linspace(0.0, 0.99, 20001); h = hashlib.sha256(); "
                 "[h.update(L.mollify(g, 0.01).profile(r).tobytes()) for g in "
                 "(L.spiked_gain(0.05), L.spiked_gain(0.05, dim=3), L.radial_bump_gain(0.3, 0.15), "
                 "L.offset_bump_gain((0.4, 0.0), 0.15))]; print(h.hexdigest())")
        digests = []
        for threads in ("1", "2"):
            paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in paths if p))
            proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

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
