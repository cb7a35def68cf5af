"""Shared fixtures: the expensive envelope/oracle runs are built once per session.

Also the brute-force reference that the concave-hull tests compare against,
``rasterize``, the builder of the grid-region fixtures, and
``constant_disc_patch``, the constant patch on a centred disc that the
majorant fixtures branch from.
"""

import numpy as np
import pytest

import lsmlab as L
from lsmlab.envelope import iterate_envelopes, unbranched_envelope
from lsmlab.geometry import Ball, GeometryError, GridRegion, domain_dim, signed_distance
from lsmlab.grids import RedBlackSOR
from lsmlab.harmonic import constant_data
from lsmlab.majorant import grid_patch
from lsmlab.oracle import psor_obstacle_solve, radial_value_oracle


@pytest.fixture(scope="session")
def spiked():
    return L.mollify(L.spiked_gain(0.05), 0.01)


@pytest.fixture(scope="session")
def radii():
    return L.radial_grid(2048)


@pytest.fixture(scope="session")
def spiked_run(spiked, radii):
    return unbranched_envelope(spiked, radii)


@pytest.fixture(scope="session")
def spiked_seq(spiked, spiked_run):
    seq = iterate_envelopes(spiked, spiked_run, max_iter=32)
    assert seq.converged
    return seq


@pytest.fixture(scope="session")
def spiked_oracle(spiked, radii):
    return radial_value_oracle(spiked, 2, radii)


@pytest.fixture(scope="session")
def annulus_gain():
    return L.radial_bump_gain(0.3, 0.15)


@pytest.fixture(scope="session")
def annulus_cart_seq(annulus_gain):
    run = unbranched_envelope(annulus_gain, 257)
    seq = iterate_envelopes(annulus_gain, run, max_iter=16)
    assert seq.converged
    return seq


@pytest.fixture(scope="session")
def annulus_psor(annulus_gain):
    return psor_obstacle_solve(annulus_gain, n=257)


@pytest.fixture(scope="session")
def cap_gain():
    return L.offset_bump_gain((0.4, 0.0), 0.15)


@pytest.fixture(scope="session")
def cap_cart_seq(cap_gain):
    run = unbranched_envelope(cap_gain, 257)
    seq = iterate_envelopes(cap_gain, run, max_iter=16)
    assert seq.converged
    return seq


@pytest.fixture(scope="session")
def cap_psor(cap_gain):
    return psor_obstacle_solve(cap_gain, n=257)


@pytest.fixture
def nan_sweeps(monkeypatch):
    """Make every red-black SOR sweep start from a NaN iterate; yields the sweep count."""
    calls = []
    sweep = RedBlackSOR.sweep

    def poisoned(self):
        calls.append(self.omega)
        self._work[:] = np.nan
        return sweep(self)
    monkeypatch.setattr(RedBlackSOR, "sweep", poisoned)
    return calls


def highest_chords(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Brute-force smallest concave majorant of the points, at the points.

    At x_i: the highest chord through (x_j, y_j) and (x_k, y_k) over all
    j <= i <= k with j < k, or y_i itself.  O(n^3) work, vectorised per node.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n = len(xs)
    out = np.empty(n)
    for i in range(n):
        xj, yj = xs[:i + 1, None], ys[:i + 1, None]
        xk, yk = xs[None, i:], ys[None, i:]
        pair = np.arange(i, n)[None, :] > np.arange(i + 1)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            chords = yj + (yk - yj) * (xs[i] - xj) / (xk - xj)
        out[i] = max(ys[i], chords[pair].max(initial=-np.inf))
    return out


def rasterize(dom, n: int = 512) -> GridRegion:
    """Boolean mask of dom on an n-by-n grid covering [-1, 1]^2."""
    if domain_dim(dom) != 2:
        raise GeometryError("rasterisation implemented for d = 2")
    spacing = 2.0 / n
    xs = (np.arange(n) - (n - 1) / 2.0) * spacing
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    inside = signed_distance(dom, pts).reshape(n, n) < 0.0
    # Keep the described set strictly inside the unit ball.
    inside &= (np.hypot(xx, yy) < 1.0 - spacing)
    return GridRegion(mask=inside, spacing=spacing)


def constant_disc_patch(radius: float, level: float, gstar: float):
    """The patch on Ball(0, radius) with constant data ``level`` below ``gstar``:
    its harmonic extension is the constant, and its class is H0."""
    return grid_patch(Ball((0.0, 0.0), radius), constant_data(level), gstar,
                      lambda pts: np.full(pts.shape[0], float(level)),
                      label=f"ball[r={radius:.4g}]")
