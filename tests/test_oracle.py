"""Ground-truth solvers: concave majorant in the scale coordinate and PSOR."""

import json

import numpy as np
import pytest
from conftest import highest_chords
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

import lsmlab as L
from lsmlab import oracle
from lsmlab.cli import main
from lsmlab.gain import spiked_gain, mollify
from lsmlab.grids import ARMS, cartesian_grid, disc_stencil, upper_concave_hull
from lsmlab.oracle import (OracleConvergenceError, OracleError, complementarity_residual,
                           cross_validate, psor_obstacle_solve, radial_value_oracle)


class TestConcaveHull:
    def test_zero_data_stays_zero(self):
        xs = np.linspace(-5, 0, 100)
        hx, hy = upper_concave_hull(xs, np.zeros(100))
        assert np.all(np.interp(xs, hx, hy) == 0.0)

    def test_concave_data_unchanged(self):
        xs = np.linspace(-4, 0, 200)
        ys = -(xs + 2.0) ** 2 + 5.0
        hx, hy = upper_concave_hull(xs, ys)
        assert np.allclose(np.interp(xs, hx, hy), ys, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_dominates_and_concave(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-5, 0, size=60))
        xs += np.arange(60) * 1e-9  # strictly increasing
        ys = rng.uniform(0, 1, size=60)
        hx, hy = upper_concave_hull(xs, ys)
        hull = np.interp(xs, hx, hy)
        assert np.all(hull >= ys - 1e-12)
        slopes = np.diff(hy) / np.diff(hx)
        assert np.all(np.diff(slopes) <= 1e-9)
        # Minimal: at each x_i the hull is the highest chord (x_j, x_k), j <= i <= k.
        assert np.allclose(hull, highest_chords(xs, ys), rtol=0.0, atol=1e-12)


class TestRadialOracle:
    def test_spiked_strictly_above_on_annulus(self, spiked, radii, spiked_oracle):
        gv = spiked.profile(radii)
        mid = (radii > 0.07) & (radii < 0.3)
        assert np.all(spiked_oracle.values[mid] > gv[mid] + 1e-3)
        near_sphere = radii > 0.995
        assert np.all(spiked_oracle.values[near_sphere] <= 0.012)
        assert spiked_oracle.values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_concave_in_scale(self, spiked_oracle):
        s = spiked_oracle.scale
        v = spiked_oracle.values
        slopes = np.diff(v) / np.diff(s)
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_dominates_gain(self, spiked, radii, spiked_oracle):
        assert np.all(spiked_oracle.values >= spiked.profile(radii) - 1e-12)

    def test_value_at_origin(self, spiked_oracle):
        assert spiked_oracle.value_at_origin == pytest.approx(1.0, abs=1e-9)

    def test_annular_shell_flat_inner_value(self):
        # Gain forcing exit at a fixed radius: the dome restricted to
        # [shell_radius, 1/2].  From inside the hole the walls are hit almost
        # surely, so the value is flat at the wall height sqrt(1/4 - r_shell^2).
        r_shell = 0.34
        dome = spiked_gain(0.0)

        def shell_eval(r):
            r = np.asarray(r, dtype=float)
            return np.where(r >= r_shell, dome.radial_evaluator(r), 0.0)

        from lsmlab.gain import GainField
        g = GainField(evaluator=lambda p: shell_eval(np.linalg.norm(p, axis=1)),
                      support_radius=0.5, max_gain=float(np.sqrt(0.25 - r_shell ** 2)),
                      gstar=1.25, lipschitz=10.0, radial=True, continuous=False,
                      radial_evaluator=shell_eval)
        radii = L.radial_grid(2048)
        prof = radial_value_oracle(g, 2, radii)
        inner = radii < r_shell - 0.05
        want = np.sqrt(0.25 - min(0.5, r_shell) ** 2)
        assert np.allclose(prof.values[inner], want, atol=2e-3)

    @pytest.mark.parametrize("profile", ["mollified", "raw"])
    def test_matches_brute_force_majorant(self, profile):
        # An independent guard for the hull primitive: the refinement limit and
        # the reproduce verdict compare two uses of upper_concave_hull, so
        # only a reference that does not call it can catch a bug in it.
        gain = (mollify(spiked_gain(0.024), 0.006) if profile == "mollified"
                else spiked_gain(0.04))
        radii = L.radial_grid(512)
        prof = np.clip(gain.profile(radii), 0.0, None)
        s = np.log(radii)
        xs = np.concatenate([[s[0] - 50.0], s])
        ys = np.concatenate([[prof.max()], prof])
        expect = np.maximum(highest_chords(xs, ys)[1:], prof)
        got = radial_value_oracle(gain, 2, radii, anchor_gap=50.0).values
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_rejects_nonradial(self, cap_gain, radii):
        with pytest.raises(OracleError):
            radial_value_oracle(cap_gain, 2, radii)

    def test_d3_profile(self):
        g = mollify(spiked_gain(0.05, dim=3), 0.01)
        radii = L.radial_grid(1024, r_min=5e-3)
        prof = radial_value_oracle(g, 3, radii)
        assert np.all(prof.values >= g.profile(radii) - 1e-12)
        slopes = np.diff(prof.values) / np.diff(prof.scale)
        assert np.all(np.diff(slopes) <= 1e-9)


class TestPsor:
    def test_complementarity_contract(self, annulus_gain, annulus_psor):
        assert complementarity_residual(annulus_psor, annulus_gain) <= 1e-8

    def test_dominates_gain(self, annulus_gain, annulus_psor):
        from lsmlab.envelope import gain_on_grid
        gv = gain_on_grid(annulus_gain, annulus_psor)
        inside = annulus_psor.inside
        assert np.all(annulus_psor.values[inside] >= gv[inside] - 1e-8)

    def test_discretely_superharmonic(self, annulus_gain, annulus_psor):
        from lsmlab.oracle import neg_laplacian
        stencil = disc_stencil(annulus_psor.coords, annulus_psor.spacing)
        neg_lap = neg_laplacian(annulus_psor.values, stencil, annulus_psor.spacing)
        assert np.min(neg_lap[stencil.inside]) >= -1e-8

    def test_matches_radial_oracle(self, annulus_gain, annulus_psor):
        prof = radial_value_oracle(annulus_gain, 2, L.radial_grid(2048))
        rep = cross_validate(annulus_psor, radial=prof)
        assert rep["radial"]["sup"] <= 5e-3

    def test_cap_gain_solution_positive(self, cap_gain, cap_psor):
        inside = cap_psor.inside
        assert np.all(cap_psor.values[inside] >= 0.0)
        assert cap_psor.values[~inside].max() == 0.0


def pdas_obstacle_solve(gain, n: int, max_steps: int = 50) -> np.ndarray:
    """Primal-dual active-set solve of min(A u, u - g) = 0 on the disc's inside nodes.

    A is the cut-cell -Laplacian (times spacing**2) assembled as a sparse
    matrix; each step fixes u = g on the active set and solves the other rows
    exactly (Hintermueller, Ito & Kunisch, SIAM J. Optim. 2002).  Shares only
    the stencil coefficients with the red-black SOR kernel: a reference for it.
    """
    coords, spacing = cartesian_grid(n)
    stencil = disc_stencil(coords, spacing)
    ii, jj = np.nonzero(stencil.inside)
    m = ii.size
    index = np.full((n, n), -1)
    index[ii, jj] = np.arange(m)
    rows, cols, vals = [np.arange(m)], [np.arange(m)], [stencil.diag[ii, jj]]
    for name, (di, dj) in ARMS.items():
        arm = np.nonzero(stencil.nbr_inside[name][ii, jj])[0]
        rows.append(arm)
        cols.append(index[ii[arm] + di, jj[arm] + dj])
        vals.append(-stencil.coeffs[name][ii[arm], jj[arm]])
    a = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(m, m))
    phi = gain(coords[ii, jj])
    u, lam = np.zeros(m), np.zeros(m)
    active = None
    for _ in range(max_steps):
        new_active = lam + (phi - u) > 0.0
        if active is not None and np.array_equal(new_active, active):
            break
        active, free = new_active, ~new_active
        u = np.where(active, phi, 0.0)
        u[free] = spsolve(a[free][:, free].tocsc(), -(a[free][:, active] @ phi[active]))
        lam = a @ u
    else:
        raise AssertionError("the active set did not settle")
    out = np.zeros((n, n))
    out[ii, jj] = u
    return out


class TestPdasReference:
    """The red-black SOR kernel, shared by the refinement and the PSOR oracle,
    against an independent sparse direct complementarity solve."""

    @pytest.mark.parametrize("n", [33, 49, 65])
    @pytest.mark.parametrize("gain", [
        L.radial_bump_gain(0.3, 0.15), L.offset_bump_gain((0.4, 0.0), 0.15),
        L.offset_bump_gain((0.3, 0.1), 0.3)], ids=["annulus", "cap", "offset-wide"])
    def test_psor_matches_active_set_solve(self, gain, n):
        expect = pdas_obstacle_solve(gain, n)
        got = psor_obstacle_solve(gain, n=n).values
        assert np.max(np.abs(got - expect)) <= 1e-10

    def test_sweep_budget_raises_with_residual(self, monkeypatch, tmp_path):
        monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
        with pytest.raises(OracleConvergenceError) as err:
            psor_obstacle_solve(L.radial_bump_gain(0.3, 0.15), n=33)
        assert np.isfinite(err.value.residual) and err.value.residual > 0.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gain": {"kind": "radial-bump", "center_radius": 0.3, "width": 0.15},
            "grid": {"kind": "cartesian", "nodes": 33},
            "oracle": {"psor": True, "psor_omega": 1.9}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "oracle"]) == 5

    def test_non_finite_iterate_raises_within_one_check(self, nan_sweeps):
        with pytest.raises(OracleConvergenceError) as err:
            psor_obstacle_solve(L.radial_bump_gain(0.3, 0.15), n=33)
        assert np.isnan(err.value.residual)
        assert len(nan_sweeps) == oracle.CHECK_EVERY


class TestCrossValidate:
    def test_identical_inputs_zero(self, annulus_psor):
        rep = cross_validate(annulus_psor, psor=annulus_psor)
        assert rep["psor"]["sup"] == 0.0
        assert rep["psor"]["l2"] == 0.0

    def test_radial_limit_against_both(self, spiked_seq, spiked_oracle):
        rep = cross_validate(spiked_seq.levels[-1], radial=spiked_oracle)
        assert rep["radial"]["sup"] <= 1e-3

    def test_mismatched_grids_raise(self, spiked, spiked_seq, annulus_psor):
        limit = spiked_seq.levels[-1]
        coarse = radial_value_oracle(spiked, 2, L.radial_grid(512))
        with pytest.raises(OracleError, match="mismatched grids"):
            cross_validate(limit, radial=coarse)
        with pytest.raises(OracleError, match="mismatched grids"):
            cross_validate(limit, psor=annulus_psor)
