"""Grid helpers."""

import numpy as np
import pytest

from lsmlab.envelope import balayage_step, cartesian_field, contact_set, gain_on_grid
from lsmlab.gain import GainField
from lsmlab.grids import (CSV_BLOCK, bilinear, cartesian_grid, disc_stencil, radial_grid,
                          scale_coordinate, write_csv)
from lsmlab.oracle import neg_laplacian


def test_radial_grid_contract():
    radii = radial_grid(512, r_min=1e-3)
    assert radii[-1] == 1.0
    assert np.all(np.diff(radii) > 0)
    # Log-uniform: uniform in the scale coordinate.
    s = np.log(radii)
    assert np.allclose(np.diff(s), s[1] - s[0], atol=1e-9)


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        radial_grid(1)
    with pytest.raises(ValueError):
        radial_grid(64, r_min=1.5)


def test_scale_coordinate_dimensions():
    assert scale_coordinate(1.0, 2) == 0.0
    assert scale_coordinate(1.0, 3) == -1.0
    r = np.linspace(0.1, 1.0, 50)
    for d in (2, 3, 4):
        s = scale_coordinate(r, d)
        assert np.all(np.diff(s) > 0), f"scale must increase with r in d={d}"


def test_cartesian_grid_shape():
    coords, spacing = cartesian_grid(65)
    assert coords.shape == (65, 65, 2)
    assert spacing == pytest.approx(2.0 / 64)
    assert coords[0, 0, 0] == -1.0 and coords[-1, -1, 1] == 1.0


@pytest.mark.parametrize("n", [65, 129, 257])
def test_disc_stencil_exact_on_quadratics_and_harmonics(n):
    coords, spacing = cartesian_grid(n)
    stencil = disc_stencil(coords, spacing)
    x, y = coords[..., 0], coords[..., 1]
    # 1 - x^2 - y^2 vanishes on the circle, so the cut arms see its true
    # boundary value, and Shortley-Weller is exact for quadratics.
    bowl = neg_laplacian(1.0 - x * x - y * y, stencil, spacing)
    assert np.max(np.abs(bowl[stencil.inside] - 4.0)) <= 1e-9
    full = stencil.inside & np.logical_and.reduce(list(stencil.nbr_inside.values()))
    for u in (x, x * x - y * y, x * y):
        assert np.max(np.abs(neg_laplacian(u, stencil, spacing)[full])) <= 1e-9


def test_solver_stencil_matches_its_grid():
    # Fields are freed between steps, so their coordinate arrays may reuse an
    # address: a stencil cached by id() would come back at another grid size.
    gain = GainField(evaluator=lambda p: np.where(np.linalg.norm(p, axis=1) < 0.5, 0.5, 0.0),
                     support_radius=0.5, max_gain=0.5, gstar=1.0, lipschitz=1.0,
                     radial=False, continuous=False)

    def balayage_of_fresh_field(n):
        fld = cartesian_field(n, np.zeros((n, n)), tag="probe")
        g = gain_on_grid(gain, fld)
        lifted = g.copy()
        lifted[n // 2 - 1:n // 2 + 2, n // 2 - 1:n // 2 + 2] += 0.1
        w = fld.copy_with(lifted, tag="w")
        return balayage_step(w, contact_set(w, gain), gain).values, g

    for k in range(30):
        n = (33, 49, 65)[k % 3]
        values, g = balayage_of_fresh_field(n)
        assert values.shape == (n, n)
        assert np.max(np.abs(values - g)) <= 1e-9


def test_bilinear_exact_on_bilinear_data_and_clamped_at_edges():
    def f(x, y):
        return 0.3 - 1.7 * x + 2.1 * y + 4.3 * x * y

    origin, step = (-0.8, -0.5), (0.1, 0.07)
    xs = origin[0] + step[0] * np.arange(17)
    ys = origin[1] + step[1] * np.arange(13)
    table = f(xs[:, None], ys[None, :])
    rng = np.random.default_rng(2)
    pts = np.stack([rng.uniform(xs[0], xs[-1], 500), rng.uniform(ys[0], ys[-1], 500)], axis=1)
    np.testing.assert_allclose(bilinear(table, origin, step, pts), f(pts[:, 0], pts[:, 1]),
                               rtol=0.0, atol=1e-13)
    far = np.array([[-3.0, 0.1], [3.0, 0.1], [0.2, -3.0], [0.2, 3.0], [-3.0, 3.0]])
    edge = np.stack([np.clip(far[:, 0], xs[0], xs[-1]), np.clip(far[:, 1], ys[0], ys[-1])],
                    axis=1)
    assert np.array_equal(bilinear(table, origin, step, far), bilinear(table, origin, step, edge))
    np.testing.assert_allclose(bilinear(table, origin, step, far), f(edge[:, 0], edge[:, 1]),
                               rtol=0.0, atol=1e-4)


def test_write_csv_layout_across_a_block_boundary(tmp_path):
    n = CSV_BLOCK + 3
    x = np.linspace(0.0, 1.0, n)
    write_csv(tmp_path / "t.csv", "x in unit-ball lengths", ["i", "x", "patch"],
              np.arange(n), x, ["annulus[0.1,1]*"] * n)
    lines = (tmp_path / "t.csv").read_bytes().decode().split("\n")
    assert lines[:2] == ["# units: x in unit-ball lengths", "i,x,patch"]
    assert lines[-1] == "" and len(lines) == n + 3
    rows = lines[2:-1]
    assert rows[0] == '0,0,"annulus[0.1,1]*"'
    assert rows[CSV_BLOCK] == f'{CSV_BLOCK},{x[CSV_BLOCK]:.12g},"annulus[0.1,1]*"'
    assert rows[-1] == f'{n - 1},1,"annulus[0.1,1]*"'


def test_cartesian_field_csv_matches_a_per_node_loop(tmp_path):
    n = 7
    fld = cartesian_field(n, np.random.default_rng(3).random((n, n)), "level")
    fld.to_csv(tmp_path / "f.csv")
    expected = [f"{fld.coords[i, j, 0]:.12g},{fld.coords[i, j, 1]:.12g},{fld.values[i, j]:.12g}"
                for i in range(n) for j in range(n)]
    assert (tmp_path / "f.csv").read_text().splitlines()[2:] == expected
