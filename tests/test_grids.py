"""Grid helpers."""

import csv
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from lsmlab.envelope import balayage_step, cartesian_field, contact_set, gain_on_grid
from lsmlab.gain import GainField
from lsmlab.grids import (CSV_BLOCK, bilinear, cartesian_grid, label_components,
                          radial_grid, scale_coordinate, write_csv)
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


def assert_labels_match_ndimage(mask):
    labels, n = label_components(mask)
    ref, ref_n = ndimage.label(mask)
    assert labels.dtype == np.int32 and labels.shape == mask.shape
    assert np.array_equal(labels, ref)
    assert n == ref_n and type(n) is int


class TestLabelComponents:
    """``label_components`` against ``scipy.ndimage.label``, labels and count."""

    @pytest.mark.parametrize("shape", [(60,), (1, 1), (3, 1), (1, 9), (7, 7), (20, 30),
                                       (129, 129)])
    def test_random_masks(self, shape):
        rng = np.random.default_rng(sum(shape))
        for density in np.linspace(0.0, 1.0, 11):
            for _ in range(5):
                assert_labels_match_ndimage(rng.random(shape) < density)

    @pytest.mark.parametrize("shape", [(0,), (1,), (5,), (1, 1), (1, 8), (8, 1), (6, 9)])
    @pytest.mark.parametrize("fill", [False, True])
    def test_empty_and_full_masks(self, shape, fill):
        assert_labels_match_ndimage(np.full(shape, fill))

    def test_checkerboard_diagonals_do_not_join(self):
        board = np.add.outer(np.arange(9), np.arange(10)) % 2 == 0
        assert_labels_match_ndimage(board)
        assert_labels_match_ndimage(~board)
        assert label_components(board)[1] == board.sum()

    def test_a_component_that_turns_back(self):
        # A spiral joins its rows only through runs found late in the scan.
        spiral = np.zeros((11, 11), dtype=bool)
        spiral[0, :] = spiral[:, 10] = spiral[10, :] = spiral[2:, 0] = True
        spiral[2, 0:9] = spiral[2:9, 8] = spiral[8, 2:9] = spiral[4:9, 2] = True
        spiral[4, 2:7] = spiral[4:7, 6] = True
        assert_labels_match_ndimage(spiral)
        assert_labels_match_ndimage(~spiral)

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            label_components(np.zeros((2, 2, 2), dtype=bool))

    @pytest.mark.parametrize("seq", ["spiked_seq", "annulus_cart_seq", "cap_cart_seq"])
    def test_every_preset_level(self, seq, request):
        for contact in request.getfixturevalue(seq).contacts:
            assert_labels_match_ndimage(contact.noncontact_mask)
            assert np.array_equal(contact.labels, ndimage.label(contact.noncontact_mask)[0])


@pytest.mark.parametrize("n", [65, 129, 257])
def test_disc_stencil_exact_on_quadratics_and_harmonics(n):
    fld = cartesian_field(n, np.zeros((n, n)), "grid")
    coords, spacing, stencil = fld.coords, fld.spacing, fld.stencil
    x, y = coords[..., 0], coords[..., 1]
    # 1 - x^2 - y^2 vanishes on the circle, so the cut arms see its true
    # boundary value, and Shortley-Weller is exact for quadratics.
    bowl = neg_laplacian(1.0 - x * x - y * y, stencil, spacing)
    assert np.max(np.abs(bowl[stencil.inside] - 4.0)) <= 1e-9
    full = (np.diff(stencil.offdiag.indptr) == 4).reshape(n, n)
    for u in (x, x * x - y * y, x * y):
        assert np.max(np.abs(neg_laplacian(u, stencil, spacing)[full])) <= 1e-9


def test_solver_stencil_matches_its_grid():
    # Fields are freed between steps, so their coordinate arrays may reuse an
    # address: a stencil cached by id() would come back at another grid size.
    gain = GainField(profile_fn=lambda s: np.where(s < 0.5, 0.5, 0.0),
                     support_radius=0.5, max_gain=0.5, gstar=1.0, lipschitz=1.0)

    def balayage_of_fresh_field(n):
        fld = cartesian_field(n, np.zeros((n, n)), tag="probe")
        g = gain_on_grid(gain, fld)
        lifted = g.copy()
        lifted[n // 2 - 1:n // 2 + 2, n // 2 - 1:n // 2 + 2] += 0.1
        w = fld.copy_with(lifted, tag="w")
        return balayage_step(w, contact_set(w, gain)).values, g

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


def reference_csv(path, units, header, *columns):
    """The writer before row templates: ``.12g`` or ``str`` per field, through csv.writer."""
    with open(path, "w", newline="") as fh:
        if units is not None:
            fh.write(f"# units: {units}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        texts = []
        for column in map(np.asarray, columns):
            text = (lambda v: format(v, ".12g")) if column.dtype.kind == "f" else str
            texts.append([text(v) for v in column.tolist()])
        writer.writerows(zip(*texts))


def wide_floats(rng, n, exponent=300.0):
    """Signed floats of exponent up to +-``exponent``, led by zeros, subnormals, inf and nan."""
    special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e16, 0.1, 123456789012.5]
    wide = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-exponent, exponent, n)
    return np.concatenate([special, wide])[:n]


def int_extremes(dtype, n):
    info = np.iinfo(dtype)
    edge = np.array([info.min, info.max, 0, 1, info.max - 1, info.min + 1], dtype=dtype)
    return np.resize(edge, n)


PARITY_TABLES = {
    "wide-floats": lambda rng: [wide_floats(rng, 600), rng.permutation(wide_floats(rng, 600)),
                                rng.random(600)],
    "float32": lambda rng: [wide_floats(rng, 300, 38.0).astype(np.float32), rng.random(300)],
    "int-extremes": lambda rng: [int_extremes(np.int64, 300), int_extremes(np.uint64, 300),
                                 np.full(300, 2**63 + 7, dtype=np.uint64)],
    "radial-contact": lambda rng: [np.sort(rng.random(500)), (rng.random(500) < 0.4).astype(int)],
    "no-rows": lambda rng: [np.zeros(0), np.zeros(0, dtype=int)],
    "block-minus-one": lambda rng: [rng.random(CSV_BLOCK - 1), np.arange(CSV_BLOCK - 1)],
    "one-block": lambda rng: [rng.random(CSV_BLOCK), np.arange(CSV_BLOCK)],
    "block-plus-one": lambda rng: [rng.random(CSV_BLOCK + 1), np.arange(CSV_BLOCK + 1)],
    "bool": lambda rng: [rng.random(300), rng.random(300) < 0.5],
    "labels": lambda rng: [rng.random(300), np.arange(300),
                           ["annulus[0.1,1]*", "disc", "cap, inner"] * 100],
}


@pytest.mark.parametrize("name", sorted(PARITY_TABLES))
def test_write_csv_bytes_match_the_reference_writer(name, tmp_path):
    columns = PARITY_TABLES[name](np.random.default_rng(11))
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(tmp_path / "new.csv", "payoff units", header, *columns)
    reference_csv(tmp_path / "ref.csv", "payoff units", header, *columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("labels", [False, True])
def test_write_csv_rejects_columns_of_unequal_length(labels, tmp_path):
    short = ["a", "b"] if labels else np.arange(2)
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        write_csv(tmp_path / "t.csv", None, ["x", "y"], np.arange(3.0), short)


def test_field_csv_memory_stays_blocked(tmp_path):
    # Formatting whole columns at once would hold every row as text.
    n = 257
    fld = cartesian_field(n, np.random.default_rng(5).random((n, n)), "level")
    tracemalloc.start()
    try:
        fld.to_csv(tmp_path / "f.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cartesian_field_csv_matches_a_per_node_loop(tmp_path):
    n = 7
    fld = cartesian_field(n, np.random.default_rng(3).random((n, n)), "level")
    fld.to_csv(tmp_path / "f.csv")
    expected = [f"{fld.coords[i, j, 0]:.12g},{fld.coords[i, j, 1]:.12g},{fld.values[i, j]:.12g}"
                for i in range(n) for j in range(n)]
    assert (tmp_path / "f.csv").read_text().splitlines()[2:] == expected


@pytest.mark.parametrize("n", [3, 4, 33, 128, 129, 257])
def test_cartesian_field_csv_bytes_match_the_flat_columns(n, tmp_path):
    rng = np.random.default_rng(n)
    wide = rng.choice([-1.0, 1.0], n * n) * 10.0 ** rng.uniform(-300, 300, n * n)
    draws = np.concatenate([rng.random(n * n), wide])
    special = [-0.0, 5e-324, 1e16, 0.1, 123456789012.5]
    values = np.concatenate([special, rng.permutation(draws)])[:n * n].reshape(n, n)
    fld = cartesian_field(n, values, "level")
    fld.to_csv(tmp_path / "grid.csv")
    reference_csv(tmp_path / "flat.csv", "x,y in unit-ball lengths, value in payoff units",
                  ["x", "y", "value"], *fld.coords.reshape(-1, 2).T, fld.values.ravel())
    text = (tmp_path / "grid.csv").read_bytes()
    assert text == (tmp_path / "flat.csv").read_bytes()
    assert text.split(b"\n")[2] == b"-1,-1,-0"


GRID_TABLES = {
    "wide-floats": lambda rng: (np.sort(rng.random(5)), wide_floats(rng, 7),
                                wide_floats(rng, 35).reshape(5, 7)),
    "float32": lambda rng: (np.linspace(-1, 1, 4, dtype=np.float32), rng.random(3),
                            wide_floats(rng, 12, 38.0).astype(np.float32).reshape(4, 3)),
    "int-values": lambda rng: (np.arange(3), np.linspace(0, 1, 5),
                               int_extremes(np.int64, 15).reshape(3, 5)),
    "no-columns": lambda rng: (np.arange(3.0), np.zeros(0), np.zeros((3, 0))),
    "no-rows": lambda rng: (np.zeros(0), np.arange(3.0), np.zeros((0, 3))),
}


@pytest.mark.parametrize("name", sorted(GRID_TABLES))
def test_write_csv_grid_form_matches_the_flat_columns(name, tmp_path):
    x, y, values = GRID_TABLES[name](np.random.default_rng(13))
    write_csv(tmp_path / "grid.csv", "payoff units", ["x", "y", "v"], x, y, values)
    reference_csv(tmp_path / "flat.csv", "payoff units", ["x", "y", "v"],
                  np.repeat(x, len(y)), np.tile(y, len(x)), values.ravel())
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "flat.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    (np.arange(4.0), np.arange(3.0), np.zeros((3, 4))),
    (np.arange(3.0), np.zeros((3, 4))),
    (np.zeros((3, 1)), np.arange(4.0), np.zeros((3, 4))),
    (np.arange(3.0), np.arange(4.0), np.zeros((3, 4), dtype=bool)),
    (np.arange(3.0), np.array(list("abcd")), np.zeros((3, 4))),
])
def test_write_csv_rejects_a_malformed_grid_table(columns, tmp_path):
    with pytest.raises(ValueError, match="grid table"):
        write_csv(tmp_path / "t.csv", None, ["x", "y", "v"], *columns)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("bend", ["swapped-axes", "one-node-moved", "signed-zero", "nan"])
def test_cartesian_field_csv_rejects_coords_off_a_tensor_grid(bend, tmp_path):
    n = 5
    fld = cartesian_field(n, np.random.default_rng(4).random((n, n)), "level")
    coords = fld.coords.copy()
    if bend == "swapped-axes":
        coords = coords[..., ::-1]
    elif bend == "one-node-moved":
        coords[3, 1, 1] = np.nextafter(coords[3, 1, 1], 2.0)
    elif bend == "signed-zero":
        # x[2] is 0.0; a -0.0 at one node compares equal but is written "-0".
        assert coords[2, 0, 0] == 0.0 and not np.signbit(coords[2, 0, 0])
        coords[2, 3, 0] = -0.0
    else:
        coords[1, 1, 0] = coords[1, 2, 0] = coords[1, 0, 0] = np.nan
    fld.coords = coords
    with pytest.raises(ValueError, match="tensor grid"):
        fld.to_csv(tmp_path / "f.csv")
    assert not (tmp_path / "f.csv").exists()
