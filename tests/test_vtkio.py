import numpy as np
import pytest

from micpsim.errors import DomainError, MicpSimError
from micpsim.grid import DomainSpec, LeakSpec, ReservoirSpec, build_domain
from micpsim.params import RockLaw
from micpsim.vtkio import (
    _f,
    read_snapshot_field,
    read_timeseries,
    write_snapshot,
    write_timeseries,
)

ROCK = RockLaw()


def two_cell_grid():
    domain = DomainSpec(nx=2, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0, well_x=0.5)
    return build_domain(domain, None, res, ROCK)


def caprock_grid():
    domain = DomainSpec(nx=6, ny=2, nz=4, dx=1.0, dy=1.0, dz=1.0)
    leak = LeakSpec(aperture=1.0, width=2.0, tilt_deg=90.0, perm=2e-14,
                    anchor_x=2.0)
    res = ReservoirSpec(aquifer_height=1.0, caprock_height=2.0, well_x=0.5)
    return build_domain(domain, leak, res, ROCK)


def loop_snapshot_text(grid, fields, t):
    """Reference writer: the lattice walked in explicit k, j, i loops."""
    nx, ny, nz = grid.domain.nx, grid.domain.ny, grid.domain.nz
    dx, dy, dz = grid.domain.dx, grid.domain.dy, grid.domain.dz
    lines = ["# vtk DataFile Version 3.0", f"micpsim snapshot t={_f(t)} s", "ASCII",
             "DATASET STRUCTURED_GRID", f"DIMENSIONS {nx + 1} {ny + 1} {nz + 1}",
             f"POINTS {(nx + 1) * (ny + 1) * (nz + 1)} double"]
    for k in range(nz + 1):
        for j in range(ny + 1):
            for i in range(nx + 1):
                lines.append(f"{_f(i * dx)} {_f(j * dy)} {_f(k * dz)}")
    lines.append(f"CELL_DATA {nx * ny * nz}")
    full_fields = {"active": (grid.active_index >= 0).astype(float),
                   "region": grid.shape_region.astype(float)}
    full_fields.update((name, grid.full_field(arr)) for name, arr in fields.items())
    for name, full in full_fields.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        for k in range(nz):
            for j in range(ny):
                for i in range(nx):
                    lines.append(_f(full[i, j, k]))
    return "\n".join(lines) + "\n"


def damaged_snapshot(tmp_path, damage):
    """A caprock_grid snapshot whose K field is cut short or holds a word."""
    grid = caprock_grid()
    path = tmp_path / "damaged.vtk"
    write_snapshot(grid, {"phi": np.full(grid.n_active, 0.15),
                          "K": np.full(grid.n_active, 1e-14)}, 0.0, path)
    lines = path.read_text().splitlines()
    at = lines.index("SCALARS K double 1") + 2
    if damage == "truncated":
        lines = lines[:at + 20]
    else:
        lines[at + 7] = "abc"
    path.write_text("\n".join(lines) + "\n")
    return grid, path


class TestSnapshot:
    def test_two_cell_file_structure(self, tmp_path):
        grid = two_cell_grid()
        path = tmp_path / "snap.vtk"
        write_snapshot(grid, {"phi": np.array([0.15, 0.12])}, 0.0, path)
        text = path.read_text()
        assert "DATASET STRUCTURED_GRID" in text
        assert "CELL_DATA 2" in text
        assert "SCALARS phi double 1" in text
        lines = text.splitlines()
        at = lines.index("SCALARS phi double 1") + 2
        assert [float(v) for v in lines[at:at + 2]] == [0.15, 0.12]

    def test_identical_bytes_for_identical_state(self, tmp_path):
        grid = caprock_grid()
        fields = {"phi": np.linspace(0.1, 0.15, grid.n_active),
                  "K": np.full(grid.n_active, 1e-14)}
        a = tmp_path / "a.vtk"
        b = tmp_path / "b.vtk"
        write_snapshot(grid, fields, 3600.0, a)
        write_snapshot(grid, fields, 3600.0, b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_field(self, tmp_path):
        grid = caprock_grid()
        rng = np.random.default_rng(7)
        K = 10.0 ** rng.uniform(-16, -13, grid.n_active)
        path = tmp_path / "snap.vtk"
        write_snapshot(grid, {"K": K, "phi": np.full(grid.n_active, 0.15)},
                       0.0, path)
        back = read_snapshot_field(path, "K", grid)
        assert np.array_equal(back, K)

    def test_lattice_order_matches_loop_writer(self, tmp_path):
        # inactive caprock cells, ny > 1 and a leak
        grid = caprock_grid()
        assert grid.n_active < grid.active_index.size and grid.domain.ny > 1
        assert grid.leak_cells.size > 0
        rng = np.random.default_rng(3)
        fields = {"K": 10.0 ** rng.uniform(-16, -13, grid.n_active),
                  "p": rng.normal(1e7, 1e5, grid.n_active)}
        path = tmp_path / "snap.vtk"
        write_snapshot(grid, fields, 7200.5, path)
        assert path.read_text() == loop_snapshot_text(grid, fields, 7200.5)
        for name, arr in fields.items():
            assert read_snapshot_field(path, name, grid).tobytes() == arr.tobytes()
        region = read_snapshot_field(path, "region", grid)
        assert np.array_equal(region, grid.region.astype(float))

    @pytest.mark.parametrize("damage, found", [("truncated", 20), ("non_numeric", 7)])
    def test_damaged_field_raises(self, tmp_path, damage, found):
        grid, path = damaged_snapshot(tmp_path, damage)
        assert read_snapshot_field(path, "phi", grid).shape == (grid.n_active,)
        with pytest.raises(MicpSimError) as err:
            read_snapshot_field(path, "K", grid)
        message = str(err.value)
        assert str(path) in message and "'K'" in message
        assert f"has {found} numeric values, expected {grid.active_index.size}" in message

    def test_missing_field_raises(self, tmp_path):
        grid = two_cell_grid()
        path = tmp_path / "snap.vtk"
        write_snapshot(grid, {"phi": np.array([0.15, 0.15])}, 0.0, path)
        with pytest.raises(MicpSimError):
            read_snapshot_field(path, "K", grid)

    def test_damaged_dimensions_line_raises(self, tmp_path):
        grid = two_cell_grid()
        path = tmp_path / "snap.vtk"
        write_snapshot(grid, {"phi": np.array([0.15, 0.15])}, 0.0, path)
        path.write_text(path.read_text().replace("DIMENSIONS 3 2 2", "DIMENSIONS 3 x 2"))
        with pytest.raises(MicpSimError) as err:
            read_snapshot_field(path, "phi", grid)
        assert f"{path}: bad lattice line 'DIMENSIONS 3 x 2'" in str(err.value)

    def test_grid_mismatch_raises(self, tmp_path):
        grid = two_cell_grid()
        path = tmp_path / "snap.vtk"
        write_snapshot(grid, {"phi": np.array([0.15, 0.15])}, 0.0, path)
        with pytest.raises(MicpSimError):
            read_snapshot_field(path, "phi", caprock_grid())

    def test_wrong_length_field_rejected(self, tmp_path):
        grid = two_cell_grid()
        with pytest.raises(DomainError):
            write_snapshot(grid, {"phi": np.array([0.15])}, 0.0,
                           tmp_path / "x.vtk")


class TestTimeseries:
    def test_empty_series_header_only(self, tmp_path):
        path = tmp_path / "s.csv"
        write_timeseries(path, [])
        assert path.read_text() == "t\n"

    def test_lossless_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        times = [0.0, 1.0 / 3.0, 2e5, 2e5 + 1e-9]
        flux = [0.0, 1e-17, 0.123456789012345678, 42.0]
        write_timeseries(path, [(t, {"flux": v}) for t, v in zip(times, flux)])
        t_back, cols = read_timeseries(path)
        assert np.array_equal(t_back, np.array(times))
        assert np.array_equal(cols["flux"], np.array(flux))

    def test_non_monotone_times_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            write_timeseries(tmp_path / "s.csv",
                             [(1.0, {"a": 1.0}), (0.5, {"a": 2.0})])

    @pytest.mark.parametrize("times", [(1.0, np.nan, 0.5), (np.nan, 1.0)])
    def test_nan_time_rejected(self, tmp_path, times):
        with pytest.raises(DomainError, match="time-ordered"):
            write_timeseries(tmp_path / "s.csv", [(t, {"a": 1.0}) for t in times])

    def test_inconsistent_columns_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            write_timeseries(tmp_path / "s.csv",
                             [(0.0, {"a": 1.0}), (1.0, {"b": 2.0})])
