import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micpsim.config import preset
from micpsim.errors import DomainError, EmptyDomainError, GeometryError
from micpsim.grid import (
    DomainSpec,
    LeakSpec,
    Region,
    ReservoirSpec,
    build_domain,
    face_transmissibility,
    leak_connects_aquifers,
    transmissibilities,
)
from micpsim.params import RockLaw

ROCK = RockLaw()


def example1_grid():
    domain = DomainSpec(nx=100, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0)
    leak = LeakSpec(aperture=5.0, width=1.0, tilt_deg=90.0, perm=2e-14,
                    anchor_x=14.5)
    reservoir = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0,
                              well_x=0.5, outflow_sides=("x+",))
    return build_domain(domain, leak, reservoir, ROCK)


def table2_3d_grid(dx=0.5, dz=0.5, ny=4):
    # Two 5 m aquifers around a 20 m caprock, Table-2 leak geometry.
    nx = int(round(100.0 / dx))
    nz = int(round(30.0 / dz))
    domain = DomainSpec(nx=nx, ny=ny, nz=nz, dx=dx, dy=20.0 / ny, dz=dz)
    leak = LeakSpec(aperture=1.0, width=6.0, tilt_deg=135.0, perm=2e-14)
    reservoir = ReservoirSpec(aquifer_height=5.0, caprock_height=20.0,
                              well_x=0.5 * dx, well_y=10.0)
    return build_domain(domain, leak, reservoir, ROCK)


class TestBuildDomain:
    def test_example1_layout(self):
        g = example1_grid()
        assert g.n_active == 100
        leak_cells = g.leak_cells
        assert leak_cells.size == 5
        xs = sorted(g.centers[leak_cells, 0])
        assert xs == [12.5, 13.5, 14.5, 15.5, 16.5]
        assert np.all(g.perm0[leak_cells] == 2e-14)
        non_leak = np.setdiff1d(np.arange(100), leak_cells)
        assert np.all(g.perm0[non_leak] == 1e-14)
        assert list(g.well_cells) == [0]
        # production boundary: single face on the right end
        assert g.bface_cell.size == 1
        assert g.centers[g.bface_cell[0], 0] == 99.5

    def test_vertical_slab_full_width(self):
        domain = DomainSpec(nx=10, ny=3, nz=6, dx=1.0, dy=1.0, dz=1.0)
        leak = LeakSpec(aperture=1.0, width=3.0, tilt_deg=90.0, perm=2e-14,
                        anchor_x=4.0)
        reservoir = ReservoirSpec(aquifer_height=1.0, caprock_height=4.0,
                                  well_x=0.5)
        g = build_domain(domain, leak, reservoir, ROCK)
        leak_ijk = g.cell_ijk[g.leak_cells]
        # one i-column, every j, every caprock layer
        assert set(leak_ijk[:, 0]) == {4}
        assert set(leak_ijk[:, 1]) == {0, 1, 2}
        assert set(leak_ijk[:, 2]) == {1, 2, 3, 4}

    def test_diagonal_band_against_brute_force(self):
        g = table2_3d_grid()
        # Independent point-in-slab predicate over every lattice center.
        domain, leak, res = g.domain, g.leak, g.reservoir
        theta = math.radians(leak.tilt_deg)
        foot_x = res.well_x + leak.gap_lower + leak.gap_leak
        count = 0
        for i in range(domain.nx):
            for j in range(domain.ny):
                for k in range(domain.nz):
                    x = (i + 0.5) * domain.dx
                    y = (j + 0.5) * domain.dy
                    z = (k + 0.5) * domain.dz
                    in_cap = 5.0 <= z < 25.0
                    s = (x - foot_x) * math.sin(theta) - (z - 5.0) * math.cos(theta)
                    y_lo = 10.0 - 0.5 * leak.width
                    if (in_cap and -0.5 <= s < 0.5
                            and y_lo <= y < y_lo + leak.width):
                        count += 1
        assert g.leak_cells.size == count
        assert count > 0
        assert leak_connects_aquifers(g)

    def test_leak_outside_caprock_raises(self):
        domain = DomainSpec(nx=40, ny=1, nz=30, dx=1.0, dy=1.0, dz=1.0)
        leak = LeakSpec(aperture=1.0, width=1.0, tilt_deg=135.0, perm=2e-14,
                        anchor_x=10.0)  # top end would sit at x = -10
        reservoir = ReservoirSpec(aquifer_height=5.0, caprock_height=20.0,
                                  well_x=0.5)
        with pytest.raises(GeometryError):
            build_domain(domain, leak, reservoir, ROCK)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_spec_permeability_raises(self, bad):
        cfg = preset("ex3")
        with pytest.raises(DomainError, match="aquifer permeability must be finite"):
            build_domain(cfg.domain, cfg.leak, replace(cfg.reservoir, perm_aquifer=bad),
                         cfg.rock)
        with pytest.raises(DomainError, match="leak permeability must be finite"):
            build_domain(cfg.domain, replace(cfg.leak, perm=bad), cfg.reservoir, cfg.rock)

    def test_zero_active_cells_raises(self):
        domain = DomainSpec(nx=4, ny=1, nz=4, dx=1.0, dy=1.0, dz=1.0)
        reservoir = ReservoirSpec(aquifer_height=0.0, caprock_height=4.0,
                                  well_x=0.5)
        with pytest.raises(EmptyDomainError):
            build_domain(domain, None, reservoir, ROCK)

    def test_height_mismatch_raises(self):
        domain = DomainSpec(nx=4, ny=1, nz=4, dx=1.0, dy=1.0, dz=1.0)
        reservoir = ReservoirSpec(aquifer_height=5.0, caprock_height=20.0)
        with pytest.raises(GeometryError):
            build_domain(domain, None, reservoir, ROCK)

    @pytest.mark.parametrize("well", [{"well_x": -3.0}, {"well_x": 10.5},
                                      {"well_y": -1.0}, {"well_y": 20.5}],
                             ids=["x_below", "x_above", "y_below", "y_above"])
    def test_well_outside_domain_raises(self, well):
        # a negative cell index would wrap the well to the far side
        domain = DomainSpec(nx=10, ny=4, nz=1, dx=1.0, dy=5.0, dz=1.0)
        reservoir = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0,
                                  **{"well_x": 0.5, **well})
        with pytest.raises(GeometryError, match=next(iter(well))):
            build_domain(domain, None, reservoir, ROCK)

    def test_well_completed_across_lower_aquifer(self):
        g = table2_3d_grid(dx=2.5, dz=2.5)
        ijk = g.cell_ijk[g.well_cells]
        assert set(ijk[:, 0]) == {0}
        assert set(ijk[:, 2]) == {0, 1}  # two 2.5 m layers in the 5 m aquifer
        assert np.all(g.region[g.well_cells] == Region.LOWER_AQUIFER)

    def test_boundary_faces_only_on_aquifers(self):
        g = table2_3d_grid(dx=2.5, dz=2.5)
        assert g.bface_cell.size > 0
        assert np.all(np.isin(g.region[g.bface_cell],
                              (Region.LOWER_AQUIFER, Region.UPPER_AQUIFER)))
        assert np.all(g.cell_ijk[g.bface_cell, 0] == g.domain.nx - 1)

    @pytest.mark.parametrize("side, axis, sign", [
        ("x-", 0, -1.0), ("x+", 0, 1.0), ("y-", 1, -1.0), ("y+", 1, 1.0)])
    def test_boundary_face_axis_and_sign(self, side, axis, sign):
        domain = DomainSpec(nx=4, ny=3, nz=2, dx=1.1, dy=0.7, dz=0.3)
        res = ReservoirSpec(aquifer_height=0.6, caprock_height=0.0, well_x=0.55,
                            outflow_sides=(side,))
        g = build_domain(domain, None, res, ROCK)
        cells_along = (domain.nx, domain.ny)[axis]
        assert g.bface_cell.size == 4 * 3 * 2 // cells_along
        assert np.all(g.bface_axis == axis) and np.all(g.bface_sign == sign)
        end = 0 if sign < 0.0 else cells_along - 1
        assert np.all(g.cell_ijk[g.bface_cell, axis] == end)
        assert np.all(g.bface_area == (domain.dy * domain.dz, domain.dx * domain.dz)[axis])
        assert np.all(g.bface_d == 0.5 * (domain.dx, domain.dy)[axis])

    def test_gap_upper_changes_no_grid(self):
        cfg = preset("ex3")
        grids = [build_domain(cfg.domain, replace(cfg.leak, gap_upper=g_u),
                              cfg.reservoir, cfg.rock) for g_u in (5.0, 40.0)]
        assert grids[0].leak_cells.size > 0
        assert np.array_equal(grids[0].shape_region, grids[1].shape_region)
        assert np.array_equal(grids[0].perm0, grids[1].perm0)

    def test_gravity_is_its_z_component(self):
        cfg = preset("ex1")
        g = build_domain(replace(cfg.domain, gz=-9.0), None, cfg.reservoir, cfg.rock)
        assert g.gravity_accel == 9.0
        for bad in (0.5, np.nan):
            with pytest.raises(DomainError, match="gravity must point downward"):
                build_domain(replace(cfg.domain, gz=bad), None, cfg.reservoir, cfg.rock)

    def test_volume_closure(self):
        g = table2_3d_grid(dx=2.5, dz=2.5)
        cell_vol = g.domain.dx * g.domain.dy * g.domain.dz
        aquifer_vol = 2 * 100.0 * 20.0 * 5.0
        expected = aquifer_vol + g.leak_cells.size * cell_vol
        assert abs(g.volumes.sum() - expected) / expected < 1e-12


class TestTransmissibility:
    def setup_method(self):
        domain = DomainSpec(nx=3, ny=1, nz=1, dx=1.0, dy=1.0, dz=1.0)
        reservoir = ReservoirSpec(aquifer_height=1.0, caprock_height=0.0,
                                  well_x=0.5)
        self.grid = build_domain(domain, None, reservoir, ROCK)

    def test_equal_cells_harmonic_mean(self):
        perm = np.full(3, 1e-14)
        assert face_transmissibility(self.grid, perm, 0) == pytest.approx(1e-14, rel=1e-14)

    def test_two_to_one_contrast(self):
        perm = np.array([1e-14, 2e-14, 2e-14])
        T = face_transmissibility(self.grid, perm, 0)
        assert T == pytest.approx(1.0 / (0.5 / 1e-14 + 0.5 / 2e-14), rel=1e-14)
        assert T == pytest.approx(1.3333333333333333e-14, rel=1e-12)

    def test_vanishing_permeability_limit(self):
        for k2 in (1e-16, 1e-18, 1e-20):
            perm = np.array([1e-14, k2, k2])
            T = face_transmissibility(self.grid, perm, 0)
            assert T < 2 * k2

    def test_nonpositive_permeability_raises(self):
        with pytest.raises(DomainError):
            face_transmissibility(self.grid, np.array([1e-14, 0.0, 1e-14]), 0)
        with pytest.raises(DomainError):
            face_transmissibility(self.grid, np.array([1e-14, -1e-15, 1e-14]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_permeability_raises(self, bad):
        perm = np.array([bad, 1e-14, 1e-14])
        with pytest.raises(DomainError, match="permeability must be finite"):
            face_transmissibility(self.grid, perm, 0)
        # only the face's own cells are checked
        assert face_transmissibility(self.grid, perm, 1) == pytest.approx(1e-14, rel=1e-14)

    def test_shared_transmissibilities_pass_nan_through(self):
        # a NaN Newton iterate must fail its step, not raise
        T = transmissibilities(self.grid, np.array([np.nan, 1e-14, 1e-14]))
        assert np.isnan(T[0]) and T[1] == pytest.approx(1e-14, rel=1e-14)
        assert T[2] == pytest.approx(2e-14, rel=1e-14)  # the boundary face

    @given(st.floats(1e-20, 1e-10), st.floats(1e-20, 1e-10))
    @settings(max_examples=100)
    def test_symmetry_under_cell_swap(self, ka, kb):
        forward = np.array([ka, kb, 1e-14])
        swapped = np.array([kb, ka, 1e-14])
        assert (face_transmissibility(self.grid, forward, 0)
                == face_transmissibility(self.grid, swapped, 0))

    def test_vectorized_matches_scalar(self):
        perm = np.array([1e-14, 3e-15, 7e-16])
        all_T = transmissibilities(self.grid, perm)
        for f in range(self.grid.n_ifaces):
            assert all_T[f] == face_transmissibility(self.grid, perm, f)
            a, b = self.grid.iface_cells[f]
            assert all_T[f] == 1.0 / (0.5 / perm[a] + 0.5 / perm[b])

    def test_boundary_transmissibility(self):
        perm = np.array([1e-14, 1e-14, 4e-14])
        T = transmissibilities(self.grid, perm)
        # one array: the interior faces, then the boundary face
        assert T.shape == (self.grid.n_ifaces + 1,) == (3,)
        assert T[self.grid.n_ifaces] == pytest.approx(4e-14 / 0.5, rel=1e-14)


def flood_fill_connects(grid):
    """Reference for leak_connects_aquifers: a flood fill over the leak cells.

    Starts from every leak cell with a face on the lower aquifer and
    reports whether it reaches one with a face on the upper aquifer.
    """
    leak_set = set(grid.leak_cells.tolist())
    neighbors = {c: [] for c in leak_set}
    touches_lower, touches_upper = set(), set()
    for a, b in grid.iface_cells.tolist():
        if a in leak_set and b in leak_set:
            neighbors[a].append(b)
            neighbors[b].append(a)
        elif a in leak_set or b in leak_set:
            leak_c, other = (a, b) if a in leak_set else (b, a)
            if grid.region[other] == Region.LOWER_AQUIFER:
                touches_lower.add(leak_c)
            elif grid.region[other] == Region.UPPER_AQUIFER:
                touches_upper.add(leak_c)
    stack = list(touches_lower)
    seen = set(stack)
    while stack:
        c = stack.pop()
        if c in touches_upper:
            return True
        for nb in neighbors[c]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return False


class TestLeakConnectivity:
    def test_no_leak_does_not_connect(self, caplog):
        domain = DomainSpec(nx=10, ny=2, nz=6, dx=1.0, dy=1.0, dz=1.0)
        reservoir = ReservoirSpec(aquifer_height=1.0, caprock_height=4.0,
                                  well_x=0.5)
        with caplog.at_level("WARNING", logger="micpsim.grid"):
            g = build_domain(domain, None, reservoir, ROCK)
        assert g.leak_cells.size == 0
        assert not leak_connects_aquifers(g)
        assert not caplog.records  # nothing to warn about without a leak

    def test_coarse_tilted_leak_breaks_into_stripes(self, caplog):
        # a 1 m aperture at 135 deg on 2 m cells: the rasterized slab is
        # diagonal steps that share no x or z faces
        with caplog.at_level("WARNING", logger="micpsim.grid"):
            g = table2_3d_grid(dx=2.0, dz=2.0)
        assert g.leak_cells.size > 0
        assert not leak_connects_aquifers(g)
        assert not flood_fill_connects(g)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "does not form a face-connected path" in caplog.records[0].getMessage()

    def test_fine_tilted_leak_connects_without_warning(self, caplog):
        with caplog.at_level("WARNING", logger="micpsim.grid"):
            g = table2_3d_grid(dx=1.0, dz=1.0)
        assert leak_connects_aquifers(g)
        assert not caplog.records

    @given(dx=st.sampled_from([0.5, 1.0, 1.5, 2.0]), dz=st.sampled_from([0.5, 1.0, 2.0]),
           ny=st.integers(1, 3), width_frac=st.floats(0.6, 1.0),
           aperture=st.floats(0.5, 3.0),
           tilt=st.one_of(st.just(90.0), st.floats(91.0, 145.0)),
           anchor_x=st.floats(12.0, 21.0))
    @settings(max_examples=60)
    def test_matches_flood_fill(self, dx, dz, ny, width_frac, aperture, tilt, anchor_x):
        domain = DomainSpec(nx=int(round(24.0 / dx)), ny=ny, nz=int(round(10.0 / dz)),
                            dx=dx, dy=1.0, dz=dz)
        leak = LeakSpec(aperture=aperture, width=width_frac * ny, tilt_deg=tilt,
                        perm=2e-14, anchor_x=anchor_x)
        reservoir = ReservoirSpec(aquifer_height=2.0, caprock_height=6.0, well_x=0.5)
        g = build_domain(domain, leak, reservoir, ROCK)
        assert leak_connects_aquifers(g) == flood_fill_connects(g)
