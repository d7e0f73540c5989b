"""Structured Cartesian grids with caprock leakage paths.

The flow domain is a box: a lower aquifer, an optional caprock slab, and
an upper aquifer above it (both aquifers share one height). Caprock cells
are inactive (perfect seal) except where a tilted leak slab crosses the
caprock; those cells become active with the leak permeability. Leaks are
rasterized stair-step: a cell belongs to the leak iff its center lies in
the slab, tested with the signed perpendicular distance s of the center
from the leak centerline plane, -a/2 <= s < a/2 (half-open so that a slab
boundary that falls exactly on a row of cell centers counts them once).

Flux discretization is cell-centered two-point flux approximation (TPFA).
An open boundary face is a face from its cell to a ghost beyond it, so
both solvers read one face list: the interior faces, then the open
boundary faces. :func:`transmissibilities` is its one implementation,
which both solvers and the leakage diagnostic read: interior face
T = A / (d1/K1 + d2/K2) with center-to-face distances d and cell
permeabilities K, boundary face T = A K / d. The potential differences
across the faces live in :class:`micpsim.stepping.AssemblyData`, the
upwinded CO2 phase flux in :func:`micpsim.co2._phase_flux`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import DomainError, EmptyDomainError, GeometryError
from .params import RockLaw

logger = logging.getLogger(__name__)

# each open boundary side's axis and outward sign
_SIDE_AXIS_SIGN = {"x-": (0, -1.0), "x+": (0, 1.0), "y-": (1, -1.0), "y+": (1, 1.0)}
SIDES = tuple(_SIDE_AXIS_SIGN)


class Region(IntEnum):
    LOWER_AQUIFER = 1
    CAPROCK = 2
    UPPER_AQUIFER = 3
    LEAK = 4


AQUIFER_REGIONS = (Region.LOWER_AQUIFER, Region.UPPER_AQUIFER)


@dataclass(frozen=True)
class DomainSpec:
    """Cell counts and sizes of the structured box, plus gravity along z."""

    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    gz: float = -9.81  # m/s^2, z points up

    @property
    def lx(self) -> float:
        return self.nx * self.dx

    @property
    def ly(self) -> float:
        return self.ny * self.dy

    @property
    def lz(self) -> float:
        return self.nz * self.dz

    def validate(self) -> None:
        if min(self.nx, self.ny, self.nz) < 1:
            raise DomainError("cell counts must be >= 1")
        if min(self.dx, self.dy, self.dz) <= 0.0:
            raise DomainError("cell sizes must be > 0")
        if not self.gz <= 0.0:  # NaN fails too
            raise DomainError("gravity must point downward (gz <= 0)")


@dataclass(frozen=True)
class LeakSpec:
    """Geometry and permeability of one leakage path through the caprock.

    ``anchor_x`` is the horizontal offset of the leak's lower end from the
    injection well; when omitted it defaults to gap_lower + gap_leak. The
    tilt angle is measured from the horizontal, so 90 deg is a vertical
    slab and angles in (90, 180) lean back over the well with height.
    ``gap_upper`` (g_u) places nothing: the lower end and the tilt fix the
    slab, so grids that differ only in it are identical. It is kept
    because saved configuration files set it.
    """

    aperture: float = 1.0  # a, m
    width: float = 6.0  # w, extent along y, m
    tilt_deg: float = 135.0  # theta
    perm: float = 2e-14  # K_L, m^2
    gap_lower: float = 15.0  # g_l, m
    gap_upper: float = 5.0  # g_u, m
    gap_leak: float = 15.0  # l, m
    anchor_x: float | None = None

    def resolved_anchor(self) -> float:
        return self.gap_lower + self.gap_leak if self.anchor_x is None else self.anchor_x

    def validate(self, domain_width: float) -> None:
        if not self.aperture > 0.0:
            raise DomainError("leak aperture must be > 0")
        if not 0.0 < self.width <= domain_width * (1.0 + 1e-12):
            raise DomainError("leak width must satisfy 0 < w <= W")
        if not (self.tilt_deg == 90.0 or 90.0 < self.tilt_deg < 180.0):
            raise DomainError("tilt angle must be 90 deg or in (90, 180) deg")
        if not 0.0 < self.perm < math.inf:  # NaN fails too
            raise DomainError("leak permeability must be finite and > 0")


@dataclass(frozen=True)
class ReservoirSpec:
    """Layering, aquifer permeability, well location and open boundaries.

    ``caprock_height`` of zero builds a single open aquifer (the 1D
    verification layout). ``well_y`` of None completes the well across the
    full width; otherwise in the single column containing that y. The
    injection well is always completed over the full lower-aquifer height.
    """

    perm_aquifer: float = 1e-14  # K_A, m^2
    aquifer_height: float = 5.0  # H (both aquifers), m
    caprock_height: float = 20.0  # h, m
    well_x: float = 0.5
    well_y: float | None = None
    outflow_sides: tuple[str, ...] = ("x+",)

    def validate(self) -> None:
        if not 0.0 < self.perm_aquifer < math.inf:  # NaN fails too
            raise DomainError("aquifer permeability must be finite and > 0")
        if self.aquifer_height < 0.0 or self.caprock_height < 0.0:
            raise DomainError("layer heights must be >= 0")
        if self.caprock_height == 0.0 and not self.aquifer_height > 0.0:
            raise DomainError("a caprock-free domain needs aquifer_height > 0")
        for side in self.outflow_sides:
            if side not in SIDES:
                raise DomainError(f"unknown boundary side {side!r}; use one of {SIDES}")


class Grid:
    """Immutable cell/face arrays of the active flow domain.

    Interior faces are oriented from the lower-index cell ``a`` to the
    higher-index cell ``b`` along their axis, so positive face flux points
    in +x/+y/+z. Built once by :func:`build_domain`; never mutated.
    """

    def __init__(self, domain, leak, reservoir, shape_region, active_index,
                 cell_ijk, centers, volumes, region, perm0, poro0,
                 iface_cells, iface_axis, iface_area, iface_d,
                 bface_cell, bface_area, bface_d, bface_z, bface_axis, bface_sign,
                 well_cells, gravity_accel):
        self.domain = domain
        self.leak = leak
        self.reservoir = reservoir
        self.shape_region = shape_region  # full-lattice region codes
        self.active_index = active_index  # (nx, ny, nz), -1 where inactive
        self.cell_ijk = cell_ijk
        self.centers = centers
        self.volumes = volumes
        self.region = region
        self.perm0 = perm0
        self.poro0 = poro0
        self.iface_cells = iface_cells  # (nf, 2)
        self.iface_axis = iface_axis
        self.iface_area = iface_area
        self.iface_d = iface_d  # (nf, 2) center-to-face distances
        self.bface_cell = bface_cell
        self.bface_area = bface_area
        self.bface_d = bface_d
        self.bface_z = bface_z
        self.bface_axis = bface_axis
        self.bface_sign = bface_sign  # +1 where the outward normal points along +axis
        self.well_cells = well_cells
        self.gravity_accel = gravity_accel  # positive magnitude, m/s^2

    @property
    def n_active(self) -> int:
        return self.centers.shape[0]

    @property
    def n_ifaces(self) -> int:
        return self.iface_cells.shape[0]

    @property
    def leak_cells(self) -> np.ndarray:
        return np.flatnonzero(self.region == Region.LEAK)

    @property
    def well_volume(self) -> float:
        return float(self.volumes[self.well_cells].sum())

    def full_field(self, values: np.ndarray, fill=0.0) -> np.ndarray:
        """Scatter an active-cell array onto the full (nx, ny, nz) lattice."""
        out = np.full(self.active_index.shape, fill, dtype=float)
        out[self.active_index >= 0] = np.asarray(values)[
            self.active_index[self.active_index >= 0]]
        return out


def _leak_signed_distance(leak: LeakSpec, foot_x: float, foot_z: float,
                          x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Signed perpendicular distance of points from the leak centerline."""
    theta = math.radians(leak.tilt_deg)
    return (x - foot_x) * math.sin(theta) - (z - foot_z) * math.cos(theta)


def build_domain(domain: DomainSpec, leak: LeakSpec | None,
                 reservoir: ReservoirSpec, rock: RockLaw) -> Grid:
    """Build the active grid with region tags, wells and open boundaries."""
    domain.validate()
    reservoir.validate()
    rock.validate()
    if leak is not None:
        leak.validate(domain.ly)

    H = reservoir.aquifer_height
    h_cap = reservoir.caprock_height
    expected_lz = 2 * H + h_cap if h_cap > 0.0 else H
    if abs(domain.lz - expected_lz) > 1e-9 * max(domain.lz, expected_lz):
        raise GeometryError(
            f"nz*dz = {domain.lz} does not match the layer stack "
            f"(2*{H} + {h_cap} = {expected_lz})" if h_cap > 0.0 else
            f"nz*dz = {domain.lz} does not match aquifer_height = {H}")

    nx, ny, nz = domain.nx, domain.ny, domain.nz
    xs = (np.arange(nx) + 0.5) * domain.dx
    ys = (np.arange(ny) + 0.5) * domain.dy
    zs = (np.arange(nz) + 0.5) * domain.dz
    cx, cy, cz = np.meshgrid(xs, ys, zs, indexing="ij")

    region = np.full((nx, ny, nz), Region.LOWER_AQUIFER, dtype=np.int8)
    if h_cap > 0.0:
        region[cz >= H] = Region.CAPROCK
        region[cz >= H + h_cap] = Region.UPPER_AQUIFER

    if leak is not None:
        foot_x = reservoir.well_x + leak.resolved_anchor()
        foot_z = H if h_cap > 0.0 else 0.0
        _check_leak_fits(domain, leak, foot_x, foot_z, h_cap)
        s = _leak_signed_distance(leak, foot_x, foot_z, cx, cz)
        half = 0.5 * leak.aperture
        in_slab = (s >= -half) & (s < half)
        y_lo = 0.5 * domain.ly - 0.5 * leak.width
        in_slab &= (cy >= y_lo) & (cy < y_lo + leak.width)
        if h_cap > 0.0:
            in_slab &= region == Region.CAPROCK
        region[in_slab] = Region.LEAK

    active = region != Region.CAPROCK
    n_active = int(active.sum())
    if n_active == 0:
        raise EmptyDomainError("grid has zero active cells")

    active_index = np.full((nx, ny, nz), -1, dtype=np.int64)
    active_index[active] = np.arange(n_active)
    ijk = np.argwhere(active)
    centers = np.column_stack([cx[active], cy[active], cz[active]])
    cell_volume = domain.dx * domain.dy * domain.dz
    volumes = np.full(n_active, cell_volume)
    region_a = region[active]
    perm0 = np.where(region_a == Region.LEAK,
                     leak.perm if leak is not None else reservoir.perm_aquifer,
                     reservoir.perm_aquifer)
    poro0 = np.full(n_active, rock.phi0)

    iface_cells, iface_axis, iface_area, iface_d = _interior_faces(domain, active_index)
    boundary = _boundary_faces(domain, reservoir, active_index, region, centers)

    well_cells = _well_cells(domain, reservoir, active_index, h_cap)
    if well_cells.size == 0:
        raise GeometryError("injection well column contains no active cells")

    grid = Grid(domain, leak, reservoir, region, active_index, ijk, centers,
                volumes, region_a, perm0, poro0,
                iface_cells, iface_axis, iface_area, iface_d,
                *boundary, well_cells, abs(domain.gz))

    if leak is not None and h_cap > 0.0 and not leak_connects_aquifers(grid):
        logger.warning(
            "rasterized leak does not form a face-connected path between the "
            "aquifers at this resolution (aperture %.3g m vs cell %.3g x %.3g m)",
            leak.aperture, domain.dx, domain.dz)
    return grid


def _check_leak_fits(domain, leak, foot_x, foot_z, h_cap):
    theta = math.radians(leak.tilt_deg)
    span = h_cap if h_cap > 0.0 else domain.lz
    x_top = foot_x + span * math.cos(theta) / math.sin(theta)
    half_horizontal = 0.5 * leak.aperture / math.sin(theta)
    lo = min(foot_x, x_top) - half_horizontal
    hi = max(foot_x, x_top) + half_horizontal
    if lo < -1e-9 or hi > domain.lx + 1e-9:
        raise GeometryError(
            f"leak slab spans x in [{lo:.3g}, {hi:.3g}] m, outside the "
            f"domain [0, {domain.lx:g}] m")


def _axis_geometry(domain):
    """Per axis: the area of a face normal to it, half a cell's size along it."""
    return ((domain.dy * domain.dz, domain.dx * domain.dz, domain.dx * domain.dy),
            (0.5 * domain.dx, 0.5 * domain.dy, 0.5 * domain.dz))


def _interior_faces(domain, active_index):
    cells, axes, areas, dists = [], [], [], []
    face_area, half = _axis_geometry(domain)
    for axis in range(3):
        lo = active_index[_slab(axis, slice(None, -1))]
        hi = active_index[_slab(axis, slice(1, None))]
        mask = (lo >= 0) & (hi >= 0)
        a = lo[mask]
        b = hi[mask]
        cells.append(np.column_stack([a, b]))
        axes.append(np.full(a.size, axis, dtype=np.int8))
        areas.append(np.full(a.size, face_area[axis]))
        dists.append(np.full((a.size, 2), half[axis]))
    return (np.concatenate(cells) if cells else np.empty((0, 2), dtype=np.int64),
            np.concatenate(axes), np.concatenate(areas), np.concatenate(dists))


def _slab(axis, sl):
    idx = [slice(None)] * 3
    idx[axis] = sl
    return tuple(idx)


def _boundary_faces(domain, reservoir, active_index, region, centers):
    """Cell, area, distance, z, axis and outward sign of each open boundary face."""
    face_area, half = _axis_geometry(domain)
    cell, axes, signs = [np.empty(0, np.int64)], [np.empty(0, np.int8)], [np.empty(0)]
    for side in reservoir.outflow_sides:
        axis, sign = _SIDE_AXIS_SIGN[side]
        end = _slab(axis, 0 if sign < 0.0 else -1)
        idx = active_index[end]
        chosen = idx[(idx >= 0) & np.isin(region[end], AQUIFER_REGIONS)]
        cell.append(chosen)
        axes.append(np.full(chosen.size, axis, dtype=np.int8))
        signs.append(np.full(chosen.size, sign))
    bcell, baxis, bsign = map(np.concatenate, (cell, axes, signs))
    return (bcell, np.take(face_area, baxis), np.take(half, baxis), centers[bcell, 2],
            baxis, bsign)


def _well_cells(domain, reservoir, active_index, h_cap):
    for name, pos, length in (("well_x", reservoir.well_x, domain.lx),
                              ("well_y", reservoir.well_y, domain.ly)):
        if pos is not None and not 0.0 <= pos <= length:
            raise GeometryError(f"{name} = {pos:g} m lies outside the domain "
                                f"[0, {length:g}] m")
    i = min(int(reservoir.well_x / domain.dx), domain.nx - 1)
    if reservoir.well_y is None:
        j_list = range(domain.ny)
    else:
        j_list = [min(int(reservoir.well_y / domain.dy), domain.ny - 1)]
    if h_cap > 0.0:
        k_list = [k for k in range(domain.nz)
                  if (k + 0.5) * domain.dz < reservoir.aquifer_height]
        if not k_list:
            k_list = [0]
    else:
        k_list = list(range(domain.nz))
    cells = [active_index[i, j, k] for j in j_list for k in k_list]
    return np.array(sorted(c for c in cells if c >= 0), dtype=np.int64)


def transmissibilities(grid: Grid, perm: np.ndarray) -> np.ndarray:
    """TPFA transmissibilities (m^3) from the cell permeabilities ``perm``.

    One value per face: T = A / (d_a/K_a + d_b/K_b) of each interior face,
    then T = A K / d of each constant-pressure boundary face, d being the
    distance from a cell center to the face. Checks nothing, so that a
    NaN iterate gives NaN fluxes and fails its Newton step instead of
    raising; the public entry points check their fields themselves.
    """
    a = grid.iface_cells[:, 0]
    b = grid.iface_cells[:, 1]
    T = grid.iface_area / (grid.iface_d[:, 0] / perm[a] + grid.iface_d[:, 1] / perm[b])
    return np.concatenate((T, grid.bface_area * perm[grid.bface_cell] / grid.bface_d))


def face_transmissibility(grid: Grid, perm_field, face: int) -> float:
    """TPFA transmissibility of one interior face, m^3.

    T = A / (d1/K1 + d2/K2); symmetric in the two cells and linear in the
    face area. Only the permeabilities of the face's two cells matter.
    """
    perm = np.asarray(perm_field, dtype=float)
    a, b = grid.iface_cells[face]
    if not all(0.0 < perm[c] < np.inf for c in (a, b)):  # NaN fails too
        raise DomainError("permeability must be finite and > 0 on both sides of a face")
    with np.errstate(divide="ignore"):  # other cells may hold zeros
        return float(transmissibilities(grid, perm)[face])


def leak_connects_aquifers(grid: Grid) -> bool:
    """True if leak cells form a face-connected bridge between the aquifers.

    Labels the connected components of the leak cells' face graph
    (``scipy.sparse.csgraph.connected_components``) and checks whether
    one component holds both a leak cell with a face on the lower aquifer
    and one with a face on the upper aquifer. Useful as a sanity check
    before running flow on coarse grids, where a thin tilted slab can
    rasterize into diagonal stripes that share no faces.
    """
    leak = grid.region == Region.LEAK
    fa, fb = grid.iface_cells[:, 0], grid.iface_cells[:, 1]
    inside = leak[fa] & leak[fb]
    n = grid.n_active
    graph = sparse.coo_matrix(
        (np.ones(np.count_nonzero(inside)), (fa[inside], fb[inside])), shape=(n, n))
    _, label = csgraph.connected_components(graph, directed=False)
    # faces between a leak cell and another region: the leak cell's
    # component and the other cell's region
    edge = leak[fa] != leak[fb]
    leak_cell = np.where(leak[fa], fa, fb)[edge]
    other = np.where(leak[fa], fb, fa)[edge]
    lower = label[leak_cell[grid.region[other] == Region.LOWER_AQUIFER]]
    upper = label[leak_cell[grid.region[other] == Region.UPPER_AQUIFER]]
    return bool(np.intersect1d(lower, upper).size)
