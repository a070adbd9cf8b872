"""Problem definitions and finite element assembly on element subsets.

Three problems share one assembly interface:

* ``ldc``  - lid-driven cavity, steady incompressible Navier-Stokes on the
  unit square, Taylor-Hood P2/P1 triangles, pressure pinned at the origin.
* ``beam`` - plane-stress Neo-Hookean beam, P1 displacements, both short
  edges clamped, constant downward body force.
* ``diffusion`` - scalar (optionally nonlinear) diffusion with a constant
  source, P1, homogeneous Dirichlet boundary.

Residual rows at Dirichlet DOFs are replaced by ``u - g`` and tangent rows by
identity rows, so Newton updates keep the boundary data exact.  Assembly over
an element subset produces the subset's rows only; with a ghost ring around an
overlapping subdomain those rows coincide with the global ones.

Everything about assembly for one problem over an element subset that does
not depend on the state lives in an `AssemblyPlan`: the element geometry
(barycentric gradients and areas), the position of every element DOF among
the plan's DOFs, which serves both the state gather and the residual
scatter, and the tangent's sparse pattern, Dirichlet identity included,
with an int32 map from each element-matrix entry to its slot in the data
array.  Entries of Dirichlet rows, and of rows the plan does not assemble,
map to one trash slot past the end.

A subset plan may assemble only some of its rows: a subdomain's plan spans
the ghost-extended elements but assembles the rows of the overlapping
subdomain's DOFs only.  It numbers those DOFs first, then the ghost DOFs,
and compresses its tangent by column (CSC), so that the tangent comes out
as [A_i | C_i]: the square block A_i in the form SuperLU takes, and the
ghost coupling C_i, split at one offset of the column pointers without a
copy.  Plans that assemble every row use the same layout, the full-mesh
plan included: it is the plan over all elements that assembles every row,
and callers that multiply its tangent by rows convert it to CSR once.

The kernels run in chunks whose arrays stay below the malloc mmap
threshold - at most `_CHUNK` (96) elements for a tangent, six times as
many for a residual - and each chunk accumulates into the one data (or
residual) array with ``np.add.at``, in element order.  The
sums are then those of a single scatter of all elements: chunking changes
no bit.

The cavity's operator splits into a constant Stokes part (viscous blocks
and pressure coupling) and convection.  Its plan assembles the Stokes part
once, at construction, as a CSR matrix of its nonzero entries whose rows
list their columns in global DOF order, with the tangent slot of each, 16
bytes per nonzero, and keeps the slot map for the 12 x 12 velocity block
only, which is all convection touches: 576 bytes per element of map, in
place of 900 for the full map.  On the 40 x 40 cavity (3,200 elements)
that is 4.1 MB of Stokes data and 1.8 MB of map for the full-mesh plan,
and 0.33-0.42 MB and 0.16-0.22 MB for one of the 16 subdomain plans of a
4 x 4 decomposition.  An assembly call then computes and scatters only
convection; the residual adds one product of the Stokes matrix with the
state, which sums each row in global column order whatever the plan's
numbering, and the tangent adds the Stokes values after all convection.
The beam and diffusion have no constant part; their plans keep the full
map and go through the same functions.

A plan is valid for one mesh, element subset, DofMap, problem and set of
assembled rows, and assembly rejects a plan built for another subset or
problem.  Every assembly call uses the plan it is given; without one, a
full-mesh call uses the DofMap's full-mesh plan (`global_plan`, built on
first use and rebuilt for another mesh or problem) and a subset call builds
a throwaway plan that assembles every row, so there is a single assembly
path.  Callers that assemble one subset repeatedly keep its plan (one per
subdomain).

A `GalerkinPlan` serves the product P^T K P of the tangent over a subset
with a dense basis of a few columns, summed from the element matrices
(`assemble_galerkin`): a subdomain's term of the coarse matrix A_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .mesh import LID, Mesh, _element_edges


class NonPhysicalStateError(RuntimeError):
    """A state the problem is not defined at: det(F) <= 0 at a quadrature
    point, where the log term is undefined, or a non-finite residual in a
    local or coarse Newton solve."""


# the diffusion problem's conductivity laws: c = C0, and c = C0 + u^2
DIFFUSION_LAWS = ("constant", "nonlinear")


@dataclass
class ProblemSpec:
    kind: str                      # "ldc" | "beam" | "diffusion"
    Re: float | None = None
    E: float | None = None
    nu: float | None = None
    f_y: float | None = None       # load magnitude in MN/m^2
    coefficient: str = "constant"  # diffusion law


def ldc_problem(Re: float) -> ProblemSpec:
    return ProblemSpec(kind="ldc", Re=Re)


def beam_problem(f_y: float, E: float = 210e9, nu: float = 0.3) -> ProblemSpec:
    return ProblemSpec(kind="beam", f_y=f_y, E=E, nu=nu)


def diffusion_problem(coefficient: str = "nonlinear") -> ProblemSpec:
    if coefficient not in DIFFUSION_LAWS:
        raise ValueError(f"unknown diffusion law {coefficient!r}")
    return ProblemSpec(kind="diffusion", coefficient=coefficient)


@dataclass
class FieldLayout:
    name: str
    order: int   # polynomial order, 1 or 2
    offset: int
    n_dofs: int


@dataclass
class DofMap:
    n_dofs: int
    fields: list[FieldLayout]
    elem_dofs: np.ndarray        # (n_elements, n_local) global DOF ids
    dirichlet_mask: np.ndarray   # (n_dofs,) bool
    dirichlet_value: np.ndarray  # (n_dofs,) float
    dof_coords: np.ndarray       # (n_dofs, 2) coordinate of each DOF's node
    # P2 support (ldc): unique mesh edges, one midpoint DOF per field each
    edges: np.ndarray | None = None
    n_nodes: int = 0
    # full-mesh assembly plan, see `global_plan`
    plan: AssemblyPlan | None = field(default=None, repr=False, compare=False)

    def field(self, name: str) -> FieldLayout:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def node_dofs(self, name: str, nodes: np.ndarray) -> np.ndarray:
        """DOF ids of P1 nodes (corner nodes for P2 fields) in a field."""
        return self.field(name).offset + np.asarray(nodes)

    def edge_dofs(self, name: str, edge_ids: np.ndarray) -> np.ndarray:
        """DOF ids of P2 midpoint nodes in a field."""
        f = self.field(name)
        if f.order != 2:
            raise ValueError(f"field {name} has no midpoint DOFs")
        return f.offset + self.n_nodes + np.asarray(edge_ids)


def _unique_edges(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique sorted node pairs and the (m, 3) per-element edge ids."""
    all_edges = _element_edges(elements)
    edges, inv = np.unique(all_edges, axis=0, return_inverse=True)
    return edges, inv.reshape(-1, 3)


def build_dofmap(problem: ProblemSpec, mesh: Mesh) -> DofMap:
    n = mesh.n_nodes
    dirichlet_nodes = mesh.dirichlet_nodes

    if problem.kind == "diffusion":
        fields = [FieldLayout("u", 1, 0, n)]
        elem_dofs = mesh.elements.copy()
        mask = dirichlet_nodes.copy()
        value = np.zeros(n)
        coords = mesh.nodes.copy()
        return DofMap(n, fields, elem_dofs, mask, value, coords, n_nodes=n)

    if problem.kind == "beam":
        fields = [FieldLayout("ux", 1, 0, n), FieldLayout("uy", 1, n, n)]
        elem_dofs = np.hstack([mesh.elements, mesh.elements + n])
        mask = np.concatenate([dirichlet_nodes, dirichlet_nodes])
        value = np.zeros(2 * n)
        coords = np.vstack([mesh.nodes, mesh.nodes])
        return DofMap(2 * n, fields, elem_dofs, mask, value, coords, n_nodes=n)

    if problem.kind == "ldc":
        edges, elem_edges = _unique_edges(mesh.elements)
        n_e = edges.shape[0]
        n2 = n + n_e
        fields = [FieldLayout("ux", 2, 0, n2), FieldLayout("uy", 2, n2, n2),
                  FieldLayout("p", 1, 2 * n2, n)]
        # local P2 node order: three vertices then midpoints opposite them
        vx = mesh.elements
        mid = n + elem_edges
        p2 = np.hstack([vx, mid])
        elem_dofs = np.hstack([p2, p2 + n2, vx + 2 * n2])

        mid_coords = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
        p2_coords = np.vstack([mesh.nodes, mid_coords])
        coords = np.vstack([p2_coords, p2_coords, mesh.nodes])

        # boundary midpoints: both endpoints on the boundary and on one side
        x0, x1, y0, y1 = mesh.extents()
        bmid = dirichlet_nodes[edges[:, 0]] & dirichlet_nodes[edges[:, 1]]
        side = (np.isclose(mid_coords[:, 0], x0) | np.isclose(mid_coords[:, 0], x1)
                | np.isclose(mid_coords[:, 1], y0) | np.isclose(mid_coords[:, 1], y1))
        bmid &= side
        lid_nodes = mesh.boundary_tag == LID
        lid_mid = bmid & np.isclose(mid_coords[:, 1], y1)

        mask = np.zeros(2 * n2 + n, dtype=bool)
        value = np.zeros(2 * n2 + n)
        for off in (0, n2):
            mask[off:off + n][dirichlet_nodes] = True
            mask[off + n:off + n2][bmid] = True
        value[0:n][lid_nodes] = 1.0
        value[n:n2][lid_mid] = 1.0
        if mesh.pin_node is not None:
            mask[2 * n2 + mesh.pin_node] = True
        return DofMap(2 * n2 + n, fields, elem_dofs, mask, value, coords,
                      edges=edges, n_nodes=n)

    raise ValueError(f"unknown problem kind {problem.kind!r}")


def initial_iterate(problem: ProblemSpec, dofmap: DofMap) -> np.ndarray:
    """Zero everywhere except the Dirichlet data, which is satisfied exactly."""
    u = np.zeros(dofmap.n_dofs)
    u[dofmap.dirichlet_mask] = dofmap.dirichlet_value[dofmap.dirichlet_mask]
    return u


def nullspace_basis(problem: ProblemSpec, dofmap: DofMap) -> dict[str, np.ndarray]:
    """Named nullspace modes of the operator without boundary conditions.

    Every problem has one constant per field, named after the field.  A
    displacement or velocity field (ux, uy) also has the rigid rotation
    ``rot`` = (-y, x), next after the two translations: the beam's rigid
    body modes are ``tx``, ``ty`` and ``rot``, the cavity's modes ``ux``,
    ``uy``, ``rot`` and ``p``.
    """
    modes = {}
    for f in dofmap.fields:
        z = np.zeros(dofmap.n_dofs)
        z[f.offset:f.offset + f.n_dofs] = 1.0
        modes[f.name] = z
    if "ux" not in modes:
        return modes
    on_x, on_y = modes["ux"] == 1.0, modes["uy"] == 1.0
    rot = np.zeros(dofmap.n_dofs)
    rot[on_x] = -dofmap.dof_coords[on_x, 1]
    rot[on_y] = dofmap.dof_coords[on_y, 0]
    if problem.kind == "beam":
        return {"tx": modes["ux"], "ty": modes["uy"], "rot": rot}
    return {"ux": modes.pop("ux"), "uy": modes.pop("uy"), "rot": rot, **modes}


# quadrature on the reference triangle: barycentric points, weights sum to 1
_QP3 = np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]])
_QW3 = np.full(3, 1 / 3)
_a, _b = 0.445948490915965, 0.091576213509771
_wa, _wb = 0.223381589678011, 0.109951743655322
_QP6 = np.array([
    [1 - 2 * _a, _a, _a], [_a, 1 - 2 * _a, _a], [_a, _a, 1 - 2 * _a],
    [1 - 2 * _b, _b, _b], [_b, 1 - 2 * _b, _b], [_b, _b, 1 - 2 * _b],
])
_QW6 = np.array([_wa, _wa, _wa, _wb, _wb, _wb])


def _p2_shapes(bary: np.ndarray):
    """P2 values (q,6) and barycentric-derivative table (q,6,3)."""
    q = bary.shape[0]
    N = np.empty((q, 6))
    D = np.zeros((q, 6, 3))
    l = bary
    for i in range(3):
        N[:, i] = l[:, i] * (2 * l[:, i] - 1)
        D[:, i, i] = 4 * l[:, i] - 1
    pairs = [(1, 2), (2, 0), (0, 1)]  # midpoint opposite vertex i
    for k, (i, j) in enumerate(pairs):
        N[:, 3 + k] = 4 * l[:, i] * l[:, j]
        D[:, 3 + k, i] = 4 * l[:, j]
        D[:, 3 + k, j] = 4 * l[:, i]
    return N, D


def _convection_table(N: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The (7q, 144) map from an element's convection coefficients to its
    flat 12 x 12 convection tangent, K[(c,a),(d,b)] = sum over q of
    N_a (delta_cd (u . grad phi_b) + d_d u_c N_b) w.  Rows 0..4q hold
    (c, d, q) for the coefficient w d_d u_c, rows 4q..7q hold (i, q) for
    w u . grad lambda_i; grad phi_b = sum_i D[q,b,i] grad lambda_i."""
    q = N.shape[0]
    T = np.zeros((7, q, 2, 6, 2, 6))
    for c in range(2):
        for d in range(2):
            T[2 * c + d, :, c, :, d, :] = N[:, :, None] * N[:, None, :]
        T[4:, :, c, :, c, :] = np.einsum("qa,qbi->iqab", N, D)
    return T.reshape(7 * q, 144)


# P2 values (q,6) and barycentric derivatives (q,6,3) at the points of _QP6,
# the derivatives as one (6, 3q) GEMM operand, and the convection table
_N2, _D2 = _p2_shapes(_QP6)
_D2_FLAT = _D2.transpose(1, 0, 2).reshape(6, 3 * _QW6.size)
_CONVECTION = _convection_table(_N2, _D2)
# the cavity's convection touches only the 12 velocity DOFs of an element
_LDC_VELOCITY = 12


def _geometry(mesh: Mesh, elems: np.ndarray):
    """Barycentric gradients G (m,3,2) and element areas (m,)."""
    xy = mesh.nodes[mesh.elements[elems]]          # (m,3,2)
    v0, v1, v2 = xy[:, 0], xy[:, 1], xy[:, 2]
    d = (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) \
        - (v2[:, 0] - v0[:, 0]) * (v1[:, 1] - v0[:, 1])
    area = 0.5 * d
    G = np.empty((elems.size, 3, 2))
    G[:, 0, 0] = (v1[:, 1] - v2[:, 1]) / d
    G[:, 0, 1] = (v2[:, 0] - v1[:, 0]) / d
    G[:, 1, 0] = (v2[:, 1] - v0[:, 1]) / d
    G[:, 1, 1] = (v0[:, 0] - v2[:, 0]) / d
    G[:, 2, 0] = (v0[:, 1] - v1[:, 1]) / d
    G[:, 2, 1] = (v1[:, 0] - v0[:, 0]) / d
    return G, area


# elements per tangent kernel call: 96 x 144 float64 of cavity tangent
# entries (110,592 bytes) stay under the 128 KiB malloc mmap threshold that
# `sparse` sets, so a chunk's kernel arrays are reused heap memory, not
# fresh mappings that fault on first touch.  The widest P1 tangent array,
# the beam's at 36 float64 per element, holds a quarter as many.  The
# residual kernel's widest array holds 24 float64 per element (the cavity's;
# 6 for P1), a sixth of 144, so residual chunks are six times as long
_CHUNK = 96


def _subset_elements(mesh: Mesh, subset) -> np.ndarray:
    if subset is None:
        return np.arange(mesh.n_elements)
    return np.asarray(subset, dtype=np.int64)


def subset_dofs(dofmap: DofMap, mesh: Mesh, subset) -> np.ndarray:
    """Sorted global DOF ids touched by the element subset."""
    elems = _subset_elements(mesh, subset)
    return np.unique(dofmap.elem_dofs[elems])


def _sort_with_positions(keys: np.ndarray, bound: int):
    """Stable argsort of non-negative int64 keys below `bound`, and the sorted
    keys; `keys` is overwritten.  When key and position fit into 63 bits
    together, the packed pairs are sorted by value, which is several times
    faster than an argsort."""
    shift = max(int(keys.size - 1).bit_length(), 1)
    if int(bound).bit_length() + shift > 63:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    keys <<= shift
    keys |= np.arange(keys.size)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    return order, keys


def _pattern(loc: np.ndarray, n_rows: int, n: int, dirichlet: np.ndarray):
    """Sparse pattern of the element matrices scattered at local positions
    `loc`, on rows 0..n_rows-1 and columns 0..n-1, compressed by column
    (CSC).

    Entries of rows at or past `n_rows` are dropped, and rows listed in
    `dirichlet` keep only their diagonal.  Returns `indptr`, `indices`, the
    (m, k*k) int32 slot of every element-matrix entry in the data array -
    dropped entries share the trash slot ``nnz`` - and the slots of the
    Dirichlet diagonals, as an array of their own, so that dropping the
    element map frees it.
    """
    m, k = loc.shape
    size = m * k * k
    trash = n_rows * n                   # sorts after every kept entry
    loc = loc.astype(np.int64)
    # clamped to trash once sorted
    row_key = np.where((loc >= n_rows) | np.isin(loc, dirichlet), trash, loc)
    keys = np.empty(size + dirichlet.size, dtype=np.int64)
    np.add(row_key[:, :, None], (loc * n_rows)[:, None, :],
           out=keys[:size].reshape(m, k, k))
    keys[size:] = dirichlet * (n_rows + 1)
    order, sorted_keys = _sort_with_positions(keys, 2 * trash)
    np.minimum(sorted_keys, trash, out=sorted_keys)
    head = np.ones(keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    run = np.cumsum(head, dtype=np.int32)
    run -= 1
    slot = np.empty(keys.size, dtype=np.int32)
    slot[order] = run
    unique = sorted_keys[head]
    if unique.size and unique[-1] == trash:
        unique = unique[:-1]
    column, row = np.divmod(unique, n_rows)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(column, minlength=n), out=indptr[1:])
    return (indptr, row.astype(np.int32), slot[:size].reshape(m, k * k),
            slot[size:].copy())


class AssemblyPlan:
    """The state-independent part of assembly for `problem` over one element
    subset, or the full mesh if `subset` is None (see the module docstring).

    `dofs` are the global ids of the DOFs the subset touches, in plan order.
    A plan assembles the rows of `rows` (global DOF ids, all of the
    subset's DOFs if None) and numbers them first, `n_rows` of them, the
    other DOFs after them, each group in global order; the other DOFs are
    columns only.  Its tangent is compressed by column (CSC), so its first
    `n_rows` columns are one contiguous block.  The full-mesh plan is the
    plan over all elements with every row, so it numbers the DOFs
    globally; `is_global` only marks it for `_plan_for`.

    Besides the geometry, the element DOF positions and the pattern, a
    cavity plan holds its Stokes part, assembled at construction: `stokes`,
    a CSR matrix of its nonzero entries whose rows list their columns in
    global DOF order, with `stokes_slot`, the data slot of each in the
    tangent's pattern; and `scatter` for the 12 x 12 velocity block
    only.  Beam and diffusion plans have no constant part (`stokes` is
    None) and keep the full `scatter`.  `kernel_loc` are the positions of
    the element DOFs that `_element_kernels` reads and writes: the
    velocities of the cavity, every DOF otherwise.  A cavity plan holds,
    per element, 576 bytes of velocity map, 56 of geometry and 120 of DOF
    positions; 4 bytes per pattern entry and 16 per Stokes nonzero: about
    8.4 MB for the 40 x 40 full mesh, 0.7-0.9 MB for each subdomain of its
    4 x 4 decomposition.  Each subdomain plan is held only by the process
    that owns the subdomain (see `schwarz.SubdomainData`), so each of W
    owner processes holds about 1/W of them.

    A plan is valid for one mesh, subset, DofMap, problem and set of rows;
    it keeps a copy of `problem`, and assembly for any other problem or
    subset rejects it.  Assembly only reads a plan."""

    def __init__(self, mesh: Mesh, dofmap: DofMap, subset, problem: ProblemSpec,
                 rows: np.ndarray | None = None):
        self.mesh = mesh
        self.problem = replace(problem)
        self.is_global = subset is None
        if self.is_global and rows is not None:
            raise ValueError("the full-mesh plan assembles every row")
        self.elems = _subset_elements(mesh, subset)
        ed = dofmap.elem_dofs[self.elems]
        self.dofs, inv = np.unique(ed, return_inverse=True)
        self.n_rows = self.dofs.size
        if rows is not None:
            is_row = np.isin(self.dofs, rows)
            self.n_rows = int(is_row.sum())
            if self.n_rows != np.unique(rows).size:
                raise ValueError("rows must be DOFs of the element subset")
            order = np.argsort(~is_row, kind="stable")
            position = np.empty_like(order)
            position[order] = np.arange(order.size)
            self.dofs, inv = self.dofs[order], position[inv]
        loc = inv.reshape(ed.shape)
        self.n = self.dofs.shape[0]
        self.n_global = dofmap.n_dofs
        self.G, self.area = _geometry(mesh, self.elems)
        self.dirichlet = np.flatnonzero(dofmap.dirichlet_mask[self.dofs[:self.n_rows]])
        self.dirichlet_value = dofmap.dirichlet_value[self.dofs[self.dirichlet]]
        self.indptr, self.indices, self.scatter, self.diagonal = \
            _pattern(loc, self.n_rows, self.n, self.dirichlet)
        self.nnz = self.indices.size
        self.kernel_loc = loc
        self.stokes = self.stokes_slot = None
        if problem.kind == "ldc":
            data = np.zeros(self.nnz + 1)
            for c in self.chunks():
                np.add.at(data, self.scatter[c].ravel(),
                          _stokes_matrices(problem, self.G[c], self.area[c]).ravel())
            self.stokes, self.stokes_slot = self._by_row(data[:-1])
            k, nloc = _LDC_VELOCITY, loc.shape[1]
            self.kernel_loc = loc[:, :k]
            self.scatter = self.scatter.reshape(-1, nloc, nloc)[:, :k, :k] \
                .reshape(-1, k * k)

    def _by_row(self, data: np.ndarray):
        """`data` on the plan's pattern as a CSR matrix whose rows list their
        columns in global DOF order, so that a product with it sums each row
        in that order whatever the plan's numbering, and the pattern slot of
        each of its entries; it keeps the nonzero entries only, 16 bytes
        each with their slots."""
        slot = np.flatnonzero(data)
        kept = np.zeros(self.nnz + 1, dtype=np.int32)
        np.cumsum(data != 0.0, out=kept[1:])
        # put the columns in global order, then convert by a stable counting
        # sort on the rows
        columns = np.argsort(self.dofs)
        slots = sp.csc_matrix((slot, self.indices[slot], kept[self.indptr]),
                              shape=(self.n_rows, self.n))[:, columns].tocsr()
        matrix = sp.csr_matrix((data[slots.data], columns[slots.indices].astype(np.int32),
                                slots.indptr), shape=(self.n_rows, self.n))
        return matrix, slots.data.astype(np.int32)

    def local_state(self, u) -> np.ndarray:
        """The state on `dofs`, from a global or a subset-sized vector."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape[0] == self.n:
            return u
        if u.shape[0] == self.n_global:
            return u[self.dofs]
        raise ValueError("state vector matches neither the global nor the subset size")

    def chunks(self, size: int | None = None):
        """The subset's `_chunks`."""
        return _chunks(self.elems.size, size)


def _chunks(m: int, size: int | None = None):
    """Slices of m elements, at most `size` (`_CHUNK` if None) each, of
    sizes that differ by at most one.  No chunk holds a single element
    unless m = 1: the tangent kernel's GEMM then takes BLAS's matrix-vector
    path, which rounds differently, and the assembled values would depend
    on the subset's size."""
    k = -(-m // (size or _CHUNK))
    for i in range(k):
        yield slice(i * m // k, (i + 1) * m // k)


def global_plan(mesh: Mesh, dofmap: DofMap, problem: ProblemSpec) -> AssemblyPlan:
    """The full-mesh plan, kept on the DofMap; it is built on first use and
    again when the mesh or the problem is not the one it was built for."""
    plan = dofmap.plan
    if plan is None or plan.mesh is not mesh or plan.problem != problem:
        plan = dofmap.plan = AssemblyPlan(mesh, dofmap, None, problem)
    return plan


def _plan_for(problem, mesh, dofmap, subset, plan):
    if plan is None:
        return (global_plan(mesh, dofmap, problem) if subset is None
                else AssemblyPlan(mesh, dofmap, subset, problem))
    if ((subset is None) != plan.is_global
            or (subset is not None and not np.array_equal(subset, plan.elems))):
        raise ValueError("the plan was built for another element subset")
    if plan.problem != problem:
        raise ValueError("the plan was built for another problem")
    return plan


# the diffusion law c(u) = C0 + u^2 ("nonlinear") or C0 ("constant"), and the
# constant source
DIFFUSION_C0 = 1.0
DIFFUSION_SOURCE = 1.0


def _stokes_matrices(problem: ProblemSpec, G: np.ndarray,
                     area: np.ndarray) -> np.ndarray:
    """The cavity's Stokes element matrices (m, 15, 15), the state-independent
    part of its tangent: the viscous blocks invRe * int grad phi_a . grad
    phi_b and the pressure coupling B, -B^T.  Times the element state they
    give the Stokes part of the residual."""
    m, q = area.size, _QW6.size
    w = _QW6[:, None] * area[None, :]                  # (q,m)
    # P2 gradients at all quadrature points, (q,m,6,2)
    g2 = np.tensordot(_D2, G, axes=(2, 1)).transpose(0, 2, 1, 3)
    # hg[m,a,(q,j)] carries sqrt(w) so hg @ hg^T is the viscous block
    hg = (np.sqrt(w)[:, :, None, None] * g2).transpose(1, 2, 0, 3) \
        .reshape(m, 6, 2 * q)
    visc = (1.0 / problem.Re) * (hg @ hg.transpose(0, 2, 1))
    S = np.zeros((m, 15, 15))
    S[:, :6, :6] = visc
    S[:, 6:12, 6:12] = visc
    for j in range(2):
        B = -((w[:, :, None] * g2[..., j]).transpose(1, 2, 0)
              .reshape(m * 6, q) @ _QP6).reshape(m, 6, 3)
        S[:, 6 * j:6 * j + 6, 12:] = B
        S[:, 12:, 6 * j:6 * j + 6] = -np.transpose(B, (0, 2, 1))
    return S


def _element_kernels(problem: ProblemSpec, G: np.ndarray, area: np.ndarray,
                     ue: np.ndarray, want_matrix: bool):
    """Per-element residual vectors and (optionally) tangent matrices of the
    state-dependent part of the operator, from the geometry and the (m, k)
    element states at `AssemblyPlan.kernel_loc`: the cavity's convection on
    its 12 velocity DOFs, the whole operator of the other problems.

    The P1 problems come in closed form.  On a P1 triangle the gradients
    G_a of the shape functions phi_a are constant, and so are grad u, F and
    P, and the 3-point rule's weights give sum_q w_q phi_a(x_q) = area / 3
    for every node a.  Only the diffusion coefficient c(u) varies over the
    points, so with int c = area * mean_q c(u(x_q)):

    * diffusion: r_a = (int c) grad u . G_a - S area / 3 and
      K_ab = (int c) G_a . G_b + (grad u . G_a) int c'(u) phi_b;
    * beam, with t = G F^-1: r_(c,a) = area (P G_a - f / 3)_c and
      K_(c,a),(d,b) = area [(mu - lambda ln J) t_ad t_bc
                            + lambda t_ac t_bd + mu delta_cd G_a . G_b].
    """
    m = ue.shape[0]
    if problem.kind == "ldc":
        # convection only, (u . grad) u tested with the P2 velocity functions;
        # the Stokes part is in the plan.  Each contraction over the
        # quadrature points is one GEMM or one batched product: plain einsum
        # falls back to scalar loops for these shapes
        q = _QW6.size
        uv = ue.reshape(m, 2, 6)                           # (m,c,a)
        w = area[:, None] * _QW6                           # (m,q)
        uq = uv @ _N2.T                                    # u_c at the points
        # grad[m,c,q,j] = d_j u_c: barycentric derivatives, then G
        grad = ((uv.reshape(2 * m, 6) @ _D2_FLAT).reshape(m, 2 * q, 3)
                @ G).reshape(m, 2, q, 2)
        conv = uq[:, None, 0] * grad[..., 0] + uq[:, None, 1] * grad[..., 1]
        r = ((w[:, None] * conv).reshape(2 * m, q) @ _N2).reshape(m, 12)
        K = None
        if want_matrix:
            coef = np.empty((m, 7, q))
            coef[:, :4] = (w[:, None, None] * grad.transpose(0, 1, 3, 2)) \
                .reshape(m, 4, q)
            np.multiply(w[:, None], G @ uq, out=coef[:, 4:])
            K = (coef.reshape(m, 7 * q) @ _CONVECTION).reshape(m, 12, 12)
        return r, K

    if problem.kind == "diffusion":
        uq = ue @ _QP3.T                                   # u at the points
        if problem.coefficient == "nonlinear":
            c, dc = DIFFUSION_C0 + uq ** 2, 2 * uq         # c(u), c'(u)
        else:
            c, dc = np.full_like(uq, DIFFUSION_C0), np.zeros_like(uq)
        wq = area[:, None] * _QW3                          # (m,q)
        ic = (wq * c).sum(axis=1)                          # int c(u)
        gu = np.einsum("ma,maj->mj", ue, G)                # grad u
        flux = np.einsum("mj,maj->ma", gu, G)              # grad u . G_a
        r = ic[:, None] * flux - (DIFFUSION_SOURCE / 3) * area[:, None]
        if not want_matrix:
            return r, None
        # (wq c') @ _QP3 is int c'(u) phi_b
        return r, (ic[:, None, None] * np.einsum("maj,mbj->mab", G, G)
                   + flux[:, :, None] * ((wq * dc) @ _QP3)[:, None, :])

    if problem.kind == "beam":
        mu = problem.E / (1 + problem.nu)
        lam = problem.E * problem.nu / ((1 + problem.nu) * (1 - 2 * problem.nu))
        f = np.array([0.0, -problem.f_y * 1e6])
        F = np.einsum("mca,maj->mcj", ue.reshape(m, 2, 3), G)  # d_j u_c
        F[:, 0, 0] += 1.0
        F[:, 1, 1] += 1.0
        detF = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        # negated comparison so that NaN deformation gradients also trip
        if not np.all(detF > 0.0):
            raise NonPhysicalStateError(
                f"det(F) <= 0 on {int((~(detF > 0.0)).sum())} elements")
        Fi = np.empty_like(F)
        Fi[:, 0, 0] = F[:, 1, 1] / detF
        Fi[:, 0, 1] = -F[:, 0, 1] / detF
        Fi[:, 1, 0] = -F[:, 1, 0] / detF
        Fi[:, 1, 1] = F[:, 0, 0] / detF
        FiT = np.transpose(Fi, (0, 2, 1))
        lnJ = np.log(detF)
        P = mu * (F - FiT) + lam * lnJ[:, None, None] * FiT
        r = (area[:, None, None] * (np.einsum("mcj,maj->mca", P, G)
                                    - f[:, None] / 3)).reshape(m, 6)
        if not want_matrix:
            return r, None
        tc = np.einsum("mar,mrc->mca", G, Fi)              # tc[c,a] = t_ac
        tt = tc[:, :, :, None, None] * tc[:, None, None]   # t_ac t_bd
        K = lam * tt + (mu - lam * lnJ)[:, None, None, None, None] \
            * tt.transpose(0, 3, 2, 1, 4)                  # t_ad t_bc
        gram = mu * np.einsum("maj,mbj->mab", G, G)
        K[:, 0, :, 0] += gram
        K[:, 1, :, 1] += gram
        K *= area[:, None, None, None, None]
        return r, K.reshape(m, 6, 6)

    raise ValueError(problem.kind)


def assemble_residual(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap, u,
                      subset=None, plan: AssemblyPlan | None = None) -> np.ndarray:
    """The residual rows of the plan's `rows` (all rows without a plan)."""
    plan = _plan_for(problem, mesh, dofmap, subset, plan)
    ul = plan.local_state(u)
    out = np.zeros(plan.n)
    for c in plan.chunks(6 * _CHUNK):
        loc = plan.kernel_loc[c]
        r, _ = _element_kernels(problem, plan.G[c], plan.area[c], ul[loc], False)
        np.add.at(out, loc.ravel(), r.ravel())
    out = out[:plan.n_rows]
    if plan.stokes is not None:
        out += plan.stokes @ ul
    out[plan.dirichlet] = ul[plan.dirichlet] - plan.dirichlet_value
    return out


def assemble_tangent(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap, u,
                     subset=None, plan: AssemblyPlan | None = None):
    """The tangent rows of the plan's `rows` on all of its columns, as a
    CSC matrix."""
    plan = _plan_for(problem, mesh, dofmap, subset, plan)
    ul = plan.local_state(u)
    data = np.zeros(plan.nnz + 1)        # the last slot collects dropped entries
    for c in plan.chunks():
        _, K = _element_kernels(problem, plan.G[c], plan.area[c],
                                ul[plan.kernel_loc[c]], True)
        np.add.at(data, plan.scatter[c].ravel(), K.ravel())
    # the Stokes part goes in after all convection, so that each entry is
    # the convection sum plus the Stokes value, rounded once
    if plan.stokes is not None:
        np.add.at(data, plan.stokes_slot, plan.stokes.data)
    data[plan.diagonal] = 1.0
    A = sp.csc_matrix((data[:-1], plan.indices.copy(), plan.indptr.copy()),
                      shape=(plan.n_rows, plan.n))
    # entries that sum to exactly zero (the pressure block of the cavity, the
    # convection terms where the velocity vanishes) would enlarge the sparse
    # LU's fill and every product with A, so they are dropped
    A.eliminate_zeros()
    return A


class GalerkinPlan:
    """The state-independent part of the Galerkin product P^T K(u) P of the
    tangent K over an element subset, for a sparse basis P (n_dofs x n0)
    that vanishes on the Dirichlet DOFs.  The product is the sum over the
    elements of P_e^T K_e(u) P_e, P_e the rows of P at element e's DOFs, so
    `assemble_galerkin` forms it from the element kernels without a sparse
    tangent; the identity rows that assembly puts at Dirichlet DOFs meet
    zero rows of P and would add nothing.

    `cols` are the columns of P that are nonzero on the subset's DOFs,
    `dofs`, and `P` holds P on them, dense.  The plan keeps the elements'
    geometry and DOF positions among `dofs`, and the constant part of the
    product: the cavity's Stokes part, projected once at construction, and
    zero for the other problems.  That is 0.09-0.17 MB for each subdomain
    of the 40 x 40 cavity's 4 x 4 decomposition (200 elements, 6-16
    columns)."""

    def __init__(self, mesh: Mesh, dofmap: DofMap, subset, problem: ProblemSpec,
                 P: sp.spmatrix):
        self.problem = replace(problem)
        elems = np.asarray(subset, dtype=np.int64)
        ed = dofmap.elem_dofs[elems]
        self.dofs, inv = np.unique(ed, return_inverse=True)
        # P on `dofs`, gathered from the CSR arrays: scipy's row and column
        # indexing would cost more than the rest of the plan
        P = P.tocsr()
        start = P.indptr[self.dofs]
        count = P.indptr[self.dofs + 1] - start
        row = np.repeat(np.arange(self.dofs.size), count)
        at = np.arange(row.size) + np.repeat(start - np.cumsum(count) + count,
                                             count)
        self.cols, col = np.unique(P.indices[at], return_inverse=True)
        self.P = np.zeros((self.dofs.size, self.cols.size))
        np.add.at(self.P, (row, col), P.data[at])
        self.G, self.area = _geometry(mesh, elems)
        loc = inv.reshape(ed.shape)
        self.constant = np.zeros((self.cols.size,) * 2)
        self.kernel_loc = loc
        if problem.kind == "ldc":
            for c in _chunks(elems.size):
                self.constant += self.project(
                    loc[c], _stokes_matrices(problem, self.G[c], self.area[c]))
            self.kernel_loc = loc[:, :_LDC_VELOCITY]
        # elements per chunk: K_e and P_e, k x k and k x n0, take at most as
        # many float64 as the cavity's velocity block in a tangent chunk
        k = self.kernel_loc.shape[1]
        self.chunk = _CHUNK * _LDC_VELOCITY ** 2 // (k * max(k, self.cols.size))

    def project(self, loc: np.ndarray, K: np.ndarray) -> np.ndarray:
        """sum_e P_e^T K_e P_e for the (m, k, k) element matrices K at the
        DOF positions `loc`, as one GEMM over the m k rows."""
        Pe = self.P[loc]
        shape = (loc.size, self.cols.size)
        return Pe.reshape(shape).T @ (K @ Pe).reshape(shape)


def assemble_galerkin(problem: ProblemSpec, u, plan: GalerkinPlan) -> np.ndarray:
    """P^T K(u) P on the plan's columns, dense (see `GalerkinPlan`); `u` is
    a global state vector."""
    if plan.problem != problem:
        raise ValueError("the plan was built for another problem")
    ul = np.asarray(u, dtype=np.float64)[plan.dofs]
    A = plan.constant.copy()
    for c in _chunks(plan.area.size, plan.chunk):
        loc = plan.kernel_loc[c]
        _, K = _element_kernels(problem, plan.G[c], plan.area[c], ul[loc], True)
        A += plan.project(loc, K)
    return A
