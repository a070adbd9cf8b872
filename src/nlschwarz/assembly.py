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

Everything about an element subset that does not depend on the state lives in
an `AssemblyPlan`: the element geometry (barycentric gradients and areas), the
position of every element DOF among the subset's DOFs, which serves both the
state gather and the residual scatter (one ``bincount``), and the tangent's
CSR pattern, Dirichlet identity included, with an int32 map from each
element-matrix entry to its slot in the CSR data array; entries of Dirichlet
rows map to one trash slot past the end.  A plan stays valid only while the
mesh, the element subset and the subset's DOF list are unchanged.  Callers
that assemble repeatedly pass a prebuilt plan (one per subdomain, and one for
the full mesh kept on the DofMap by `global_plan`); without one, each call
builds a throwaway plan, so there is a single assembly path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import DIRICHLET, LID, Mesh, _element_edges


class NonPhysicalStateError(RuntimeError):
    """A state the problem is not defined at: det(F) <= 0 at a quadrature
    point, where the log term is undefined, or a non-finite residual in a
    local or coarse Newton solve."""


@dataclass
class ProblemSpec:
    kind: str                      # "ldc" | "beam" | "diffusion"
    Re: float | None = None
    E: float | None = None
    nu: float | None = None
    f_y: float | None = None       # load magnitude in MN/m^2
    coefficient: str = "constant"  # diffusion law
    c0: float = 1.0
    source: float = 1.0


def ldc_problem(Re: float) -> ProblemSpec:
    return ProblemSpec(kind="ldc", Re=Re)


def beam_problem(f_y: float, E: float = 210e9, nu: float = 0.3) -> ProblemSpec:
    return ProblemSpec(kind="beam", f_y=f_y, E=E, nu=nu)


def diffusion_problem(coefficient: str = "nonlinear", c0: float = 1.0,
                      source: float = 1.0) -> ProblemSpec:
    return ProblemSpec(kind="diffusion", coefficient=coefficient, c0=c0, source=source)


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
    dof_field: np.ndarray        # (n_dofs,) field index
    # P2 support (ldc): unique mesh edges and per-element edge ids
    edges: np.ndarray | None = None
    elem_edges: np.ndarray | None = None
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
    dirichlet_nodes = (mesh.boundary_tag == DIRICHLET) | (mesh.boundary_tag == LID)

    if problem.kind == "diffusion":
        fields = [FieldLayout("u", 1, 0, n)]
        elem_dofs = mesh.elements.copy()
        mask = dirichlet_nodes.copy()
        value = np.zeros(n)
        coords = mesh.nodes.copy()
        dof_field = np.zeros(n, dtype=np.int64)
        return DofMap(n, fields, elem_dofs, mask, value, coords, dof_field, n_nodes=n)

    if problem.kind == "beam":
        fields = [FieldLayout("ux", 1, 0, n), FieldLayout("uy", 1, n, n)]
        elem_dofs = np.hstack([mesh.elements, mesh.elements + n])
        mask = np.concatenate([dirichlet_nodes, dirichlet_nodes])
        value = np.zeros(2 * n)
        coords = np.vstack([mesh.nodes, mesh.nodes])
        dof_field = np.repeat(np.arange(2), n)
        return DofMap(2 * n, fields, elem_dofs, mask, value, coords, dof_field, n_nodes=n)

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
        dof_field = np.repeat(np.arange(3), [n2, n2, n])

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
        return DofMap(2 * n2 + n, fields, elem_dofs, mask, value, coords, dof_field,
                      edges=edges, elem_edges=elem_edges, n_nodes=n)

    raise ValueError(f"unknown problem kind {problem.kind!r}")


def initial_iterate(problem: ProblemSpec, dofmap: DofMap) -> np.ndarray:
    """Zero everywhere except the Dirichlet data, which is satisfied exactly."""
    u = np.zeros(dofmap.n_dofs)
    u[dofmap.dirichlet_mask] = dofmap.dirichlet_value[dofmap.dirichlet_mask]
    return u


def nullspace_basis(problem: ProblemSpec, dofmap: DofMap) -> list[np.ndarray]:
    n = dofmap.n_dofs
    if problem.kind == "diffusion":
        return [np.ones(n)]
    if problem.kind == "beam":
        tx = np.zeros(n)
        ty = np.zeros(n)
        rot = np.zeros(n)
        fx, fy = dofmap.field("ux"), dofmap.field("uy")
        tx[fx.offset:fx.offset + fx.n_dofs] = 1.0
        ty[fy.offset:fy.offset + fy.n_dofs] = 1.0
        xy = dofmap.dof_coords
        rot[fx.offset:fx.offset + fx.n_dofs] = -xy[fx.offset:fx.offset + fx.n_dofs, 1]
        rot[fy.offset:fy.offset + fy.n_dofs] = xy[fy.offset:fy.offset + fy.n_dofs, 0]
        return [tx, ty, rot]
    if problem.kind == "ldc":
        vecs = []
        for f in dofmap.fields:
            v = np.zeros(n)
            v[f.offset:f.offset + f.n_dofs] = 1.0
            vecs.append(v)
        return vecs
    raise ValueError(problem.kind)


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


_CHUNK = 20000


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


def _csr_pattern(loc: np.ndarray, n: int, dirichlet: np.ndarray):
    """CSR pattern of the element matrices scattered at local positions `loc`.

    Rows listed in `dirichlet` keep only their diagonal.  Returns `indptr`,
    `indices`, the (m, k*k) int32 slot of every element-matrix entry in the
    data array - entries of Dirichlet rows share the trash slot ``nnz`` - and
    the slots of the Dirichlet diagonals.
    """
    m, k = loc.shape
    size = m * k * k
    trash = n * n                        # sorts after every real entry
    row_key = loc.astype(np.int64) * n
    row_key[np.isin(loc, dirichlet)] = trash   # clamped to trash once sorted
    keys = np.empty(size + dirichlet.size, dtype=np.int64)
    np.add(row_key[:, :, None], loc[:, None, :], out=keys[:size].reshape(m, k, k))
    keys[size:] = dirichlet * (n + 1)
    order, sorted_keys = _sort_with_positions(keys, trash + n)
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
    row, col = np.divmod(unique, n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, col.astype(np.int32), slot[:size].reshape(m, k * k), slot[size:]


class AssemblyPlan:
    """The state-independent part of assembly over one element subset (see
    the module docstring).  `pattern=False` skips the tangent's CSR pattern,
    for plans that only assemble residuals.  Assembly only reads a plan, so
    threads may share it."""

    def __init__(self, mesh: Mesh, dofmap: DofMap, subset=None,
                 dofs: np.ndarray | None = None, apply_dirichlet: bool = True,
                 pattern: bool = True):
        self.mesh = mesh
        self.is_global = subset is None
        self.elems = _subset_elements(mesh, subset)
        ed = dofmap.elem_dofs if self.is_global else dofmap.elem_dofs[self.elems]
        if dofs is not None:
            self.dofs = np.asarray(dofs)
            self.loc = np.searchsorted(self.dofs, ed)
        elif self.is_global:
            self.dofs = np.arange(dofmap.n_dofs)
            self.loc = ed
        else:
            self.dofs, inv = np.unique(ed, return_inverse=True)
            self.loc = inv.reshape(ed.shape)
        self.n = self.dofs.shape[0]
        self.n_global = dofmap.n_dofs
        self.G, self.area = _geometry(mesh, self.elems)
        self.dirichlet = np.flatnonzero(dofmap.dirichlet_mask[self.dofs])
        self.dirichlet_value = dofmap.dirichlet_value[self.dofs[self.dirichlet]]
        self.apply_dirichlet = apply_dirichlet
        self.indptr = self.indices = self.scatter = self.diagonal = None
        if pattern:
            rows = self.dirichlet if apply_dirichlet else self.dirichlet[:0]
            self.indptr, self.indices, self.scatter, self.diagonal = \
                _csr_pattern(self.loc, self.n, rows)
        self.nnz = 0 if self.indices is None else self.indices.size

    def local_state(self, u) -> np.ndarray:
        """The state on `dofs`, from a global or a subset-sized vector."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape[0] == self.n:
            return u
        if u.shape[0] == self.n_global:
            return u[self.dofs]
        raise ValueError("state vector matches neither the global nor the subset size")

    def chunks(self):
        for s in range(0, self.elems.size, _CHUNK):
            yield slice(s, s + _CHUNK)


def global_plan(mesh: Mesh, dofmap: DofMap) -> AssemblyPlan:
    """The full-mesh plan, built on first use and kept on the DofMap."""
    plan = dofmap.plan
    if plan is None or plan.mesh is not mesh:
        plan = dofmap.plan = AssemblyPlan(mesh, dofmap)
    return plan


def _plan_for(mesh, dofmap, subset, dofs, plan, apply_dirichlet, pattern):
    if plan is None:
        return AssemblyPlan(mesh, dofmap, subset, dofs, apply_dirichlet, pattern)
    if ((subset is None) != plan.is_global
            or (subset is not None and len(subset) != plan.elems.size)
            or (dofs is not None and dofs.shape[0] != plan.n)):
        raise ValueError("the plan was built for another element subset")
    return plan


def _element_kernels(problem: ProblemSpec, G: np.ndarray, area: np.ndarray,
                     ue: np.ndarray, want_matrix: bool):
    """Per-element residual vectors and (optionally) tangent matrices from the
    geometry and the (m, nloc) element states."""
    m, nloc = ue.shape
    r = np.zeros((m, nloc))
    K = np.zeros((m, nloc, nloc)) if want_matrix else None

    if problem.kind == "diffusion":
        bary, qw = _QP3, _QW3
        for q in range(bary.shape[0]):
            w = qw[q] * area                      # (m,)
            Nq = bary[q]                          # (3,)
            uq = ue @ Nq
            gu = np.einsum("ma,maj->mj", ue, G)
            if problem.coefficient == "nonlinear":
                c = problem.c0 + uq ** 2
                cp = 2 * uq
            else:
                c = np.full(m, problem.c0)
                cp = np.zeros(m)
            flux = np.einsum("m,mj,maj->ma", c, gu, G)
            r += w[:, None] * (flux - problem.source * Nq[None, :])
            if want_matrix:
                K += w[:, None, None] * (
                    np.einsum("m,maj,mbj->mab", c, G, G)
                    + np.einsum("m,b,ma->mab", cp, Nq,
                                np.einsum("mj,maj->ma", gu, G)))
        return r, K

    if problem.kind == "beam":
        mu = problem.E / (1 + problem.nu)
        lam = problem.E * problem.nu / ((1 + problem.nu) * (1 - 2 * problem.nu))
        f = np.array([0.0, -problem.f_y * 1e6])
        ux, uy = ue[:, :3], ue[:, 3:]
        bary, qw = _QP3, _QW3
        # displacement gradient is constant on P1 triangles
        H = np.empty((m, 2, 2))
        H[:, 0] = np.einsum("ma,maj->mj", ux, G)
        H[:, 1] = np.einsum("ma,maj->mj", uy, G)
        F = H.copy()
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
        # stress term: grad is constant, body force integrated with P1 weights
        stress = np.einsum("mcj,maj->mac", P, G) * area[:, None, None]
        r[:, :3] += stress[:, :, 0]
        r[:, 3:] += stress[:, :, 1]
        for q in range(bary.shape[0]):
            w = qw[q] * area
            r[:, :3] -= np.outer(w, f[0] * bary[q])
            r[:, 3:] -= np.outer(w, f[1] * bary[q])
        if want_matrix:
            t = np.einsum("mar,mrc->mac", G, Fi)   # t[b,c] = G_b . Fi[:,c]
            gram = np.einsum("maj,mbj->mab", G, G)
            for c in range(2):
                for d in range(2):
                    blk = (mu * (t[:, :, c][:, None, :] * t[:, :, d][:, :, None])
                           + lam * (t[:, :, d][:, None, :] * t[:, :, c][:, :, None])
                           - (lam * lnJ)[:, None, None]
                           * (t[:, :, c][:, None, :] * t[:, :, d][:, :, None]))
                    if c == d:
                        blk = blk + mu * gram
                    K[:, 3 * c:3 * c + 3, 3 * d:3 * d + 3] += \
                        blk * area[:, None, None]
        return r, K

    if problem.kind == "ldc":
        # all quadrature points are handled in single einsum calls; the per-
        # call overhead dominates otherwise for the small subdomain chunks
        # contractions are phrased as batched GEMMs; plain einsum falls back
        # to scalar loops for these shapes and dominates the assembly cost
        invRe = 1.0 / problem.Re
        N2, D2 = _p2_shapes(_QP6)
        N1 = _QP6
        q = N1.shape[0]
        uex, uey, pe = ue[:, :6], ue[:, 6:12], ue[:, 12:]
        w = _QW6[:, None] * area[None, :]                  # (q,m)
        sqw = np.sqrt(w)
        # P2 gradients at all quadrature points, (q,m,6,2)
        g2 = np.tensordot(D2, G, axes=(2, 1)).transpose(0, 2, 1, 3)
        uxq = uex @ N2.T                                   # (m,q)
        uyq = uey @ N2.T
        pq = pe @ N1.T
        gux = np.einsum("ma,qmaj->qmj", uex, g2)           # (q,m,2)
        guy = np.einsum("ma,qmaj->qmj", uey, g2)
        conv_x = uxq.T * gux[:, :, 0] + uyq.T * gux[:, :, 1]   # (q,m)
        conv_y = uxq.T * guy[:, :, 0] + uyq.T * guy[:, :, 1]
        # hg[m,a,(q,j)] carries sqrt(w) so hg @ hg^T is the viscous block
        hg = (sqw[:, :, None, None] * g2).transpose(1, 2, 0, 3).reshape(m, 6, 2 * q)
        guxs = (sqw[:, :, None] * gux).transpose(1, 0, 2).reshape(m, 2 * q, 1)
        guys = (sqw[:, :, None] * guy).transpose(1, 0, 2).reshape(m, 2 * q, 1)
        wp = w * pq.T
        r[:, :6] = invRe * (hg @ guxs)[:, :, 0] + (w * conv_x).T @ N2 \
            - np.einsum("qm,qma->ma", wp, g2[..., 0])
        r[:, 6:12] = invRe * (hg @ guys)[:, :, 0] + (w * conv_y).T @ N2 \
            - np.einsum("qm,qma->ma", wp, g2[..., 1])
        div = gux[:, :, 0] + guy[:, :, 1]
        r[:, 12:] = (w * div).T @ N1
        if want_matrix:
            visc = invRe * (hg @ hg.transpose(0, 2, 1))
            ugb = uxq.T[:, :, None] * g2[..., 0] + uyq.T[:, :, None] * g2[..., 1]
            term_u = np.tensordot(N2, w[:, :, None] * ugb, axes=(0, 0)).transpose(1, 0, 2)
            NN = (N2[:, :, None] * N2[:, None, :]).reshape(q, 36)
            K[:, :6, :6] = visc + term_u \
                + ((w * gux[:, :, 0]).T @ NN).reshape(m, 6, 6)
            K[:, 6:12, 6:12] = visc + term_u \
                + ((w * guy[:, :, 1]).T @ NN).reshape(m, 6, 6)
            K[:, :6, 6:12] = ((w * gux[:, :, 1]).T @ NN).reshape(m, 6, 6)
            K[:, 6:12, :6] = ((w * guy[:, :, 0]).T @ NN).reshape(m, 6, 6)
            Bx = -((w[:, :, None] * g2[..., 0]).transpose(1, 2, 0)
                   .reshape(m * 6, q) @ N1).reshape(m, 6, 3)
            By = -((w[:, :, None] * g2[..., 1]).transpose(1, 2, 0)
                   .reshape(m * 6, q) @ N1).reshape(m, 6, 3)
            K[:, :6, 12:] = Bx
            K[:, 6:12, 12:] = By
            K[:, 12:, :6] = -np.transpose(Bx, (0, 2, 1))
            K[:, 12:, 6:12] = -np.transpose(By, (0, 2, 1))
        return r, K

    raise ValueError(problem.kind)


def assemble_residual(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap, u,
                      subset=None, dofs: np.ndarray | None = None,
                      apply_dirichlet: bool = True,
                      plan: AssemblyPlan | None = None) -> np.ndarray:
    plan = _plan_for(mesh, dofmap, subset, dofs, plan, apply_dirichlet, False)
    ul = plan.local_state(u)
    out = np.zeros(plan.n)
    for c in plan.chunks():
        r, _ = _element_kernels(problem, plan.G[c], plan.area[c],
                                ul[plan.loc[c]], False)
        out += np.bincount(plan.loc[c].ravel(), r.ravel(), minlength=plan.n)
    if apply_dirichlet:
        out[plan.dirichlet] = ul[plan.dirichlet] - plan.dirichlet_value
    return out


def assemble_tangent(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap, u,
                     subset=None, dofs: np.ndarray | None = None,
                     apply_dirichlet: bool = True,
                     plan: AssemblyPlan | None = None) -> sp.csr_matrix:
    plan = _plan_for(mesh, dofmap, subset, dofs, plan, apply_dirichlet, True)
    if plan.indices is None or plan.apply_dirichlet != apply_dirichlet:
        raise ValueError("the plan has no tangent pattern for this Dirichlet mode")
    ul = plan.local_state(u)
    data = np.zeros(plan.nnz + 1)        # the last slot collects Dirichlet rows
    for c in plan.chunks():
        _, K = _element_kernels(problem, plan.G[c], plan.area[c],
                                ul[plan.loc[c]], True)
        data += np.bincount(plan.scatter[c].ravel(), K.ravel(),
                            minlength=plan.nnz + 1)
    data[plan.diagonal] = 1.0
    A = sp.csr_matrix((data[:-1], plan.indices.copy(), plan.indptr.copy()),
                      shape=(plan.n, plan.n))
    # entries that sum to exactly zero (the pressure block of the cavity, the
    # convection terms where the velocity vanishes) would enlarge the sparse
    # LU's fill and every product with A, so they are dropped
    A.eliminate_zeros()
    return A
