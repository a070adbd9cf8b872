"""GDSW-type coarse spaces built from the interface skeleton.

Interface functions live on the interface nodes away from the Dirichlet
boundary.  Three families are supported:

* ``gdsw``  - one indicator function per vertex and per edge run.
* ``rgdsw`` - one function per vertex, spread over the adjacent edge runs
  with constant weight 1/m, where m is the number of eligible endpoint
  vertices of the run.
* ``msfem`` - one function per vertex with inverse-distance weights along
  the adjacent runs.

For runs ending at the Dirichlet boundary the reduced families default to a
plateau (the lone eligible vertex takes the full weight).  The ``modified``
variants instead decay toward the Dirichlet endpoint with inverse-distance
weights, and a complementary filler function per such run restores the
partition of unity.

Interface values are turned into coarse basis columns by multiplying with the
nullspace modes of `assembly.nullspace_basis` (one constant per field, and
the rigid rotation of the beam's displacement and the cavity's velocity) and
extending into the subdomain interiors energy-minimally with the tangent at
the initial iterate.

The basis has full column rank: a column within `RANK_TOL` of its norm of
the span of the columns before it, on the interface, is dropped.  Only `rot`
columns go, of the beam and the cavity alike: one per GDSW vertex, one per
run of a one-row beam strip with MsFEM, and one filler's with modified MsFEM
on a 2D grid and with modified rGDSW on the 2x2 cavity.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import assembly as asm
from . import mesh as msh
from .assembly import DofMap, ProblemSpec, nullspace_basis
from .mesh import Decomposition, InterfaceSkeleton, Mesh
from .sparse import factorize

# distance from the span of the kept columns, relative to a column's norm,
# at or below which the column is dropped
RANK_TOL = 1e-12

COARSE_KINDS = ("gdsw", "rgdsw", "msfem")


@dataclass
class CoarseEntity:
    kind: str                # "vertex" | "edge" | "filler"
    anchor: int              # vertex node id for vertex functions, else -1
    nodes: np.ndarray        # node ids carrying values (owned points)
    node_values: np.ndarray
    # midpoints of interface mesh edges, as sorted node pairs (for P2 fields)
    mid_pairs: np.ndarray = dc_field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    mid_values: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))


def _run_pairs(run) -> np.ndarray:
    """Interface mesh edges of a run as sorted node pairs, start to end."""
    chain = np.concatenate([[run.start], run.interior, [run.end]])
    return np.sort(np.column_stack([chain[:-1], chain[1:]]), axis=1)


def interface_functions(mesh: Mesh, skeleton: InterfaceSkeleton, kind: str,
                        modified: bool = False,
                        dirichlet_nodes: np.ndarray | None = None
                        ) -> list[CoarseEntity]:
    """Node- and midpoint-valued interface functions on Gamma'.

    ``dirichlet_nodes`` marks the nodes where the target field is constrained;
    vertices there are ineligible.  The default is the node-tag Dirichlet set,
    which is correct for fields prescribed on the tagged boundary.  Fields
    that are free there (the cavity pressure, say) should pass their own mask
    so that boundary endpoints keep their vertex functions.
    """
    if kind not in COARSE_KINDS:
        raise ValueError(f"unknown coarse space kind {kind!r}")
    if dirichlet_nodes is None:
        dirichlet_nodes = mesh.dirichlet_nodes
    eligible = {int(v) for v in skeleton.vertices if not dirichlet_nodes[v]}
    if kind == "gdsw" and modified:
        raise ValueError("the Dirichlet-edge modification applies to the "
                         "reduced coarse spaces only")

    # per vertex, the vertex itself, then its share of each adjacent run of
    # a reduced space in run order, joined into one function at the end
    parts: dict[int, list[CoarseEntity]] = {
        v: [CoarseEntity("vertex", v, np.array([v]), np.array([1.0]))]
        for v in sorted(eligible)}
    others: list[CoarseEntity] = []   # the GDSW edge functions or fillers
    for run in skeleton.edges:
        interior, pairs = run.interior, _run_pairs(run)
        if kind == "gdsw":
            others.append(CoarseEntity(
                "edge", -1, interior.copy(), np.ones(interior.size),
                mid_pairs=pairs, mid_values=np.ones(pairs.shape[0])))
            continue
        ends = [run.start, run.end]
        elig = [e for e in ends if e in eligible]
        if not elig and not modified:
            raise ValueError(
                f"interface run {run.start}-{run.end} has no eligible vertex; "
                "use the gdsw space or the modified variant")
        # the run's interior nodes, then its edge midpoints
        pts = np.vstack([mesh.nodes[interior], mesh.nodes[pairs].mean(axis=1)])
        n_int = interior.size
        # a regular run weighs its eligible endpoints only; a modified run
        # ending at the Dirichlet boundary decays toward every endpoint,
        # eligible or not, with inverse-distance weights
        decay = modified and len(elig) < len(ends)
        if kind == "rgdsw" and not decay:
            weights = {v: np.full(pts.shape[0], 1.0 / len(elig)) for v in elig}
        else:
            inv = {v: 1.0 / np.linalg.norm(pts - mesh.nodes[v], axis=1)
                   for v in (ends if decay else elig)}
            denom = sum(inv.values())
            weights = {v: inv[v] / denom for v in elig}
        if decay:
            deficit = np.ones(pts.shape[0]) - sum(weights.values())
            if np.any(deficit > 1e-14):
                others.append(CoarseEntity(
                    "filler", -1, interior.copy(), deficit[:n_int].copy(),
                    mid_pairs=pairs, mid_values=deficit[n_int:].copy()))
        for v in elig:
            parts[v].append(CoarseEntity(
                "vertex", v, interior, weights[v][:n_int],
                mid_pairs=pairs, mid_values=weights[v][n_int:]))

    return [CoarseEntity("vertex", v, *(
        np.concatenate([getattr(p, a) for p in ps])
        for a in ("nodes", "node_values", "mid_pairs", "mid_values")))
        for v, ps in parts.items()] + others


def _edge_lookup(dofmap: DofMap, pairs: np.ndarray) -> np.ndarray:
    """Map sorted node pairs to edge ids in the dofmap's unique edge table."""
    edges = dofmap.edges
    keys = edges[:, 0] * (edges.max() + 1) + edges[:, 1]
    want = pairs[:, 0] * (edges.max() + 1) + pairs[:, 1]
    pos = np.searchsorted(keys, want)
    if np.any(keys[pos] != want):
        raise KeyError("interface pair is not a mesh edge")
    return pos


def _independent_columns(B: np.ndarray) -> np.ndarray:
    """Indices, in order, of the columns of B that are not linear
    combinations of the columns kept before them.

    A greedy pass projects each column twice against an orthonormal basis
    of the kept ones (CGS2), so the earliest columns of a dependent set stay,
    which a pivoted QR would not ensure.  Groups of columns connected by
    shared nonzero rows are mutually orthogonal, so each group runs alone.
    """
    support = sp.csr_matrix(B != 0, dtype=np.float64)
    n_groups, group = connected_components(support.T @ support,
                                           directed=False)
    keep: list[int] = []
    for g in range(n_groups):
        cols = np.flatnonzero(group == g)
        Bg = B[np.ix_(np.flatnonzero(np.any(B[:, cols], axis=1)), cols)]
        Q = np.zeros_like(Bg)
        k = 0
        for j, b in zip(cols, Bg.T):
            v = b - Q[:, :k] @ (Q[:, :k].T @ b)
            v -= Q[:, :k] @ (Q[:, :k].T @ v)
            nrm = np.linalg.norm(v)
            if nrm > RANK_TOL * np.linalg.norm(b):
                Q[:, k] = v / nrm
                k += 1
                keep.append(j)
    return np.sort(np.array(keep, dtype=np.int64))


def coarse_interface_basis(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
                           skeleton: InterfaceSkeleton, kind: str,
                           modified: bool = False
                           ) -> tuple[sp.csr_matrix, list[CoarseEntity],
                                      list[tuple[int, str]]]:
    """Interface-valued coarse columns (n_dofs x n_cols), their interface
    functions and their labels (entity index, mode name).

    Each column is one nullspace mode restricted to one interface function's
    support, on the fields where the mode is nonzero: node DOFs take the
    function's node values, P2 midpoint DOFs its midpoint values.  Modes whose
    fields have the same node-level Dirichlet set share one family of
    interface functions, so the cavity pressure, pinned at one node only,
    keeps the boundary endpoint vertices that the velocity loses.

    Columns are generated entity by entity, modes in `nullspace_basis`
    order.  A column within `RANK_TOL` of its norm of the span of the
    columns before it, on the interface rows, is dropped, and the rest are
    kept unchanged.  Only `rot` columns go, of the beam and the cavity
    alike: one per GDSW vertex (on a single node the rotation is a
    combination of the translations), one per run of a one-row beam strip
    with MsFEM (the weights of its two vertices are linear along it), and
    one filler's with modified MsFEM on a 2D grid and with modified rGDSW
    on the 2x2 cavity.
    """
    families: dict[bytes, tuple[np.ndarray, list]] = {}
    for name, z in nullspace_basis(problem, dofmap).items():
        fields = [f for f in dofmap.fields
                  if np.any(z[f.offset:f.offset + f.n_dofs])]
        fixed = np.zeros(dofmap.n_nodes, dtype=bool)
        for f in fields:
            fixed |= dofmap.dirichlet_mask[f.offset:f.offset + dofmap.n_nodes]
        families.setdefault(fixed.tobytes(), (fixed, []))[1].append(
            (name, z, fields))

    entities: list[CoarseEntity] = []
    labels: list[tuple[int, str]] = []
    empty = np.zeros(0, dtype=np.int64)
    trip_r, trip_c, trip_v = [empty], [empty], [np.zeros(0)]
    for fixed, modes in families.values():
        for ent in interface_functions(mesh, skeleton, kind, modified=modified,
                                       dirichlet_nodes=fixed):
            for name, z, fields in modes:
                rows, weights = [], []
                for f in fields:
                    rows.append(dofmap.node_dofs(f.name, ent.nodes))
                    weights.append(ent.node_values)
                    if f.order == 2:
                        mid = _edge_lookup(dofmap, ent.mid_pairs)
                        rows.append(dofmap.edge_dofs(f.name, mid))
                        weights.append(ent.mid_values)
                rows = np.concatenate(rows)
                # triplets of one column; per-column sparse matrices would
                # each carry an O(n) indptr, which dominates memory for large
                # meshes
                keep = ~dofmap.dirichlet_mask[rows]
                trip_r.append(rows[keep])
                trip_c.append(np.full(int(keep.sum()), len(labels)))
                trip_v.append((z[rows] * np.concatenate(weights))[keep])
                labels.append((len(entities), name))
            entities.append(ent)
    Phi = sp.csr_matrix((np.concatenate(trip_v), (np.concatenate(trip_r),
                                                  np.concatenate(trip_c))),
                        shape=(dofmap.n_dofs, len(labels)))
    keep = _independent_columns(
        Phi[np.flatnonzero(np.diff(Phi.indptr))].toarray())
    return Phi[:, keep], entities, [labels[j] for j in keep]


def interface_dofs(dofmap: DofMap, skeleton: InterfaceSkeleton) -> np.ndarray:
    """All DOFs sitting on the interface (every field, midpoints included)."""
    parts = [dofmap.node_dofs(f.name, skeleton.interface_nodes)
             for f in dofmap.fields]
    p2 = [f for f in dofmap.fields if f.order == 2]
    if p2 and skeleton.edges:
        mid = _edge_lookup(dofmap, np.vstack([_run_pairs(run)
                                              for run in skeleton.edges]))
        parts += [dofmap.edge_dofs(f.name, mid) for f in p2]
    return np.unique(np.concatenate(parts))


def harmonic_extension(A0: sp.csc_matrix, dofmap: DofMap, iface: np.ndarray,
                       Phi_gamma: sp.csr_matrix,
                       decomp: Decomposition) -> sp.csr_matrix:
    """Extend interface values energy-minimally with the frozen tangent A0.

    Interface and Dirichlet DOFs keep their values.  The interior block of A0
    decouples across the nonoverlapping subdomains of `decomp`, whose element
    owners label each DOF, so the extension is computed one subdomain at a
    time and touches only the columns whose entities border that subdomain.
    An interior DOF has one owner; the label of an interface DOF, one of its
    adjacent owners, is not read.  The interior rows of A0 and their product
    with the fixed values are cut and formed once, and each subdomain cuts
    its rows of both, and its interior block by its own DOFs.
    """
    n = dofmap.n_dofs
    fixed = dofmap.dirichlet_mask.copy()
    fixed[iface] = True
    fixed_idx = np.flatnonzero(fixed)
    interior = np.flatnonzero(~fixed)
    A_I = A0.tocsr()[interior]
    Phi_B = Phi_gamma[fixed_idx].tocsc()
    rhs_I = -(A_I[:, fixed_idx] @ Phi_B)
    n0 = Phi_gamma.shape[1]

    label = np.full(n, -1, dtype=np.int64)
    label[dofmap.elem_dofs] = decomp.owner[:, None]
    # the interior DOFs of each subdomain, as positions among `interior`
    interior_label = label[interior]
    parts = np.split(np.argsort(interior_label, kind="stable"), np.cumsum(
        np.bincount(interior_label, minlength=decomp.num_subdomains))[:-1])

    empty = np.zeros(0, dtype=np.int64)
    rows, cols, vals = [empty], [empty], [np.zeros(0)]
    for part in parts:
        if part.size == 0:
            continue
        idx = interior[part]
        rhs = rhs_I[part]
        active = np.unique(rhs.tocoo().col)
        if active.size == 0:
            continue
        lu = factorize(A_I[part][:, idx].tocsc())
        sol = lu.solve(rhs[:, active].toarray())
        sol = np.atleast_2d(sol.T).T
        r, c = np.nonzero(sol)
        rows.append(idx[r])
        cols.append(active[c])
        vals.append(sol[r, c])

    S_B = sp.csr_matrix((np.ones(fixed_idx.size),
                         (fixed_idx, np.arange(fixed_idx.size))),
                        shape=(n, fixed_idx.size))
    Phi_I = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                  np.concatenate(cols))),
                          shape=(n, n0))
    return (S_B @ Phi_B + Phi_I).tocsr()


def build_coarse_space(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
                       decomp: Decomposition, kind: str = "rgdsw",
                       modified: bool = False
                       ) -> tuple[sp.csr_matrix, list[CoarseEntity], list[tuple[int, str]]]:
    """The full coarse basis P0 (n_dofs x n0) of the decomposition, extended
    with the tangent at the initial iterate, its interface functions and its
    column labels (see `coarse_interface_basis`).

    Raises ValueError if no coarse column exists, as for a single subdomain.
    """
    skeleton = msh.interface_skeleton(decomp, mesh)
    Phi_gamma, ents, labels = coarse_interface_basis(
        problem, mesh, dofmap, skeleton, kind, modified)
    if not labels:
        raise ValueError("no coarse column: the decomposition has no "
                         "interface off the Dirichlet boundary")
    A0 = asm.assemble_tangent(problem, mesh, dofmap,
                              asm.initial_iterate(problem, dofmap))
    P0 = harmonic_extension(A0, dofmap, interface_dofs(dofmap, skeleton),
                            Phi_gamma, decomp)
    return P0, ents, labels
