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
weights; by default a complementary filler function per such run restores the
partition of unity (``keep_pou=False`` keeps the raw deficit).

Interface values are turned into coarse basis columns by multiplying with the
nullspace of the operator (constants, or rigid body modes for elasticity; one
function per field for the monolithic saddle-point space) and extending into
the subdomain interiors energy-minimally with the tangent at the initial
iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .assembly import DofMap, ProblemSpec
from .mesh import DIRICHLET, LID, InterfaceSkeleton, Mesh
from .sparse import factorize


@dataclass
class CoarseEntity:
    kind: str                # "vertex" | "edge" | "filler"
    anchor: int              # vertex node id for vertex functions, else -1
    nodes: np.ndarray        # node ids carrying values (owned points)
    node_values: np.ndarray
    # midpoints of interface mesh edges, as sorted node pairs (for P2 fields)
    mid_pairs: np.ndarray = dc_field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    mid_values: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))


def _run_points(mesh: Mesh, run) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior nodes, interface edge pairs and midpoint coords of a run."""
    chain = np.concatenate([[run.start], run.interior, [run.end]])
    pairs = np.sort(np.column_stack([chain[:-1], chain[1:]]), axis=1)
    mids = 0.5 * (mesh.nodes[pairs[:, 0]] + mesh.nodes[pairs[:, 1]])
    return run.interior, pairs, mids


def interface_functions(mesh: Mesh, skeleton: InterfaceSkeleton, kind: str,
                        modified: bool = False, keep_pou: bool = True,
                        dirichlet_nodes: np.ndarray | None = None
                        ) -> list[CoarseEntity]:
    """Node- and midpoint-valued interface functions on Gamma'.

    ``dirichlet_nodes`` marks the nodes where the target field is constrained;
    vertices there are ineligible.  The default is the node-tag Dirichlet set,
    which is correct for fields prescribed on the tagged boundary.  Fields
    that are free there (the cavity pressure, say) should pass their own mask
    so that boundary endpoints keep their vertex functions.
    """
    if kind not in ("gdsw", "rgdsw", "msfem"):
        raise ValueError(f"unknown coarse space kind {kind!r}")
    if dirichlet_nodes is None:
        dirichlet_nodes = (mesh.boundary_tag == DIRICHLET) | (mesh.boundary_tag == LID)
    eligible = {int(v) for v in skeleton.vertices if not dirichlet_nodes[v]}

    if kind == "gdsw":
        if modified:
            raise ValueError("the Dirichlet-edge modification applies to the "
                             "reduced coarse spaces only")
        ents = [CoarseEntity("vertex", v, np.array([v]), np.array([1.0]))
                for v in sorted(eligible)]
        for run in skeleton.edges:
            interior, pairs, _ = _run_points(mesh, run)
            if interior.size == 0 and pairs.shape[0] == 0:
                continue
            ents.append(CoarseEntity("edge", -1, interior.copy(),
                                     np.ones(interior.size),
                                     mid_pairs=pairs,
                                     mid_values=np.ones(pairs.shape[0])))
        return ents

    # reduced spaces: accumulate per-vertex support across adjacent runs
    vert_nodes: dict[int, list] = {v: [np.array([v])] for v in sorted(eligible)}
    vert_nvals: dict[int, list] = {v: [np.array([1.0])] for v in sorted(eligible)}
    vert_pairs: dict[int, list] = {v: [] for v in sorted(eligible)}
    vert_mvals: dict[int, list] = {v: [] for v in sorted(eligible)}
    fillers: list[CoarseEntity] = []

    for run in skeleton.edges:
        interior, pairs, mids = _run_points(mesh, run)
        ends = [run.start, run.end]
        elig = [e for e in ends if e in eligible]
        if not elig and not (modified and keep_pou):
            raise ValueError(
                f"interface run {run.start}-{run.end} has no eligible vertex; "
                "use the gdsw space or the modified variant with keep_pou")
        pts = np.vstack([mesh.nodes[interior], mids]) if interior.size \
            else mids
        n_int = interior.size

        def dist(v):
            return np.linalg.norm(pts - mesh.nodes[v], axis=1)

        if not modified or len(elig) == len(ends):
            # regular run: weights over the eligible endpoints only
            if kind == "rgdsw":
                weights = {v: np.full(pts.shape[0], 1.0 / len(elig)) for v in elig}
            else:
                inv = {v: 1.0 / dist(v) for v in elig}
                denom = sum(inv.values())
                weights = {v: inv[v] / denom for v in elig}
        else:
            # run ending at the Dirichlet boundary: decay toward every
            # endpoint, eligible or not, with inverse-distance weights
            inv = {v: 1.0 / dist(v) for v in ends}
            denom = sum(inv.values())
            weights = {v: inv[v] / denom for v in elig}
            deficit = np.ones(pts.shape[0])
            for v in elig:
                deficit -= weights[v]
            if keep_pou and np.any(deficit > 1e-14):
                fillers.append(CoarseEntity(
                    "filler", -1, interior.copy(), deficit[:n_int].copy(),
                    mid_pairs=pairs, mid_values=deficit[n_int:].copy()))
        for v in elig:
            vert_nodes[v].append(interior)
            vert_nvals[v].append(weights[v][:n_int])
            vert_pairs[v].append(pairs)
            vert_mvals[v].append(weights[v][n_int:])

    ents = []
    for v in sorted(eligible):
        ents.append(CoarseEntity(
            "vertex", v,
            np.concatenate(vert_nodes[v]),
            np.concatenate(vert_nvals[v]),
            mid_pairs=(np.vstack(vert_pairs[v]) if vert_pairs[v]
                       else np.zeros((0, 2), dtype=np.int64)),
            mid_values=(np.concatenate(vert_mvals[v]) if vert_mvals[v]
                        else np.zeros(0))))
    return ents + fillers


def _edge_lookup(dofmap: DofMap, pairs: np.ndarray) -> np.ndarray:
    """Map sorted node pairs to edge ids in the dofmap's unique edge table."""
    edges = dofmap.edges
    keys = edges[:, 0] * (edges.max() + 1) + edges[:, 1]
    want = pairs[:, 0] * (edges.max() + 1) + pairs[:, 1]
    pos = np.searchsorted(keys, want)
    if np.any(keys[pos] != want):
        raise KeyError("interface pair is not a mesh edge")
    return pos


def coarse_interface_basis(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
                           entities: list[CoarseEntity],
                           pressure_entities: list[CoarseEntity] | None = None
                           ) -> tuple[sp.csr_matrix, list[tuple[int, str]]]:
    """Interface-valued coarse columns (n_dofs x n_cols) and their labels.

    Each entity is multiplied by every nullspace mode of its field(s); for the
    saddle-point problem the per-field functions have zero entries in the
    other fields, keeping the coarse blocks decoupled.  A separate entity set
    may be supplied for the pressure field, whose Dirichlet set (just the pin)
    differs from the velocity one; its labels index ``entities`` continued by
    ``pressure_entities``.
    """
    trip_r: list[np.ndarray] = []
    trip_c: list[np.ndarray] = []
    trip_v: list[np.ndarray] = []
    labels: list[tuple[int, str]] = []
    n = dofmap.n_dofs

    def col(rows, vals):
        # triplets of one column; per-column sparse matrices would each carry
        # an O(n) indptr, which dominates memory for large meshes
        rows = np.asarray(rows)
        keep = ~dofmap.dirichlet_mask[rows]
        trip_r.append(rows[keep])
        trip_c.append(np.full(int(keep.sum()), len(labels), dtype=np.int64))
        trip_v.append(np.asarray(vals, dtype=np.float64)[keep])

    for k, ent in enumerate(entities):
        if problem.kind == "diffusion":
            col(dofmap.node_dofs("u", ent.nodes), ent.node_values)
            labels.append((k, "u"))
        elif problem.kind == "beam":
            xy = mesh.nodes[ent.nodes]
            dx = dofmap.node_dofs("ux", ent.nodes)
            dy = dofmap.node_dofs("uy", ent.nodes)
            for name, vx, vy in (
                    ("tx", ent.node_values, None),
                    ("ty", None, ent.node_values),
                    ("rot", -xy[:, 1] * ent.node_values, xy[:, 0] * ent.node_values)):
                rows, vals = [], []
                if vx is not None:
                    rows.append(dx)
                    vals.append(vx)
                if vy is not None:
                    rows.append(dy)
                    vals.append(vy)
                col(np.concatenate(rows), np.concatenate(vals))
                labels.append((k, name))
        elif problem.kind == "ldc":
            mid = _edge_lookup(dofmap, ent.mid_pairs) if ent.mid_pairs.size \
                else np.zeros(0, dtype=np.int64)
            for name in ("ux", "uy"):
                rows = np.concatenate([dofmap.node_dofs(name, ent.nodes),
                                       dofmap.edge_dofs(name, mid)])
                vals = np.concatenate([ent.node_values, ent.mid_values])
                col(rows, vals)
                labels.append((k, name))
            if pressure_entities is None:
                col(dofmap.node_dofs("p", ent.nodes), ent.node_values)
                labels.append((k, "p"))
        else:
            raise ValueError(problem.kind)
    if problem.kind == "ldc" and pressure_entities is not None:
        for j, ent in enumerate(pressure_entities):
            col(dofmap.node_dofs("p", ent.nodes), ent.node_values)
            labels.append((len(entities) + j, "p"))
    Phi = sp.csr_matrix(
        (np.concatenate(trip_v) if trip_v else np.zeros(0),
         (np.concatenate(trip_r) if trip_r else np.zeros(0, dtype=np.int64),
          np.concatenate(trip_c) if trip_c else np.zeros(0, dtype=np.int64))),
        shape=(n, len(labels)))
    return Phi, labels


def interface_dofs(problem: ProblemSpec, dofmap: DofMap,
                   skeleton: InterfaceSkeleton) -> np.ndarray:
    """All DOFs sitting on the interface (every field, midpoints included)."""
    parts = []
    for f in dofmap.fields:
        parts.append(f.offset + skeleton.interface_nodes)
        if f.order == 2:
            pairs = []
            for run in skeleton.edges:
                chain = np.concatenate([[run.start], run.interior, [run.end]])
                pairs.append(np.sort(np.column_stack([chain[:-1], chain[1:]]), axis=1))
            if pairs:
                eids = _edge_lookup(dofmap, np.vstack(pairs))
                parts.append(f.offset + dofmap.n_nodes + eids)
    return np.unique(np.concatenate(parts))


def interior_owner(dofmap: DofMap, mesh: Mesh, decomp) -> np.ndarray:
    """Owning subdomain per DOF from the nonoverlapping element sets.

    Interface DOFs receive an arbitrary adjacent owner; the label is only
    consulted for interior DOFs, which belong to exactly one subdomain.
    """
    from .assembly import subset_dofs
    label = np.full(dofmap.n_dofs, -1, dtype=np.int64)
    for i in range(decomp.num_subdomains):
        elems = np.flatnonzero(decomp.owner == i)
        label[subset_dofs(dofmap, mesh, elems)] = i
    return label


def harmonic_extension(A0: sp.csr_matrix, dofmap: DofMap, iface: np.ndarray,
                       Phi_gamma: sp.csr_matrix,
                       interior_label: np.ndarray | None = None) -> sp.csr_matrix:
    """Extend interface values energy-minimally with the frozen tangent A0.

    Interface and Dirichlet DOFs keep their values.  The interior block of A0
    decouples across subdomains, so with an `interior_label` the extension is
    computed one subdomain at a time and touches only the columns whose
    entities border that subdomain; without a label a single global interior
    solve is performed (fine for small problems).
    """
    n = dofmap.n_dofs
    fixed = np.zeros(n, dtype=bool)
    fixed[iface] = True
    fixed |= dofmap.dirichlet_mask
    fixed_idx = np.flatnonzero(fixed)
    A0 = A0.tocsr()
    Phi_B = Phi_gamma[fixed_idx].tocsc()
    n0 = Phi_gamma.shape[1]

    rows, cols, vals = [], [], []
    if interior_label is None:
        groups = [np.flatnonzero(~fixed)]
    else:
        nsub = interior_label.max() + 1
        groups = [np.flatnonzero(~fixed & (interior_label == i))
                  for i in range(nsub)]
    for idx in groups:
        if idx.size == 0:
            continue
        A_sub = A0[idx]
        rhs = -(A_sub[:, fixed_idx] @ Phi_B)
        active = np.unique(rhs.tocoo().col)
        if active.size == 0:
            continue
        lu = factorize(A_sub[:, idx].tocsc())
        sol = lu.solve(rhs[:, active].toarray())
        sol = np.atleast_2d(sol.T).T
        r, c = np.nonzero(sol)
        rows.append(idx[r])
        cols.append(active[c])
        vals.append(sol[r, c])

    S_B = sp.csr_matrix((np.ones(fixed_idx.size),
                         (fixed_idx, np.arange(fixed_idx.size))),
                        shape=(n, fixed_idx.size))
    Phi_I = sp.csr_matrix(
        (np.concatenate(vals) if vals else np.zeros(0),
         (np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64),
          np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64))),
        shape=(n, n0))
    return (S_B @ Phi_B + Phi_I).tocsr()


def build_coarse_space(problem: ProblemSpec, mesh: Mesh, dofmap: DofMap,
                       skeleton: InterfaceSkeleton, A0: sp.csr_matrix,
                       kind: str = "rgdsw", modified: bool = False,
                       keep_pou: bool = True, decomp=None
                       ) -> tuple[sp.csr_matrix, list[CoarseEntity], list[tuple[int, str]]]:
    """Assemble the full coarse basis P0 (n_dofs x n0)."""
    ents = interface_functions(mesh, skeleton, kind, modified=modified,
                               keep_pou=keep_pou)
    ents_p = None
    if problem.kind == "ldc":
        # the pressure is unconstrained on the tagged boundary (only the pin
        # is fixed), so its Gamma' keeps the boundary endpoint vertices
        pin_only = np.zeros(mesh.n_nodes, dtype=bool)
        if mesh.pin_node is not None:
            pin_only[mesh.pin_node] = True
        ents_p = interface_functions(mesh, skeleton, kind, modified=modified,
                                     keep_pou=keep_pou,
                                     dirichlet_nodes=pin_only)
    Phi_gamma, labels = coarse_interface_basis(problem, mesh, dofmap, ents,
                                               pressure_entities=ents_p)
    iface = interface_dofs(problem, dofmap, skeleton)
    label = interior_owner(dofmap, mesh, decomp) if decomp is not None else None
    P0 = harmonic_extension(A0, dofmap, iface, Phi_gamma, interior_label=label)
    if problem.kind == "ldc":
        ents = ents + ents_p
    return P0, ents, labels
