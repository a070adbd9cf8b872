"""Structured triangulations, partitions, overlaps and interface classification.

The mesh is a uniform grid of rectangles split along a fixed diagonal into
triangles.  Subdomains are rectangular blocks of cells; overlap is grown one
element layer at a time via the dual (shared-edge) or nodal (shared-node)
element graph, and a one-element ghost ring lets every overlapping-subdomain
node be assembled as an interior node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# boundary tag codes
INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2
LID = 3

PROBLEM_KINDS = ("ldc", "beam", "diffusion")


class InvalidGeometryError(ValueError):
    """Raised for degenerate rectangle extents or element counts."""


class PartitionError(ValueError):
    """Raised when the subdomain grid does not divide the element grid."""


@dataclass
class Mesh:
    nodes: np.ndarray        # (n_nodes, 2) coordinates
    elements: np.ndarray     # (n_elements, 3) node indices, CCW
    boundary_tag: np.ndarray  # (n_nodes,) int codes
    pin_node: int | None = None  # node carrying the pressure pin, if any

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def dirichlet_nodes(self) -> np.ndarray:
        """Mask of the nodes on the Dirichlet boundary, the lid included."""
        return (self.boundary_tag == DIRICHLET) | (self.boundary_tag == LID)

    def grid_shape(self) -> tuple[int, int]:
        """(nx, ny) cell counts, recovered from the structured coordinates."""
        nx = len(np.unique(self.nodes[:, 0])) - 1
        ny = len(np.unique(self.nodes[:, 1])) - 1
        return nx, ny

    def extents(self) -> tuple[float, float, float, float]:
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        return x.min(), x.max(), y.min(), y.max()


@dataclass
class Decomposition:
    num_subdomains: int
    owner: np.ndarray  # (n_elements,) subdomain index
    overlap_elements: list[np.ndarray] | None = None
    ghost_elements: list[np.ndarray] | None = None


@dataclass
class SkeletonEdge:
    start: int               # endpoint vertex node
    end: int                 # endpoint vertex node
    interior: np.ndarray     # interior node run, ordered start -> end


@dataclass
class InterfaceSkeleton:
    interface_nodes: np.ndarray          # Gamma, sorted
    vertices: np.ndarray                 # vertex nodes, sorted
    edges: list[SkeletonEdge] = field(default_factory=list)


def build_structured_mesh(nx: int, ny: int, domain=(0.0, 1.0, 0.0, 1.0),
                          problem_kind: str = "ldc") -> Mesh:
    """Uniform triangulation of the rectangle [x0,x1]x[y0,y1].

    Each cell is split along the lower-left-to-upper-right diagonal.  Boundary
    tags follow the problem: for "ldc" the lid is at y=y1 and the remaining
    boundary is Dirichlet with the pressure pinned at (x0,y0); for "beam" the
    short edges x=x0,x1 are Dirichlet and the long edges Neumann; "diffusion"
    uses an all-Dirichlet boundary.
    """
    if nx < 1 or ny < 1:
        raise InvalidGeometryError(f"element counts must be >= 1, got {nx}x{ny}")
    x0, x1, y0, y1 = domain
    if x1 <= x0 or y1 <= y0:
        raise InvalidGeometryError(f"degenerate extents {domain}")
    if problem_kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem_kind {problem_kind!r}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])  # index = iy*(nx+1)+ix

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    a = (iy * (nx + 1) + ix).ravel()
    b = a + 1
    c = b + (nx + 1)
    d = a + (nx + 1)
    elements = np.empty((2 * nx * ny, 3), dtype=np.int64)
    elements[0::2] = np.column_stack([a, b, c])
    elements[1::2] = np.column_stack([a, c, d])

    tags = np.full(nodes.shape[0], INTERIOR, dtype=np.int8)
    on_left = np.isclose(nodes[:, 0], x0)
    on_right = np.isclose(nodes[:, 0], x1)
    on_bottom = np.isclose(nodes[:, 1], y0)
    on_top = np.isclose(nodes[:, 1], y1)
    on_boundary = on_left | on_right | on_bottom | on_top
    pin = None
    if problem_kind == "ldc":
        tags[on_boundary] = DIRICHLET
        tags[on_top] = LID
        pin = int(np.flatnonzero(on_left & on_bottom)[0])
    elif problem_kind == "beam":
        tags[on_boundary] = NEUMANN
        tags[on_left | on_right] = DIRICHLET
    else:
        tags[on_boundary] = DIRICHLET
    return Mesh(nodes=nodes, elements=elements, boundary_tag=tags, pin_node=pin)


def partition_structured(mesh: Mesh, px: int, py: int) -> Decomposition:
    """Assign each element to the rectangular block containing its centroid."""
    nx, ny = mesh.grid_shape()
    if nx % px or ny % py:
        raise PartitionError(f"{px}x{py} subdomains do not divide the {nx}x{ny} grid")
    x0, x1, y0, y1 = mesh.extents()
    cent = mesh.nodes[mesh.elements].mean(axis=1)
    bx = np.clip(((cent[:, 0] - x0) / (x1 - x0) * px).astype(np.int64), 0, px - 1)
    by = np.clip(((cent[:, 1] - y0) / (y1 - y0) * py).astype(np.int64), 0, py - 1)
    owner = by * px + bx
    return Decomposition(num_subdomains=px * py, owner=owner)


def _element_edges(elements: np.ndarray) -> np.ndarray:
    """(3*m, 2) sorted node pairs; rows 3*e..3*e+2 are the edges of element e."""
    e = elements
    pairs = np.stack([e[:, [1, 2]], e[:, [2, 0]], e[:, [0, 1]]], axis=1).reshape(-1, 2)
    return np.sort(pairs, axis=1)


def _shared_edges(elements: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges shared by two elements: (k, 2) sorted node pairs and, for each,
    the ids of its two elements."""
    edges = _element_edges(elements)
    elem_of = np.repeat(np.arange(elements.shape[0]), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    edges_s, elem_s = edges[order], elem_of[order]
    same = np.all(edges_s[1:] == edges_s[:-1], axis=1)
    return edges_s[:-1][same], elem_s[:-1][same], elem_s[1:][same]


def dual_graph(mesh: Mesh) -> sp.csr_matrix:
    """Element adjacency via shared element edges (two common nodes)."""
    m = mesh.n_elements
    _, i, j = _shared_edges(mesh.elements)
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    adj = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(m, m))
    adj.data[:] = 1
    return adj


def nodal_graph(mesh: Mesh) -> sp.csr_matrix:
    """Element adjacency via any shared node."""
    m, n = mesh.n_elements, mesh.n_nodes
    rows = np.repeat(np.arange(m), 3)
    inc = sp.csr_matrix((np.ones(3 * m, dtype=np.int8), (rows, mesh.elements.ravel())),
                        shape=(m, n))
    adj = (inc @ inc.T).tocsr()
    adj.setdiag(0)
    adj.eliminate_zeros()
    adj.data[:] = 1
    return adj


def extend_overlap(decomp: Decomposition, graph: sp.csr_matrix, k: int) -> Decomposition:
    """Populate overlap_elements with the k-layer closure of each owner set."""
    if k < 0:
        raise ValueError("overlap layer count must be >= 0")
    m = decomp.owner.shape[0]
    overlap = []
    for i in range(decomp.num_subdomains):
        ind = (decomp.owner == i)
        for _ in range(k):
            ind = ind | (graph @ ind).astype(bool)
        overlap.append(np.flatnonzero(ind))
    decomp.overlap_elements = overlap
    return decomp


def ghost_layer(decomp: Decomposition, mesh: Mesh) -> Decomposition:
    """Populate ghost_elements, the ring of elements of `mesh` that share a
    node with each overlap, so that every node of the overlapping subdomain
    becomes interior to the ghost-extended element set.
    """
    if decomp.overlap_elements is None:
        raise ValueError("extend_overlap must run before ghost_layer")
    graph = nodal_graph(mesh)
    ghosts = []
    for ov in decomp.overlap_elements:
        ind = np.zeros(mesh.n_elements, dtype=bool)
        ind[ov] = True
        ring = (graph @ ind).astype(bool) & ~ind
        ghosts.append(np.flatnonzero(ring))
    decomp.ghost_elements = ghosts
    return decomp


def node_subdomain_counts(mesh: Mesh, decomp: Decomposition) -> sp.csr_matrix:
    """(n_nodes, N) incidence of nodes with nonoverlapping subdomain closures."""
    rows = mesh.elements.ravel()
    cols = np.repeat(decomp.owner, 3)
    inc = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)),
                        shape=(mesh.n_nodes, decomp.num_subdomains))
    # the constructor summed duplicate entries; back to 0/1
    inc.data[:] = 1
    return inc


def interface_skeleton(decomp: Decomposition, mesh: Mesh) -> InterfaceSkeleton:
    """Classify the interface into vertices and ordered edge runs.

    Vertices are nodes adjacent to three or more subdomains, plus interface
    nodes on the physical boundary (where an edge run terminates).  Edge runs
    connect vertices through nodes shared by exactly two subdomains, walking
    along interface mesh edges.
    """
    inc = node_subdomain_counts(mesh, decomp)
    counts = np.asarray(inc.sum(axis=1)).ravel()
    gamma_mask = counts >= 2
    gamma = np.flatnonzero(gamma_mask)
    on_boundary = mesh.boundary_tag != INTERIOR
    vertex_mask = gamma_mask & ((counts >= 3) | on_boundary)
    vertices = np.flatnonzero(vertex_mask)

    # interface mesh edges: both adjacent elements exist and have distinct owners
    edges, e1, e2 = _shared_edges(mesh.elements)
    iface = decomp.owner[e1] != decomp.owner[e2]
    nbr: dict[int, list[int]] = {}
    for a, b in edges[iface].tolist():
        nbr.setdefault(a, []).append(b)
        nbr.setdefault(b, []).append(a)

    consumed: set[tuple[int, int]] = set()
    runs: list[SkeletonEdge] = []
    for v in vertices:
        for w in nbr.get(int(v), []):
            key = (min(int(v), w), max(int(v), w))
            if key in consumed:
                continue
            consumed.add(key)
            interior = []
            prev, cur = int(v), w
            while not vertex_mask[cur]:
                interior.append(cur)
                nxt = [x for x in nbr[cur] if x != prev]
                if len(nxt) != 1:
                    raise RuntimeError(f"non-manifold interface at node {cur}")
                consumed.add((min(cur, nxt[0]), max(cur, nxt[0])))
                prev, cur = cur, nxt[0]
            runs.append(SkeletonEdge(start=int(v), end=int(cur),
                                     interior=np.array(interior, dtype=np.int64)))
    return InterfaceSkeleton(interface_nodes=gamma, vertices=vertices,
                             edges=runs)
