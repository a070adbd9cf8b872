"""Mesh construction, partitioning, overlap and interface skeleton tests."""

import numpy as np
import pytest

from nlschwarz import mesh as msh


def unit_square(nx=8, ny=8, kind="diffusion"):
    return msh.build_structured_mesh(nx, ny, problem_kind=kind)


class TestBuildStructuredMesh:
    def test_counts(self):
        m = unit_square(4, 3)
        assert m.n_nodes == 5 * 4
        assert m.n_elements == 2 * 4 * 3
        assert m.grid_shape() == (4, 3)

    def test_extents(self):
        m = msh.build_structured_mesh(4, 4, domain=(0.0, 2.0, -1.0, 1.0))
        assert m.extents() == (0.0, 2.0, -1.0, 1.0)

    def test_orientation_ccw(self):
        m = unit_square(5, 5)
        p = m.nodes[m.elements]
        cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                 - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
        assert np.all(cross > 0)

    def test_diffusion_tags(self):
        m = unit_square(6, 6, "diffusion")
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        on_bnd = (x == 0) | (x == 1) | (y == 0) | (y == 1)
        assert np.array_equal(m.boundary_tag == msh.DIRICHLET, on_bnd)
        assert m.pin_node is None

    def test_ldc_tags(self):
        m = unit_square(6, 6, "ldc")
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        assert np.all(m.boundary_tag[y == 1.0] == msh.LID)
        walls = ((x == 0) | (x == 1) | (y == 0)) & (y < 1.0)
        assert np.all(m.boundary_tag[walls] == msh.DIRICHLET)
        assert m.pin_node is not None
        assert np.allclose(m.nodes[m.pin_node], [0.0, 0.0])

    def test_beam_tags(self):
        m = msh.build_structured_mesh(20, 4, domain=(0.0, 5.0, 0.0, 1.0),
                                      problem_kind="beam")
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        # both short edges clamped, long edges traction-free
        assert np.all(m.boundary_tag[(x == 0.0) | (x == 5.0)] == msh.DIRICHLET)
        long_edges = ((y == 0.0) | (y == 1.0)) & (x > 0.0) & (x < 5.0)
        assert np.all(m.boundary_tag[long_edges] == msh.NEUMANN)

    def test_invalid_size(self):
        with pytest.raises((ValueError, msh.InvalidGeometryError)):
            msh.build_structured_mesh(0, 4)


class TestPartition:
    def test_owner_partition(self):
        m = unit_square(8, 8)
        dec = msh.partition_structured(m, 4, 2)
        assert dec.num_subdomains == 8
        counts = np.bincount(dec.owner, minlength=8)
        assert np.all(counts == m.n_elements // 8)

    def test_indivisible_raises(self):
        m = unit_square(8, 8)
        with pytest.raises(msh.PartitionError):
            msh.partition_structured(m, 3, 2)

    def test_overlap_grows_and_nests(self):
        m = unit_square(8, 8)
        g = msh.dual_graph(m)
        dec1 = msh.partition_structured(m, 2, 2)
        msh.extend_overlap(dec1, g, 1)
        dec2 = msh.partition_structured(m, 2, 2)
        msh.extend_overlap(dec2, g, 2)
        for i in range(4):
            owned = np.flatnonzero(dec1.owner == i)
            assert np.all(np.isin(owned, dec1.overlap_elements[i]))
            assert np.all(np.isin(dec1.overlap_elements[i],
                                  dec2.overlap_elements[i]))
            assert dec2.overlap_elements[i].size > dec1.overlap_elements[i].size

    def test_ghost_disjoint_from_overlap(self):
        m = unit_square(8, 8)
        dec = msh.partition_structured(m, 2, 2)
        msh.extend_overlap(dec, msh.dual_graph(m), 1)
        msh.ghost_layer(dec, m)
        for i in range(4):
            assert np.intersect1d(dec.overlap_elements[i],
                                  dec.ghost_elements[i]).size == 0

    @pytest.mark.parametrize("layers", [0, 1, 2])
    @pytest.mark.parametrize("graph", ["dual", "nodal"])
    def test_layers_match_a_loop_over_subdomains(self, graph, layers):
        """The overlaps and ghost rings, grown for all subdomains at once,
        are the sorted element arrays of one matvec per subdomain and
        layer, dtype included, on 3 x 3 subdomains of unequal
        neighbourhoods."""
        m = unit_square(12, 12)
        g = getattr(msh, f"{graph}_graph")(m)
        dec = msh.partition_structured(m, 3, 3)
        msh.extend_overlap(dec, g, layers)
        msh.ghost_layer(dec, m)
        nodal = msh.nodal_graph(m)
        for i in range(dec.num_subdomains):
            ind = dec.owner == i
            for _ in range(layers):
                ind = ind | (g @ ind).astype(bool)
            ring = (nodal @ ind).astype(bool) & ~ind
            for got, expect in ((dec.overlap_elements[i], np.flatnonzero(ind)),
                                (dec.ghost_elements[i], np.flatnonzero(ring))):
                assert got.dtype == expect.dtype
                np.testing.assert_array_equal(got, expect)


class TestGraphs:
    def test_dual_graph_symmetric_bounded(self):
        m = unit_square(6, 6)
        g = msh.dual_graph(m)
        assert (g != g.T).nnz == 0
        # a triangle has at most three edge neighbors
        assert g.getnnz(axis=1).max() <= 3

    def test_nodal_graph_contains_dual(self):
        m = unit_square(6, 6)
        gd = msh.dual_graph(m)
        gn = msh.nodal_graph(m)
        assert (gn != gn.T).nnz == 0
        # edge adjacency implies node adjacency
        diff = gd - gd.multiply(gn > 0)
        assert diff.nnz == 0


class TestInterfaceSkeleton:
    def test_cross_vertex_2x2(self):
        m = unit_square(8, 8)
        dec = msh.partition_structured(m, 2, 2)
        skel = msh.interface_skeleton(dec, m)
        # the interface of a 2x2 partition is a plus sign: one interior
        # vertex at the center and four endpoints on the boundary
        center = np.flatnonzero((m.nodes[:, 0] == 0.5) & (m.nodes[:, 1] == 0.5))
        assert center[0] in skel.vertices
        assert len(skel.edges) == 4

    def test_one_subdomain_has_no_interface(self):
        m = unit_square(8, 8)
        skel = msh.interface_skeleton(msh.partition_structured(m, 1, 1), m)
        for nodes in (skel.interface_nodes, skel.vertices):
            assert nodes.dtype == np.int64 and nodes.size == 0
        assert skel.edges == []

    def test_interface_nodes_shared(self):
        m = unit_square(8, 8)
        dec = msh.partition_structured(m, 2, 2)
        counts = msh.node_subdomain_counts(m, dec)
        mult = np.asarray((counts > 0).sum(axis=1)).ravel()
        skel = msh.interface_skeleton(dec, m)
        np.testing.assert_array_equal(skel.interface_nodes,
                                      np.flatnonzero(mult >= 2))

    def test_runs_cover_interface(self):
        m = unit_square(12, 12)
        dec = msh.partition_structured(m, 3, 3)
        skel = msh.interface_skeleton(dec, m)
        covered = set(skel.vertices.tolist())
        for run in skel.edges:
            covered.update(run.interior.tolist())
            assert run.start in skel.vertices and run.end in skel.vertices
        assert covered == set(skel.interface_nodes.tolist())

    def test_runs_are_chains(self):
        m = unit_square(12, 12)
        dec = msh.partition_structured(m, 3, 3)
        skel = msh.interface_skeleton(dec, m)
        for run in skel.edges:
            chain = np.concatenate([[run.start], run.interior, [run.end]])
            steps = np.linalg.norm(np.diff(m.nodes[chain], axis=0), axis=1)
            h = 1.0 / 12
            assert np.all(steps <= np.sqrt(2) * h + 1e-12)
