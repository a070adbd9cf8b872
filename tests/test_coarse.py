"""Coarse space tests: interface functions, extension, dense oracles."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from nlschwarz import assembly as asm
from nlschwarz import cli
from nlschwarz import coarse as crs
from nlschwarz import mesh as msh


def decomposed(kind="diffusion", nx=12, px=3, overlap=2, domain=None, Re=10.0,
               fy=1.0):
    if kind == "ldc":
        prob = asm.ldc_problem(Re)
        m = msh.build_structured_mesh(nx, nx, problem_kind="ldc")
    elif kind == "beam":
        prob = asm.beam_problem(fy)
        m = msh.build_structured_mesh(nx, nx // px,
                                      domain=domain or (0, 5, 0, 1),
                                      problem_kind="beam")
    else:
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(nx, nx, problem_kind="diffusion")
    dm = asm.build_dofmap(prob, m)
    dec = msh.partition_structured(m, px, px if kind != "beam" else 1)
    msh.extend_overlap(dec, msh.dual_graph(m), overlap)
    msh.ghost_layer(dec, m)
    skel = msh.interface_skeleton(dec, m)
    return prob, m, dm, dec, skel


ALL_KINDS = [("gdsw", False), ("rgdsw", False), ("msfem", False),
             ("rgdsw", True), ("msfem", True)]


def reproduced(P0, labels, iface, name, z):
    """The mode `name`, z, from P0: the sum of the mode's columns if it kept
    one on every entity of its family, else the combination of all columns
    that fits z on the interface DOFs `iface` best."""
    ents = {nm: {e for e, n in labels if n == nm} for _, nm in labels}
    family = set().union(*(s for s in ents.values() if s & ents[name]))
    if ents[name] == family:
        cols = [c for c, (_, nm) in enumerate(labels) if nm == name]
        return np.asarray(P0[:, cols].sum(axis=1)).ravel()
    return P0 @ np.linalg.lstsq(P0[iface].toarray(), z[iface], rcond=None)[0]


class TestInterfaceFunctions:
    @pytest.mark.parametrize("kind,modified", ALL_KINDS)
    def test_partition_of_unity_nodes_and_midpoints(self, kind, modified):
        prob, m, dm, dec, skel = decomposed("diffusion")
        ents = crs.interface_functions(m, skel, kind, modified=modified)
        node_sum = np.zeros(m.n_nodes)
        mid_sum = {}
        for e in ents:
            node_sum[e.nodes] += e.node_values
            for pair, v in zip(map(tuple, e.mid_pairs), e.mid_values):
                mid_sum[pair] = mid_sum.get(pair, 0.0) + v
        gamma_prime = skel.interface_nodes[
            ~m.dirichlet_nodes[skel.interface_nodes]]
        assert np.abs(node_sum[gamma_prime] - 1.0).max() < 1e-12
        dir_nodes = skel.interface_nodes[
            m.boundary_tag[skel.interface_nodes] == msh.DIRICHLET]
        assert np.abs(node_sum[dir_nodes]).max() == 0.0
        interior_mid = [p for p in mid_sum
                        if m.boundary_tag[p[0]] != msh.DIRICHLET
                        or m.boundary_tag[p[1]] != msh.DIRICHLET]
        assert interior_mid
        assert max(abs(mid_sum[p] - 1.0) for p in interior_mid) < 1e-12

    def test_gdsw_entity_count(self):
        prob, m, dm, dec, skel = decomposed("diffusion")
        ents = crs.interface_functions(m, skel, "gdsw")
        n_vert = sum(1 for e in ents if e.kind == "vertex")
        n_edge = sum(1 for e in ents if e.kind == "edge")
        # 3x3 partition: 4 interior cross vertices, 12 interface runs
        assert n_vert == 4
        assert n_edge == 12

    def test_reduced_spaces_are_vertex_based(self):
        prob, m, dm, dec, skel = decomposed("diffusion")
        for kind in ("rgdsw", "msfem"):
            ents = crs.interface_functions(m, skel, kind)
            assert len(ents) == 4  # one per eligible vertex

    def test_unmodified_requires_eligible_vertex(self):
        # a 2x1 partition has a single run between two Dirichlet endpoints
        prob, m, dm, dec, skel = decomposed("diffusion", nx=8, px=2)
        dec = msh.partition_structured(m, 2, 1)
        skel = msh.interface_skeleton(dec, m)
        for kind in ("rgdsw", "msfem"):
            with pytest.raises(ValueError):
                crs.interface_functions(m, skel, kind)
            ents = crs.interface_functions(m, skel, kind, modified=True)
            assert len(ents) >= 1

    def test_modified_decays_toward_dirichlet(self):
        prob, m, dm, dec, skel = decomposed("diffusion")
        ents = crs.interface_functions(m, skel, "msfem", modified=True)
        # pick a run that ends on the boundary and check monotone decay of
        # the total towards the Dirichlet endpoint is below one
        node_sum = np.zeros(m.n_nodes)
        for e in ents:
            if e.kind != "filler":
                node_sum[e.nodes] += e.node_values
        for run in skel.edges:
            for end in (run.start, run.end):
                if m.boundary_tag[end] == msh.DIRICHLET and run.interior.size:
                    nearest = run.interior[0] if end == run.start \
                        else run.interior[-1]
                    assert node_sum[nearest] < 1.0 - 1e-6

    def test_unknown_kind_raises(self):
        prob, m, dm, dec, skel = decomposed("diffusion")
        with pytest.raises(ValueError):
            crs.interface_functions(m, skel, "wavelet")


class TestInterfaceBasis:
    def test_dirichlet_rows_zero(self):
        prob, m, dm, dec, skel = decomposed("ldc")
        Phi, ents, labels = crs.coarse_interface_basis(prob, m, dm, skel,
                                                       "gdsw")
        assert Phi[dm.dirichlet_mask].nnz == 0

    def test_ldc_fields_decoupled(self):
        prob, m, dm, dec, skel = decomposed("ldc")
        Phi, ents, labels = crs.coarse_interface_basis(prob, m, dm, skel,
                                                       "rgdsw")
        assert {name for _, name in labels} == {"ux", "uy", "rot", "p"}
        for c, (_, name) in enumerate(labels):
            rows = Phi[:, c].tocoo().row
            inside = np.zeros(rows.size, dtype=bool)
            for f in map(dm.field, {"rot": ["ux", "uy"]}.get(name, [name])):
                inside |= (rows >= f.offset) & (rows < f.offset + f.n_dofs)
            assert np.all(inside)

    def test_beam_modes(self):
        prob, m, dm, dec, skel = decomposed("beam", nx=12, px=3)
        Phi, ents, labels = crs.coarse_interface_basis(prob, m, dm, skel,
                                                       "gdsw")
        # at a single node the rotation is a combination of the translations
        modes = {"vertex": ["tx", "ty"], "edge": ["tx", "ty", "rot"]}
        assert labels == [(i, nm) for i, e in enumerate(ents)
                          for nm in modes[e.kind]]
        assert Phi.shape[1] == len(labels)


class TestHarmonicExtension:
    def test_interior_residual_small(self):
        # the monolithic extension with the full saddle-point tangent is
        # harmonic in every field at once, off-field blocks included
        prob, m, dm, dec, skel = decomposed("ldc")
        u0 = asm.initial_iterate(prob, dm)
        A0 = asm.assemble_tangent(prob, m, dm, u0)
        Phi, ents, labels = crs.coarse_interface_basis(prob, m, dm, skel,
                                                       "rgdsw", True)
        iface = crs.interface_dofs(dm, skel)
        P0 = crs.harmonic_extension(A0, dm, iface, Phi, dec)
        fixed = np.zeros(dm.n_dofs, dtype=bool)
        fixed[iface] = True
        fixed |= dm.dirichlet_mask
        R = (A0 @ P0).toarray()[~fixed]
        scale = np.abs((A0 @ P0).toarray()).max()
        assert np.abs(R).max() / scale < 1e-10

    def test_per_subdomain_matches_global(self):
        """The extension solved one subdomain at a time equals the global
        interior solve -A_II^{-1} A_IB Phi_B, computed densely."""
        prob, m, dm, dec, skel = decomposed("ldc")
        assert dm.n_dofs == 1419
        u0 = asm.initial_iterate(prob, dm)
        A0 = asm.assemble_tangent(prob, m, dm, u0)
        P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, "gdsw")
        Phi, _, _ = crs.coarse_interface_basis(prob, m, dm, skel, "gdsw")
        fixed = np.zeros(dm.n_dofs, dtype=bool)
        fixed[crs.interface_dofs(dm, skel)] = True
        fixed |= dm.dirichlet_mask
        I = np.flatnonzero(~fixed)
        B = np.flatnonzero(fixed)
        Ad = A0.toarray()
        phi_I = -np.linalg.solve(Ad[np.ix_(I, I)],
                                 Ad[np.ix_(I, B)] @ Phi.toarray()[B])
        assert np.abs(P0.toarray()[I] - phi_I).max() < 1e-11

    def test_dense_schur_oracle_two_subdomains(self):
        """Columns equal -A_II^{-1} A_IB phi_B computed densely."""
        prob, m, dm, dec, skel = decomposed("diffusion", nx=8, px=2)
        dec = msh.partition_structured(m, 2, 1)
        skel = msh.interface_skeleton(dec, m)
        u0 = asm.initial_iterate(prob, dm)
        A0 = asm.assemble_tangent(prob, m, dm, u0)
        Phi, ents, labels = crs.coarse_interface_basis(prob, m, dm, skel,
                                                       "msfem", True)
        iface = crs.interface_dofs(dm, skel)
        P0 = crs.harmonic_extension(A0, dm, iface, Phi, dec)
        fixed = np.zeros(dm.n_dofs, dtype=bool)
        fixed[iface] = True
        fixed |= dm.dirichlet_mask
        I = np.flatnonzero(~fixed)
        B = np.flatnonzero(fixed)
        Ad = A0.toarray()
        phi_I = -np.linalg.solve(Ad[np.ix_(I, I)],
                                 Ad[np.ix_(I, B)] @ Phi.toarray()[B])
        P0d = P0.toarray()
        np.testing.assert_allclose(P0d[I], phi_I, rtol=0, atol=1e-10)
        np.testing.assert_allclose(P0d[B], Phi.toarray()[B], atol=1e-15)


class TestBuildCoarseSpace:
    @pytest.mark.parametrize("case,kind,modified", [
        (dict(kind="ldc", Re=400.0), "rgdsw", False),
        (dict(kind="beam", nx=16, px=4), "msfem", True),
    ], ids=["cavity", "beam"])
    def test_matches_explicit_pipeline(self, case, kind, modified):
        """The decomposition alone gives P0 bitwise equal to the extension
        with the explicit skeleton and the tangent at the initial iterate."""
        prob, m, dm, dec, skel = decomposed(**case)
        P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, kind, modified)
        A0 = asm.assemble_tangent(prob, m, dm, asm.initial_iterate(prob, dm))
        Phi, _, _ = crs.coarse_interface_basis(prob, m, dm, skel, kind,
                                               modified)
        expect = crs.harmonic_extension(A0, dm, crs.interface_dofs(dm, skel),
                                        Phi, dec)
        assert P0.shape == expect.shape
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(P0, name),
                                          getattr(expect, name))

    @pytest.mark.parametrize("cfg,kind,modified,digest", [
        ({"problem": "ldc", "re": 400, "subdomains": [4, 4], "hh": 10},
         "rgdsw", False,
         "043c17f660aae966dc2fbe5366f188021257e711a12b101207c6a9998949f5f9"),
        ({"problem": "ldc", "subdomains": [2, 2], "hh": 6}, "gdsw", False,
         "54f509665dd5566f784e6adb558b8b9d229e25f977e3d250020f466ced768e67"),
        ({"problem": "beam", "subdomains": [4, 4], "hh": 4}, "msfem", True,
         "024f59f92fd1a0aa09e0c581fc2aeb14aa91238795cce779f04e790676904b9d"),
        ({"problem": "diffusion", "subdomains": [3, 3], "hh": 5}, "rgdsw",
         True,
         "890dea70c113e1c05c3c5bd05c6dfcd959c5660cf88459c32c5aa687112212dc")],
        ids=["cavity-4x4-rgdsw", "cavity-2x2-gdsw", "beam-4x4-msfem-modified",
             "diffusion-3x3-rgdsw-modified"])
    def test_pinned_basis(self, cfg, kind, modified, digest):
        """P0 of `nlschwarz run` configs, bit for bit: the SHA-256 of its
        shape (two int64) and its CSR `indptr`, `indices` and `data`.  The
        first case is the benchmark cavity's P0.  A change that alters P0
        on purpose updates the digests, which

            PYTHONPATH=src python -m pytest tests/test_coarse.py -k pinned_basis

        prints in its failure messages, and says why they changed."""
        prob, m, dm, px, py = cli._build_case(cfg, {})
        dec = cli._decompose(m, px, py, 2, nks=False)
        P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, kind, modified)
        h = hashlib.sha256(np.array(P0.shape, dtype=np.int64).tobytes())
        for a in (P0.indptr, P0.indices, P0.data):
            h.update(a.tobytes())
        assert h.hexdigest() == digest, h.hexdigest()


class TestNullspaceReproduction:
    @pytest.mark.parametrize("kind,modified", [("gdsw", False),
                                               ("msfem", True)])
    @pytest.mark.parametrize("problem_kind", ["diffusion", "beam", "ldc"])
    def test_interior_subdomain(self, problem_kind, kind, modified):
        prob, m, dm, dec, skel = decomposed(problem_kind, nx=12, px=3)
        P0, ents, labels = crs.build_coarse_space(prob, m, dm, dec, kind,
                                                  modified)
        # interior subdomain: one not touching the physical boundary
        interior_sub = 4 if problem_kind != "beam" else 1
        owned = np.flatnonzero(dec.owner == interior_sub)
        dofs = asm.subset_dofs(dm, m, owned)
        dofs = dofs[~dm.dirichlet_mask[dofs]]
        iface = crs.interface_dofs(dm, skel)
        iface = iface[~dm.dirichlet_mask[iface]]
        for name, z in asm.nullspace_basis(prob, dm).items():
            x = reproduced(P0, labels, iface, name, z)
            err = np.linalg.norm(x[dofs] - z[dofs]) / np.linalg.norm(z[dofs])
            assert err < 1e-9, (name, err)


class TestCavityRotation:
    """Every cavity coarse space spans the velocity's rigid rotation (-y, x)
    on the interface, as it spans the two translations."""

    @pytest.mark.parametrize("kind,rot_columns,dim", [
        ("gdsw", {"edge": 24}, 135), ("rgdsw", {"vertex": 9}, 48),
        ("msfem", {"vertex": 9}, 48)])
    def test_rotation_in_span(self, kind, rot_columns, dim):
        prob, m, dm, dec, skel = decomposed("ldc", nx=16, px=4)
        P0, ents, labels = crs.build_coarse_space(prob, m, dm, dec, kind)
        iface = crs.interface_dofs(dm, skel)
        velocity = np.concatenate([
            np.arange(f.offset, f.offset + f.n_dofs)
            for f in map(dm.field, ("ux", "uy"))])
        rows = np.intersect1d(iface[~dm.dirichlet_mask[iface]], velocity)
        ux = dm.field("ux")
        on_x = (rows >= ux.offset) & (rows < ux.offset + ux.n_dofs)
        rot = np.where(on_x, -dm.dof_coords[rows, 1], dm.dof_coords[rows, 0])
        A = P0[rows].toarray()
        fit = A @ np.linalg.lstsq(A, rot, rcond=None)[0]
        assert np.linalg.norm(fit - rot) / np.linalg.norm(rot) < 1e-12
        # at a GDSW vertex, a single node, the rotation is a combination of
        # the translations, so its column goes, as for the beam
        kinds = [ents[e].kind for e, name in labels if name == "rot"]
        assert {k: kinds.count(k) for k in kinds} == rot_columns
        assert P0.shape[1] == dim


class TestCoarseDimensions:
    """(columns, nnz) of P0 for the five spaces, in `ALL_KINDS` order."""

    CASES = {
        "diffusion": (dict(kind="diffusion"),
                      [(16, 256), (4, 196), (4, 196), (12, 364), (12, 364)]),
        "ldc": (dict(kind="ldc", Re=400.0),
                [(68, 18103), (24, 9390), (24, 9390), (48, 14984),
                 (47, 14746)]),
        "beam": (dict(kind="beam", nx=16, px=4, fy=1.0),
                 [(21, 1308), (18, 1173), (15, 969), (18, 1173),
                  (15, 969)]),
    }

    @staticmethod
    def dims(case, kind, modified):
        prob, m, dm, dec, skel = decomposed(**case)
        P0, _, _ = crs.build_coarse_space(prob, m, dm, dec, kind, modified)
        return P0.shape[1], P0.nnz

    @pytest.mark.parametrize("problem_kind", list(CASES))
    def test_pinned(self, problem_kind):
        case, expected = self.CASES[problem_kind]
        got = [self.dims(case, k, mod) for k, mod in ALL_KINDS]
        assert got == expected
        n_gdsw, n_rgdsw, n_msfem = (got[0][0], got[1][0], got[2][0])
        assert n_gdsw > n_rgdsw
        if problem_kind == "beam":
            # on the one-row strip MsFEM loses one rotation per run
            assert n_rgdsw > n_msfem
        else:
            assert n_rgdsw == n_msfem

    def test_bench_cavity(self):
        # the 40x40 cavity on 4x4 subdomains of bench/README.md
        case = dict(kind="ldc", nx=40, px=4, Re=400.0)
        assert self.dims(case, "rgdsw", False) == (48, 139299)


class TestCoarseRank:
    """P0 has full column rank: dependent columns go at build time."""

    @pytest.mark.parametrize("kind,modified", ALL_KINDS)
    @pytest.mark.parametrize("problem_kind,px,py", [
        ("diffusion", 2, 2), ("diffusion", 3, 3), ("ldc", 2, 2), ("ldc", 3, 3),
        ("beam", 2, 2), ("beam", 3, 3), ("beam", 4, 1)])
    def test_full_column_rank(self, problem_kind, px, py, kind, modified):
        prob = {"diffusion": asm.diffusion_problem(),
                "ldc": asm.ldc_problem(400.0),
                "beam": asm.beam_problem(1.0)}[problem_kind]
        domain = (0, 5, 0, 1) if problem_kind == "beam" else (0, 1, 0, 1)
        m = msh.build_structured_mesh(4 * px, 4 * py, domain=domain,
                                      problem_kind=problem_kind)
        dm = asm.build_dofmap(prob, m)
        dec = msh.partition_structured(m, px, py)
        P0, _, labels = crs.build_coarse_space(prob, m, dm, dec, kind,
                                               modified)
        assert P0.shape[1] == len(labels) > 0
        assert np.linalg.matrix_rank(P0.toarray()) == P0.shape[1]
