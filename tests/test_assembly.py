"""Finite element assembly tests: FD oracles, boundary data, locality."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from nlschwarz import assembly as asm
from nlschwarz import mesh as msh


def fd_jacobian(problem, mesh, dofmap, u, eps=1e-6):
    n = dofmap.n_dofs
    J = np.zeros((n, n))
    for j in range(n):
        d = np.zeros(n)
        d[j] = eps
        rp = asm.assemble_residual(problem, mesh, dofmap, u + d)
        rm = asm.assemble_residual(problem, mesh, dofmap, u - d)
        J[:, j] = (rp - rm) / (2 * eps)
    return J


def random_state(problem, dofmap, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    u = asm.initial_iterate(problem, dofmap)
    pert = scale * rng.standard_normal(dofmap.n_dofs)
    pert[dofmap.dirichlet_mask] = 0.0
    return u + pert


def without_dirichlet(dofmap):
    """The DofMap with no Dirichlet DOFs, for oracles of the bare operator.
    `replace` copies the cached full-mesh plan, which has Dirichlet rows."""
    return dataclasses.replace(
        dofmap, dirichlet_mask=np.zeros_like(dofmap.dirichlet_mask), plan=None)


class TestDofMap:
    def test_diffusion_sizes(self):
        m = msh.build_structured_mesh(4, 4, problem_kind="diffusion")
        dm = asm.build_dofmap(asm.diffusion_problem(), m)
        assert dm.n_dofs == m.n_nodes
        assert len(dm.fields) == 1

    def test_ldc_sizes(self):
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(asm.ldc_problem(10.0), m)
        n_edges = dm.edges.shape[0]
        assert dm.n_dofs == 2 * (m.n_nodes + n_edges) + m.n_nodes
        assert [f.name for f in dm.fields] == ["ux", "uy", "p"]
        assert [f.order for f in dm.fields] == [2, 2, 1]

    def test_beam_sizes(self):
        m = msh.build_structured_mesh(8, 2, domain=(0, 5, 0, 1),
                                      problem_kind="beam")
        dm = asm.build_dofmap(asm.beam_problem(1.0), m)
        assert dm.n_dofs == 2 * m.n_nodes

    def test_lid_dirichlet_values(self):
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(asm.ldc_problem(10.0), m)
        u0 = asm.initial_iterate(asm.ldc_problem(10.0), dm)
        lid_nodes = np.flatnonzero(m.boundary_tag == msh.LID)
        assert np.all(u0[dm.node_dofs("ux", lid_nodes)] == 1.0)
        assert np.all(u0[dm.node_dofs("uy", lid_nodes)] == 0.0)
        # lid midpoints carry the lid value too
        on_lid = np.all(m.nodes[dm.edges][:, :, 1] == 1.0, axis=1)
        mids = np.flatnonzero(on_lid)
        assert mids.size > 0
        assert np.all(u0[dm.edge_dofs("ux", mids)] == 1.0)
        # walls are homogeneous
        wall = np.flatnonzero(m.boundary_tag == msh.DIRICHLET)
        assert np.all(u0[dm.node_dofs("ux", wall)] == 0.0)

    def test_pressure_pin_masked(self):
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(asm.ldc_problem(10.0), m)
        pin_dof = dm.node_dofs("p", np.array([m.pin_node]))[0]
        assert dm.dirichlet_mask[pin_dof]
        assert dm.dirichlet_value[pin_dof] == 0.0


class TestTangentConsistency:
    """The assembled tangent is the FD derivative of the residual (oracle)."""

    def check(self, problem, mesh, scale, rtol, seed=0):
        dm = asm.build_dofmap(problem, mesh)
        u = random_state(problem, dm, seed, scale)
        A = asm.assemble_tangent(problem, mesh, dm, u).toarray()
        J = fd_jacobian(problem, mesh, dm, u)
        err = np.abs(A - J).max() / max(np.abs(J).max(), 1.0)
        assert err < rtol

    def test_nonlinear_diffusion(self):
        m = msh.build_structured_mesh(4, 4, problem_kind="diffusion")
        self.check(asm.diffusion_problem("nonlinear"), m, 0.3, 1e-7)

    def test_ldc(self):
        m = msh.build_structured_mesh(3, 3, problem_kind="ldc")
        self.check(asm.ldc_problem(50.0), m, 0.2, 1e-7)

    def test_beam(self):
        m = msh.build_structured_mesh(6, 2, domain=(0, 5, 0, 1),
                                      problem_kind="beam")
        prob = asm.beam_problem(1.0, E=10.0, nu=0.3)
        self.check(prob, m, 0.05, 1e-6)


def linear_fields(mesh, values):
    """Per element: the area and the constant gradient (m, k, 2) of the
    linear interpolants of `values` (n_nodes, k), from the edge vectors."""
    xy = mesh.nodes[mesh.elements]
    X = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=2)
    v = values[mesh.elements]
    V = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    return 0.5 * np.linalg.det(X), V @ np.linalg.inv(X)


class TestWeakFormOracles:
    """The P1 residuals and tangents against oracles written from the weak
    form, at general states; the FD tests above check K against r only."""

    def test_beam_residual_is_the_energy_gradient(self):
        """r = dPi/du for Pi(u) = sum_e area_e [W(F_e) - f . mean_e(u)],
        W(F) = mu/2 (tr F^T F - 2) - mu ln J + lambda/2 (ln J)^2, by
        central differences."""
        E, nu, f_y = 10.0, 0.3, 1e-5        # body force 10, of the order of E
        mu, lam = E / (1 + nu), E * nu / ((1 + nu) * (1 - 2 * nu))
        f = np.array([0.0, -f_y * 1e6])
        prob = asm.beam_problem(f_y, E=E, nu=nu)
        m = msh.build_structured_mesh(6, 2, domain=(0, 5, 0, 1),
                                      problem_kind="beam")
        dm = without_dirichlet(asm.build_dofmap(prob, m))
        n = m.n_nodes
        rng = np.random.default_rng(4)
        # a 20% stretch along the beam and a random perturbation
        u = np.concatenate([0.2 * m.nodes[:, 0], np.zeros(n)])
        u += 0.01 * rng.standard_normal(2 * n)

        def energy(u):
            disp = np.stack([u[:n], u[n:]], axis=1)
            area, H = linear_fields(m, disp)
            F = H + np.eye(2)
            lnJ = np.log(np.linalg.det(F))
            W = mu / 2 * ((F ** 2).sum(axis=(1, 2)) - 2) - mu * lnJ \
                + lam / 2 * lnJ ** 2
            return (area * (W - disp[m.elements].mean(axis=1) @ f)).sum(), lnJ

        assert energy(u)[1].min() > 0.1
        eps = 1e-6
        grad = np.array([(energy(u + eps * e)[0] - energy(u - eps * e)[0])
                         / (2 * eps) for e in np.eye(2 * n)])
        r = asm.assemble_residual(prob, m, dm, u)
        assert np.abs(r - grad).max() <= 1e-7 * np.abs(grad).max()

    @pytest.mark.parametrize("law", asm.DIFFUSION_LAWS)
    def test_diffusion_matches_a_loop_over_points_and_nodes(self, law):
        """r_a = sum_q w_q (c(u_q) grad u . grad phi_a - S phi_a(x_q)) and
        K_ab = sum_q w_q (c(u_q) grad phi_a . grad phi_b
                          + c'(u_q) phi_b(x_q) grad u . grad phi_a),
        with the 3-point rule of points (2/3, 1/6, 1/6) and weights area/3."""
        prob = asm.diffusion_problem(law)
        m = msh.build_structured_mesh(2, 2, problem_kind="diffusion")
        dm = without_dirichlet(asm.build_dofmap(prob, m))
        u = np.random.default_rng(5).standard_normal(m.n_nodes)

        def c(v):
            return asm.DIFFUSION_C0 + (v ** 2 if law == "nonlinear" else 0.0)

        def dc(v):
            return 2 * v if law == "nonlinear" else 0.0

        points = np.full((3, 3), 1 / 6) + np.eye(3) / 2
        area, grad_phi = linear_fields(m, np.eye(m.n_nodes))
        r = np.zeros(m.n_nodes)
        K = np.zeros((m.n_nodes, m.n_nodes))
        for e, nodes in enumerate(m.elements):
            gu = u @ grad_phi[e]
            for phi in points:
                w, uq = area[e] / 3, phi @ u[nodes]
                for i, a in enumerate(nodes):
                    r[a] += w * (c(uq) * gu @ grad_phi[e, a]
                                 - asm.DIFFUSION_SOURCE * phi[i])
                    for j, b in enumerate(nodes):
                        K[a, b] += w * (c(uq) * grad_phi[e, a] @ grad_phi[e, b]
                                        + dc(uq) * phi[j] * gu @ grad_phi[e, a])
        np.testing.assert_allclose(asm.assemble_residual(prob, m, dm, u), r,
                                   rtol=0, atol=1e-14 * np.abs(r).max())
        np.testing.assert_allclose(asm.assemble_tangent(prob, m, dm, u).toarray(),
                                   K, rtol=0, atol=1e-14 * np.abs(K).max())


class TestResidualProperties:
    def test_linear_diffusion_is_linear(self):
        prob = asm.diffusion_problem("constant")
        m = msh.build_structured_mesh(5, 5, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        A = asm.assemble_tangent(prob, m, dm, np.zeros(dm.n_dofs))
        rng = np.random.default_rng(1)
        u = rng.standard_normal(dm.n_dofs)
        r0 = asm.assemble_residual(prob, m, dm, np.zeros(dm.n_dofs))
        r = asm.assemble_residual(prob, m, dm, u)
        np.testing.assert_allclose(r, A @ u + r0, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("law", ["bogus", ["constant"]])
    def test_unknown_diffusion_law_raises(self, law):
        with pytest.raises(ValueError, match="unknown diffusion law"):
            asm.diffusion_problem(law)

    def test_ldc_residual_affine_in_inverse_reynolds(self):
        """F(u; Re) = a/Re + b at fixed u: check r(1) - r(2) = 2(r(2) - r(4))."""
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        rs = []
        for Re in (1.0, 2.0, 4.0):
            prob = asm.ldc_problem(Re)
            dm = asm.build_dofmap(prob, m)
            u = random_state(prob, dm, 2, 0.2)
            rs.append(asm.assemble_residual(prob, m, dm, u))
        np.testing.assert_allclose(rs[0] - rs[1], 2 * (rs[1] - rs[2]),
                                   rtol=1e-10, atol=1e-12)

    def test_beam_zero_load_equilibrium(self):
        prob = asm.beam_problem(0.0)
        m = msh.build_structured_mesh(8, 2, domain=(0, 5, 0, 1),
                                      problem_kind="beam")
        dm = asm.build_dofmap(prob, m)
        r = asm.assemble_residual(prob, m, dm, np.zeros(dm.n_dofs))
        assert np.linalg.norm(r) == 0.0

    def test_beam_linear_elasticity_limit(self):
        """At u=0 the Neo-Hookean tangent is isotropic linear elasticity.

        Oracle: the tangent must be symmetric, reproduce zero energy on
        rigid modes and positive energy on every other direction.
        """
        prob = asm.beam_problem(0.0, E=100.0, nu=0.3)
        m = msh.build_structured_mesh(6, 2, domain=(0, 3, 0, 1),
                                      problem_kind="beam")
        dm = asm.build_dofmap(prob, m)
        A = asm.assemble_tangent(prob, m, without_dirichlet(dm),
                                 np.zeros(dm.n_dofs)).toarray()
        np.testing.assert_allclose(A, A.T, rtol=1e-10, atol=1e-10)
        for z in asm.nullspace_basis(prob, dm).values():
            assert np.linalg.norm(A @ z) < 1e-10 * np.linalg.norm(A)
        w = np.linalg.eigvalsh(A)
        assert w[0] > -1e-10 * w[-1]
        assert (w < 1e-10 * w[-1]).sum() == 3  # exactly the rigid modes

    def test_beam_nonphysical_state_raises(self):
        prob = asm.beam_problem(1.0)
        m = msh.build_structured_mesh(4, 2, domain=(0, 2, 0, 1),
                                      problem_kind="beam")
        dm = asm.build_dofmap(prob, m)
        u = np.zeros(dm.n_dofs)
        # collapse the elements: uniform x-compression beyond -100%
        u[dm.field("ux").offset:dm.field("ux").offset + m.n_nodes] = \
            -1.5 * m.nodes[:, 0]
        with pytest.raises(asm.NonPhysicalStateError):
            asm.assemble_residual(prob, m, dm, u)

    def test_dirichlet_rows(self):
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(4, 4, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        u = random_state(prob, dm, 3, 0.2)
        g = 0.7
        u2 = u.copy()
        u2[dm.dirichlet_mask] = g
        r = asm.assemble_residual(prob, m, dm, u2)
        # Dirichlet rows carry u_d - g_d; here g_d = 0
        np.testing.assert_allclose(r[dm.dirichlet_mask], g, rtol=1e-14)
        A = asm.assemble_tangent(prob, m, dm, u2).toarray()
        d = np.flatnonzero(dm.dirichlet_mask)
        np.testing.assert_allclose(A[d][:, d], np.eye(d.size), atol=1e-15)
        off = A[d][:, np.flatnonzero(~dm.dirichlet_mask)]
        assert np.abs(off).max() == 0.0


class TestSubsetAssembly:
    """Subset assembly over an element patch matches the global operator on
    rows whose DOFs see only patch elements (the ghost-layer principle)."""

    def interior_rows(self, dofmap, mesh, subset, dofs):
        all_elems = np.arange(mesh.n_elements)
        outside = np.setdiff1d(all_elems, subset)
        dofs_outside = asm.subset_dofs(dofmap, mesh, outside)
        return ~np.isin(dofs, dofs_outside)

    @pytest.mark.parametrize("kind", ["diffusion", "ldc", "beam"])
    def test_residual_locality(self, kind):
        if kind == "ldc":
            prob = asm.ldc_problem(20.0)
            m = msh.build_structured_mesh(6, 6, problem_kind="ldc")
        elif kind == "beam":
            prob = asm.beam_problem(1.0)
            m = msh.build_structured_mesh(12, 4, domain=(0, 5, 0, 1),
                                          problem_kind="beam")
        else:
            prob = asm.diffusion_problem()
            m = msh.build_structured_mesh(6, 6, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        u = random_state(prob, dm, 4, 0.02)
        subset = np.arange(m.n_elements // 2)
        dofs = asm.subset_dofs(dm, m, subset)
        r_loc = asm.assemble_residual(prob, m, dm, u, subset=subset)
        r_glob = asm.assemble_residual(prob, m, dm, u)
        rows = self.interior_rows(dm, m, subset, dofs)
        assert rows.sum() > 0
        np.testing.assert_allclose(r_loc[rows], r_glob[dofs][rows],
                                   rtol=1e-12, atol=1e-14)

    def test_subset_accepts_restricted_state(self):
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(6, 6, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        u = random_state(prob, dm, 5, 0.3)
        subset = np.arange(20)
        dofs = asm.subset_dofs(dm, m, subset)
        r_full = asm.assemble_residual(prob, m, dm, u, subset=subset)
        r_sub = asm.assemble_residual(prob, m, dm, u[dofs], subset=subset)
        np.testing.assert_allclose(r_sub, r_full, rtol=1e-14)


class TestGalerkinPlan:
    """`assemble_galerkin` over two halves of the elements adds up to the
    product P^T DF P with the assembled full-mesh tangent, for a basis P
    that vanishes on the Dirichlet DOFs."""

    @staticmethod
    def case(kind):
        prob, (nx, ny, domain) = TestPlanAgainstReference.CASES[kind]
        m = msh.build_structured_mesh(nx, ny, domain=domain, problem_kind=kind)
        dm = asm.build_dofmap(prob, m)
        P = sp.random(dm.n_dofs, 6, density=0.2, rng=np.random.default_rng(3),
                      format="csr")
        P = (sp.diags((~dm.dirichlet_mask).astype(float)) @ P).tocsr()
        return prob, m, dm, P

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("kind", ["diffusion", "ldc", "beam"])
    def test_halves_add_up_to_the_full_product(self, kind, chunked,
                                               monkeypatch):
        prob, m, dm, P = self.case(kind)
        if chunked:   # several chunks per half for every problem
            monkeypatch.setattr(asm, "_CHUNK", 2)
        u = random_state(prob, dm, 7, 0.05)
        DF = asm.assemble_tangent(prob, m, dm, u)
        expect = (P.T @ DF @ P).toarray()
        total = np.zeros_like(expect)
        for half in (0, 1):
            plan = asm.GalerkinPlan(m, dm, np.arange(half, m.n_elements, 2),
                                    prob, P)
            assert plan.chunk < plan.area.size or not chunked
            total[np.ix_(plan.cols, plan.cols)] += asm.assemble_galerkin(
                prob, u, plan)
        assert np.abs(total - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_plan_for_another_problem_raises(self):
        prob, m, dm, P = self.case("diffusion")
        plan = asm.GalerkinPlan(m, dm, np.arange(4), prob, P)
        with pytest.raises(ValueError, match="another problem"):
            asm.assemble_galerkin(asm.diffusion_problem("constant"),
                                  np.zeros(dm.n_dofs), plan)


class TestNullspace:
    def test_diffusion_constant(self):
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(4, 4, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        ((name, z),) = asm.nullspace_basis(prob, dm).items()
        assert name == "u"
        np.testing.assert_allclose(z, 1.0)

    def test_beam_rigid_modes(self):
        prob = asm.beam_problem(1.0)
        m = msh.build_structured_mesh(4, 2, domain=(0, 2, 0, 1),
                                      problem_kind="beam")
        dm = asm.build_dofmap(prob, m)
        zs = asm.nullspace_basis(prob, dm)
        assert list(zs) == ["tx", "ty", "rot"]
        rot = zs["rot"]
        np.testing.assert_allclose(rot[dm.node_dofs("ux", np.arange(m.n_nodes))],
                                   -m.nodes[:, 1])
        np.testing.assert_allclose(rot[dm.node_dofs("uy", np.arange(m.n_nodes))],
                                   m.nodes[:, 0])

    def test_ldc_per_field_constants(self):
        prob = asm.ldc_problem(10.0)
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(prob, m)
        zs = asm.nullspace_basis(prob, dm)
        assert list(zs) == ["ux", "uy", "rot", "p"]
        for f in dm.fields:
            z = zs[f.name]
            assert np.all(z[f.offset:f.offset + f.n_dofs] == 1.0)
            assert z.sum() == f.n_dofs
        # the velocity's rigid rotation (-y, x), on corners and midpoints
        ux, uy = dm.field("ux"), dm.field("uy")
        rot = zs["rot"]
        np.testing.assert_array_equal(
            rot[ux.offset:ux.offset + ux.n_dofs],
            -dm.dof_coords[ux.offset:ux.offset + ux.n_dofs, 1])
        np.testing.assert_array_equal(
            rot[uy.offset:uy.offset + uy.n_dofs],
            dm.dof_coords[uy.offset:uy.offset + uy.n_dofs, 0])
        assert not np.any(rot[dm.field("p").offset:])


def element_system(problem, G, area, ue):
    """Full element residuals and matrices: the state-dependent kernels on
    their DOFs plus, for the cavity, the constant Stokes part."""
    if problem.kind != "ldc":
        return asm._element_kernels(problem, G, area, ue, True)
    k = asm._LDC_VELOCITY
    r, K = asm._element_kernels(problem, G, area, ue[:, :k], True)
    S = asm._stokes_matrices(problem, G, area)
    rs = np.einsum("mab,mb->ma", S, ue)
    rs[:, :k] += r
    S[:, :k, :k] += K
    return rs, S


def reference_assembly(problem, mesh, dofmap, u, subset):
    """Residual and dense tangent from an element-by-element loop that adds
    each element's contribution with np.add.at, with the DofMap's Dirichlet
    rows."""
    elems = np.arange(mesh.n_elements) if subset is None else subset
    dofs = np.unique(dofmap.elem_dofs[elems])
    position = {g: i for i, g in enumerate(dofs)}
    u_loc = u if u.shape[0] == dofs.shape[0] else u[dofs]
    r = np.zeros(dofs.size)
    A = np.zeros((dofs.size, dofs.size))
    for e in elems:
        ids = np.array([position[g] for g in dofmap.elem_dofs[e]])
        G, area = asm._geometry(mesh, np.array([e]))
        re, Ke = element_system(problem, G, area, u_loc[ids][None, :])
        np.add.at(r, ids, re[0])
        np.add.at(A, (ids[:, None], ids[None, :]), Ke[0])
    d = np.flatnonzero(dofmap.dirichlet_mask[dofs])
    r[d] = u_loc[d] - dofmap.dirichlet_value[dofs[d]]
    A[d] = 0.0
    A[d, d] = 1.0
    return r, A


class TestPlanAgainstReference:
    """Plan-based assembly (gather, chunked scatter, sparse pattern with the
    Dirichlet trash slot) reproduces the element loop."""

    CASES = {
        "diffusion": (asm.diffusion_problem("nonlinear"), (5, 5, (0, 1, 0, 1))),
        "ldc": (asm.ldc_problem(30.0), (4, 4, (0, 1, 0, 1))),
        "beam": (asm.beam_problem(1.0, E=10.0, nu=0.3), (8, 2, (0, 5, 0, 1))),
    }

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("apply_dirichlet", [True, False])
    @pytest.mark.parametrize("scope", ["global", "subset", "subset_state"])
    @pytest.mark.parametrize("kind", ["diffusion", "ldc", "beam"])
    def test_matches_element_loop(self, kind, scope, apply_dirichlet, chunked,
                                  monkeypatch):
        prob, (nx, ny, domain) = self.CASES[kind]
        m = msh.build_structured_mesh(nx, ny, domain=domain, problem_kind=kind)
        dm = asm.build_dofmap(prob, m)
        u = random_state(prob, dm, 6, 0.05)
        if not apply_dirichlet:
            dm = without_dirichlet(dm)
        subset = None if scope == "global" else np.arange(3, m.n_elements, 2)
        dofs = None if subset is None else asm.subset_dofs(dm, m, subset)
        state = u[dofs] if scope == "subset_state" else u
        if chunked:
            monkeypatch.setattr(asm, "_CHUNK", 5)
        r_ref, A_ref = reference_assembly(prob, m, dm, u, subset)
        r = asm.assemble_residual(prob, m, dm, state, subset=subset)
        A = asm.assemble_tangent(prob, m, dm, state, subset=subset)
        assert np.abs(r - r_ref).max() <= 1e-14 * np.abs(r_ref).max()
        assert np.abs(A.toarray() - A_ref).max() <= 1e-14 * np.abs(A_ref).max()
        assert not np.any(A.data == 0.0)

    def test_prebuilt_plan_matches_throwaway(self):
        prob = asm.ldc_problem(30.0)
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(prob, m)
        subset = np.arange(10)
        plan = asm.AssemblyPlan(m, dm, subset, prob)
        for seed in (1, 2):
            u = random_state(prob, dm, seed, 0.1)
            np.testing.assert_array_equal(
                asm.assemble_residual(prob, m, dm, u, subset, plan=plan),
                asm.assemble_residual(prob, m, dm, u, subset))
            A = asm.assemble_tangent(prob, m, dm, u, subset, plan=plan)
            B = asm.assemble_tangent(prob, m, dm, u, subset)
            assert (A != B).nnz == 0

    @pytest.mark.parametrize("kind", ["diffusion", "ldc", "beam"])
    def test_chunking_changes_no_bit(self, kind, monkeypatch):
        """Kernels in chunks of 5 elements assemble the same bits as one
        chunk: the full mesh, a subset, and a subset that assembles only
        some of its rows."""
        prob, (nx, ny, domain) = self.CASES[kind]
        m = msh.build_structured_mesh(nx, ny, domain=domain, problem_kind=kind)
        dm = asm.build_dofmap(prob, m)
        subset = np.arange(3, m.n_elements, 2)
        rows = asm.subset_dofs(dm, m, np.arange(3, m.n_elements, 4))
        results = []
        for chunk in (m.n_elements, 5):
            monkeypatch.setattr(asm, "_CHUNK", chunk)
            dm.plan = None
            cases = [(None, None), (subset, asm.AssemblyPlan(m, dm, subset, prob)),
                     (subset, asm.AssemblyPlan(m, dm, subset, prob, rows=rows))]
            results.append([])
            for seed in (1, 2):
                u = random_state(prob, dm, seed, 0.05)
                for sub, plan in cases:
                    results[-1].append((
                        asm.assemble_residual(prob, m, dm, u, sub, plan=plan),
                        asm.assemble_tangent(prob, m, dm, u, sub, plan=plan)))
        for (r1, A1), (r5, A5) in zip(*results):
            np.testing.assert_array_equal(r5, r1)
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(A5, name),
                                              getattr(A1, name))

    def test_packed_sort_matches_argsort(self):
        keys = np.random.default_rng(8).integers(0, 1000, 5000)
        expect = np.argsort(keys, kind="stable")
        for bound in (1000, 2 ** 62):   # packed sort, then the argsort path
            order, sorted_keys = asm._sort_with_positions(keys.copy(), bound)
            np.testing.assert_array_equal(order, expect)
            np.testing.assert_array_equal(sorted_keys, keys[expect])

    def test_global_plan_is_cached_on_the_dofmap(self):
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(4, 4, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        assert asm.global_plan(m, dm, prob) is asm.global_plan(m, dm, prob)

    def test_full_mesh_calls_share_the_dofmap_plan(self):
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(4, 4, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        u = random_state(prob, dm, 7)
        assert dm.plan is None
        r = asm.assemble_residual(prob, m, dm, u)
        plan = dm.plan
        assert plan is not None and plan.is_global
        A = asm.assemble_tangent(prob, m, dm, u)
        np.testing.assert_array_equal(asm.assemble_residual(prob, m, dm, u), r)
        assert dm.plan is plan
        B = asm.assemble_tangent(prob, m, dm, u, plan=plan)
        assert (A != B).nnz == 0
        # a subset call leaves the full-mesh plan alone
        asm.assemble_residual(prob, m, dm, u, subset=np.arange(5))
        assert dm.plan is plan

    def test_plan_mismatch_raises(self):
        prob = asm.diffusion_problem()
        m = msh.build_structured_mesh(4, 4, problem_kind="diffusion")
        dm = asm.build_dofmap(prob, m)
        u = np.zeros(dm.n_dofs)
        sub_plan = asm.AssemblyPlan(m, dm, np.arange(6), prob)
        with pytest.raises(ValueError):
            asm.assemble_residual(prob, m, dm, u, plan=sub_plan)
        with pytest.raises(ValueError):
            asm.assemble_residual(prob, m, dm, u, subset=np.arange(8),
                                  plan=sub_plan)
        with pytest.raises(ValueError):
            asm.assemble_residual(prob, m, dm, np.zeros(5), plan=sub_plan,
                                  subset=np.arange(6))
        # as many elements, other ones
        with pytest.raises(ValueError, match="another element subset"):
            asm.assemble_residual(prob, m, dm, u, subset=np.arange(6, 12),
                                  plan=sub_plan)
        with pytest.raises(ValueError, match="rows must be DOFs"):
            asm.AssemblyPlan(m, dm, np.arange(6), prob,
                             rows=asm.subset_dofs(dm, m, np.arange(5, 8)))

    def test_plan_for_another_problem_raises(self):
        prob = asm.ldc_problem(30.0)
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(prob, m)
        u = random_state(prob, dm, 3)
        subset = np.arange(10)
        plan = asm.AssemblyPlan(m, dm, subset, prob)
        asm.assemble_residual(asm.ldc_problem(30.0), m, dm, u, subset, plan=plan)
        for assemble in (asm.assemble_residual, asm.assemble_tangent):
            with pytest.raises(ValueError, match="another problem"):
                assemble(asm.ldc_problem(400.0), m, dm, u, subset, plan=plan)

    def test_full_mesh_plan_follows_the_problem(self):
        """One mesh and DofMap assembled at two Reynolds numbers: the
        full-mesh plan is rebuilt for the second, and both match the
        element loop."""
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(asm.ldc_problem(30.0), m)
        plans = []
        for Re in (30.0, 400.0):
            prob = asm.ldc_problem(Re)
            u = random_state(prob, dm, 4, 0.1)
            r_ref, A_ref = reference_assembly(prob, m, dm, u, None)
            r = asm.assemble_residual(prob, m, dm, u)
            A = asm.assemble_tangent(prob, m, dm, u)
            assert np.abs(r - r_ref).max() <= 1e-14 * np.abs(r_ref).max()
            assert np.abs(A.toarray() - A_ref).max() <= \
                1e-14 * np.abs(A_ref).max()
            plans.append(dm.plan)
        assert plans[0] is not plans[1]
        assert [p.problem.Re for p in plans] == [30.0, 400.0]

    def test_stokes_part_assembled_once_per_chunk(self, monkeypatch):
        prob = asm.ldc_problem(30.0)
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(prob, m)
        monkeypatch.setattr(asm, "_CHUNK", 5)
        calls = []

        def counted(*args, _stokes=asm._stokes_matrices):
            calls.append(args[2].size)
            return _stokes(*args)
        monkeypatch.setattr(asm, "_stokes_matrices", counted)
        subset = np.arange(2, 24, 2)
        plan = asm.AssemblyPlan(m, dm, subset, prob)
        for seed in range(3):
            u = random_state(prob, dm, seed)
            asm.assemble_residual(prob, m, dm, u, subset, plan=plan)
            asm.assemble_tangent(prob, m, dm, u, subset, plan=plan)
        assert calls == [3, 4, 4]

    def test_plan_holds_the_velocity_scatter_only(self):
        prob = asm.ldc_problem(30.0)
        m = msh.build_structured_mesh(4, 4, problem_kind="ldc")
        dm = asm.build_dofmap(prob, m)
        plan = asm.AssemblyPlan(m, dm, np.arange(10), prob)
        assert plan.scatter.shape == (10, 144)
        # neither keeps the full element-to-slot map alive as its base
        for a in (plan.scatter, plan.diagonal):
            assert (a if a.base is None else a.base).nbytes == a.nbytes
        # the Stokes part keeps its nonzero entries only, each row in
        # global column order, with one pattern slot per entry
        S = plan.stokes
        assert S.nnz == plan.stokes_slot.size < plan.nnz
        assert np.all(S.data != 0.0)
        rows = np.repeat(np.arange(plan.n_rows), np.diff(S.indptr))
        cols = plan.dofs[S.indices]
        assert np.all((np.diff(rows) > 0) | (np.diff(cols) > 0))
        # the full-mesh plan keeps its Stokes part the same way
        full = asm.global_plan(m, dm, prob)
        assert full.stokes.nnz == full.stokes_slot.size < full.nnz
        assert np.all(full.stokes.data != 0.0)

    @pytest.mark.parametrize("kind", ["ldc", "beam", "diffusion"])
    def test_full_mesh_plan_is_the_all_rows_subset_plan(self, kind):
        prob, (nx, ny, domain) = self.CASES[kind]
        m = msh.build_structured_mesh(nx, ny, domain=domain, problem_kind=kind)
        dm = asm.build_dofmap(prob, m)
        full = asm.global_plan(m, dm, prob)
        plan = asm.AssemblyPlan(m, dm, np.arange(m.n_elements), prob)
        assert full.is_global and not plan.is_global
        for name in ("dofs", "indptr", "indices", "scatter", "diagonal",
                     "stokes_slot"):
            a, b = getattr(full, name), getattr(plan, name)
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b)
        if kind == "ldc":
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(full.stokes, name),
                                              getattr(plan.stokes, name))
        else:
            assert full.stokes is None and plan.stokes is None
