"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
one-line PASS summaries of the measured quantities).
"""

import math

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import subspace_angles

from trefftzdg import embedding as embedding_module
from trefftzdg.analysis import compute_errors, estimate_eoc
from trefftzdg.basis import BrokenSpace
from trefftzdg.coefficients import builtin_case, manufactured_case
from trefftzdg.dg_forms import assemble_global_system, assemble_volume_terms, global_system
from trefftzdg.embedding import build_embedding, compute_embedding
from trefftzdg.local_ops import (
    AR,
    DAR,
    DAR_BOX,
    QT_DIFFUSION,
    _leibniz_rows,
    assemble_local_operator,
    assemble_local_operators,
    operator_row_count,
)
from trefftzdg.mesh import Mesh2D, build_structured_mesh
from trefftzdg.quadrature import box_rule, triangle_rule
from trefftzdg.solver import solve_block_coupled, solve_embedded_trefftz, solve_standard_dg
from trefftzdg.coefficients import ScalarField

from projection import l2_projection


def sweep_errors(case, methods, p_list, n_list, sigma_rule=None, box_scale=0.25):
    # the data picks the DG form; without a sigma_rule the library's
    # default penalty applies
    coeffs = builtin_case(case)
    local = {"et": AR if case == "AR_EXAMPLE" else DAR, "etbox": DAR_BOX, "qt": QT_DIFFUSION}
    results = {m: [] for m in methods}
    for p in p_list:
        sigma = None if sigma_rule is None else sigma_rule(p)
        for n in n_list:
            mesh = build_structured_mesh(n)
            space = BrokenSpace(mesh, p)
            terms = assemble_volume_terms(space, coeffs, sigma=sigma)
            # dg last: its facet pass takes over the volume blocks
            for method in sorted(methods, key=lambda method: method == "dg"):
                if method == "dg":
                    solution = solve_standard_dg(global_system(terms))
                else:
                    emb = build_embedding(space, coeffs, local[method], box_scale=box_scale)
                    solution = solve_embedded_trefftz(terms, emb)
                report = compute_errors(solution, coeffs)
                results[method].append((p, n, report))
    return results


def ls_eoc(entries, p, attr):
    pairs = [(r.h, getattr(r, attr)) for (pp, n, r) in entries if pp == p]
    return estimate_eoc(pairs).least_squares


def test_criterion_01_ar_convergence():
    results = sweep_errors("AR_EXAMPLE", ("dg", "et"), (3, 4), (8, 16, 32, 64))
    summary = []
    for method in ("dg", "et"):
        for p in (3, 4):
            eoc_l2 = ls_eoc(results[method], p, "l2_error")
            eoc_dg = ls_eoc(results[method], p, "vh_error")
            assert eoc_l2 >= p + 0.8, (method, p, eoc_l2)
            assert eoc_dg >= p + 0.3, (method, p, eoc_dg)
            summary.append(f"{method}/p{p}: l2 {eoc_l2:.2f}, dg {eoc_dg:.2f}")
    print("ACCEPTANCE criterion-01 PASS (AR rates) " + "; ".join(summary))


def test_criterion_02_dar_convergence():
    results = sweep_errors("DAR_EXAMPLE", ("dg", "et"), (3, 4), (8, 16, 32))
    summary = []
    for method in ("dg", "et"):
        for p in (3, 4):
            eoc_l2 = ls_eoc(results[method], p, "l2_error")
            eoc_dg = ls_eoc(results[method], p, "vh_error")
            assert eoc_l2 >= p + 0.8, (method, p, eoc_l2)
            assert eoc_dg >= p - 0.2, (method, p, eoc_dg)
            summary.append(f"{method}/p{p}: l2 {eoc_l2:.2f}, dg {eoc_dg:.2f}")
    print("ACCEPTANCE criterion-02 PASS (DAR rates) " + "; ".join(summary))


def test_criterion_03_box_variant():
    results = sweep_errors(
        "BOX_DIFFUSION_2D", ("et", "etbox"), (3,), (8, 16, 32), box_scale=0.25
    )
    eoc_l2 = ls_eoc(results["etbox"], 3, "l2_error")
    assert eoc_l2 >= 3.8, eoc_l2
    ratios = []
    for (p, n, r_et), (_, n2, r_box) in zip(results["et"], results["etbox"]):
        assert n == n2
        ratio = r_box.l2_error / r_et.l2_error
        ratios.append(ratio)
        assert ratio <= 3.0, (n, ratio)
    print(
        f"ACCEPTANCE criterion-03 PASS (box variant) etbox l2 EOC {eoc_l2:.2f}, "
        f"l2 ratios vs et {['%.2f' % r for r in ratios]}"
    )


def test_criterion_04_quasi_trefftz():
    results = sweep_errors("QT_DIFFUSION", ("qt",), (3,), (8, 16, 32))
    eoc_l2 = ls_eoc(results["qt"], 3, "l2_error")
    eoc_vh = ls_eoc(results["qt"], 3, "vh_error")
    assert eoc_l2 >= 3.8, eoc_l2
    assert eoc_vh >= 2.8, eoc_vh
    print(
        f"ACCEPTANCE criterion-04 PASS (quasi-Trefftz) l2 EOC {eoc_l2:.2f}, "
        f"vh EOC {eoc_vh:.2f}"
    )


_SWEEP_KINDS = (
    (AR, "AR_EXAMPLE"),
    (DAR, "DAR_EXAMPLE"),
    (DAR_BOX, "BOX_DIFFUSION_2D"),
    (QT_DIFFUSION, "QT_DIFFUSION"),
)


@pytest.fixture(scope="module")
def kernel_sweep():
    """Local operators and embeddings for all kinds, p in 2..5, n in {2,4,8}."""
    data = []
    for kind, case in _SWEEP_KINDS:
        coeffs = builtin_case(case)
        for p in (2, 3, 4, 5):
            for n in (2, 4, 8):
                mesh = build_structured_mesh(n)
                space = BrokenSpace(mesh, p)
                ops = assemble_local_operators(kind, space, coeffs)
                embs = [compute_embedding(op) for op in ops]
                data.append((kind, p, n, space, ops, embs))
    return data


def test_criterion_05_rho_zero_decoupling(kernel_sweep):
    worst = 0.0
    for kind, p, n, space, ops, embs in kernel_sweep:
        for op, emb in zip(ops, embs):
            rho = np.linalg.norm(op.matrix @ emb.T) / (1.0 + np.linalg.norm(op.matrix))
            worst = max(worst, rho)
            assert rho <= 1e-10, (kind, p, n, op.element, rho)
    print(f"ACCEPTANCE criterion-05 PASS (rho = 0) max coupling {worst:.3e}")


def test_criterion_06_dimension_formula(kernel_sweep):
    for kind, p, n, space, ops, embs in kernel_sweep:
        dim_q = operator_row_count(kind, p)
        for op, emb in zip(ops, embs):
            assert emb.T.shape[1] == space.ndof_local - dim_q, (kind, p, n)
    # the spot values stated for p = 3
    ar = [d for d in kernel_sweep if d[0] == AR and d[1] == 3][0]
    assert (ar[3].ndof_local, ar[5][0].T.shape[1]) == (10, 4)
    dar = [d for d in kernel_sweep if d[0] == DAR and d[1] == 3][0]
    assert (dar[3].ndof_local, dar[5][0].T.shape[1]) == (10, 7)
    print("ACCEPTANCE criterion-06 PASS (dimension formula) incl. AR p3 (10,4), DAR p3 (10,7)")


def test_criterion_07_block_equivalence():
    gaps = []
    for case, kind, sigma in (("AR_EXAMPLE", AR, None), ("DAR_EXAMPLE", DAR, 450.0)):
        coeffs = builtin_case(case)
        mesh = build_structured_mesh(4)
        space = BrokenSpace(mesh, 3)
        terms = assemble_volume_terms(space, coeffs, sigma=sigma)
        emb = build_embedding(space, coeffs, kind)
        u_et = solve_embedded_trefftz(terms, emb)
        u_bl = solve_block_coupled(terms, emb)
        gap = np.linalg.norm(u_bl.coeffs - u_et.coeffs) / np.linalg.norm(u_et.coeffs)
        gaps.append(gap)
        assert gap <= 1e-8, (case, gap)
    print(f"ACCEPTANCE criterion-07 PASS (block equivalence) max rel gap {max(gaps):.3e}")


def test_criterion_08_classical_trefftz_recovery():
    coeffs = manufactured_case(alpha=1, exact=sp.Integer(0))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for p in (2, 3, 4):
        for trial in range(10):
            while True:
                verts = rng.uniform(-1.0, 2.0, size=(3, 2))
                d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
                if d1[0] * d2[1] - d1[1] * d2[0] > 0.3:
                    break
            mesh = Mesh2D(vertices=verts, triangles=np.array([[0, 1, 2]]))
            space = BrokenSpace(mesh, p)
            op = assemble_local_operator(DAR, space, 0, coeffs)
            emb = compute_embedding(op)
            assert emb.T.shape[1] == 2 * p + 1
            harmonics = [lambda x, y: np.ones_like(x)]
            for m in range(1, p + 1):
                harmonics.append(lambda x, y, m=m: np.real((x + 1j * y) ** m))
                harmonics.append(lambda x, y, m=m: np.imag((x + 1j * y) ** m))
            H = np.column_stack([l2_projection(space, f, 2 * p + 6)[0] for f in harmonics])
            angle = float(np.max(subspace_angles(emb.T, H)))
            worst = max(worst, angle)
            assert angle < 1e-8, (p, trial, angle)
    print(
        f"ACCEPTANCE criterion-08 PASS (classical Trefftz recovery) "
        f"max principal angle {worst:.3e}"
    )


def test_criterion_09_exact_representation_solve():
    coeffs = manufactured_case(alpha=1, exact=sp.sympify("x**2 - y**2"), name="laplace")
    errors = []
    for p in (2, 3):
        mesh = build_structured_mesh(2)
        space = BrokenSpace(mesh, p)
        terms = assemble_volume_terms(space, coeffs)
        emb = build_embedding(space, coeffs, DAR)
        # the Trefftz solves first: the DG facet pass takes over the volume blocks
        solutions = [
            solve_embedded_trefftz(terms, emb),
            solve_block_coupled(terms, emb),
            solve_standard_dg(global_system(terms)),
        ]
        for sol in solutions:
            report = compute_errors(sol, coeffs)
            errors.append(report.l2_error)
            assert report.l2_error <= 1e-8, (p, sol.method, report.l2_error)
    print(
        f"ACCEPTANCE criterion-09 PASS (exact representation) "
        f"max l2 error {max(errors):.3e}"
    )


def test_criterion_10_property_suites(tmp_path):
    # basis orthonormality at 1e-10
    rng = np.random.default_rng(7)
    worst_gram = 0.0
    for trial in range(5):
        while True:
            verts = rng.uniform(-1.0, 2.0, size=(3, 2))
            d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
            if d1[0] * d2[1] - d1[1] * d2[0] > 0.3:
                break
        mesh = Mesh2D(vertices=verts, triangles=np.array([[0, 1, 2]]))
        for p in range(1, 7):
            space = BrokenSpace(mesh, p)
            rule = triangle_rule(verts, 2 * p)
            vals = space.derivatives([0], rule.points[None], 0)[0, :, 0]
            gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
            dev = np.max(np.abs(gram - np.eye(space.ndof_local)))
            worst_gram = max(worst_gram, dev)
            assert dev < 1e-10

    # quadrature exactness at 1e-12 relative
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for degree in (4, 9, 14):
        rule = triangle_rule(ref, degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                got = float(np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                assert abs(got - exact) <= 1e-12 * abs(exact)
    brule = box_rule((0.3, -0.2), 0.5, 8)
    for a in range(9):
        exact_x = ((0.3 + 0.25) ** (a + 1) - (0.3 - 0.25) ** (a + 1)) / (a + 1)
        got = float(np.sum(brule.weights * brule.points[:, 0] ** a)) / 0.5
        assert abs(got - exact_x) <= 1e-12 * max(abs(exact_x), 1e-8)

    # Leibniz vs finite differences at 1e-6 relative
    x, y = sp.symbols("x y", real=True)
    alpha = ScalarField(1.2 + 0.4 * x + 0.3 * sp.cos(y))
    space = BrokenSpace(build_structured_mesh(1), 4)
    c = rng.standard_normal(space.ndof_local)
    pt = np.array([0.31, 0.42])

    def gradient(px, py):
        return space.derivatives([0], np.array([[[px, py]]]), 1)[0, 0, 1:].T

    def div_alpha_grad(px, py):
        eps = 1e-5
        total = 0.0
        for d, unit in enumerate(np.eye(2)):
            gp = gradient(px + eps * unit[0], py + eps * unit[1])[:, d] @ c
            gm = gradient(px - eps * unit[0], py - eps * unit[1])[:, d] @ c
            ap = alpha(px + eps * unit[0], py + eps * unit[1])
            am = alpha(px - eps * unit[0], py - eps * unit[1])
            total += (ap * gp - am * gm) / (2 * eps)
        return total

    # the Leibniz rows of the quasi-Trefftz kernel as a batch of one
    phi = space.derivatives([0], pt[None, None], 2)[:, 0]
    got = float(_leibniz_rows([(0, 0)], alpha, pt[None], phi)[0, 0] @ c)
    fd = div_alpha_grad(pt[0], pt[1])
    assert abs(got - fd) <= 1e-6 * max(abs(fd), 1.0)

    # SIP symmetry at 1e-10 relative
    coeffs = builtin_case("BOX_DIFFUSION_2D")
    mesh = build_structured_mesh(3)
    sys = assemble_global_system(BrokenSpace(mesh, 3), coeffs, sigma=450.0)
    asym = (sys.matrix - sys.matrix.T).tocoo()
    rel = (
        math.sqrt(np.sum(asym.data**2)) / math.sqrt((sys.matrix.multiply(sys.matrix)).sum())
        if asym.nnz
        else 0.0
    )
    assert rel <= 1e-10

    # determinism: byte-identical CSV on repeat
    from trefftzdg.cli import main

    args = ["run", "--case", "BOX_DIFFUSION_2D", "--methods", "dg,et,etbox,qt",
            "--p", "3", "--n", "2,4", "--out"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    print(
        f"ACCEPTANCE criterion-10 PASS (property suites) worst gram dev {worst_gram:.3e}, "
        f"SIP asymmetry {rel:.3e}, deterministic CSV"
    )


def test_triangular_inverse_certifies_as_the_general_inverse(kernel_sweep):
    # the screen of embedding._factor, taken with np.linalg.inv of R
    for kind, p, n, space, ops, embs in kernel_sweep:
        factors = embedding_module._factor(ops.matrices, ops.rhs, ops.elements)
        m = ops.matrices.shape[1]
        Q, R = np.linalg.qr(np.swapaxes(ops.matrices, 1, 2), mode="complete")
        R_inv = np.linalg.inv(R[:, :m])
        bound = np.linalg.norm(R[:, :m], axis=(1, 2)) * np.linalg.norm(R_inv, axis=(1, 2))
        certified = bound < 1.0 / embedding_module._GUARD_REL
        np.testing.assert_array_equal(factors.svd_elements, np.flatnonzero(~certified))
        uL = (Q[:, :, :m] @ (np.swapaxes(R_inv, 1, 2) @ ops.rhs[..., None]))[..., 0]
        gap = np.linalg.norm(factors.uL[certified] - uL[certified])
        assert gap <= 1e-14 * np.linalg.norm(uL[certified]), (kind, p, n)
