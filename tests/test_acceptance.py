"""Acceptance suite: one test per assurance, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; add -s to see the
measured numbers behind each [PASS] line.
"""

import json
import subprocess
import sys
import time

import numpy as np

from harmonic_ports import (
    SimulationConfig,
    StokesDiracSystem,
    betti_numbers,
    extend_by_zero,
    extended_power_balance,
    exterior_derivative,
    green_defect,
    green_defect_constrained,
    harmonic_basis,
    harmonic_flow_identity,
    hodge_morrey_friedrichs,
    initial_state,
    inner_product,
    integrability_check,
    norm,
    power_balance,
    random_cochain,
    run,
    step_implicit_midpoint,
    stokes_check,
    tangential_trace,
)

from conftest import ACCEPTANCE, CLOSED, metric_for, valid_pairs

BOUNDED = [s for s in sorted(ACCEPTANCE) if s not in CLOSED]


def _metrics():
    return [(shape, metric_for(shape, ACCEPTANCE[shape])) for shape in sorted(ACCEPTANCE)]


def test_criterion_01_harmonic_dimensions_from_topology():
    t0 = time.monotonic()
    sphere = metric_for("sphere", ACCEPTANCE["sphere"])
    torus = metric_for("torus", ACCEPTANCE["torus"])
    solid = metric_for("solid_torus", ACCEPTANCE["solid_torus"])
    # the integer-arithmetic rank oracle
    b_sphere = betti_numbers(sphere.complex)
    b_torus = betti_numbers(torus.complex)
    b_solid = betti_numbers(solid.complex)
    dims = {
        "sphere_1": harmonic_basis(sphere, 1, "neumann").dim,
        "sphere_2": harmonic_basis(sphere, 2, "neumann").dim,
        "torus_1": harmonic_basis(torus, 1, "neumann").dim,
        "torus_2": harmonic_basis(torus, 2, "neumann").dim,
        "solid_knots": harmonic_basis(solid, 1, "neumann").dim,
    }
    assert dims["sphere_1"] == 0 == b_sphere[1]
    assert dims["sphere_2"] == 1 == b_sphere[2]
    assert dims["torus_1"] == 2 == b_torus[1]
    assert dims["torus_2"] == 1 == b_torus[2]
    assert dims["solid_knots"] == 1 == b_solid[1]
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0
    print(f"[PASS] criterion 1: harmonic dimensions {dims} match the rank oracle "
          f"({elapsed:.2f}s)")


def test_criterion_02_hodge_isomorphism_on_all_shapes():
    t0 = time.monotonic()
    checked = 0
    for shape, m in _metrics():
        n = m.complex.dimension
        betti = betti_numbers(m.complex)
        for k in range(n + 1):
            assert harmonic_basis(m, k, "neumann").dim == betti[k], (shape, k)
            assert harmonic_basis(m, k, "dirichlet").dim == betti[n - k], (shape, k)
            checked += 2
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    print(f"[PASS] criterion 2: {checked} harmonic dimensions match the Betti "
          f"numbers on 6 shapes ({elapsed:.2f}s)")


def test_criterion_03_orthogonal_decomposition_properties():
    worst_recon = worst_orth = worst_idem = 0.0
    for shape, m in _metrics():
        rng = np.random.default_rng(103)
        for k in range(m.complex.dimension + 1):
            for _ in range(100):
                w = random_cochain(m.complex, k, rng)
                dec = hodge_morrey_friedrichs(m, w)
                names = ("d_alpha", "delta_beta", "lambda_T", "delta_gamma")
                parts = [getattr(dec, nm) for nm in names]
                s = norm(m, w)
                total = parts[0] + parts[1] + parts[2] + parts[3]
                recon = norm(m, w - total) / s
                orth = max(
                    abs(inner_product(m, parts[i], parts[j])) / (s * s)
                    for i in range(4)
                    for j in range(i + 1, 4)
                )
                worst_recon = max(worst_recon, recon)
                worst_orth = max(worst_orth, orth)
                assert recon <= 1e-8, (shape, k)
                assert orth <= 1e-8, (shape, k)
                for nm, part in zip(names, parts):
                    redec = hodge_morrey_friedrichs(m, part)
                    same = norm(m, getattr(redec, nm) - part) / s
                    cross = max(
                        norm(m, getattr(redec, other)) / s
                        for other in names
                        if other != nm
                    )
                    worst_idem = max(worst_idem, same, cross)
                    assert same <= 1e-8 and cross <= 1e-8, (shape, k, nm)
    print(f"[PASS] criterion 3: reconstruction {worst_recon:.2e}, orthogonality "
          f"{worst_orth:.2e}, idempotence {worst_idem:.2e} over 100 cochains per "
          f"(mesh, degree), all <= 1e-8")


def test_criterion_04_stokes_identity_is_exact():
    checked = 0
    for shape, m in _metrics():
        rng = np.random.default_rng(104)
        n = m.complex.dimension
        for _ in range(100):
            c = random_cochain(m.complex, n - 1, rng)
            out = stokes_check(m, c)
            assert out["residual"] == 0.0, shape
            assert out["lhs"] == out["rhs"], shape
            checked += 1
    print(f"[PASS] criterion 4: boundary-integral identity has zero floating "
          f"residual on {checked} random cochains across 6 meshes")


def test_criterion_05_adjointness_and_constrained_defect():
    worst_adj = worst_con = 0.0
    for shape, m in _metrics():
        rng = np.random.default_rng(105)
        for k in range(m.complex.dimension):
            for _ in range(20):
                a = random_cochain(m.complex, k, rng)
                b = random_cochain(m.complex, k + 1, rng)
                scale = norm(m, a) * norm(m, b)
                adj = abs(green_defect(m, a, b)) / scale
                worst_adj = max(worst_adj, adj)
                assert adj <= 1e-12, (shape, k)
                a.values[m.boundary_indices(k)] = 0.0
                zscale = max(norm(m, a) * norm(m, b), 1e-30)
                con = abs(green_defect_constrained(m, a, b)) / zscale
                worst_con = max(worst_con, con)
                assert con <= 1e-12, (shape, k)
    print(f"[PASS] criterion 5: adjointness residual {worst_adj:.2e}, zero-trace "
          f"constrained defect {worst_con:.2e}, both <= 1e-12")


def test_criterion_06_power_balance_on_random_states():
    worst_closed = worst_split = 0.0
    for shape, m in _metrics():
        rng = np.random.default_rng(106)
        for p, q in valid_pairs(m.complex.dimension):
            for _ in range(50):
                sys_ = StokesDiracSystem(
                    m, p, q,
                    random_cochain(m.complex, p, rng),
                    random_cochain(m.complex, q, rng),
                )
                pb = power_balance(sys_)
                if shape in CLOSED:
                    rel = abs(pb.dH_dt) / pb.scale
                    worst_closed = max(worst_closed, rel)
                    assert rel <= 1e-12, (shape, p, q)
                else:
                    rel = pb.split_residual / pb.scale
                    worst_split = max(worst_split, rel)
                    assert rel <= 1e-10, (shape, p, q)
    print(f"[PASS] criterion 6: closed-mesh energy rate {worst_closed:.2e} "
          f"(<= 1e-12), bounded-mesh balance defect {worst_split:.2e} "
          f"(<= 1e-10), 50 states per (mesh, pair)")


def test_criterion_07_harmonic_boundary_channel():
    m = metric_for("annulus", ACCEPTANCE["annulus"])
    rng = np.random.default_rng(107)
    lam = harmonic_basis(m, 1, "dirichlet").element(0)
    seeded = [
        StokesDiracSystem(m, 1, 2, 5.0 * lam, random_cochain(m.complex, 2, rng)),
        StokesDiracSystem(m, 2, 1, random_cochain(m.complex, 2, rng), 5.0 * lam),
    ]
    worst_sum = worst_id = 0.0
    harmonic_parts = []
    for sys_ in seeded:
        ext = extended_power_balance(sys_)
        assert abs(ext.harmonic_boundary_part) > 1e-6 * ext.scale
        harmonic_parts.append(ext.harmonic_boundary_part)
        total = ext.harmonic_boundary_part + ext.exact_boundary_part
        rel = abs(total - ext.boundary_term) / max(abs(ext.boundary_term), ext.scale)
        worst_sum = max(worst_sum, rel, ext.bilinearity_residual
                        / max(abs(ext.boundary_term), ext.scale))
        assert rel <= 1e-8
        for row in harmonic_flow_identity(sys_):
            denom = max(abs(row["flow_pairing"]), abs(row["boundary_pairing"]),
                        row["flow_norm"], row["state_norm"])
            worst_id = max(worst_id, row["residual"] / denom)
            assert row["residual"] <= 1e-10 * denom
    # control: no degree-1 harmonic fields on the disk
    disk = metric_for("disk", ACCEPTANCE["disk"])
    assert harmonic_basis(disk, 1, "dirichlet").dim == 0
    for seed in range(5):
        rng_d = np.random.default_rng(1070 + seed)
        sys_ = StokesDiracSystem(
            disk, 1, 2,
            random_cochain(disk.complex, 1, rng_d),
            random_cochain(disk.complex, 2, rng_d),
        )
        ext = extended_power_balance(sys_)
        assert abs(ext.harmonic_boundary_part) <= 1e-10 * ext.scale
    print(f"[PASS] criterion 7: harmonic boundary power {harmonic_parts[0]:.3e}/"
          f"{harmonic_parts[1]:.3e} (nonzero), split sum residual {worst_sum:.2e} "
          f"(<= 1e-8), flow identities {worst_id:.2e} (<= 1e-10), disk control clean")


def _oracle_solvable(m, f, psi):
    # dense least squares over the zero-trace potentials: solvable exactly
    # when the right-hand side lies in the column span
    k = f.degree
    D = m.complex.exterior_derivative_matrix(k - 1).toarray()
    if psi is None:
        ext = np.zeros(m.complex.num_simplices(k - 1))
    else:
        ext = extend_by_zero(m, psi).values
    A = D[:, m.interior_indices(k - 1)]
    b = f.values - D @ ext
    z, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.linalg.norm(A @ z - b)
    scale = max(np.linalg.norm(f.values), np.linalg.norm(D @ ext), 1.0)
    return bool(resid <= 1e-8 * scale)


def test_criterion_08_integrability_verdicts_match_brute_force():
    agreements = 0
    for shape, m in _metrics():
        cx = m.complex
        n = cx.dimension
        assert sum(cx.num_simplices(k) for k in range(n + 1)) <= 500, shape
        rng = np.random.default_rng(108)
        bounded = shape not in CLOSED
        cases = []

        def exact_case(k):
            e = random_cochain(cx, k - 1, rng)
            f = exterior_derivative(m, e)
            return f, (tangential_trace(m, e) if bounded else None), False

        def zero_trace_case(k):
            e = random_cochain(cx, k - 1, rng)
            e.values[m.boundary_indices(k - 1)] = 0.0
            return exterior_derivative(m, e), None, False

        def harmonic_case(k):
            hb = harmonic_basis(m, k, "dirichlet")
            if hb.dim == 0:
                return None
            e = random_cochain(cx, k - 1, rng)
            f = exterior_derivative(m, e) + hb.element(0)
            return f, (tangential_trace(m, e) if bounded else None), True

        def mismatch_case(k):
            if not bounded or k >= n:
                return None
            e = random_cochain(cx, k - 1, rng)
            f = exterior_derivative(m, e)
            psi = tangential_trace(m, e)
            psi = psi + random_cochain(psi.complex, k - 1, rng)
            return f, psi, True

        def open_case(k):
            if k >= n:
                return None
            return random_cochain(cx, k, rng), None, True

        makers = [exact_case, zero_trace_case, harmonic_case, mismatch_case, open_case]
        i = 0
        while len(cases) < 20:
            k = 1 + (i % n)
            made = makers[i % len(makers)](k)
            i += 1
            if made is not None:
                cases.append(made)
        constructed_unsolvable = sum(1 for _, _, u in cases if u)
        assert constructed_unsolvable >= 5, shape

        for f, psi, expect_unsolvable in cases:
            rep = integrability_check(m, f, psi)
            want = _oracle_solvable(m, f, psi)
            assert rep.solvable == want, (shape, f.degree)
            if expect_unsolvable:
                assert want is False, (shape, f.degree)
            if rep.solvable:
                got = exterior_derivative(m, rep.witness)
                assert norm(m, got - f) <= 1e-7 * max(norm(m, f), 1e-30)
                assert rep.witness_residual <= 1e-8
                if psi is not None:
                    trace = tangential_trace(m, rep.witness)
                    assert np.array_equal(trace.values, psi.values), (shape, f.degree)
            agreements += 1
    print(f"[PASS] criterion 8: {agreements} integrability verdicts agree with "
          f"the dense least-squares oracle (>= 5 unsolvable cases per mesh)")


def test_criterion_09_long_run_conservation_and_reversal():
    t0 = time.monotonic()
    m = metric_for("torus", ACCEPTANCE["torus"])
    ap, aq = initial_state(m, 1, 2, "random", seed=109)
    sys_ = StokesDiracSystem(m, 1, 2, ap, aq)
    trace = run(sys_, SimulationConfig(dt=0.01, steps=1000, stride=1000))
    h = np.array([row[1] for row in trace.rows])
    drift = np.max(np.abs(h - h[0])) / h[0]
    assert drift <= 1e-10
    coeffs = np.array(trace.rows)[:, 4:]
    coeff_drift = float(np.max(np.abs(coeffs - coeffs[0])))
    assert coeff_drift <= 1e-8
    # integrate back from the final state
    step, fp, fq = trace.snapshots[-1]
    assert step == 1000
    back = StokesDiracSystem(m, 1, 2, fp, fq)
    for _ in range(1000):
        back = step_implicit_midpoint(back, -0.01)
    s = norm(m, ap) + norm(m, aq)
    rev = (norm(m, back.alpha_p - ap) + norm(m, back.alpha_q - aq)) / s
    assert rev <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    print(f"[PASS] criterion 9: energy drift {drift:.2e} (<= 1e-10), harmonic "
          f"coefficient drift {coeff_drift:.2e} (<= 1e-8), reversal error "
          f"{rev:.2e} (<= 1e-8) in {elapsed:.2f}s")


def test_criterion_10_reports_are_byte_identical(tmp_path):
    mesh = tmp_path / "torus.json"
    outputs = []
    for _ in range(2):
        gen = subprocess.run(
            [sys.executable, "-m", "harmonic_ports.cli", "gen", "--shape", "torus",
             "--resolution", str(ACCEPTANCE["torus"]), "--seed", "0",
             "--out", str(mesh)],
            capture_output=True,
        )
        assert gen.returncode == 0
        ana = subprocess.run(
            [sys.executable, "-m", "harmonic_ports.cli", "analyze", str(mesh),
             "--seed", "0"],
            capture_output=True,
        )
        assert ana.returncode == 0
        outputs.append((gen.stdout, mesh.read_bytes(), ana.stdout))
    assert json.loads(outputs[0][2])["passed"] is True
    assert outputs[0] == outputs[1]
    print("[PASS] criterion 10: generation and analysis reports are "
          "byte-identical across two seeded runs")
