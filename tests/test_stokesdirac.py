import numpy as np
import pytest
import scipy.sparse as sp

from harmonic_ports import (
    ComplexMismatch,
    DegreeMismatch,
    InvalidDegrees,
    Metric,
    SolverFailure,
    StokesDiracSystem,
    codifferential_constrained,
    efforts,
    extend_by_zero,
    extended_power_balance,
    exterior_derivative,
    flows,
    green_defect_constrained,
    hamiltonian,
    harmonic_basis,
    harmonic_flow_identity,
    hodge_morrey_friedrichs,
    inner_product,
    integrability_check,
    norm,
    power_balance,
    random_cochain,
    system_operators,
    tangential_trace,
)
from harmonic_ports import metric as metric_mod
from harmonic_ports import stokesdirac as stokesdirac_mod

from conftest import (
    ACCEPTANCE,
    CLOSED,
    SMALL,
    complex_for,
    dense_port_operators,
    memo_arrays,
    metric_for,
    valid_pairs,
)


def _system(shape, p, q, seed=0):
    m = metric_for(shape, SMALL[shape])
    rng = np.random.default_rng(seed)
    ap = random_cochain(m.complex, p, rng)
    aq = random_cochain(m.complex, q, rng)
    return StokesDiracSystem(m, p, q, ap, aq)


def test_constructor_validates_degrees():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(0)
    a1 = random_cochain(m.complex, 1, rng)
    a2 = random_cochain(m.complex, 2, rng)
    with pytest.raises(InvalidDegrees):
        StokesDiracSystem(m, 1, 1, a1, a1)
    with pytest.raises(DegreeMismatch):
        StokesDiracSystem(m, 1, 2, a2, a1)
    with pytest.raises(ComplexMismatch):
        other = metric_for("disk", 2)
        StokesDiracSystem(m, 1, 2, random_cochain(other.complex, 1, rng), a2)


def test_hamiltonian_is_half_the_squared_norm():
    sys = _system("annulus", 1, 2)
    m = sys.metric
    expect = 0.5 * (
        inner_product(m, sys.alpha_p, sys.alpha_p)
        + inner_product(m, sys.alpha_q, sys.alpha_q)
    )
    assert np.isclose(hamiltonian(sys), expect, rtol=1e-13)


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_efforts_and_flows_have_the_dual_degrees(shape):
    m = metric_for(shape, SMALL[shape])
    n = m.complex.dimension
    for p, q in valid_pairs(n):
        sys = _system(shape, p, q)
        e_p, e_q = efforts(sys)
        f_p, f_q = flows(sys)
        assert e_p.degree == q - 1
        assert e_q.degree == p - 1
        assert f_p.degree == p
        assert f_q.degree == q


def test_flows_are_derivatives_of_efforts():
    sys = _system("solid_torus", 1, 3)
    m = sys.metric
    ops = system_operators(m, 1, 3)
    e_p, e_q = efforts(sys)
    f_p, f_q = flows(sys)
    sigma = ops["sigma"]
    assert np.allclose(
        f_p.values, sigma * exterior_derivative(m, e_q).values, rtol=1e-12, atol=1e-12
    )
    assert np.allclose(
        f_q.values, exterior_derivative(m, e_p).values, rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_flows_are_exact_cochains(shape):
    m = metric_for(shape, SMALL[shape])
    n = m.complex.dimension
    for p, q in valid_pairs(n):
        sys = _system(shape, p, q, seed=p)
        f_p, f_q = flows(sys)
        s = norm(m, sys.alpha_p) + norm(m, sys.alpha_q)
        if p < n:
            assert norm(m, exterior_derivative(m, f_p)) <= 1e-11 * max(s, norm(m, f_p))
        if q < n:
            assert norm(m, exterior_derivative(m, f_q)) <= 1e-11 * max(s, norm(m, f_q))


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_internal_term_cancels(shape):
    m = metric_for(shape, SMALL[shape])
    for p, q in valid_pairs(m.complex.dimension):
        for seed in range(5):
            pb = power_balance(_system(shape, p, q, seed=seed))
            assert abs(pb.internal_term) <= 1e-13 * pb.scale


@pytest.mark.parametrize("shape", sorted(CLOSED))
def test_energy_rate_vanishes_on_closed_meshes(shape):
    m = metric_for(shape, SMALL[shape])
    for p, q in valid_pairs(m.complex.dimension):
        for seed in range(5):
            pb = power_balance(_system(shape, p, q, seed=seed))
            assert abs(pb.dH_dt) <= 1e-12 * pb.scale
            assert abs(pb.boundary_term) <= 1e-12 * pb.scale


@pytest.mark.parametrize("shape", ["disk", "annulus", "ball", "solid_torus"])
def test_energy_rate_splits_into_boundary_power(shape):
    m = metric_for(shape, SMALL[shape])
    for p, q in valid_pairs(m.complex.dimension):
        for seed in range(5):
            sys = _system(shape, p, q, seed=seed)
            pb = power_balance(sys)
            assert pb.split_residual <= 1e-12 * pb.scale
            # dH/dt really is the state-flow pairing
            f_p, f_q = flows(sys)
            direct = inner_product(m, sys.alpha_p, f_p) + inner_product(
                m, sys.alpha_q, f_q
            )
            assert np.isclose(pb.dH_dt, direct, rtol=1e-10, atol=1e-12 * pb.scale)


def _slot_records(m, record, alphas):
    """(z, e, M a, M f, M_z z) per slot as the per-slot port records of
    `conftest.reference_run` make them: z = delta_c alpha by the public
    codifferential, then one mass solve per effort against its coupling."""
    slots, M = record.layout.slots, m.mass_csr
    z = [codifferential_constrained(m, alpha).values for alpha in alphas]
    e = [s.factor * m.mass_lu(s.degree - 1).solve(s.coupling @ z_o) for s, z_o in zip(slots, z[::-1])]
    f = [s.sign * (m.complex.exterior_derivative_matrix(s.degree - 1) @ e_s) for s, e_s in zip(slots, e)]
    return [(z_s[s.free], e_s, M(s.degree) @ a.values, M(s.degree) @ f_s, M(s.degree - 1) @ z_s)
            for s, a, z_s, e_s, f_s in zip(slots, alphas, z, e, f)]


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_split_residual_detects_a_z_that_is_not_delta_c(shape):
    # the record equals the per-slot records byte for byte, both where a
    # mass factor solves the two slots as one 2-column block (p = q) and
    # where each slot solves alone; d(effort) is sign f.  Then the second
    # boundary evaluation reads the efforts' boundary values alone, so it
    # disagrees with dH/dt - internal once a slot's z stops pairing with
    # the interior efforts as d does
    m = metric_for(shape, ACCEPTANCE[shape])
    rng = np.random.default_rng(6)
    for p, q in valid_pairs(m.complex.dimension):
        a_p, a_q = random_cochain(m.complex, p, rng), random_cochain(m.complex, q, rng)
        record = stokesdirac_mod._port(m, p, q, np.concatenate([a_p.values, a_q.values]))
        cut = len(record.layout.slots[0].free)  # z holds slot p's free rows, then slot q's
        for s, z, (z_s, e, Ma, Mf, Mz) in zip(record.layout.slots, (record.z[:cut], record.z[cut:]),
                                             _slot_records(m, record, (a_p, a_q))):
            got = (z, record.e[s.e], record.Ma[s.a], record.Mf[s.a], record.Mz[s.mz])
            assert [x.tobytes() for x in got] == [x.tobytes() for x in (z_s, e, Ma, Mf, Mz)], (p, q)
            d = m.complex.exterior_derivative_matrix(s.degree - 1)
            assert np.array_equal(s.sign * record.f[s.a], d @ record.e[s.e]), (p, q)
        if shape == "solid_torus":
            continue  # no interior vertex or edge: every effort and z is zero
        pb = stokesdirac_mod._balance(record)
        assert pb.split_residual <= 1e-15 * pb.scale
        for i, rows in enumerate((slice(0, cut), slice(cut, None))):
            bad = record.z.copy()
            bad[rows] *= 1 + 1e-4
            Mz = np.split(record.layout.mass_fz @ np.concatenate([record.f, bad]), [len(record.a)])[1]
            pb = stokesdirac_mod._balance(record._replace(z=bad, Mz=Mz))
            assert pb.split_residual > 1e-10 * pb.scale, (p, q, i)


@pytest.mark.parametrize(
    "shape, p, q",
    [
        (shape, p, q)
        for shape in sorted(ACCEPTANCE)
        for p, q in valid_pairs(complex_for(shape, ACCEPTANCE[shape]).dimension)
    ],
)
def test_efforts_follow_the_module_formula(shape, p, q):
    # e_q = tau M^-1 W d (delta_c alpha_q),
    # e_p = -sigma tau M^-1 d^T W^T (delta_c alpha_p), f_p = sigma d e_q,
    # f_q = d e_p, against dense matrices with dense solves throughout
    m = metric_for(shape, ACCEPTANCE[shape])
    rng = np.random.default_rng(2)
    sys = StokesDiracSystem(
        m, p, q, random_cochain(m.complex, p, rng), random_cochain(m.complex, q, rng)
    )
    ops = dense_port_operators(m, p, q)
    e_p, e_q = efforts(sys)
    f_p, f_q = flows(sys)
    for got, op, state in (
        (e_q, "effort_q", sys.alpha_q),
        (e_p, "effort_p", sys.alpha_p),
        (f_p, "flow_p", sys.alpha_q),
        (f_q, "flow_q", sys.alpha_p),
    ):
        expect = ops[op] @ state.values
        assert np.linalg.norm(got.values - expect) <= 1e-12 * np.linalg.norm(expect), op


def test_balances_keep_no_dense_operator():
    # a fresh metric: only the calls below fill its memo
    m = Metric(complex_for("ball", ACCEPTANCE["ball"]))
    rng = np.random.default_rng(3)
    a2, b2 = random_cochain(m.complex, 2, rng), random_cochain(m.complex, 2, rng)
    sys = StokesDiracSystem(m, 2, 2, a2, b2)
    extended_power_balance(sys)
    harmonic_flow_identity(sys)
    counts = [m.complex.num_simplices(k) for k in range(m.complex.dimension + 1)]
    limit = min(a * b for a, b in zip(counts, counts[1:]))
    dense = [
        key for key, value in m._memo.items() for a in memo_arrays(value) if a.size >= limit
    ]
    assert dense == []


def test_memo_holds_no_dense_matrix():
    # a fresh metric: every basis, one HMF per degree and the extended
    # balance fill its memo and its boundary metric's
    m = Metric(complex_for("ball", ACCEPTANCE["ball"]))
    rng = np.random.default_rng(4)
    n = m.complex.dimension
    for k in range(n + 1):
        for condition in ("neumann", "dirichlet"):
            harmonic_basis(m, k, condition)
        hodge_morrey_friedrichs(m, random_cochain(m.complex, k, rng))
    a2, b2 = random_cochain(m.complex, 2, rng), random_cochain(m.complex, 2, rng)
    extended_power_balance(StokesDiracSystem(m, 2, 2, a2, b2))
    for metric in (m, m.boundary_metric()):
        cx = metric.complex
        smallest = min(cx.num_simplices(k) for k in range(cx.dimension + 1))
        dense = [
            key
            for key, value in metric._memo.items()
            for a in memo_arrays(value)
            if a.ndim == 2 and min(a.shape) >= smallest
        ]
        assert dense == []


def test_harmonic_boundary_split_on_annulus():
    # seed the p-slot with the degree-1 Dirichlet-harmonic field: the
    # harmonic channel must carry visible power
    m = metric_for("annulus", 2)
    lam = harmonic_basis(m, 1, "dirichlet").element(0)
    aq = random_cochain(m.complex, 2, np.random.default_rng(1))
    sys = StokesDiracSystem(m, 1, 2, 10.0 * lam, aq)
    ext = extended_power_balance(sys)
    assert abs(ext.harmonic_boundary_part) > 1e-6 * ext.scale
    total = ext.harmonic_boundary_part + ext.exact_boundary_part
    assert abs(total - ext.boundary_term) <= 1e-8 * max(abs(ext.boundary_term), ext.scale)
    assert ext.bilinearity_residual <= 1e-8 * max(abs(ext.boundary_term), ext.scale)


def test_harmonic_boundary_split_is_zero_on_disk():
    # the disk has no degree-1 harmonic fields, so the channel is empty
    m = metric_for("disk", 2)
    sys = _system("disk", 1, 2, seed=4)
    assert harmonic_basis(m, 1, "dirichlet").dim == 0
    ext = extended_power_balance(sys)
    assert ext.harmonic_boundary_part == 0.0
    assert np.isclose(ext.exact_boundary_part, ext.boundary_term, rtol=1e-12)


def test_harmonic_flow_identity_rows():
    m = metric_for("annulus", 2)
    lam = harmonic_basis(m, 1, "dirichlet").element(0)
    aq = random_cochain(m.complex, 2, np.random.default_rng(7))
    sys = StokesDiracSystem(m, 1, 2, lam, aq)
    rows = harmonic_flow_identity(sys)
    assert len(rows) > 0
    for row in rows:
        denom = max(
            abs(row["flow_pairing"]),
            abs(row["boundary_pairing"]),
            row["flow_norm"],
            row["state_norm"],
        )
        assert row["residual"] <= 1e-10 * denom


def test_extended_balance_carries_the_flow_identity_rows():
    # the extended balance, power_balance and harmonic_flow_identity read
    # one record of the state, so the rows and the five balance fields are
    # equal, not close
    for shape, resolution in sorted(ACCEPTANCE.items()):
        m = metric_for(shape, resolution)
        rng = np.random.default_rng(11)
        for p, q in valid_pairs(m.complex.dimension):
            a_p, a_q = random_cochain(m.complex, p, rng), random_cochain(m.complex, q, rng)
            sys = StokesDiracSystem(m, p, q, a_p, a_q)
            ext, pb = extended_power_balance(sys), power_balance(sys)
            assert ext.flow_identity_rows == harmonic_flow_identity(sys), (shape, p, q)
            for key in ("dH_dt", "internal_term", "boundary_term", "split_residual", "scale"):
                assert getattr(ext, key) == getattr(pb, key), (shape, p, q, key)
    m = metric_for("annulus", 2)
    n = m.complex.dimension
    for p, q in valid_pairs(n):
        sys = _system("annulus", p, q, seed=11)
        ext = extended_power_balance(sys)
        rows = harmonic_flow_identity(sys)
        assert len(rows) > 0
        # the harmonic part is the state coefficients times the boundary
        # pairings of the basis elements, over the slots of degree 1..n-1
        expect = sum(
            ext.state_harmonic_coefficients[row["slot"]][row["index"]] * row["boundary_pairing"]
            for row in rows
            if 1 <= row["degree"] <= n - 1
        )
        assert abs(ext.harmonic_boundary_part - expect) <= 1e-13 * ext.scale
        # each boundary pairing is the slot's sign times the constrained
        # Green defect of its effort against the basis element
        sigma = system_operators(m, p, q)["sigma"]
        e_p, e_q = efforts(sys)
        slots = {"p": (e_q, sigma), "q": (e_p, 1)}
        for row in rows:
            effort, sign = slots[row["slot"]]
            lam = harmonic_basis(m, row["degree"], "dirichlet").element(row["index"])
            defect = sign * green_defect_constrained(m, effort, lam)
            assert abs(row["boundary_pairing"] - defect) <= 1e-13 * ext.scale


def test_extended_balance_solves_delta_c_once_per_vector(monkeypatch):
    # the columns of each mass-factor solve call of one extended balance:
    # the port record's, once per factor (a 2-column solve when the slots
    # share it, p = q), then the flow identity's delta_c per non-empty
    # Dirichlet basis, then the exact part's per slot of degree below n
    # whose projection is non-zero; with an empty basis the exact part
    # reads the record's z
    cases = [
        # no Dirichlet-harmonic field at degree 2: two 2-column solves
        ("ball", 2, 2, 2, [2, 2]),
        # four 1-column solves; H^3_D for the flow identity; H^1_D empty
        ("ball", 2, 1, 3, [1, 1, 1, 1, 1]),
        # H^1_D and H^2_D for the flow identity, then alpha_p - proj afresh
        ("annulus", 2, 1, 2, [1, 1, 1, 1, 1, 1, 1]),
    ]
    columns, real, counting = [], metric_mod.Metric.mass_lu, {}

    class Counting:  # a mass factor, counting the columns of each solve call
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b, trans="N"):
            columns.append(1 if b.ndim == 1 else b.shape[1])
            return self.lu.solve(b, trans)

    def counted(metric, k, condition="neumann"):
        lu = real(metric, k, condition)
        return counting.setdefault(id(lu), Counting(lu))

    for shape, resolution, p, q, expected in cases:
        m = metric_for(shape, resolution)
        rng = np.random.default_rng(5)
        a_p, a_q = random_cochain(m.complex, p, rng), random_cochain(m.complex, q, rng)
        sys = StokesDiracSystem(m, p, q, a_p, a_q)
        extended_power_balance(sys)  # builds the bases and factors outside the count
        columns.clear()
        with monkeypatch.context() as patch:
            patch.setattr(metric_mod.Metric, "mass_lu", counted)
            extended_power_balance(sys)
        assert columns == expected, (shape, p, q)


def test_state_harmonic_coefficients_report_the_seed():
    m = metric_for("annulus", 2)
    lam = harmonic_basis(m, 1, "dirichlet").element(0)
    zero_q = 0.0 * random_cochain(m.complex, 2, np.random.default_rng(0))
    sys = StokesDiracSystem(m, 1, 2, 3.0 * lam, zero_q)
    ext = extended_power_balance(sys)
    # the Dirichlet basis is orthonormal, so the coefficient is the amplitude
    assert np.allclose(np.abs(ext.state_harmonic_coefficients["p"]), [3.0], rtol=1e-10)


# -- integrability -----------------------------------------------------------


def _zero_trace(m, c):
    out = c + 0.0 * c
    out.values[m.boundary_indices(c.degree)] = 0.0
    return out


@pytest.mark.parametrize("shape", ["annulus", "solid_torus"])
def test_integrability_accepts_constructed_solvable_data(shape):
    m = metric_for(shape, SMALL[shape])
    n = m.complex.dimension
    rng = np.random.default_rng(13)
    for k in range(1, n + 1):
        e = random_cochain(m.complex, k - 1, rng)
        f = exterior_derivative(m, e)
        psi = tangential_trace(m, e)
        rep = integrability_check(m, f, psi)
        assert rep.solvable is True
        assert rep.witness is not None
        got = exterior_derivative(m, rep.witness)
        assert norm(m, got - f) <= 1e-7 * max(norm(m, f), 1e-30)
        assert rep.witness_residual <= 1e-8


def test_integrability_raises_on_a_wrong_witness(monkeypatch):
    # solvable data, but a potential 1% off gives a witness whose d misses f
    genuine = stokesdirac_mod._mixed_potential
    monkeypatch.setattr(
        stokesdirac_mod, "_mixed_potential", lambda *args: 1.01 * genuine(*args)
    )
    m = metric_for("annulus", SMALL["annulus"])
    e = random_cochain(m.complex, 0, np.random.default_rng(13))
    with pytest.raises(SolverFailure, match="witness residual"):
        integrability_check(m, exterior_derivative(m, e), tangential_trace(m, e))


def test_integrability_forms_no_mass_or_derivative_moduli(monkeypatch):
    # the witness is the mixed solve of f - d ext, which sizes its
    # right-hand side by |M f| alone: the free rows of |M_k| and |d_(k-1)|
    # are built for the coexact HMF solve only
    m = Metric(complex_for("annulus", ACCEPTANCE["annulus"]))
    owner = next(c for c in sp.csr_matrix.__mro__ if "__abs__" in vars(c))
    formed, genuine = [], owner.__abs__
    monkeypatch.setattr(owner, "__abs__", lambda self: formed.append(self.shape) or genuine(self))
    rng = np.random.default_rng(2)
    for k in (1, 2):
        e = random_cochain(m.complex, k - 1, rng)
        assert integrability_check(m, exterior_derivative(m, e), tangential_trace(m, e)).solvable
        moduli = {(len(m.free_indices(k, "dirichlet")), m.complex.num_simplices(k)),
                  (m.complex.num_simplices(k), m.complex.num_simplices(k - 1))}
        assert formed and not moduli & set(formed), (k, formed)
        formed.clear()


def test_integrability_rejects_harmonic_obstruction():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(3)
    e = random_cochain(m.complex, 0, rng)
    lam = harmonic_basis(m, 1, "dirichlet").element(0)
    f = exterior_derivative(m, e) + lam
    rep = integrability_check(m, f, tangential_trace(m, e))
    assert rep.solvable is False
    assert rep.harmonic_residual > 1e-9
    assert rep.closedness_residual <= 1e-9
    assert rep.witness is None


def test_integrability_rejects_non_closed_data():
    m = metric_for("solid_torus", 3)
    f = random_cochain(m.complex, 2, np.random.default_rng(5))
    rep = integrability_check(m, f)
    assert rep.solvable is False
    assert rep.closedness_residual > 1e-9


def test_integrability_rejects_mismatched_trace():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(9)
    e = random_cochain(m.complex, 0, rng)
    f = exterior_derivative(m, e)
    psi = tangential_trace(m, e)
    psi = psi + random_cochain(psi.complex, 0, rng)
    rep = integrability_check(m, f, psi)
    assert rep.solvable is False
    assert rep.trace_residual > 1e-9


def test_integrability_volume_obstruction_on_closed_mesh():
    # a top form on a closed mesh integrates to its total pairing with 1;
    # adding a harmonic (constant-like) piece blocks exactness
    m = metric_for("sphere", 1)
    rng = np.random.default_rng(11)
    e = random_cochain(m.complex, 1, rng)
    f = exterior_derivative(m, e)
    assert integrability_check(m, f).solvable is True
    lam = harmonic_basis(m, 2, "dirichlet").element(0)
    assert integrability_check(m, f + lam).solvable is False


def test_integrability_zero_trace_witness():
    # psi omitted means the witness must itself have zero trace
    m = metric_for("disk", 2)
    e = _zero_trace(m, random_cochain(m.complex, 0, np.random.default_rng(2)))
    f = exterior_derivative(m, e)
    rep = integrability_check(m, f)
    assert rep.solvable is True
    assert np.all(rep.witness.values[m.boundary_indices(0)] == 0.0)


def test_integrability_input_validation():
    m = metric_for("annulus", 2)
    rng = np.random.default_rng(0)
    with pytest.raises(DegreeMismatch):
        integrability_check(m, random_cochain(m.complex, 0, rng))
    f = random_cochain(m.complex, 1, rng)
    other = metric_for("disk", 2)
    bad_psi = tangential_trace(other, random_cochain(other.complex, 0, rng))
    with pytest.raises(ComplexMismatch):
        integrability_check(m, f, bad_psi)
    good_bc = m.boundary_complex
    with pytest.raises(DegreeMismatch):
        integrability_check(m, f, random_cochain(good_bc, 1, rng))
