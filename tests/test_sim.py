import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from harmonic_ports import (
    FactorizationFailure,
    Metric,
    SimulationConfig,
    SolverFailure,
    StokesDiracSystem,
    hamiltonian,
    harmonic_basis,
    hodge_morrey_friedrichs,
    initial_state,
    norm,
    random_cochain,
    run,
    flows,
    step_implicit_midpoint,
)
from harmonic_ports import metric as metric_mod
from harmonic_ports import sim
from harmonic_ports.sim import _midpoint, _spectral_radius_estimate
from harmonic_ports.stokesdirac import _port_action

from conftest import (
    ACCEPTANCE,
    SMALL,
    complex_for,
    dense_port_operators,
    factored_keys,
    memo_arrays,
    metric_for,
    valid_pairs,
)


def _sys(shape, p, q, init="random", seed=0):
    m = metric_for(shape, SMALL[shape])
    ap, aq = initial_state(m, p, q, init, seed=seed)
    return StokesDiracSystem(m, p, q, ap, aq)


def test_config_validation():
    SimulationConfig()
    with pytest.raises(ValueError):
        SimulationConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(dt=float("nan"))
    with pytest.raises(ValueError):
        SimulationConfig(steps=0)
    with pytest.raises(ValueError):
        SimulationConfig(stride=-1)


def test_non_finite_dt_is_rejected():
    sys = _sys("torus", 1, 2)
    for dt in (float("inf"), float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SimulationConfig(dt=dt)
        with pytest.raises(ValueError, match="dt must be finite"):
            step_implicit_midpoint(sys, dt)


def test_initial_state_specs():
    m = metric_for("torus", 4)
    ap, aq = initial_state(m, 1, 2, "random", seed=5)
    bp, bq = initial_state(m, 1, 2, "random", seed=5)
    assert np.array_equal(ap.values, bp.values)
    assert np.array_equal(aq.values, bq.values)

    hp, hq = initial_state(m, 1, 2, "harmonic:1:0:2.5")
    lam = harmonic_basis(m, 1, "neumann").element(0)
    assert np.allclose(hp.values, 2.5 * lam.values, atol=1e-14)
    assert np.all(hq.values == 0.0)

    gp, gq = initial_state(m, 1, 2, "gaussian:0:0.5")
    assert gp.values.shape == (m.complex.num_simplices(1),)
    assert np.all(np.isfinite(gp.values)) and gp.values.max() > 0
    assert np.all(gq.values == 0.0)


def test_initial_state_rejects_bad_specs():
    m = metric_for("torus", 4)
    for spec in [
        "fourier",
        "harmonic:0:0:1.0",
        "harmonic:1:99:1.0",
        "harmonic:1:0",
        "gaussian:9999:0.5",
        "gaussian:0:0",
    ]:
        with pytest.raises(ValueError):
            initial_state(m, 1, 2, spec)


def test_zero_state_stays_zero():
    m = metric_for("sphere", 1)
    zp = 0.0 * random_cochain(m.complex, 1, np.random.default_rng(0))
    zq = 0.0 * random_cochain(m.complex, 2, np.random.default_rng(0))
    sys = StokesDiracSystem(m, 1, 2, zp, zq)
    out = step_implicit_midpoint(sys, 0.01)
    assert np.all(out.alpha_p.values == 0.0)
    assert np.all(out.alpha_q.values == 0.0)


def test_single_step_conserves_energy_on_closed_mesh():
    sys = _sys("torus", 1, 2)
    out = step_implicit_midpoint(sys, 0.01)
    h0, h1 = hamiltonian(sys), hamiltonian(out)
    assert abs(h1 - h0) <= 1e-13 * h0


def test_step_is_linear_in_the_state():
    sys = _sys("annulus", 1, 2, seed=3)
    m = sys.metric
    two = StokesDiracSystem(m, 1, 2, 2.0 * sys.alpha_p, 2.0 * sys.alpha_q)
    one_step = step_implicit_midpoint(sys, 0.02)
    two_step = step_implicit_midpoint(two, 0.02)
    assert np.allclose(two_step.alpha_p.values, 2.0 * one_step.alpha_p.values, rtol=1e-12)
    assert np.allclose(two_step.alpha_q.values, 2.0 * one_step.alpha_q.values, rtol=1e-12)


def test_steps_reverse_exactly():
    sys = _sys("solid_torus", 2, 2, seed=1)
    fwd = sys
    for _ in range(20):
        fwd = step_implicit_midpoint(fwd, 0.01)
    back = fwd
    for _ in range(20):
        back = step_implicit_midpoint(back, -0.01)
    s = norm(sys.metric, sys.alpha_p) + norm(sys.metric, sys.alpha_q)
    err = norm(sys.metric, back.alpha_p - sys.alpha_p) + norm(
        sys.metric, back.alpha_q - sys.alpha_q
    )
    assert err <= 1e-11 * s


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_step_matches_dense_cayley_oracle(shape):
    # covers n_q < n_p (torus (1, 2)), n_p < n_q (torus (2, 1)) and the
    # tie (ball (2, 2)) of the block elimination
    metric = metric_for(shape, ACCEPTANCE[shape])
    for p, q in valid_pairs(metric.complex.dimension):
        ops = dense_port_operators(metric, p, q)
        n_p, n_q = ops["flow_q"].shape[1], ops["flow_p"].shape[1]
        A = np.zeros((n_p + n_q,) * 2)
        A[:n_p, n_p:] = ops["flow_p"]
        A[n_p:, :n_p] = ops["flow_q"]
        ap, aq = initial_state(metric, p, q, "random", seed=7)
        x = np.concatenate([ap.values, aq.values])
        for dt in (0.01, -0.01):
            expect = 2.0 * np.linalg.solve(np.eye(n_p + n_q) - 0.5 * dt * A, x) - x
            out = step_implicit_midpoint(StokesDiracSystem(metric, p, q, ap, aq), dt)
            got = np.concatenate([out.alpha_p.values, out.alpha_q.values])
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max(), (p, q, dt)


def test_backward_step_reuses_the_forward_factor():
    # a fresh metric: only the two steps below fill its memo
    metric = Metric(complex_for("torus", SMALL["torus"]))
    ap, aq = initial_state(metric, 1, 2, "random")
    sys = StokesDiracSystem(metric, 1, 2, ap, aq)
    step_implicit_midpoint(step_implicit_midpoint(sys, 0.01), -0.01)
    assert [key for key in metric._memo if key[0] == "midpoint"] == [("midpoint", 1, 2, 0.01)]


def _memo_arrays_at_least(metric, limit):
    return [key for key, value in metric._memo.items() for a in memo_arrays(value) if a.size >= limit]


def test_run_keeps_no_array_larger_than_a_generator_block():
    # the step holds sparse matrices and a sparse factor only: no dense
    # generator block (n_p * n_q) and no Schur factor (min(n_p, n_q)^2)
    metric = Metric(complex_for("torus", SMALL["torus"]))
    ap, aq = initial_state(metric, 1, 2, "random")
    run(StokesDiracSystem(metric, 1, 2, ap, aq), SimulationConfig(dt=0.01, steps=3))
    size = metric.complex.num_simplices
    assert _memo_arrays_at_least(metric, min(size(1), size(2)) ** 2) == []


def test_singular_midpoint_operator_raises(monkeypatch):
    # a zero (z, e) column makes K and its factored Schur complement in
    # (z, e) exactly singular; the w columns are eliminated, not factored
    metric = Metric(complex_for("torus", SMALL["torus"]))
    build = sim._midpoint_operator
    first_y = metric.complex.num_simplices(1) + metric.complex.num_simplices(2)

    def singular(*args):
        K = build(*args).tolil()
        K[:, first_y] = 0.0
        return K.tocsc()

    monkeypatch.setattr(sim, "_midpoint_operator", singular)
    ap, aq = initial_state(metric, 1, 2, "random")
    with pytest.raises(FactorizationFailure, match="midpoint operator is singular"):
        step_implicit_midpoint(StokesDiracSystem(metric, 1, 2, ap, aq), 0.01)


def test_midpoint_factor_eliminates_the_state_rows():
    metric = Metric(complex_for("torus", SMALL["torus"]))
    ap, aq = initial_state(metric, 1, 2, "random")
    step_implicit_midpoint(StokesDiracSystem(metric, 1, 2, ap, aq), 0.01)
    K, _, lu, _ = metric._memo[("midpoint", 1, 2, 0.01)]
    size = metric.complex.num_simplices
    assert lu.shape == (K.shape[0] - size(1) - size(2),) * 2


def test_run_keeps_no_shift_invert_factor():
    # simulate runs no mixed solve, so every basis drops its saddle factor
    metric = Metric(complex_for("torus", 5))
    ap, aq = initial_state(metric, 1, 2, "random")
    run(StokesDiracSystem(metric, 1, 2, ap, aq), SimulationConfig(dt=0.01, steps=3))
    assert {key[0] for key in factored_keys(metric)} == {"mass_lu", "midpoint"}


def test_refined_midpoint_solves_the_cayley_equation():
    # unrefined, the factor's backward error on ball:5 (2, 2) is ~4e-10
    # and this residual ~3e-9
    metric = metric_for("ball", 5)
    ap, aq = initial_state(metric, 2, 2, "random", seed=5)
    sys = StokesDiracSystem(metric, 2, 2, ap, aq)
    for dt in (0.01, -0.01):
        _, w, _ = _midpoint(sys, dt)
        f_p, f_q = flows(w)
        r_p = w.alpha_p - 0.5 * dt * f_p - ap
        r_q = w.alpha_q - 0.5 * dt * f_q - aq
        resid = norm(metric, r_p) + norm(metric, r_q)
        assert resid <= 1e-12 * (norm(metric, ap) + norm(metric, aq)), dt


@pytest.mark.parametrize("solve", ["midpoint", "hmf"])
def test_unconverged_refinement_raises(monkeypatch, solve):
    # one bound serves both refined solves: the midpoint step and the
    # mixed solves of the HMF split
    monkeypatch.setattr(metric_mod, "BACKWARD_ERROR_BOUND", 0.0)
    with pytest.raises(SolverFailure, match="backward error"):
        if solve == "midpoint":
            step_implicit_midpoint(_sys("torus", 1, 2), 0.01)
        else:
            m = metric_for("annulus", SMALL["annulus"])
            hodge_morrey_friedrichs(m, random_cochain(m.complex, 1, np.random.default_rng(0)))


@pytest.mark.parametrize("stride", [0, 3])
def test_run_checks_the_solve_flows_independently(monkeypatch, stride):
    # corrupt the z, e (and so the flows) the solve returns from the first
    # step (stride 0: caught at step 1) or from the third (caught at the
    # snapshot)
    calls = []

    def corrupted(state, dt):
        new, mid, port = _midpoint(state, dt)
        calls.append(dt)
        if stride == 0 or len(calls) >= stride:
            port = [
                dataclasses.replace(s, z=1.001 * s.z, effort=1.001 * s.effort, flow=1.001 * s.flow)
                for s in port
            ]
        return new, mid, port

    monkeypatch.setattr(sim, "_midpoint", corrupted)
    sys = _sys("torus", 1, 2)
    with pytest.raises(SolverFailure, match="flows differ"):
        run(sys, SimulationConfig(dt=0.01, steps=5, stride=stride))
    assert len(calls) == (1 if stride == 0 else stride)


def test_torus40_runs_forward_and_back():
    # the dense step spent about 10 s on the first step here
    metric = Metric(complex_for("torus", 40))
    ap, aq = initial_state(metric, 1, 2, "random", seed=40)
    sys = StokesDiracSystem(metric, 1, 2, ap, aq)
    trace = run(sys, SimulationConfig(dt=0.01, steps=10, stride=10))
    h = np.array([row[1] for row in trace.rows])
    assert np.max(np.abs(h - h[0])) <= 1e-10 * h[0]
    _, fp, fq = trace.snapshots[-1]
    back = StokesDiracSystem(metric, 1, 2, fp, fq)
    for _ in range(10):
        back = step_implicit_midpoint(back, -0.01)
    s = norm(metric, ap) + norm(metric, aq)
    rev = norm(metric, back.alpha_p - ap) + norm(metric, back.alpha_q - aq)
    assert rev <= 1e-8 * s
    size = metric.complex.num_simplices
    assert _memo_arrays_at_least(metric, min(size(1), size(2)) ** 2) == []


def test_run_produces_full_trace():
    sys = _sys("torus", 1, 2, seed=2)
    cfg = SimulationConfig(dt=0.02, steps=25, stride=10)
    trace = run(sys, cfg)
    assert len(trace.rows) == 26
    b1 = harmonic_basis(sys.metric, 1, "neumann").dim
    b2 = harmonic_basis(sys.metric, 2, "neumann").dim
    expected = ["t", "H", "dHdt_residual", "boundary_power"]
    expected += [f"harm_p_{i}" for i in range(b1)] + [f"harm_q_{i}" for i in range(b2)]
    assert trace.header == expected
    assert [r[0] for r in trace.rows] == pytest.approx([0.02 * k for k in range(26)])
    # snapshots at every stride-th step, starting at step 0
    assert [s[0] for s in trace.snapshots] == [0, 10, 20]
    assert trace.dt_spectral_radius == pytest.approx(
        0.02 * trace.spectral_radius_estimate
    )
    lines = trace.csv_lines()
    assert lines[0] == ",".join(expected)
    assert len(lines) == 27


def test_run_conserves_energy_and_harmonic_charges():
    sys = _sys("torus", 1, 2, seed=4)
    trace = run(sys, SimulationConfig(dt=0.01, steps=100))
    h = np.array([r[1] for r in trace.rows])
    assert np.max(np.abs(h - h[0])) <= 1e-11 * h[0]
    cols = np.array(trace.rows)[:, 4:]
    drift = np.max(np.abs(cols - cols[0]), axis=0)
    scale = max(1.0, np.max(np.abs(cols[0])))
    assert np.all(drift <= 1e-9 * scale)


def test_run_balance_on_bounded_mesh():
    sys = _sys("disk", 1, 2, seed=6)
    trace = run(sys, SimulationConfig(dt=0.005, steps=40))
    residuals = [r[2] for r in trace.rows[1:]]
    h = [r[1] for r in trace.rows]
    for k, res in enumerate(residuals, start=1):
        rate = abs(h[k] - h[k - 1]) / 0.005
        assert res <= 1e-8 * max(1.0, rate)


def test_harmonic_seed_is_a_fixed_point_coordinate():
    # the Neumann charge injected at t=0 survives the whole run
    sys = _sys("torus", 1, 2, init="harmonic:1:0:1.0")
    trace = run(sys, SimulationConfig(dt=0.01, steps=50))
    first = trace.rows[0][4]
    assert first == pytest.approx(1.0, abs=1e-10)
    charges = [r[4] for r in trace.rows]
    assert np.max(np.abs(np.array(charges) - first)) <= 1e-10


@pytest.mark.parametrize("shape", sorted(ACCEPTANCE))
def test_spectral_radius_matches_dense_svd(shape):
    # solid_torus at (2, 2) has A = 0, from which ARPACK cannot start.
    metric = metric_for(shape, ACCEPTANCE[shape])
    for p, q in valid_pairs(metric.complex.dimension):
        ops = dense_port_operators(metric, p, q)
        flow_p, flow_q = ops["flow_p"], ops["flow_q"]
        n_p = flow_q.shape[1]
        generator = np.zeros((n_p + flow_p.shape[1],) * 2)
        generator[:n_p, n_p:] = flow_p
        generator[n_p:, :n_p] = flow_q
        sigma_max = np.linalg.svd(generator, compute_uv=False)[0]
        estimate = _spectral_radius_estimate(metric, p, q)
        assert estimate == pytest.approx(sigma_max, rel=1e-6), (p, q)


def _assert_same_column(got, expect):
    assert np.abs(got - expect).max() <= 1e-13 * max(np.abs(expect).max(), 1e-300)


@pytest.mark.parametrize("shape", sorted(SMALL))
def test_solve_returns_the_port_action_of_the_midpoint(shape):
    metric = metric_for(shape, SMALL[shape])
    for p, q in valid_pairs(metric.complex.dimension):
        ap, aq = initial_state(metric, p, q, "random", seed=3)
        for dt in (0.01, -0.01):
            _, mid, port = _midpoint(StokesDiracSystem(metric, p, q, ap, aq), dt)
            for got, expect in zip(port, _port_action(mid)):
                _assert_same_column(got.z.values, expect.z.values)
                _assert_same_column(got.effort.values, expect.effort.values)


def test_spectral_radius_estimate_runs_once_per_pair(monkeypatch):
    # a fresh metric: the first run computes the bases and the estimate,
    # the second finds both in the memo and calls no eigensolver
    metric = Metric(complex_for("torus", SMALL["torus"]))
    ap, aq = initial_state(metric, 1, 2, "random")
    sys = StokesDiracSystem(metric, 1, 2, ap, aq)
    calls = []
    eigsh = spla.eigsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counted)
    config = SimulationConfig(dt=0.01, steps=2)
    first = run(sys, config)
    estimated = len(calls)
    second = run(sys, config)
    assert estimated > 0 and len(calls) == estimated
    assert second.spectral_radius_estimate == first.spectral_radius_estimate
