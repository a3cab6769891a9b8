import numpy as np
import pytest

from harmonic_ports import (
    SimulationConfig,
    StokesDiracSystem,
    hamiltonian,
    harmonic_basis,
    initial_state,
    norm,
    random_cochain,
    run,
    step_implicit_midpoint,
)

from conftest import SMALL, metric_for


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
