import math

import numpy as np
import pytest

from todalab import IntegratorConfig, evolve_tangent, optimal_mu, verify_light_cone
from todalab.ghs import (PotentialSpec, confinement_bound,
                         factorial_tail_envelope, ghs_cone_constant,
                         ghs_energy, ghs_envelope, ghs_rhs,
                         ghs_stability_diagnostics,
                         ghs_velocity, quadratic_floor)
from todalab.integrators import integrate
from todalab.state import GHSState, toda_rhs

FIX = IntegratorConfig(method="rk4-fixed", step=0.02)

EXPECTED = {
    "toda_M_E_at_1": 1.8414056604087818,
    "toda_floor_at_M_E": 0.29491784537034876,
}


def bump_state(n, amp=1.0, width=3.0):
    sites = np.arange(n) - n // 2
    p = amp * np.exp(-((sites / width) ** 2))
    return GHSState(np.zeros(n), p, -(n // 2), (0.0, 0.0))


def test_potential_families():
    toda = PotentialSpec(family="toda")
    assert float(toda.V(0.0)) == 0.0
    assert float(toda.dV(0.0)) == 0.0
    assert float(toda.d2V(0.0)) == 1.0
    assert float(toda.V(1.0)) == pytest.approx(math.e ** -1)
    q = PotentialSpec(family="quartic", beta=0.4)
    assert float(q.V(2.0)) == pytest.approx(2.0 + 0.1 * 16.0)
    assert float(q.dV(2.0)) == pytest.approx(2.0 + 0.4 * 8.0)
    assert float(q.d2V(2.0)) == pytest.approx(1.0 + 1.2 * 4.0)


def test_potential_validation():
    with pytest.raises(ValueError):
        PotentialSpec(family="morse")
    with pytest.raises(ValueError):
        PotentialSpec(family="quartic", beta=-1.0)
    with pytest.raises(ValueError):
        PotentialSpec(family="custom", v=np.cos)
    with pytest.raises(ValueError):
        # V(0) != 0
        PotentialSpec(family="custom", v=lambda x: np.cos(x),
                      dv=lambda x: -np.sin(x), d2v=lambda x: -np.cos(x))
    with pytest.raises(ValueError):
        # V''(0) < 0
        PotentialSpec(family="custom", v=lambda x: -x * x,
                      dv=lambda x: -2 * x, d2v=lambda x: -2.0 + 0 * x)


def test_rhs_hand_values():
    s = GHSState(np.array([0.1, -0.2, 0.3]), np.array([1.0, 0.5, -0.5]), 0, (0.0, 0.0))
    pot = PotentialSpec(family="quartic", beta=0.0)   # V'(x) = x
    dr, dp = ghs_rhs(s, pot)
    assert np.allclose(dr, [0.5 - 1.0, -0.5 - 0.5, 0.0 - (-0.5)])
    assert np.allclose(dp, [0.1 - 0.0, -0.2 - 0.1, 0.3 - (-0.2)])


def test_tangent_rhs_matches_directional_derivative():
    rng = np.random.default_rng(0)
    s = GHSState(rng.normal(0, 0.3, 21), rng.normal(0, 0.3, 21), -10, (0.0, 0.0))
    pot = PotentialSpec(family="toda")
    vr = rng.standard_normal(21)
    vp = rng.standard_normal(21)
    h = 1e-6
    up = GHSState(s.r + h * vr, s.p + h * vp, s.offset, s.background)
    dn = GHSState(s.r - h * vr, s.p - h * vp, s.offset, s.background)
    fr_u, fp_u = ghs_rhs(up, pot)
    fr_d, fp_d = ghs_rhs(dn, pot)
    got_r, got_p = ghs_rhs(s, pot, vr, vp)[2:]
    err = max(np.max(np.abs(got_r - (fr_u - fr_d) / (2 * h))),
              np.max(np.abs(got_p - (fp_u - fp_d) / (2 * h))))
    print("tangent rhs err:", err)
    assert err < 1e-7


def test_single_spike_energy():
    s = GHSState(np.zeros(5), np.array([0.0, 0.0, 1.0, 0.0, 0.0]), -2, (0.0, 0.0))
    assert ghs_energy(s, PotentialSpec(family="toda")) == 0.5


def test_energy_conservation():
    x = bump_state(121)
    for pot in (PotentialSpec(family="toda"), PotentialSpec(family="quartic", beta=0.1)):
        traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, FIX, sample_dt=0.25)
        drift = traj.energy_drift(lambda s: ghs_energy(s, pot))
        print(pot.family, "drift:", drift)
        assert traj.clean
        assert drift < 1e-9


def test_confinement_bound_toda():
    pot = PotentialSpec(family="toda")
    m = confinement_bound(pot, 1.0)
    print(m)
    assert m == pytest.approx(EXPECTED["toda_M_E_at_1"], abs=1e-9)
    # the asymmetric well grows slowest to the right, so the larger root is
    # on the positive side
    assert float(pot.V(m)) == pytest.approx(1.0, abs=1e-8)
    assert confinement_bound(pot, 0.0) == 0.0
    with pytest.raises(ValueError):
        confinement_bound(pot, -1.0)


def test_confinement_bound_quartic_closed_form():
    q = PotentialSpec(family="quartic", beta=0.1)
    m = confinement_bound(q, 2.0)
    assert float(q.V(m)) == pytest.approx(2.0, abs=1e-12)
    assert m == pytest.approx(math.sqrt((math.sqrt(1.0 + 0.8) - 1.0) / 0.1))
    assert confinement_bound(PotentialSpec(family="quartic", beta=0.0), 2.0) \
        == pytest.approx(2.0)
    # bisection on a custom clone of the same well agrees with the closed form
    clone = PotentialSpec(family="custom",
                          v=lambda x: 0.5 * x * x + 0.025 * np.asarray(x) ** 4,
                          dv=lambda x: x + 0.1 * np.asarray(x) ** 3,
                          d2v=lambda x: 1.0 + 0.3 * np.asarray(x) ** 2)
    assert confinement_bound(clone, 2.0) == pytest.approx(m, abs=1e-9)


def test_non_confining_potential_detected():
    flat = PotentialSpec(
        family="custom",
        v=lambda x: np.asarray(x) ** 2 / (1.0 + np.asarray(x) ** 2),
        dv=lambda x: 2.0 * np.asarray(x) / (1.0 + np.asarray(x) ** 2) ** 2,
        d2v=lambda x: 2.0 * (1.0 - 3.0 * np.asarray(x) ** 2) / (1.0 + np.asarray(x) ** 2) ** 3)
    with pytest.raises(ValueError, match="confining"):
        confinement_bound(flat, 2.0)     # the well tops out below this level


def test_quadratic_floor():
    q = PotentialSpec(family="quartic", beta=0.1)
    assert quadratic_floor(q, 2.0) == 0.5      # V/x^2 >= 1/2, limit at 0
    toda = PotentialSpec(family="toda")
    m = confinement_bound(toda, 1.0)
    c = quadratic_floor(toda, m)
    print("toda floor:", c)
    assert c == pytest.approx(EXPECTED["toda_floor_at_M_E"], rel=1e-6)
    # it is a genuine floor on the sampled range
    x = np.linspace(-m, m, 501)
    x = x[np.abs(x) > 1e-6]
    assert np.all(np.asarray(toda.V(x)) >= c * x * x - 1e-12)


def test_stability_bounds_hold():
    x = bump_state(121)
    pot = PotentialSpec(family="toda")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, FIX, sample_dt=0.25)
    stab = ghs_stability_diagnostics(traj, pot)
    print(stab)
    assert stab.ok
    # all-zero r at t = 0 puts the whole energy in p, so the momentum bound
    # is attained exactly at the first sample
    assert stab.p_l2_max == pytest.approx(stab.p_l2_bound, abs=1e-12)
    assert stab.r_inf_max < stab.M_E
    assert stab.q_inf_max <= stab.q_inf_bound_final


def test_stability_requires_confining_flag():
    x = bump_state(41)
    pot = PotentialSpec(family="toda", confining=False)
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 0.5, FIX, n_samples=3)
    with pytest.raises(ValueError):
        ghs_stability_diagnostics(traj, pot)


def test_cone_constant_and_velocity():
    x = bump_state(121)
    pot = PotentialSpec(family="toda")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, FIX, sample_dt=0.25)
    c = ghs_cone_constant(traj, pot)
    print("C:", c, "sup|V'|:", float(np.abs(pot.dV(traj.r)).max()))
    assert c == 1.0              # sup |V'| < 1 on this run, clamped from below
    mu0, _ = optimal_mu()
    assert ghs_velocity(mu0, traj, pot) == pytest.approx(
        2.0 * (math.exp(mu0 + 1.0) + 1.0 / mu0))
    with pytest.raises(ValueError):
        ghs_velocity(0.0, traj, pot)


def test_cone_holds_on_run():
    mu0, _ = optimal_mu()
    x = bump_state(121)
    pot = PotentialSpec(family="toda")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, FIX, sample_dt=0.25)
    g = evolve_tangent(x, (0, "p"), 2.0, FIX, flow="ghs", potential=pot,
                       sample_dt=0.25)
    rep = verify_light_cone(g, ghs_envelope(mu0, traj, pot))
    print("violations:", rep.n_violations, "ratio:", rep.max_ratio)
    assert rep.clean
    assert rep.n_violations == 0
    # the seed point t = 0, d = 0 saturates the envelope exactly
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_factorial_tail_envelope():
    # distance zero recovers C e^{2 C t}
    assert factorial_tail_envelope(1.0, 0.0, 1.0) == pytest.approx(math.exp(2.0))
    vals = factorial_tail_envelope(1.0, np.arange(8), 1.0)
    assert np.all(np.diff(vals) < 0.0)
    # truncated exponential series, checked against direct summation
    brute = sum(2.0 ** k / math.factorial(k) for k in range(3, 60))
    assert vals[3] == pytest.approx(brute, rel=1e-12)


def test_toda_family_maps_to_flaschka_flow():
    # evolving the chain then mapping a = e^{-r/2}/2, b = -p/2 agrees with
    # evolving the mapped initial data under the lattice field
    x = bump_state(121)
    pot = PotentialSpec(family="toda")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, FIX, sample_dt=0.25)
    mapped = traj.to_lattice_trajectory()
    direct = integrate(mapped.state(0), toda_rhs, 3.0, FIX, sample_dt=0.25)
    err = max(float(np.max(np.abs(mapped.a - direct.a))),
              float(np.max(np.abs(mapped.b - direct.b))))
    print("map err:", err)
    assert err < 1e-8
    assert mapped.background == (0.5, 0.0)


def test_chain_run_rebuilds_chain_states():
    # integrate() and evolve_tangent() on a chain state give runs whose
    # samples are chain states again, and the chain energy goes through the
    # run's own drift
    x = bump_state(41)
    pot = PotentialSpec(family="toda")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 2.0, FIX, sample_dt=0.5)
    for i in range(traj.n_samples):
        s = traj.state(i)
        assert type(s) is GHSState
        assert np.array_equal(s.r, traj.r[i]) and np.array_equal(s.p, traj.p[i])
        assert (s.offset, s.background) == (x.offset, x.background)
    grid = evolve_tangent(x, (0, "p"), 1.0, FIX, "ghs", potential=pot, n_samples=3)
    assert type(grid.base.state(2)) is GHSState
    assert np.array_equal(grid.base.state(2).p, grid.base.p[2])
    assert traj.energy_drift(lambda s: ghs_energy(s, pot)) <= 1e-8
