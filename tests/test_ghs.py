import math

import numpy as np
import pytest

from scipy.special import lambertw

from oracles import central_difference, sampled_quadratic_floor
from todalab import IntegratorConfig, evolve_tangent, optimal_mu, verify_light_cone
from todalab.ghs import (PotentialSpec, confinement_bound,
                         factorial_tail_envelope, ghs_cone_constant,
                         ghs_energy, ghs_envelope, ghs_rhs,
                         ghs_stability_diagnostics,
                         ghs_velocity, quadratic_floor)
from todalab.integrators import Trajectory, drift, integrate
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
    # the toda potential reads no beta, so a beta there was silently ignored
    with pytest.raises(ValueError, match="toda family takes no beta, got 0.5"):
        PotentialSpec(family="toda", beta=0.5)
    assert PotentialSpec(family="toda", beta=0.0).beta == 0.0


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
    fd_r, fd_p = central_difference(lambda st: ghs_rhs(st, pot), s, vr, vp)
    got_r, got_p = ghs_rhs(s, pot, vr, vp)[2:]
    err = max(np.max(np.abs(got_r - fd_r)), np.max(np.abs(got_p - fd_p)))
    print("tangent rhs err:", err)
    assert err < 1e-7


def test_single_spike_energy():
    s = GHSState(np.zeros(5), np.array([0.0, 0.0, 1.0, 0.0, 0.0]), -2, (0.0, 0.0))
    assert ghs_energy(s, PotentialSpec(family="toda")) == 0.5


def test_energy_conservation():
    x = bump_state(121)
    for pot in (PotentialSpec(family="toda"), PotentialSpec(family="quartic", beta=0.1)):
        traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, FIX, sample_dt=0.25)
        energy_drift = drift(traj.energy_series(lambda s: ghs_energy(s, pot)))
        print(pot.family, "drift:", energy_drift)
        assert traj.clean(10)
        assert energy_drift < 1e-9


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
    # the bisection against the closed form: e^{-x} + x - 1 = E at
    # x = E + 1 + W_k(-e^{-(E+1)}), the positive root on the principal branch
    # k = 0 and the negative one on k = -1
    for energy in (0.1, 0.5, 2.0, 10.0):
        z = -math.exp(-(energy + 1.0))
        right = energy + 1.0 + lambertw(z, 0).real
        left = energy + 1.0 + lambertw(z, -1).real
        print(energy, right, left)
        assert confinement_bound(pot, energy) == pytest.approx(max(right, -left), abs=1e-9)


def test_confinement_bound_quartic_closed_form():
    q = PotentialSpec(family="quartic", beta=0.1)
    m = confinement_bound(q, 2.0)
    assert float(q.V(m)) == pytest.approx(2.0, abs=1e-12)
    assert m == pytest.approx(math.sqrt((math.sqrt(1.0 + 0.8) - 1.0) / 0.1))
    assert confinement_bound(PotentialSpec(family="quartic", beta=0.0), 2.0) \
        == pytest.approx(2.0)


def test_non_confining_potential_detected():
    # a toda spec whose V is replaced by a well that tops out at 1: the
    # bisection is the code path that meets a potential of any shape
    flat = PotentialSpec(family="toda")
    flat.V = lambda x: np.asarray(x) ** 2 / (1.0 + np.asarray(x) ** 2)
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


POTENTIALS = [PotentialSpec("toda")] + [PotentialSpec("quartic", beta) for beta in (0.0, 0.1, 3.0)]


@pytest.mark.parametrize("pot", POTENTIALS, ids=lambda p: f"{p.family}-{p.beta}")
def test_quadratic_floor_is_the_sampled_floor_from_the_ends(pot):
    """V/x^2 is least at an end of [-M, M] or in the x -> 0 limit, so the
    floor reads V at the two ends only, a scalar each time, and gives the
    bits of the least of V/x^2 over 2001 samples of the interval."""
    calls = []
    spied = PotentialSpec(pot.family, pot.beta)
    spied.V = lambda x: calls.append(np.size(x)) or pot.V(x)
    for energy in [1e-6, 1e-4, 0.01, 0.1, 1.0, 3.0, 10.0, 100.0]:
        m = confinement_bound(pot, energy)
        assert quadratic_floor(spied, m) == sampled_quadratic_floor(pot, m)
    assert quadratic_floor(pot, 0.0) == sampled_quadratic_floor(pot, 0.0) == 0.5
    assert calls == [1] * 16


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


@pytest.mark.parametrize("pot", [PotentialSpec(family="toda"),
                                 PotentialSpec(family="quartic", beta=0.1)])
@pytest.mark.parametrize("amp", [0.3, 1.0, 2.0])
def test_the_momentum_bound_implies_the_position_bound(pot, amp):
    """q reconstructed by trapezoidal p-integration moves by at most
    sum dt (|p_i| + |p_{i+1}|) / 2 <= t max ||p||_2, so it stays inside
    ||q(0)||_inf + sqrt(2E) |t| whenever ||p||_2 <= sqrt(2E) holds, which
    is why the diagnostics check no position bound."""
    traj = integrate(bump_state(121, amp), lambda s: ghs_rhs(s, pot), 3.0, FIX,
                     sample_dt=0.25)
    stab = ghs_stability_diagnostics(traj, pot)
    assert stab.ok and stab.p_l2_max <= stab.p_l2_bound + 1e-12
    q0 = np.concatenate(([0.0], np.cumsum(traj.r[0])))[:-1]
    steps = 0.5 * np.diff(traj.times)[:, np.newaxis] * (traj.p[1:] + traj.p[:-1])
    q = q0 + np.vstack((np.zeros(traj.n_sites), np.cumsum(steps, axis=0)))
    q_bound = np.abs(q0).max() + stab.p_l2_bound * traj.times
    assert np.all(np.abs(q).max(axis=1) <= q_bound + 1e-9)


def test_cone_constant_and_velocity():
    x = bump_state(121)
    pot = PotentialSpec(family="toda")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, FIX, sample_dt=0.25)
    c = ghs_cone_constant(traj, pot)
    print("C:", c, "sup|V'|:", float(np.abs(pot.dV(traj.r)).max()))
    assert c == 1.0              # sup |V'| < 1 on this run, clamped from below
    mu0, _ = optimal_mu()
    assert ghs_velocity(mu0, c) == pytest.approx(
        2.0 * (math.exp(mu0 + 1.0) + 1.0 / mu0))
    with pytest.raises(ValueError):
        ghs_velocity(0.0, c)


def test_envelope_reads_the_run_once(monkeypatch):
    """ghs_envelope measures C in one pass over the run and hands it to
    ghs_velocity."""
    x = bump_state(61)
    pot = PotentialSpec(family="quartic", beta=0.1)
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 1.0, FIX, sample_dt=0.25)
    mu0, _ = optimal_mu()
    shapes, dV = [], PotentialSpec.dV
    monkeypatch.setattr(PotentialSpec, "dV", lambda self, r: shapes.append(np.shape(r)) or dV(self, r))
    env = ghs_envelope(mu0, traj, pot)
    assert shapes == [traj.r.shape]
    assert (env.prefactor, env.speed) == (env.params["C"], ghs_velocity(mu0, env.params["C"]))


def test_cone_holds_on_run():
    mu0, _ = optimal_mu()
    x = bump_state(121)
    pot = PotentialSpec(family="toda")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 3.0, FIX, sample_dt=0.25)
    g = evolve_tangent(x, (0, "p"), 2.0, FIX, flow="ghs", spec=pot,
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


@pytest.mark.parametrize("c,d,t", [(1.0, 1950, 352.5), (1.0, 1950, 360.0), (1.0, 0, 1.0),
                                   (1.0, 0, 300.0), (2.5, 40, 3.0), (1.0, 1, 1e-3)])
def test_factorial_tail_envelope_matches_mpmath(c, d, t):
    """C sum_{k >= d} x^k / k!, x = 2 C |t|, against mpmath's e^x P(d, x) at
    60 digits.  At (1, 1950, 352.5) scipy's gammainc underflows to 0.0
    where the tail is 2.67e-17, and at t = 360, e^{2 C t} overflows a
    double while the tail at d = 1950 is 18.2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.mpf(2.0 * c * abs(t))
        p = mpmath.gammainc(d, 0, x, regularized=True) if d > 0 else 1
        exact = float(c * mpmath.exp(x) * p)
    assert factorial_tail_envelope(c, d, t) == pytest.approx(exact, rel=1e-11, abs=0.0)


def test_factorial_tail_envelope_at_the_ends():
    # t = 0 leaves only the k = 0 term; at distance 0, e^x beyond the double
    # range is +inf, while the tail at d = 1950 stays finite (the mpmath case)
    assert factorial_tail_envelope(2.0, np.arange(4), 0.0).tolist() == [2.0, 0.0, 0.0, 0.0]
    assert factorial_tail_envelope(1.0, 0, 360.0) == math.inf


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


def test_lattice_map_of_a_run_names_the_first_bad_sample():
    # a chain sample with r = -1500 maps to a = inf and one with r = 1600 to
    # a = 0; the mapped run is checked like a solve's, not returned silently
    times = np.array([0.0, 0.5, 1.0])
    for r_bad, what in ((-1500.0, "non-finite a"), (1600.0, "a_n = 0")):
        r = np.zeros((3, 7))
        r[1, 4] = r_bad
        r[2, 2] = r_bad
        run = Trajectory(times, r, np.zeros((3, 7)), -3, (0.0, 0.0), GHSState)
        with pytest.raises(ValueError) as err:
            run.to_lattice_trajectory()
        assert str(err.value) == f"LatticeState run: {what} at t=0.5, site 1"


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
    grid = evolve_tangent(x, (0, "p"), 1.0, FIX, "ghs", spec=pot, sample_dt=0.5)
    assert type(grid.base.state(2)) is GHSState
    assert np.array_equal(grid.base.state(2).p, grid.base.p[2])
    assert drift(traj.energy_series(lambda s: ghs_energy(s, pot))) <= 1e-8
