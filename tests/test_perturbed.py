import math

import numpy as np
import pytest

from oracles import central_difference
from todalab import (IntegratorConfig, PerturbationSpec,
                     SolitonSpec, background_state, evolve_tangent, optimal_mu,
                     perturbed_envelope, random_localized_state, soliton_state,
                     verify_light_cone)
from todalab.integrators import Trajectory, integrate
from todalab.perturbed import monitor_trajectory, perturbed_rhs
from todalab.state import jacobi_norm_within, toda_rhs

FIX = IntegratorConfig(method="rk4-fixed", step=0.02)


def test_spec_declared_norms():
    c = PerturbationSpec(family="cosine", w0=0.3)
    assert c.dw_sup == 0.3 and c.d2w_sup == 0.3
    r = PerturbationSpec(family="rational", w0=0.4)
    assert r.dw_sup == pytest.approx(0.375 * math.sqrt(3.0) * 0.4)
    assert r.d2w_sup == pytest.approx(0.8)


@pytest.mark.parametrize("family", ["cosine", "rational"])
def test_declared_norms_bound_sampled_derivatives(family):
    spec = PerturbationSpec(family=family, w0=1.0)
    u = np.linspace(-30.0, 30.0, 400001)
    m1 = float(np.max(np.abs(spec.dW(u))))
    m2 = float(np.max(np.abs(spec.d2W(u))))
    print(family, m1, spec.dw_sup, m2, spec.d2w_sup)
    assert m1 <= spec.dw_sup + 1e-12
    assert m2 <= spec.d2w_sup + 1e-12
    # and the declared values are attained, not just upper bounds
    assert m1 > spec.dw_sup - 1e-3
    assert m2 > spec.d2w_sup - 1e-3


def test_potential_closed_forms():
    c = PerturbationSpec(family="cosine", w0=0.2)
    assert c.W(math.pi) == pytest.approx(0.4)
    assert c.dW(math.pi / 2.0) == pytest.approx(0.2)
    r = PerturbationSpec(family="rational", w0=0.2)
    assert r.W(1.0) == pytest.approx(0.1)
    assert r.dW(1.0) == pytest.approx(0.1)
    assert r.d2W(1.0) == pytest.approx(-0.1)
    assert r.d2W(0.0) == pytest.approx(0.4)


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(family="exp")
    with pytest.raises(ValueError):
        PerturbationSpec(family="cosine", w0=-0.1)
    assert PerturbationSpec(family="cosine", w0=0.0).vanishes
    assert not PerturbationSpec(family="cosine", w0=0.1).vanishes


def test_forcing_vanishes_on_background():
    bg = background_state(31)
    r = perturbed_rhs(bg, PerturbationSpec(family="cosine", w0=0.5))[1] - toda_rhs(bg)[1]
    assert np.all(r == 0.0)


def test_forcing_telescopes():
    x = random_localized_state(41, seed=3)
    spec = PerturbationSpec(family="rational", w0=0.3)
    r = perturbed_rhs(x, spec)[1] - toda_rhs(x)[1]       # R_n
    u_last = math.log(4.0 * x.a[-1] ** 2)
    u_bg = math.log(4.0 * x.background[0] ** 2)
    total = 0.5 * (spec.dW(u_last) - spec.dW(u_bg))
    assert float(np.sum(r)) == pytest.approx(total, abs=1e-14)


def test_zero_forcing_is_bitwise_toda():
    x = random_localized_state(41, seed=5)
    da0, db0 = toda_rhs(x)
    da, db = perturbed_rhs(x, PerturbationSpec(family="cosine", w0=0.0))
    assert np.array_equal(da, da0) and np.array_equal(db, db0)


def test_tangent_rhs_matches_directional_derivative():
    x = random_localized_state(61, seed=11)
    spec = PerturbationSpec(family="cosine", w0=0.2)
    rng = np.random.default_rng(1)
    va = rng.standard_normal(x.n_sites)
    vb = rng.standard_normal(x.n_sites)
    got_a, got_b = perturbed_rhs(x, spec, va, vb)[2:]
    ref_a, ref_b = central_difference(lambda s: perturbed_rhs(s, spec), x, va, vb)
    err = max(np.max(np.abs(got_a - ref_a)), np.max(np.abs(got_b - ref_b)))
    print("tangent rhs err:", err)
    assert err < 1e-7



def test_monitors_on_background():
    bg = background_state(61)
    traj = integrate(bg, lambda s: perturbed_rhs(s, PerturbationSpec(w0=0.0)),
                     1.0, FIX, sample_dt=0.25)
    m = monitor_trajectory(traj)
    assert m.C1 == 0.5
    assert m.C2 == 2.0
    assert not m.unbounded
    assert m.Lnorm0 == pytest.approx(math.cos(math.pi / 62.0), abs=1e-12)
    assert m.horizon == 1.0


def test_monitors_on_soliton():
    sol = soliton_state(SolitonSpec(kappa=1.0), 121)
    traj = integrate(sol, lambda s: perturbed_rhs(s, PerturbationSpec(w0=0.0)),
                     2.0, FIX, sample_dt=0.25)
    m = monitor_trajectory(traj)
    print("C1:", m.C1)
    # peak off-diagonal cosh(k)/2 dominates the diagonal peak and is attained
    # at t = 0; the profile never exceeds it while traveling
    assert m.C1 == pytest.approx(math.cosh(1.0) / 2.0, abs=1e-9)
    assert not m.unbounded


def test_unbounded_flag_on_growing_tail():
    times = np.linspace(0.0, 1.0, 11)
    a = 0.5 + 0.1 * times[:, None] * np.ones((11, 7))
    b = np.zeros((11, 7))
    traj = Trajectory(times, a, b, -3, (0.5, 0.0))
    assert monitor_trajectory(traj).unbounded


def test_norm_growth_line():
    x = random_localized_state(121, seed=7)
    spec = PerturbationSpec(family="cosine", w0=0.1)
    traj = integrate(x, lambda s: perturbed_rhs(s, spec), 3.0, FIX, sample_dt=0.25)
    m = monitor_trajectory(traj)
    line = m.Lnorm0 + spec.dw_sup * traj.times
    norms = traj.norm_series()
    excess = float(np.max(norms - line))
    print("excess over norm line:", excess)
    assert excess <= 1e-9
    # the eigenvalue count gives the series' verdict sample by sample
    gate = jacobi_norm_within(traj.a, traj.b, line + 1e-9)
    assert np.array_equal(gate, norms <= line + 1e-9) and gate.all()
    assert not m.unbounded
    assert float(np.abs(traj.a).min()) > 0.0   # off-diagonal keeps its sign


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["top-edge", "bottom-edge"])
def test_norm_gate_finds_the_crossing_sample(sign):
    """A window whose diagonal shifts by s(t) has ||L(t)|| = |s(t)| + cos(pi/8):
    below the growth line everywhere except at sample 7, where it crosses."""
    times = np.linspace(0.0, 1.0, 11)
    w1 = 0.1
    shift = 0.5 * w1 * times
    shift[7] = w1 * times[7] + 0.01
    b = sign * shift[:, None] * np.ones((11, 7))
    traj = Trajectory(times, np.full((11, 7), 0.5), b, -3, (0.5, 0.0))
    m = monitor_trajectory(traj)
    line = m.Lnorm0 + w1 * times + 1e-9
    gate = jacobi_norm_within(traj.a, traj.b, line)
    assert m.Lnorm0 == pytest.approx(math.cos(math.pi / 8.0), abs=1e-15)
    assert np.flatnonzero(~gate).tolist() == [7]
    assert np.array_equal(gate, traj.norm_series() <= line)
    assert not np.all(gate)


def test_small_forcing_continuity():
    x = random_localized_state(121, seed=7)
    g0 = evolve_tangent(x, (0, "b"), 2.0, FIX, flow="toda", sample_dt=0.5)
    diffs = {}
    for w0 in (1e-2, 1e-3):
        gw = evolve_tangent(x, (0, "b"), 2.0, FIX, flow="perturbed",
                            spec=PerturbationSpec(family="cosine", w0=w0),
                            sample_dt=0.5)
        diffs[w0] = float(np.max(np.abs(gw.observed() - g0.observed())))
    ratio = diffs[1e-2] / diffs[1e-3]
    print("continuity ratio:", ratio)
    assert abs(ratio - 10.0) < 0.2     # grid difference scales linearly in w0


def test_perturbed_cone_holds_on_run():
    mu0, _ = optimal_mu()
    x = random_localized_state(121, seed=7)
    spec = PerturbationSpec(family="cosine", w0=0.1)
    g = evolve_tangent(x, (0, "b"), 2.0, FIX, flow="perturbed",
                       spec=spec, sample_dt=0.25)
    traj = integrate(x, lambda s: perturbed_rhs(s, spec), 2.0, FIX, sample_dt=0.25)
    m = monitor_trajectory(traj)
    rep = verify_light_cone(g, perturbed_envelope(mu0, m.C1, m.C2, spec.d2w_sup))
    print("violations:", rep.n_violations, "max ratio:", rep.max_ratio)
    assert rep.clean
    assert rep.n_violations == 0
    assert rep.max_ratio < 1.0
