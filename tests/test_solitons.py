import math

import numpy as np
import pytest

from oracles import relative_to_lattice, soliton_pq
from todalab import (GHSState, IntegratorConfig, LatticeState, SolitonSpec,
                     hamiltonian_ab, integrate, jacobi_norm, soliton_Lnorm,
                     soliton_flaschka, soliton_speed, soliton_state)
from todalab.solitons import _EXP_MAX, _logistic
from todalab.state import toda_rhs


def test_logistic_matches_expit_bit_for_bit():
    """The closed form's sigma is scipy.special.expit's 1/(1 + exp(-u)) with
    libm's exp, without importing scipy.special: every bit equal on 2M
    values, among them both sides of the overflow limit 709.782712893384
    (math.exp raises above it, libm returns inf), +-709, +-745, +-0.0,
    36-38 (sigma rounds to 1 from 53 log 2 = 36.74 on, and exp is skipped
    from 37 on), the infinities and NaN."""
    from scipy.special import expit
    assert _EXP_MAX == 709.782712893384
    edges = [709.0, 745.0, _EXP_MAX, np.nextafter(_EXP_MAX, np.inf), 0.0, np.inf, 1e308,
             *np.linspace(36.0, 38.0, 201), 53.0 * math.log(2.0),
             *np.nextafter(37.0, [0.0, np.inf])]
    rng = np.random.default_rng(20121)
    u = np.concatenate([edges, np.negative(edges), [np.nan],
                        rng.uniform(-800.0, 800.0, 600_000), rng.normal(0.0, 40.0, 600_000),
                        rng.uniform(-1.0, 1.0, 400_000) * 1e-3,
                        np.nextafter(_EXP_MAX, 0.0) + rng.uniform(-1.0, 1.0, 400_000)])
    assert u.size > 2_000_000
    assert np.array_equal(_logistic(u).view(np.int64), expit(u).view(np.int64))
    assert _logistic(-np.nextafter(_EXP_MAX, np.inf)) == 0.0
    grid = u[:1_000_000].reshape(1000, 1000)
    assert np.array_equal(_logistic(grid).view(np.int64), expit(grid).view(np.int64))


@pytest.mark.parametrize("kappa,sign,delta", [
    (0.5, 1, 0.0), (1.0, 1, 0.0), (1.0, -1, 0.3), (2.0, 1, -1.0),
])
def test_flaschka_form_solves_the_flow(kappa, sign, delta):
    # time derivative of the closed form must equal the vector field
    spec = SolitonSpec(kappa=kappa, sign=sign, delta=delta)
    sites = np.arange(-40, 41)
    t0, h = 0.63, 1e-6
    ap, bp = soliton_flaschka(spec, sites, t0 + h)
    am, bm = soliton_flaschka(spec, sites, t0 - h)
    a0, b0 = soliton_flaschka(spec, sites, t0)
    da, db = toda_rhs(LatticeState(a0, b0, -40))
    res_a = np.max(np.abs((ap - am) / (2.0 * h) - da))
    res_b = np.max(np.abs((bp - bm) / (2.0 * h) - db))
    print(kappa, sign, delta, res_a, res_b)
    assert res_a < 1e-8
    assert res_b < 1e-8


def test_traveling_wave_shift():
    # profile advances one site per kappa/sinh(kappa) time units
    spec = SolitonSpec(kappa=1.0)
    sites = np.arange(-30, 31)
    tau = spec.kappa / math.sinh(spec.kappa)
    a1, b1 = soliton_flaschka(spec, sites + 1, tau)
    a0, b0 = soliton_flaschka(spec, sites, 0.0)
    assert np.max(np.abs(a1 - a0)) < 1e-14
    assert np.max(np.abs(b1 - b0)) < 1e-14


def test_peak_values_at_zero_phase():
    # site 0 carries the a-peak cosh(kappa)/2; sites 0 and 1 tie for |b|
    for kappa in (0.5, 1.0, 1.7):
        spec = SolitonSpec(kappa=kappa)
        sites = np.arange(-50, 51)
        a, b = soliton_flaschka(spec, sites, 0.0)
        print(kappa, a.max(), np.abs(b).max())
        assert abs(a.max() - math.cosh(kappa) / 2.0) < 1e-14
        assert np.argmax(a) == 50
        expected_b = math.sinh(kappa) * math.tanh(kappa) / 2.0
        assert abs(np.abs(b).max() - expected_b) < 1e-14
        assert abs(abs(b[50]) - expected_b) < 1e-14
        assert abs(abs(b[51]) - expected_b) < 1e-14


def test_tail_decay_rate():
    # a_n^2 - 1/4 decays like e^{-2 kappa n}; stay where it is well above
    # the cancellation floor of the subtraction
    spec = SolitonSpec(kappa=1.0)
    sites = np.arange(0, 14)
    a, _ = soliton_flaschka(spec, sites, 0.0)
    dev = a * a - 0.25
    ratios = dev[8:12] / dev[7:11]
    print(ratios)
    assert np.max(np.abs(ratios - math.exp(-2.0))) < 1e-6


def test_spectral_norm_is_cosh():
    for kappa in (0.5, 1.0, 1.5):
        spec = SolitonSpec(kappa=kappa)
        x = soliton_state(spec, 201)
        print(kappa, jacobi_norm(x), math.cosh(kappa))
        assert abs(jacobi_norm(x) - math.cosh(kappa)) < 1e-6
        assert soliton_Lnorm(spec) == math.cosh(kappa)


def test_speed_monotone_in_kappa():
    speeds = [soliton_speed(SolitonSpec(kappa=k)) for k in (0.5, 1.0, 2.0)]
    print(speeds)
    assert speeds[0] < speeds[1] < speeds[2]
    assert abs(speeds[1] - math.sinh(1.0)) < 1e-14
    assert soliton_speed(SolitonSpec(kappa=1.0, sign=-1)) == -math.sinh(1.0)


def test_pq_and_flaschka_forms_agree():
    spec = SolitonSpec(kappa=0.9, sign=-1, delta=0.2)
    sites = np.arange(-30, 31)
    q, p = soliton_pq(spec, sites)
    mapped = relative_to_lattice(GHSState(np.diff(q), p[:-1], offset=-30))
    a_ref, b_ref = soliton_flaschka(spec, mapped.sites, 0.0)
    assert np.max(np.abs(mapped.a - a_ref)) < 1e-13
    assert np.max(np.abs(mapped.b - b_ref)) < 1e-13


def test_energy_converges_with_window():
    e1 = hamiltonian_ab(soliton_state(SolitonSpec(kappa=1.0), 201))
    e2 = hamiltonian_ab(soliton_state(SolitonSpec(kappa=1.0), 301))
    print(e1, e2)
    assert e1 > 0.0
    assert abs(e1 - e2) < 1e-10


def test_evolution_tracks_analytic_profile():
    spec = SolitonSpec(kappa=1.0)
    x = soliton_state(spec, 121)
    traj = integrate(x, toda_rhs, 4.0, IntegratorConfig(), sample_dt=0.5)
    sites = traj.sites
    worst = 0.0
    for i, t in enumerate(traj.times):
        a_ref, b_ref = soliton_flaschka(spec, sites, t)
        worst = max(worst, float(np.max(np.abs(traj.a[i] - a_ref))),
                    float(np.max(np.abs(traj.b[i] - b_ref))))
    print(worst)
    assert worst < 1e-6


def test_spec_validation():
    with pytest.raises(ValueError):
        SolitonSpec(kappa=0.0)
    with pytest.raises(ValueError):
        SolitonSpec(kappa=1.0, sign=2)
