import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import lambertw

from todalab import (Envelope, HierarchySpec, IntegratorConfig, SolitonSpec,
                     background_state, evolve_second_tangent, evolve_tangent,
                     hierarchy_envelope, optimal_mu, perturbed_envelope,
                     soliton_state, timedep_envelope, toda_envelope,
                     velocity_hierarchy, velocity_toda, verify_light_cone)
from todalab.bounds import (C_epsilon, G_mu, SQRT17, check_G_convolution,
                            compare, fit_front_speed, gamma_const, h_growth,
                            hierarchy_comparison_matrix, mu_profile,
                            perturbed_alpha, perturbed_prefactor,
                            second_derivative_envelope, velocity_perturbed,
                            velocity_timedep)
from todalab.state import jacobi_norm


def test_mu_profile_values():
    assert mu_profile(1.0) == pytest.approx(math.e ** 2 + 1.0, abs=1e-14)
    # diverges at both ends
    assert mu_profile(1e-6) > 1e5
    assert mu_profile(20.0) > 1e9


def test_optimal_mu_values():
    mu0, f0 = optimal_mu()
    print(mu0, f0)
    assert abs(mu0 - 0.47767) < 1e-4
    assert abs(f0 - 6.47622) < 1e-4
    # defining equation
    assert abs(mu0 ** 2 * math.exp(mu0 + 1.0) - 1.0) < 1e-10
    assert f0 == pytest.approx(mu_profile(mu0), abs=1e-14)


def test_optimal_mu_lambertw_oracle():
    # mu e^{(mu+1)/2} = 1 rearranges to mu/2 = W(e^{-1/2}/2)
    mu_ref = 2.0 * float(lambertw(0.5 * math.exp(-0.5)).real)
    mu0, _ = optimal_mu()
    print(mu0, mu_ref)
    assert abs(mu0 - mu_ref) < 1e-12


def test_optimal_mu_minimizes_velocity():
    mu0, _ = optimal_mu()
    grid = np.linspace(0.05, 3.0, 4001)
    vals = np.array([velocity_toda(m, 1.0) for m in grid])
    assert abs(grid[int(np.argmin(vals))] - mu0) < 1e-3
    assert velocity_toda(mu0, 1.0) <= vals.min() + 1e-9


def test_velocity_toda_structure():
    mu0, f0 = optimal_mu()
    assert velocity_toda(mu0, 1.0) == pytest.approx((1.0 + SQRT17) * f0, abs=1e-12)
    print(velocity_toda(mu0, 1.0))
    assert abs(velocity_toda(mu0, 1.0) - 33.1783) < 1e-3
    # linear in the operator norm
    assert velocity_toda(mu0, 2.0) == pytest.approx(2.0 * velocity_toda(mu0, 1.0))


def test_perturbed_constants():
    alpha = perturbed_alpha(0.5, 2.0, 0.1)
    assert alpha == pytest.approx(4.0 + 2.0 * 0.1 / 0.5)
    v = velocity_perturbed(0.5, 0.5, 2.0, 0.1)
    assert v == pytest.approx((1.0 + math.sqrt(1.0 + 4.0 * alpha)) * 0.5 * mu_profile(0.5))
    pref = perturbed_prefactor(0.5, 2.0, 0.1)
    assert pref == pytest.approx(2.0 * alpha / math.sqrt(1.0 + 4.0 * alpha))
    # with no forcing the prefactor reduces to the bare-flow value 8/sqrt(17)
    assert perturbed_prefactor(0.5, 2.0, 0.0) == pytest.approx(8.0 / SQRT17)


def test_hierarchy_velocity_r0_reduces_to_toda():
    mu0, f0 = optimal_mu()
    spec = HierarchySpec(0, (1.0,))
    v_matrix = velocity_hierarchy(mu0, 1.3, spec, "matrix-norm")
    v_lemma = velocity_hierarchy(mu0, 1.3, spec, "lemma44")
    print(v_matrix, v_lemma, 16.0 * 1.3 * f0)
    assert v_matrix == pytest.approx(16.0 * 1.3 * f0, rel=1e-12)
    assert v_lemma == pytest.approx(v_matrix, rel=1e-12)


def test_hierarchy_velocity_r1_values():
    mu0, f0 = optimal_mu()
    spec = HierarchySpec(1, (1.0, 0.0))
    # j=1 only: 3 L [[6,6],[8,8]], row max 48 L
    v = velocity_hierarchy(mu0, 2.0, spec, "matrix-norm")
    assert v == pytest.approx(48.0 * 2.0 ** 2 * f0, rel=1e-12)
    vl = velocity_hierarchy(mu0, 2.0, spec, "lemma44")
    assert vl == pytest.approx(8.0 * f0 * 2.0 ** 2 * 3 * 3, rel=1e-12)
    assert vl >= v


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_lemma44_dominates_matrix_norm(r):
    mu0, _ = optimal_mu()
    specs = [HierarchySpec(r, (1.0,) + (0.0,) * r)]
    if r >= 1:
        specs.append(HierarchySpec(r, (1.0,) + (0.5,) * r))
    for spec in specs:
        for L in (0.8, 1.0, 1.9):
            vm = velocity_hierarchy(mu0, L, spec, "matrix-norm")
            vl = velocity_hierarchy(mu0, L, spec, "lemma44")
            print(r, spec.c, L, vm, vl)
            assert vl >= vm * (1.0 - 1e-12)


def test_velocity_hierarchy_unknown_mode():
    with pytest.raises(ValueError):
        velocity_hierarchy(0.5, 1.0, HierarchySpec(0, (1.0,)), "sharp")


def test_comparison_matrix_entries():
    m = hierarchy_comparison_matrix(HierarchySpec(0, (1.0,)), 1.0)
    assert np.array_equal(m, 2.0 * np.array([[2.0, 2.0], [4.0, 4.0]]))


def test_velocity_timedep_is_a_radius():
    mu0, _ = optimal_mu()
    r1 = velocity_timedep(1.0, mu0, 1.0, 0.1, 0.1)
    r2 = velocity_timedep(2.0, mu0, 1.0, 0.1, 0.1)
    print(r1, r2)
    assert r2 > 2.0 * r1          # superlinear growth: t^2 and t^3 terms
    assert velocity_timedep(0.0, mu0, 1.0, 0.1, 0.1) == 0.0


def test_G_mu_values():
    assert G_mu(0.5, 0) == 1.0
    assert G_mu(0.5, 1) == pytest.approx(math.exp(-0.5) / 4.0)
    assert G_mu(0.5, -1) == G_mu(0.5, 1)


def test_gamma_const():
    assert gamma_const() == pytest.approx(4.0 * (math.pi ** 2 / 3.0 - 1.0), abs=1e-15)
    print(gamma_const())
    assert abs(gamma_const() - 9.1594725) < 1e-6


@pytest.mark.parametrize("mu", [0.25, 0.5, 1.0])
def test_G_convolution_bound(mu):
    rep = check_G_convolution(mu, span=50)
    print(mu, rep["max_ratio"])
    assert rep["ok"]
    assert rep["max_ratio"] <= gamma_const() + 1e-6


def test_C_epsilon_values():
    assert abs(C_epsilon(1.0) - 4.0 / math.e) < 1e-10
    assert C_epsilon(2.0) == 1.0
    assert C_epsilon(3.0) == 1.0
    assert C_epsilon(0.5) == pytest.approx(16.0 * math.exp(-1.5))
    with pytest.raises(ValueError):
        C_epsilon(0.0)


def test_h_growth_zero_beta_limit():
    mu, L = 0.5, 1.2
    lam_plus = 1.0 + math.sqrt(1.0 + 4.0 * (math.exp(2.0 * mu) + 1.0) ** 2)
    v_crit = L * lam_plus / (2.0 * mu)       # beta = 0 exactly
    x = 2.0 * mu * v_crit * 0.7
    assert h_growth(0.7, mu, v_crit, L) == pytest.approx(x, rel=1e-9)
    # h(0) = 0 and increasing
    v = velocity_toda(mu, L)
    assert h_growth(0.0, mu, v, L) == 0.0
    assert h_growth(2.0, mu, v, L) > h_growth(1.0, mu, v, L) > 0.0


def test_second_derivative_envelope_bounds_measured_run():
    x = soliton_state(SolitonSpec(kappa=1.0), 81)
    mu0, _ = optimal_mu()
    C, env = second_derivative_envelope(mu0, jacobi_norm(x))
    print("C:", C)
    assert C > 0.0
    g = evolve_second_tangent(x, (0, "a"), 2, 2.0,
                              IntegratorConfig(method="rk4-fixed", step=0.02),
                              n_samples=5)
    sites = np.arange(g.offset, g.offset + g.base.a.shape[1])
    dl = np.abs(sites)
    dk = np.minimum(np.abs(sites - 2), np.abs(sites - 3))
    worst = 0.0
    for i, t in enumerate(g.times):
        if t == 0.0:
            assert np.max(np.abs(g.w_a[i])) == 0.0
            continue
        w = np.maximum(np.abs(g.w_a[i]), np.abs(g.w_b[i]))
        worst = max(worst, float(np.max(w / env(dl, dk, t))))
    print("max ratio:", worst)
    assert worst <= 1.0


def test_envelope_value_and_ceiling():
    env = Envelope(family="toda", mu=0.5, prefactor=2.0, speed=3.0)
    assert env.value(0.0, 0.0) == 2.0
    assert env.value(4.0, 1.0) == pytest.approx(2.0 * math.exp(-0.5 * (4.0 - 3.0)))
    env2 = Envelope(family="hierarchy", mu=0.5, prefactor=1.0, speed=3.0, ceiling=2)
    assert env2.value(3.0, 0.0) == pytest.approx(math.exp(-0.5 * 2.0))   # ceil(3/2) = 2


def test_envelope_overflow_is_silent_inf():
    # exponent mu * (radius - dist) = 0.5 * 3000 > 709: exp overflows to +inf,
    # the exact "no constraint" value, without a RuntimeWarning
    env = Envelope(family="toda", mu=0.5, prefactor=2.0, speed=3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env.value(0.0, 1000.0) == math.inf
        assert np.all(env.value(np.array([0.0, 10.0]), 1000.0) == math.inf)


def test_envelope_factories():
    mu0, f0 = optimal_mu()
    e = toda_envelope(mu0, 1.5)
    assert e.prefactor == pytest.approx(8.0 / SQRT17)
    assert e.speed == pytest.approx(velocity_toda(mu0, 1.5))
    h = hierarchy_envelope(mu0, 1.5, HierarchySpec(2, (1.0, 0.0, 0.0)))
    assert h.ceiling == 2 and h.prefactor == 1.0
    p = perturbed_envelope(mu0, 0.6, 2.0, 0.1)
    assert p.prefactor == pytest.approx(perturbed_prefactor(0.6, 2.0, 0.1))
    t = timedep_envelope(mu0, 1.0, 0.1, 0.1, 0.4)
    assert t.prefactor == pytest.approx(max(1.0, 2.0 / 0.4))
    assert t.observed_kind == "log-a"
    assert t.speed is None and t.radius_fn is not None
    # scale knob multiplies the prefactor only
    assert toda_envelope(mu0, 1.5, 1e-6).prefactor == pytest.approx(8e-6 / SQRT17)


def test_fit_front_speed_synthetic():
    times = np.linspace(0.0, 5.0, 26)
    dists = np.abs(np.arange(-30, 31)).astype(float)
    obs = np.where(dists[None, :] <= 2.0 * times[:, None], 1.0, 1e-300)
    v = fit_front_speed(times, dists, obs, threshold=1e-8)
    print(v)
    assert v == pytest.approx(2.0, rel=0.15)


def test_fit_front_speed_no_crossings():
    times = np.linspace(0.0, 1.0, 5)
    dists = np.abs(np.arange(-5, 6)).astype(float)
    obs = np.full((5, 11), 1e-300)
    assert fit_front_speed(times, dists, obs) is None


def test_verify_light_cone_clean_run():
    mu0, _ = optimal_mu()
    x = background_state(121)
    g = evolve_tangent(x, (0, "b"), 2.0, IntegratorConfig(method="rk4-fixed", step=0.02),
                       sample_dt=0.25)
    rep = verify_light_cone(g, toda_envelope(mu0, jacobi_norm(x)))
    print(rep.n_violations, rep.max_ratio, rep.empirical_front_speed)
    assert rep.ok
    assert rep.clean
    assert rep.n_violations == 0
    assert 0.0 < rep.max_ratio <= 1.0
    assert rep.empirical_front_speed is not None
    assert rep.empirical_front_speed < rep.bound_speed


def test_verify_light_cone_catches_violations():
    mu0, _ = optimal_mu()
    x = background_state(121)
    g = evolve_tangent(x, (0, "b"), 2.0, IntegratorConfig(method="rk4-fixed", step=0.02),
                       sample_dt=0.25)
    squeezed = toda_envelope(mu0, jacobi_norm(x), scale=1e-6)
    rep = verify_light_cone(g, squeezed)
    assert not rep.ok
    assert rep.n_violations > 0
    assert len(rep.violations) <= 200
    assert rep.violations_truncated == (rep.n_violations > 200)
    first = rep.violations[0]
    assert first["observed"] > first["bound"]


def test_verify_light_cone_withholds_verdict_when_contaminated():
    mu0, _ = optimal_mu()
    x = background_state(41)
    g = evolve_tangent(x, (-18, "b"), 1.0, IntegratorConfig(method="rk4-fixed", step=0.02),
                       n_samples=3, guard=10)
    assert not g.clean
    rep = verify_light_cone(g, toda_envelope(mu0, jacobi_norm(x), scale=1e-9))
    assert not rep.clean
    assert rep.n_violations == 0       # no verdict, not a pass
    assert not rep.ok


def test_verify_light_cone_flags_nonfinite_observations(tmp_path):
    def strict_json(rep, name):
        # write the report and read it back, rejecting NaN and Infinity tokens
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        rep.to_json(tmp_path / name)
        return json.loads((tmp_path / name).read_text(), parse_constant=reject)

    # NaN away from the edges leaves the grid clean; it must not pass
    mu0, _ = optimal_mu()
    x = background_state(121)
    g = evolve_tangent(x, (0, "b"), 2.0, IntegratorConfig(method="rk4-fixed", step=0.02),
                       sample_dt=0.25)
    late = g.times >= 1.0
    cols = (g.sites >= -10) & (g.sites <= 9)
    g.da[np.ix_(late, cols)] = np.nan
    rep = verify_light_cone(g, toda_envelope(mu0, jacobi_norm(x)))
    assert rep.clean
    assert not rep.ok
    assert rep.n_violations == int(late.sum() * cols.sum())
    assert np.isnan(rep.violations[0]["observed"])
    assert 0.0 < rep.max_ratio < 1.0        # taken over the finite observations
    data = strict_json(rep, "nan.json")
    assert data["violations"][0]["observed"] is None
    assert data["max_ratio"] == rep.max_ratio

    # far from the seed both the envelope (underflow) and the signal are 0
    x = background_state(4001)
    g = evolve_tangent(x, (0, "b"), 2.0, IntegratorConfig(method="rk4-fixed", step=0.02),
                       sample_dt=0.25)
    env = toda_envelope(mu0, jacobi_norm(x))
    assert env.value(2000, 2.0) == 0.0
    rep = verify_light_cone(g, env)
    assert rep.ok
    assert 0.0 < rep.max_ratio < 1.0
    assert strict_json(rep, "underflow.json")["max_ratio"] == rep.max_ratio

    # an envelope of 0 against a positive observation: an infinite ratio
    rep = verify_light_cone(g, toda_envelope(mu0, jacobi_norm(x), scale=0.0))
    assert not rep.ok
    assert rep.max_ratio == math.inf
    assert strict_json(rep, "zero.json")["max_ratio"] is None


def test_compare_matches_both_inline_comparisons():
    """compare replaces the comparison that verify_light_cone and
    check_bracket_bound each wrote inline; both stay here as oracles, with
    a non-finite observation (+inf against a +inf bound included) marked
    as a violation."""
    def cone_oracle(obs, env):
        bad = np.argwhere(~np.isfinite(obs) | ~(obs <= env))
        seen = np.isfinite(obs) & (obs > 0.0)
        with np.errstate(divide="ignore"):
            ratio = np.divide(obs, env, out=np.zeros_like(obs), where=seen)
        return bad, float(np.max(ratio))

    def bracket_oracle(val, bound):
        bad = np.flatnonzero(~np.isfinite(val) | ~(val <= bound))
        seen = np.isfinite(val) & (val > 0.0)
        with np.errstate(divide="ignore"):
            ratio = np.divide(val, bound, out=np.zeros_like(val), where=seen)
        return bad, float(np.max(ratio, initial=0.0))

    rng = np.random.default_rng(11)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -1.0, -1e-300])
    for _ in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 9)))
        obs = rng.lognormal(-5.0, 5.0, shape)
        pick = rng.random(shape) < 0.3
        obs[pick] = rng.choice(specials, int(pick.sum()))
        # exponents past -745 underflow to 0, as the envelope does far out
        with np.errstate(under="ignore"):
            bound = np.exp(-rng.uniform(0.0, 800.0, shape))
        bound[rng.random(shape) < 0.1] = np.inf
        mask, ratio = compare(obs, bound)
        # the inline forms warned when a ratio overflowed to +inf
        with np.errstate(over="ignore"):
            want, want_ratio = cone_oracle(obs, bound)
        assert np.array_equal(np.argwhere(mask), want)
        assert ratio == want_ratio
        for row in range(shape[0]):
            mask, ratio = compare(obs[row], bound[row])
            with np.errstate(over="ignore"):
                want, want_ratio = bracket_oracle(obs[row], bound[row])
            assert np.array_equal(np.flatnonzero(mask), want)
            assert ratio == want_ratio
    mask, _ = compare(np.array([np.inf, np.nan, 1.0]), np.array([np.inf, np.inf, np.inf]))
    assert mask.tolist() == [True, True, False]


def test_report_json_roundtrip(tmp_path):
    mu0, _ = optimal_mu()
    x = background_state(61)
    g = evolve_tangent(x, (0, "b"), 1.0, IntegratorConfig(method="rk4-fixed", step=0.02),
                       n_samples=3)
    rep = verify_light_cone(g, toda_envelope(mu0, jacobi_norm(x)))
    p = tmp_path / "rep.json"
    rep.to_json(p)
    data = json.loads(p.read_text())
    assert data["family"] == "toda"
    assert data["n_violations"] == 0
    assert data["clean"] is True
