import math
from dataclasses import replace

import numpy as np
import pytest

from todalab import (IntegratorConfig, SolitonSpec, background_state,
                     evolve_tangent, optimal_mu, random_localized_state,
                     soliton_state)
from todalab.observables import (ObservableDescriptor, basic_observables,
                                 bracket_bound_constant, check_bracket_bound,
                                 evolved_brackets, hamiltonian_window_observable, poisson_bracket,
                                 required_bracket_seeds)
from todalab.bounds import MAX_VIOLATIONS_STORED, velocity_toda
from todalab.state import LatticeState, jacobi_norm, toda_rhs

FIX = IntegratorConfig(method="rk4-fixed", step=0.02)


def _speed(mu, x):
    """The bracket bound's velocity, which check_bracket_bound takes from its caller."""
    return velocity_toda(mu, jacobi_norm(x))


EXPECTED = {
    "bracket_constant_at_mu0": 1.2671581423191713,
}


def test_basic_observables_eval_and_partials():
    x = random_localized_state(41, seed=1)
    a3, b3 = basic_observables(3)
    i = 3 - x.offset
    assert a3.eval(x) == x.a[i]
    assert b3.eval(x) == x.b[i]
    assert a3.d_da(x, 3) == 1.0 and a3.d_da(x, 2) == 0.0
    assert a3.d_db(x, 3) == 0.0
    assert b3.d_db(x, 3) == 1.0 and b3.d_da(x, 3) == 0.0
    assert a3.support == (3,) and b3.support == (3,)


def test_descriptor_rejects_empty_support():
    with pytest.raises(ValueError):
        ObservableDescriptor(support=(), eval=lambda s: 0.0,
                             d_da=lambda s, n: 0.0, d_db=lambda s, n: 0.0)


def test_coordinate_bracket_adjacency():
    # {a_n, b_m} = (1/4)(a_{m-1} [n = m-1] - a_m [n = m]), zero otherwise
    x = random_localized_state(61, seed=9)
    for n in range(-2, 3):
        for m in range(-1, 2):
            an, _ = basic_observables(n)
            _, bm = basic_observables(m)
            got = poisson_bracket(an, bm, x)
            want = 0.25 * (x.a[m - 1 - x.offset] * (n == m - 1)
                           - x.a[m - x.offset] * (n == m))
            assert got == pytest.approx(want, abs=1e-15)


def test_bracket_of_two_diagonals_vanishes():
    x = random_localized_state(41, seed=2)
    _, b0 = basic_observables(0)
    _, b1 = basic_observables(1)
    assert poisson_bracket(b0, b1, x) == 0.0
    assert poisson_bracket(b0, b0, x) == 0.0


def test_bracket_antisymmetry():
    x = random_localized_state(41, seed=4)
    H = hamiltonian_window_observable(range(-5, 6))
    a0, b0 = basic_observables(0)
    for A, B in ((a0, b0), (a0, H), (b0, H)):
        assert poisson_bracket(A, B, x) == pytest.approx(-poisson_bracket(B, A, x), abs=1e-15)


def test_energy_window_partials_match_fd():
    x = random_localized_state(41, seed=6)
    H = hamiltonian_window_observable(range(-4, 5))
    eps = 1e-6
    for n in (-4, 0, 2):
        i = n - x.offset
        up = LatticeState(x.a.copy(), x.b.copy(), x.offset, x.background)
        dn = LatticeState(x.a.copy(), x.b.copy(), x.offset, x.background)
        up.a[i] += eps
        dn.a[i] -= eps
        fd = (H.eval(up) - H.eval(dn)) / (2.0 * eps)
        assert H.d_da(x, n) == pytest.approx(fd, abs=1e-8)
        up = LatticeState(x.a.copy(), x.b.copy(), x.offset, x.background)
        dn = LatticeState(x.a.copy(), x.b.copy(), x.offset, x.background)
        up.b[i] += eps
        dn.b[i] -= eps
        fd = (H.eval(up) - H.eval(dn)) / (2.0 * eps)
        assert H.d_db(x, n) == pytest.approx(fd, abs=1e-8)
    assert H.d_da(x, 10) == 0.0 and H.d_db(x, 10) == 0.0


def test_energy_window_generates_the_flow():
    # {a_n, H_w} and {b_n, H_w} equal the vector field when the window
    # swallows the neighborhood of n
    x = random_localized_state(61, seed=9)
    H = hamiltonian_window_observable(range(-15, 16))
    da, db = toda_rhs(x)
    for n in (-3, 0, 4):
        an, bn = basic_observables(n)
        i = n - x.offset
        assert poisson_bracket(an, H, x) == pytest.approx(da[i], abs=1e-13)
        assert poisson_bracket(bn, H, x) == pytest.approx(db[i], abs=1e-13)


def test_required_seeds():
    x = random_localized_state(41, seed=1)
    a0, b0 = basic_observables(0)
    assert sorted(required_bracket_seeds(b0, x)) == [(-1, "a"), (0, "a")]
    # {A o flow_t, b_0} = (1/4)(a_{-1} dA_t/da_{-1} - a_0 dA_t/da_0)
    assert required_bracket_seeds(b0, x) == {(-1, "a"): 0.25 * x.a[-1 - x.offset],
                                             (0, "a"): -0.25 * x.a[-x.offset]}
    assert sorted(required_bracket_seeds(a0, x)) == [(0, "b"), (1, "b")]
    H = hamiltonian_window_observable(range(-2, 3))
    seeds = required_bracket_seeds(H, x)
    assert (-3, "a") in seeds and (2, "a") in seeds
    assert (-2, "b") in seeds and (3, "b") in seeds
    assert len(seeds) == 12


def _soliton_grids(sites, t_final=1.0, kappa=1.0, n=81):
    """The soliton state and the rk4-fixed grids of every seed that the
    brackets b_m, m in sites, read."""
    sol = soliton_state(SolitonSpec(kappa=kappa), n)
    seeds = set().union(*(required_bracket_seeds(basic_observables(m)[1], sol) for m in sites))
    return sol, {s: evolve_tangent(sol, s, t_final, FIX, sample_dt=0.25) for s in sorted(seeds)}


def test_evolved_bracket_missing_grids():
    """The KeyError names every seed grid the bracket needs and lacks."""
    sol, grids = _soliton_grids([0])
    with pytest.raises(KeyError, match=r"seeds \[\(-1, 'a'\), \(0, 'a'\)\]"):
        evolved_brackets(0, [5], sol, {})
    with pytest.raises(KeyError, match=r"seeds \[\(0, 'a'\)\]"):
        evolved_brackets(0, [5], sol, {(-1, "a"): grids[(-1, "a")]})


@pytest.mark.parametrize("site", [-23, 21])
def test_observable_outside_the_window_is_named(site):
    """An A site past the grids' window raises instead of reading a wrapped
    (or missing) column."""
    x = background_state(41)
    _, b0 = basic_observables(0)
    grids = {s: evolve_tangent(x, s, 0.5, FIX, sample_dt=0.25)
             for s in required_bracket_seeds(b0, x)}
    with pytest.raises(IndexError, match=rf"observable site {site} outside window \[-20, 21\)"):
        check_bracket_bound(0, [0, site], x, 0.5, 1.0, grids)


def test_evolved_bracket_reduces_at_time_zero():
    """Row 0 of the block is the static bracket {a_n, b_m}(x), which is
    nonzero only for n = m - 1 and n = m."""
    sites = range(-3, 7)
    sol, grids = _soliton_grids([-1, 0, 2])
    for m in (-1, 0, 2):
        block = evolved_brackets(m, sites, sol, grids)
        assert block.shape == (grids[(m, "a")].n_samples, len(sites))
        want = [poisson_bracket(basic_observables(n)[0], basic_observables(m)[1], sol)
                for n in sites]
        np.testing.assert_array_equal(block[0], want)
        assert abs(block[0, m - sites.start]) > 0.1      # the adjacent pair is nonzero


def test_bracket_constant_value():
    mu0, _ = optimal_mu()
    c = bracket_bound_constant(mu0)
    print(c)
    assert c == pytest.approx(EXPECTED["bracket_constant_at_mu0"], abs=1e-12)
    assert c == pytest.approx(2.0 / math.sqrt(17.0) * (1.0 + math.exp(mu0)), abs=1e-15)


def test_bracket_bound_holds_on_soliton():
    mu0, _ = optimal_mu()
    sol, grids = _soliton_grids([0])
    rep = check_bracket_bound(0, [5], sol, mu0, _speed(mu0, sol), grids)
    print("ratio:", rep.max_ratio)
    assert rep.ok
    assert rep.n_violations == 0 and rep.violations == []
    assert rep.max_ratio < 1e-8
    assert rep.velocity == pytest.approx((1.0 + math.sqrt(17.0)) * math.cosh(1.0)
                                         * (math.exp(mu0 + 1.0) + 1.0 / mu0), rel=1e-6)


def test_non_finite_bracket_is_a_violation():
    mu0, _ = optimal_mu()
    sol, grids = _soliton_grids([0])
    grids[(-1, "a")].da[2, 5 - sol.offset] = np.nan       # the cell {a_5 o flow_0.5, b_0} reads
    rep = check_bracket_bound(0, [4, 5, 6], sol, mu0, _speed(mu0, sol), grids)
    assert not rep.ok
    assert rep.n_violations == 1
    assert (rep.violations[0]["n"], rep.violations[0]["t"]) == (5, 0.5)
    assert math.isnan(rep.violations[0]["observed"])
    assert math.isfinite(rep.max_ratio)


def test_stored_bracket_violations_go_by_site_then_time():
    """More violations than MAX_VIOLATIONS_STORED: the count is exact, and
    the stored ones are the first by site and then by time.  A zero
    prefactor makes every nonzero bracket a violation."""
    mu0, _ = optimal_mu()
    sol, grids = _soliton_grids([0])
    sites = range(-30, 31)
    rep = check_bracket_bound(0, sites, sol, mu0, _speed(mu0, sol), grids, scale=0.0)
    times = grids[(0, "a")].times
    bad = [(n, float(t)) for n in sites
           for t, val in zip(times, np.abs(evolved_brackets(0, [n], sol, grids))[:, 0])
           if val > 0.0]
    assert rep.n_violations == len(bad) > MAX_VIOLATIONS_STORED
    assert [(v["n"], v["t"]) for v in rep.violations] == bad[:MAX_VIOLATIONS_STORED]


def _scalar_bracket_check(A, B, x, mu, grids, scale=1.0):
    """The bracket propagation bound for general local A and B, by the
    scalar chain rule over supp(A), with the bound summed pair by pair with
    math.exp: |{A o flow_t, B}(x)| <= C ||a||_inf sum_{n,m} w_A(n) w_B(m)
    e^{-mu(|n-m| - v|t|)}, w(n) = sup |d/da_n| + sup |d/db_n| measured along
    the sampled base run.  Returns (|bracket|, bound) at each sample."""
    any_grid = next(iter(grids.values()))
    states = [any_grid.base.state(i) for i in range(any_grid.n_samples)]

    def grad(seed, i):
        g = grids[seed]
        return sum(A.d_da(states[i], k) * g.da[i, k - g.offset]
                   + A.d_db(states[i], k) * g.db[i, k - g.offset] for k in A.support)

    def bracket(i):
        total = 0.0
        for n in sorted({k for m in B.support for k in (m - 1, m)}):
            w = B.d_db(x, n + 1) - B.d_db(x, n)
            if w != 0.0:
                total += 0.25 * x.a[n - x.offset] * grad((n, "a"), i) * w
        for m in B.support:
            w = B.d_da(x, m)
            if w != 0.0:
                total -= 0.25 * x.a[m - x.offset] * (grad((m + 1, "b"), i) - grad((m, "b"), i)) * w
        return total

    def weights(obs):
        return {n: max(abs(obs.d_da(s, n)) for s in states)
                + max(abs(obs.d_db(s, n)) for s in states) for n in obs.support}

    v = velocity_toda(mu, jacobi_norm(x))
    c, a_sup = bracket_bound_constant(mu), float(np.max(np.abs(x.a)))
    wa, wb = weights(A), weights(B)
    out = []
    for i, t in enumerate(any_grid.times):
        bound = sum(na * nb * math.exp(-mu * (abs(n - m) - v * abs(t)))
                    for n, na in wa.items() for m, nb in wb.items())
        out.append((abs(bracket(i)), scale * c * a_sup * bound))
    return out


def test_bracket_check_matches_scalar_loop():
    """The array verdict on every (a_n, b_m) pair agrees with the scalar
    chain rule: the same violations, the first one included, and the same
    largest ratio, at the paper's prefactor and at 1e-3 of it."""
    mu0, _ = optimal_mu()
    m_list, reach = (-2, 0, 1), 4
    sol, grids = _soliton_grids(m_list)
    times = grids[(0, "a")].times
    for scale in (1.0, 1e-3):
        n_viol = 0
        for m in m_list:
            sites = range(m - reach, m + reach + 1)
            rep = check_bracket_bound(m, sites, sol, mu0, _speed(mu0, sol), grids, scale)
            cells = [(n, float(t), val, bound) for n in sites
                     for t, (val, bound) in zip(times, _scalar_bracket_check(
                         basic_observables(n)[0], basic_observables(m)[1], sol, mu0, grids,
                         scale))]
            bad = [(n, t) for n, t, val, bound in cells if val > bound]
            assert rep.n_violations == len(bad)
            assert [(v["n"], v["t"]) for v in rep.violations] == bad
            assert math.isclose(rep.max_ratio, max(val / bound for *_, val, bound in cells),
                                rel_tol=1e-14), (scale, m)
            assert rep.velocity == _speed(mu0, sol)
            n_viol += rep.n_violations
        assert (n_viol > 0) == (scale < 1.0)


def test_general_bracket_bound_holds_for_an_energy_window():
    """The bound for a general A (an energy window, four sites wide) and a
    general B (an energy window around site 0), checked by the scalar oracle
    with weights measured along the run."""
    mu0, _ = optimal_mu()
    sol = soliton_state(SolitonSpec(kappa=1.0), 81)
    A, B = hamiltonian_window_observable(range(4, 8)), hamiltonian_window_observable(range(-1, 2))
    grids = {s: evolve_tangent(sol, s, 1.0, FIX, sample_dt=0.25)
             for s in sorted(required_bracket_seeds(B, sol))}
    cells = _scalar_bracket_check(A, B, sol, mu0, grids)
    assert all(val <= bound for val, bound in cells)
    assert max(val / bound for val, bound in cells) < 1e-6
