import math
from dataclasses import replace

import numpy as np
import pytest

from todalab import (IntegratorConfig, SolitonSpec, background_state,
                     evolve_tangent, optimal_mu, random_localized_state,
                     soliton_state)
from todalab.observables import (ObservableDescriptor, basic_observables,
                                 bracket_bound_constant, check_bracket_bound,
                                 evolved_bracket,
                                 hamiltonian_window_observable, poisson_bracket,
                                 required_bracket_seeds)
from todalab.bounds import velocity_toda
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
    assert a3.norms == {3: (1.0, 0.0)}


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


def test_evolved_bracket_missing_grids():
    x = soliton_state(SolitonSpec(kappa=1.0), 81)
    a5, _ = basic_observables(5)
    _, b0 = basic_observables(0)
    with pytest.raises(KeyError, match=r"\(-1, 'a'\)"):
        evolved_bracket(a5, b0, x, 0.0, {})


@pytest.mark.parametrize("site", [-23, 21])
def test_observable_outside_the_window_is_named(site):
    """An A site past the grids' window raises instead of reading a wrapped
    (or missing) column."""
    x = background_state(41)
    _, b0 = basic_observables(0)
    grids = {s: evolve_tangent(x, s, 0.5, FIX, sample_dt=0.25)
             for s in required_bracket_seeds(b0, x)}
    a_far, _ = basic_observables(site)
    with pytest.raises(IndexError, match=rf"observable site {site} outside window \[-20, 21\)"):
        check_bracket_bound([a_far], b0, x, grids[(0, "a")].times, 0.5, 1.0, grids)


def test_evolved_bracket_zero_derivative_observable():
    x = background_state(41)
    const = ObservableDescriptor(support=(0,), eval=lambda s: 7.0,
                                 d_da=lambda s, n: 0.0, d_db=lambda s, n: 0.0)
    a0, _ = basic_observables(0)
    assert evolved_bracket(a0, const, x, 0.0, {}) == 0.0


def test_evolved_bracket_reduces_at_time_zero():
    sol = soliton_state(SolitonSpec(kappa=1.0), 81)
    _, b0 = basic_observables(0)
    # a B whose support holds adjacent sites reaches a seed from two sites
    H = hamiltonian_window_observable(range(-1, 2))
    grids = {s: evolve_tangent(sol, s, 1.0, FIX, sample_dt=0.25)
             for s in set(required_bracket_seeds(b0, sol)) | set(required_bracket_seeds(H, sol))}
    for B in (b0, H):
        for n in (-1, 0, 5):
            for A in basic_observables(n):
                got = evolved_bracket(A, B, sol, 0.0, grids)
                want = poisson_bracket(A, B, sol)
                print(B.name, A.name, got, want)
                assert got == pytest.approx(want, abs=1e-15)
    # the adjacent pair is genuinely nonzero
    a0, _ = basic_observables(0)
    assert abs(evolved_bracket(a0, b0, sol, 0.0, grids)) > 0.1


def test_bracket_constant_value():
    mu0, _ = optimal_mu()
    c = bracket_bound_constant(mu0)
    print(c)
    assert c == pytest.approx(EXPECTED["bracket_constant_at_mu0"], abs=1e-12)
    assert c == pytest.approx(2.0 / math.sqrt(17.0) * (1.0 + math.exp(mu0)), abs=1e-15)


def test_bracket_bound_holds_on_soliton():
    mu0, _ = optimal_mu()
    sol = soliton_state(SolitonSpec(kappa=1.0), 81)
    _, b0 = basic_observables(0)
    seeds = sorted(required_bracket_seeds(b0, sol))
    grids = {s: evolve_tangent(sol, s, 1.0, FIX, sample_dt=0.25) for s in seeds}
    times = grids[seeds[0]].times
    a5, _ = basic_observables(5)
    [rep] = check_bracket_bound([a5], b0, sol, times, mu0, _speed(mu0, sol), grids)
    print("ratio:", rep.max_ratio, rep.norm_source)
    assert rep.ok
    assert rep.n_violations == 0
    assert rep.max_ratio < 1e-8
    assert rep.norm_source == "A:declared,B:declared"
    assert rep.velocity == pytest.approx((1.0 + math.sqrt(17.0)) * math.cosh(1.0)
                                         * (math.exp(mu0 + 1.0) + 1.0 / mu0), rel=1e-6)


def test_bracket_bound_measures_norms_when_undeclared():
    mu0, _ = optimal_mu()
    sol = soliton_state(SolitonSpec(kappa=1.0), 81)
    _, b0 = basic_observables(0)
    seeds = sorted(required_bracket_seeds(b0, sol))
    grids = {s: evolve_tangent(sol, s, 1.0, FIX, sample_dt=0.25) for s in seeds}
    H = hamiltonian_window_observable(range(3, 8))
    [rep] = check_bracket_bound([H], b0, sol, grids[seeds[0]].times, mu0,
                                _speed(mu0, sol), grids)
    print("H ratio:", rep.max_ratio, rep.norm_source)
    assert rep.ok
    assert rep.norm_source == "A:measured-horizon,B:declared"
    assert rep.max_ratio < 1e-6


def test_declared_norms_of_B_are_not_measured_along_the_run():
    """B's partials are evaluated along the base run only when B declares
    no norms; a declared B is read at x alone, for its seed weights."""
    mu0, _ = optimal_mu()
    sol = soliton_state(SolitonSpec(kappa=1.0), 81)
    _, b0 = basic_observables(0)
    grids = {s: evolve_tangent(sol, s, 1.0, FIX, sample_dt=0.25)
             for s in required_bracket_seeds(b0, sol)}
    times = grids[(-1, "a")].times
    read = []

    def counted(partial):
        return lambda s, n: read.append(s) or partial(s, n)

    b0 = replace(b0, d_da=counted(b0.d_da), d_db=counted(b0.d_db))
    a5, _ = basic_observables(5)
    [declared] = check_bracket_bound([a5], b0, sol, times, mu0, _speed(mu0, sol), grids)
    assert read and all(s is sol for s in read)
    read.clear()
    [measured] = check_bracket_bound([a5], replace(b0, norms=None), sol, times, mu0,
                                     _speed(mu0, sol), grids)
    assert sum(s is not sol for s in read) == 2 * times.size     # d/da and d/db per sample
    assert (declared.norm_source, measured.norm_source) == \
        ("A:declared,B:declared", "A:declared,B:measured-horizon")


def test_non_finite_bracket_is_a_violation():
    mu0, _ = optimal_mu()
    sol = soliton_state(SolitonSpec(kappa=1.0), 81)
    _, b0 = basic_observables(0)
    grids = {s: evolve_tangent(sol, s, 1.0, FIX, sample_dt=0.25)
             for s in required_bracket_seeds(b0, sol)}
    times = grids[(-1, "a")].times
    grids[(-1, "a")].da[2, 5 - sol.offset] = np.nan       # the cell {a_5 o flow_0.5, b_0} reads
    a5, _ = basic_observables(5)
    [rep] = check_bracket_bound([a5], b0, sol, times, mu0, _speed(mu0, sol), grids)
    assert not rep.ok
    assert rep.n_violations == 1
    assert rep.violations[0]["t"] == 0.5
    assert math.isnan(rep.violations[0]["observed"])
    assert math.isfinite(rep.max_ratio)


def _scalar_bracket_check(A, B, x, times, mu, grids):
    """The per-t loop that check_bracket_bound replaces: the bracket by the
    scalar chain rule and the bound summed pair by pair with math.exp.
    Returns (|bracket|, bound) at each time."""
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
        if obs.norms is not None:
            return {n: na + nb for n, (na, nb) in obs.norms.items()}
        return {n: max(abs(obs.d_da(s, n)) for s in states)
                + max(abs(obs.d_db(s, n)) for s in states) for n in obs.support}

    v = velocity_toda(mu, jacobi_norm(x))
    c, a_sup = bracket_bound_constant(mu), float(np.max(np.abs(x.a)))
    wa, wb = weights(A), weights(B)
    out = []
    for t in times:
        bound = sum(na * nb * math.exp(-mu * (abs(n - m) - v * abs(t)))
                    for n, na in wa.items() for m, nb in wb.items())
        out.append((abs(bracket(any_grid.time_index(t))), c * a_sup * bound))
    return out


def test_bracket_check_matches_scalar_loop():
    mu0, _ = optimal_mu()
    sol = soliton_state(SolitonSpec(kappa=1.0), 81)
    a0, b0 = basic_observables(0)
    Bs = (b0, a0, hamiltonian_window_observable(range(-1, 2)))
    seeds = set().union(*(required_bracket_seeds(B, sol) for B in Bs))
    grids = {s: evolve_tangent(sol, s, 1.0, FIX, sample_dt=0.25) for s in sorted(seeds)}
    times = grids[min(seeds)].times
    As = [obs for n in range(-3, 7) for obs in basic_observables(n)]
    As.append(hamiltonian_window_observable(range(3, 8)))
    for B in Bs:
        for t in times:
            reports = check_bracket_bound(As, B, sol, [t], mu0, _speed(mu0, sol), grids)
            assert len(reports) == len(As)
            for A, rep in zip(As, reports):
                [(val, bound)] = _scalar_bracket_check(A, B, sol, [t], mu0, grids)
                assert rep.n_violations == int(val > bound)
                assert math.isclose(rep.max_ratio, val / bound if val > 0 else 0.0,
                                    rel_tol=1e-14), (B.name, A.name, t)
                assert rep.velocity == velocity_toda(mu0, jacobi_norm(sol))
