import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import central_difference, jacobi_matrix
from todalab import (HierarchySpec, IntegratorConfig, LatticeState,
                     background_state, hierarchy_hamiltonian, hierarchy_rhs,
                     integrate, random_localized_state)
from todalab.hierarchy import free_moment, hierarchy_fields, kvm_rhs, path_counts
from todalab.integrators import drift
from todalab.state import _band_poly, toda_rhs, trace_invariants


def test_spec_validation():
    HierarchySpec(1, (1.0, 0.0))
    with pytest.raises(ValueError):
        HierarchySpec(1, (1.0,))            # wrong length
    with pytest.raises(ValueError):
        HierarchySpec(1, (2.0, 0.0))        # leading weight must be 1
    with pytest.raises(ValueError):
        HierarchySpec(-1, ())
    assert HierarchySpec(0, (1.0,)).ceiling_divisor == 1
    assert HierarchySpec(2, (1.0, 0.0, 0.0)).ceiling_divisor == 2
    assert HierarchySpec(5, (1.0,) + (0.0,) * 5).ceiling_divisor == 3


@pytest.mark.parametrize("j", range(0, 9))
def test_free_moment_quadrature_oracle(j):
    # moments of the free operator's spectral measure: arcsine law on [-1, 1]
    val, _ = quad(lambda th: math.cos(th) ** j / math.pi, 0.0, math.pi)
    print(j, free_moment(j), val)
    assert abs(free_moment(j) - val) < 1e-12


def test_free_moment_known_values():
    assert free_moment(0) == 1.0
    assert free_moment(1) == 0.0
    assert free_moment(2) == 0.5
    assert free_moment(4) == 0.375


@pytest.mark.parametrize("j", range(0, 9))
def test_path_counts_enumeration_oracle(j):
    # brute force over all step sequences in {-1, 0, +1}^(j+1)
    eta = xi = 0
    for walk in itertools.product((-1, 0, 1), repeat=j + 1):
        end = sum(walk)
        if end == 0:
            eta += 1
        elif end == 1:
            xi += 1
    got = path_counts(j)
    print(j, got, (eta, xi))
    assert got == (eta, xi)


def test_path_count_inequalities():
    for j in range(0, 13):
        eta, xi = path_counts(j)
        assert eta <= 2 * xi
        assert xi <= 3 ** j


def matrix_elements(x, j):
    """<delta_n, L^j delta_n> and 2 a_n <delta_{n+1}, L^j delta_n> over the
    window, j >= 1: the g and h of the pure order-(j-1) flow."""
    g, h = hierarchy_fields(x, HierarchySpec(j - 1, (1.0,) + (0.0,) * (j - 1)))
    return g[1:-1], h[1:-1]


def test_band_matrix_elements_vs_dense():
    x = random_localized_state(30, seed=12, width=4.0)
    L = jacobi_matrix(x)
    worst = 0.0
    for j in range(1, 7):
        Lj = np.linalg.matrix_power(L, j)
        g, h = matrix_elements(x, j)
        idx = np.arange(j, x.n_sites - j - 1)   # sites whose elements stay in the window
        worst = max(worst, np.max(np.abs(g[idx] - Lj[idx, idx])),
                    np.max(np.abs(h[idx] - 2.0 * x.a[idx] * Lj[idx + 1, idx])))
    print(worst)
    assert worst < 1e-12


def band_powers_all_diagonals(a, b, jmax, da=None, db=None):
    """L^0 .. L^jmax by the power step over all 2 jmax + 1 diagonals: the
    bitwise oracle of _band_poly's monomials."""
    P = np.zeros((jmax + 1, 2 * jmax + 1, a.size))
    P[0, jmax] = 1.0
    dP = None if da is None else np.zeros_like(P)
    for j in range(jmax):
        p, q = P[j], P[j + 1]
        q[1:, :-1] += a[:-1] * p[:-1, 1:]
        q[:-1, 1:] += a[:-1] * p[1:, :-1]
        q += b * p
        if dP is not None:
            dp, dq = dP[j], dP[j + 1]
            dq[1:, :-1] += da[:-1] * p[:-1, 1:] + a[:-1] * dp[:-1, 1:]
            dq[:-1, 1:] += da[:-1] * p[1:, :-1] + a[:-1] * dp[1:, :-1]
            dq += db * p + b * dp
    return P, dP


def _band_inputs(kind):
    rng = np.random.default_rng(11)
    a, b = 0.5 + 0.2 * rng.normal(size=23), 0.3 * rng.normal(size=23)
    if kind == "mixed-sign-a":
        a[::3] *= -1.0
    elif kind == "negative-zero-b":
        b[::2] = -0.0
    elif kind == "negative-background":
        a, b = np.full(23, -0.5), np.full(23, -0.25)
    return a, b, rng.normal(size=23), rng.normal(size=23)


@pytest.mark.parametrize("kind", ["random", "mixed-sign-a", "negative-zero-b",
                                  "negative-background"])
@pytest.mark.parametrize("tangent", [False, True])
def test_band_powers_match_all_diagonal_oracle_bitwise(kind, tangent):
    """_band_poly of the monomial L^j equals the j-th power of the
    all-diagonal step bit for bit: adding the zero coefficients moves no bit."""
    a, b, da, db = _band_inputs(kind)
    if not tangent:
        da = db = None
    for j in range(0, 7):
        Q, dQ = _band_poly(a, b, (0.0,) * j + (1.0,), da, db)
        P_ref, dP_ref = band_powers_all_diagonals(a, b, j, da, db)
        assert Q.tobytes() == P_ref[j].tobytes()
        assert (dQ is None) == (dP_ref is None)
        if tangent:
            assert dQ.tobytes() == dP_ref[j].tobytes()


@pytest.mark.parametrize("kind", ["random", "mixed-sign-a", "negative-zero-b",
                                  "negative-background"])
def test_band_poly_matches_dense_polynomial(kind):
    """Every diagonal of p(L) = sum_k c_k L^k, mixed coefficients, and of its
    derivative along a tangent, against dense matrix powers: away from the
    K sites at either end the two agree to rounding."""
    a, b, da, db = _band_inputs(kind)
    n = a.size
    rng = np.random.default_rng(3)

    def tridiagonal(x, y):
        return np.diag(y) + np.diag(x[:-1], 1) + np.diag(x[:-1], -1)

    L, dL = tridiagonal(a, b), tridiagonal(da, db)
    for k in range(1, 7):
        coeffs = tuple(rng.uniform(-1.0, 1.0, k + 1))
        Lp = [np.linalg.matrix_power(L, j) for j in range(k + 1)]
        dense = sum(c * Lj for c, Lj in zip(coeffs, Lp))
        d_dense = sum(coeffs[j] * Lp[m] @ dL @ Lp[j - 1 - m]
                      for j in range(1, k + 1) for m in range(j))
        Q, dQ = _band_poly(a, b, coeffs, da, db)
        worst = 0.0
        for d in range(-k, k + 1):
            i = np.arange(k, n - k)
            worst = max(worst, np.max(np.abs(Q[k + d, i] - dense[i, i + d])),
                        np.max(np.abs(dQ[k + d, i] - d_dense[i, i + d])))
        print(kind, k, worst)
        assert worst < 1e-12


@pytest.mark.parametrize("r", range(0, 6))
def test_fields_and_hamiltonian_vs_dense(r):
    # g, h and H_r against weighted entries of dense powers of the padded L
    rng = np.random.default_rng(100 + r)
    spec = HierarchySpec(r, (1.0,) + tuple(rng.uniform(-1.0, 1.0, r)))
    x = random_localized_state(31, seed=r, width=4.0)
    n = x.n_sites
    pad = 3 * (r + 2)                   # dense truncation far from every site read
    L = jacobi_matrix(x, pad)
    Lp = [np.linalg.matrix_power(L, j) for j in range(r + 3)]
    i = np.arange(pad - 1, pad + n + 1)  # sites offset-1 .. offset+N
    g_dense = sum(spec.c[r - j] * Lp[j + 1][i, i] for j in range(r + 1))
    h_dense = sum(spec.c[r - j] * 2.0 * L[i, i + 1] * Lp[j + 1][i + 1, i]
                  for j in range(r + 1))
    g, h = hierarchy_fields(x, spec)
    k = np.arange(pad - (r + 2), pad + n + r + 2)   # every site within r+2 of the window
    H_dense = 4.0 / (r + 2) * sum(spec.c[r - j] * np.sum(Lp[j + 2][k, k] - free_moment(j + 2))
                                  for j in range(r + 1))
    H = hierarchy_hamiltonian(x, spec)
    print(r, np.max(np.abs(g - g_dense)), np.max(np.abs(h - h_dense)), H - H_dense)
    assert np.max(np.abs(g - g_dense)) < 1e-12
    assert np.max(np.abs(h - h_dense)) < 1e-12
    assert abs(H - H_dense) < 1e-12


def test_r0_equals_toda_bitwise():
    x = random_localized_state(41, seed=2)
    da0, db0 = hierarchy_rhs(x, HierarchySpec(0, (1.0,)))
    da1, db1 = toda_rhs(x)
    assert np.max(np.abs(da0 - da1)) <= 1e-15
    assert np.max(np.abs(db0 - db1)) <= 1e-15


def test_rhs_window_size_guard():
    x = background_state(8)
    with pytest.raises(ValueError) as err:
        hierarchy_rhs(x, HierarchySpec(2, (1.0, 0.0, 0.0)))
    assert "need >= 9" in str(err.value)


def test_background_fixed_point_all_orders():
    x = background_state(31)
    for r in range(0, 4):
        spec = HierarchySpec(r, (1.0,) + (0.0,) * r)
        da, db = hierarchy_rhs(x, spec)
        assert np.max(np.abs(da)) < 1e-15
        assert np.max(np.abs(db)) < 1e-15


def test_tangent_fields_match_finite_difference():
    x = random_localized_state(41, seed=7, width=5.0)
    spec = HierarchySpec(2, (1.0, 0.3, -0.1))
    rng = np.random.default_rng(1)
    da = rng.normal(0.0, 1.0, x.n_sites)
    db = rng.normal(0.0, 1.0, x.n_sites)
    fd_a, fd_b = central_difference(lambda st: hierarchy_rhs(st, spec), x, da, db)
    ta, tb = hierarchy_rhs(x, spec, da, db)[2:]
    err_a = np.max(np.abs(fd_a - ta))
    err_b = np.max(np.abs(fd_b - tb))
    print(err_a, err_b)
    assert err_a < 1e-8
    assert err_b < 1e-8


hamiltonian_drifts = {1: (1.0, 0.0), 2: (1.0, 0.0, 0.0)}
@pytest.mark.parametrize("r", [1, 2])
def test_hamiltonian_conserved(r):
    c = hamiltonian_drifts[r]
    spec = HierarchySpec(r, c)
    x = random_localized_state(121, seed=3)
    traj = integrate(x, lambda s: hierarchy_rhs(s, spec), 1.5,
                     IntegratorConfig(), sample_dt=0.25)
    assert traj.clean(10)
    h0 = hierarchy_hamiltonian(traj.state(0), spec)
    drift = max(abs(hierarchy_hamiltonian(traj.state(i), spec) - h0)
                for i in range(traj.n_samples))
    print(r, h0, drift)
    assert drift < 1e-8


def test_hamiltonian_r0_display_identity():
    for seed in range(4):
        x = random_localized_state(37, seed=seed)
        h = hierarchy_hamiltonian(x, HierarchySpec(0, (1.0,)))
        display = float(np.sum(2.0 * x.b ** 2 + 4.0 * x.a ** 2 - 1.0))
        print(seed, h, display)
        assert abs(h - display) < 1e-12


def test_kvm_closed_form_r1():
    x = random_localized_state(41, seed=5, amp_b=0.0)
    x = LatticeState(x.a, np.zeros(x.n_sites), x.offset)
    spec = HierarchySpec(1, (1.0, 0.0))
    da = kvm_rhs(x, spec)
    a = x.a
    up = np.concatenate((a[1:], [0.5]))
    dn = np.concatenate(([0.5], a[:-1]))
    closed = a * (up * up - dn * dn)
    print(np.max(np.abs(da - closed)))
    assert np.max(np.abs(da - closed)) < 1e-14


def test_kvm_rejects_nonzero_b():
    x = random_localized_state(41, seed=5)
    with pytest.raises(ValueError):
        kvm_rhs(x, HierarchySpec(1, (1.0, 0.0)))


def test_kvm_rejects_odd_weights():
    x = LatticeState(np.full(41, 0.5), np.zeros(41), -20)
    with pytest.raises(ValueError) as err:
        kvm_rhs(x, HierarchySpec(1, (1.0, 0.5)))   # c_1 multiplies an even-j power
    assert "c_1" in str(err.value)


def test_fields_respect_locality():
    # changing a coordinate at distance > j+1 from site n cannot change g_n
    x = random_localized_state(41, seed=8)
    spec = HierarchySpec(1, (1.0, 0.0))
    from todalab.hierarchy import hierarchy_fields
    g0, h0 = hierarchy_fields(x, spec)
    a = x.a.copy()
    a[x.site_index(15)] = 0.9
    g1, h1 = hierarchy_fields(LatticeState(a, x.b, x.offset), spec)
    k = x.site_index(0) + 1     # g index for site 0
    assert g1[k] == g0[k]
    assert h1[k] == h0[k]


@pytest.mark.parametrize("r", range(1, 6))
def test_hamiltonian_vanishes_on_background(r):
    # every power subtracts its own free moment, so a background window has
    # no energy whatever the lower weights and the window size
    rng = np.random.default_rng(200 + r)
    spec = HierarchySpec(r, (1.0,) + tuple(rng.uniform(-1.0, 1.0, r)))
    for n in (21, 41):
        assert abs(hierarchy_hamiltonian(background_state(n), spec)) < 1e-12


def _flow(state, rhs, time, cfg):
    """The state after time under rhs, one sample."""
    return integrate(state, rhs, time, cfg, sample_dt=time).state(1)


def _inner_difference(x, y):
    """The largest |difference| of two window states over the sites at
    least 20 from the window's edge."""
    inner = slice(20, -20)
    return max(np.max(np.abs(x.a - y.a)[inner]), np.max(np.abs(x.b - y.b)[inner]))


def _commutator(rhs_h, t=2.0, s=1.5, cfg=IntegratorConfig(tolerance=1e-11)):
    """The largest difference, over the sites at least 20 from the window's
    edge, between phi^Toda_t o phi^h_s and phi^h_s o phi^Toda_t from a
    random base of 201 sites, both under cfg (rk-adaptive at tol 1e-11)."""
    x = random_localized_state(201, seed=5)
    hs_then_toda = _flow(_flow(x, rhs_h, s, cfg), toda_rhs, t, cfg)
    toda_then_hs = _flow(_flow(x, toda_rhs, t, cfg), rhs_h, s, cfg)
    return _inner_difference(hs_then_toda, toda_then_hs)


def _pure(j):
    """The spec of the pure order-j flow, H_j alone."""
    return HierarchySpec(j, (1.0,) + (0.0,) * j)


MIXED = (1.0, 0.3, 0.2, 0.1)
RK4 = IntegratorConfig(method="rk4-fixed", step=0.01)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hierarchy_flows_commute_with_the_toda_flow(r):
    """The flows of one hierarchy commute: phi^Toda_t o phi^{H_r}_s equals
    phi^{H_r}_s o phi^Toda_t, here to about 3e-11, the integrators' floor at
    tol 1e-11.  An oracle of the adaptive path that shares no formula with
    the fields: a field off the hierarchy misses it by seven orders more."""
    spec = HierarchySpec(r, MIXED[:r + 1])
    diff = _commutator(lambda st: hierarchy_rhs(st, spec))
    print(r, diff)
    assert diff < 1e-9


def test_commuting_flows_have_teeth():
    """The r=3 field with its db scaled by 1.001 is no hierarchy flow: the
    two orders of composition differ by about 2e-4."""
    spec = HierarchySpec(3, MIXED)

    def bent(st):
        fa, fb = hierarchy_rhs(st, spec)
        return fa, 1.001 * fb

    diff = _commutator(bent)
    print(diff)
    assert diff > 1e-5


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hierarchy_flows_commute_under_rk4_fixed(r):
    """The same commutator under rk4-fixed at step 0.01: its step error
    leaves 3-5e-10."""
    spec = HierarchySpec(r, MIXED[:r + 1])
    diff = _commutator(lambda st: hierarchy_rhs(st, spec), cfg=RK4)
    print(r, diff)
    assert diff < 5e-9


@pytest.mark.parametrize("r", [1, 2, 3])
def test_commutator_falls_with_the_tolerance(r):
    """Under rk-adaptive the commutator is the integrators' error, not the
    flows': 3-4e-9 at tol 1e-9 and 3e-13 at 1e-13, four orders apart."""
    spec = HierarchySpec(r, MIXED[:r + 1])
    loose, tight = (_commutator(lambda st: hierarchy_rhs(st, spec),
                                cfg=IntegratorConfig(tolerance=tol)) for tol in (1e-9, 1e-13))
    print(r, loose, tight)
    assert loose < 1e-7 and tight < 1e-11
    assert tight < loose / 1000.0


@pytest.mark.parametrize("r", [1, 2, 3])
def test_hierarchy_flows_conserve_the_spectrum(r):
    """tr L^j, j = 1 .. 4, is conserved by the pure flow H_r of a random base
    that keeps 20 sites from the edge: it drifts by at most 1.3e-10 under
    rk4-fixed, and under rk-adaptive by 8e-9 to 2.3e-8 at tol 1e-9 and
    2e-13 to 1.8e-12 at 1e-13."""
    x = random_localized_state(201, seed=5)

    def trace_drift(cfg):
        run = integrate(x, lambda st: hierarchy_rhs(st, _pure(r)), 2.0, cfg, sample_dt=0.5)
        assert run.clean(20)
        return drift(run.energy_series(trace_invariants))

    fixed, loose, tight = trace_drift(RK4), trace_drift(IntegratorConfig(tolerance=1e-9)), \
        trace_drift(IntegratorConfig(tolerance=1e-13))
    print(r, fixed, loose, tight)
    assert fixed < 1e-9
    assert loose < 1e-6 and tight < 1e-10
    assert tight < loose / 1000.0


@pytest.mark.parametrize("cfg", [RK4, IntegratorConfig(tolerance=1e-11)],
                         ids=["rk4-fixed", "rk-adaptive"])
def test_mixed_flow_is_the_composition_of_pure_flows(cfg):
    """The mixed field sum_j c_{r-j} (pure field j) generates, because the
    pure flows commute, the composition of the pure flows H_j, each run for
    time c_{r-j} t: r = 3, weights (1, 0.3, 0.2, 0.1), t = 1.5.  They
    agree to 2e-10 under rk4-fixed and 5e-11 under rk-adaptive at tol
    1e-11; dropping the Toda leg H_0, run for 0.15, misses by 6e-2."""
    r, t = 3, 1.5
    x = random_localized_state(201, seed=5)
    mixed = _flow(x, lambda st: hierarchy_rhs(st, HierarchySpec(r, MIXED)), t, cfg)
    legs = [(_pure(j), MIXED[r - j] * t) for j in range(r, -1, -1)]

    def compose(legs):
        y = x
        for spec, time in legs:
            y = _flow(y, lambda st, spec=spec: hierarchy_rhs(st, spec), time, cfg)
        return y

    diff, teeth = (_inner_difference(mixed, compose(legs)),
                   _inner_difference(mixed, compose(legs[:-1])))
    print(diff, teeth)
    assert diff < 2e-9
    assert teeth > 1e3 * diff
