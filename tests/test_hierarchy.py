import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from todalab import (HierarchySpec, IntegratorConfig, LatticeState,
                     background_state, hierarchy_hamiltonian, hierarchy_rhs,
                     integrate, random_localized_state)
from todalab.hierarchy import (_band_powers, free_moment, g_tilde, h_tilde,
                               hierarchy_fields, kvm_rhs,
                               path_counts)
from todalab.state import jacobi_matrix, toda_rhs


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


def test_band_matrix_elements_vs_dense():
    x = random_localized_state(30, seed=12, width=4.0)
    L = jacobi_matrix(x)
    worst = 0.0
    for j in range(0, 7):
        Lj = np.linalg.matrix_power(L, j)
        for idx in range(j, x.n_sites - j - 1):
            site = x.offset + idx
            worst = max(worst, abs(g_tilde(x, j, site) - Lj[idx, idx]),
                        abs(h_tilde(x, j, site) - 2.0 * x.a[idx] * Lj[idx + 1, idx]))
    print(worst)
    assert worst < 1e-12


def band_powers_all_diagonals(a, b, jmax, da=None, db=None):
    """The step over all 2 jmax + 1 diagonals that _band_powers replaced:
    its bitwise oracle."""
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
    a, b, da, db = _band_inputs(kind)
    if not tangent:
        da = db = None
    for jmax in range(0, 7):
        P, dP = _band_powers(a, b, jmax, da, db)
        P_ref, dP_ref = band_powers_all_diagonals(a, b, jmax, da, db)
        assert P.tobytes() == P_ref.tobytes()
        assert (dP is None) == (dP_ref is None)
        if tangent:
            assert dP.tobytes() == dP_ref.tobytes()


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


def test_matrix_element_margin_errors():
    x = background_state(15, offset=0)
    with pytest.raises(ValueError) as err:
        g_tilde(x, 3, 1)            # needs sites -2 .. 4
    assert "-2..4" in str(err.value)
    # padded evaluation substitutes background and succeeds
    assert abs(g_tilde(x, 2, 0, padded=True) - free_moment(2)) < 1e-15
    with pytest.raises(ValueError) as err:
        h_tilde(x, 2, 13)           # needs sites 11 .. 16
    assert "16" in str(err.value)


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
    h = 1e-6
    plus = LatticeState(x.a + h * da, x.b + h * db, x.offset)
    minus = LatticeState(x.a - h * da, x.b - h * db, x.offset)
    fa, fb = hierarchy_rhs(plus, spec)
    ga, gb = hierarchy_rhs(minus, spec)
    ta, tb = hierarchy_rhs(x, spec, da, db)[2:]
    err_a = np.max(np.abs((fa - ga) / (2.0 * h) - ta))
    err_b = np.max(np.abs((fb - gb) / (2.0 * h) - tb))
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
                     IntegratorConfig(), n_samples=7)
    assert traj.clean
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
