import math

import numpy as np
import pytest

from oracles import flaschka_inverse, jacobi_matrix, relative_to_lattice
from todalab import (GHSState, LatticeState, background_state, hamiltonian_ab,
                     jacobi_norm, jacobi_norm_within, random_localized_state,
                     toda_rhs, trace_invariants)
from todalab.solitons import SolitonSpec, soliton_state


def test_background_is_fixed_point():
    s = background_state(31)
    da, db = toda_rhs(s)
    print(np.max(np.abs(da)), np.max(np.abs(db)))
    assert np.all(da == 0.0)
    assert np.all(db == 0.0)


def test_fixed_point_characterization():
    # b == b_bg and a^2 == a_bg^2 is also sufficient with flipped signs of a
    s = background_state(21)
    a = s.a.copy()
    a[10] = -0.5
    flipped = LatticeState(a, s.b, s.offset)
    da, db = toda_rhs(flipped)
    assert np.max(np.abs(da)) == 0.0
    assert np.max(np.abs(db)) == 0.0
    # any deviation in b breaks it
    b = s.b.copy()
    b[10] = 0.1
    da, db = toda_rhs(LatticeState(s.a, b, s.offset))
    assert np.max(np.abs(da)) > 0.0


def test_state_validation():
    with pytest.raises(ValueError):
        LatticeState(np.ones(3), np.ones(4), 0)
    with pytest.raises(ValueError):
        LatticeState(np.ones(2), np.ones(2), 0)
    with pytest.raises(ValueError):
        LatticeState(np.array([0.5, 0.0, 0.5]), np.zeros(3), 0)   # a must be nonzero
    with pytest.raises(ValueError):
        LatticeState(np.array([0.5, np.nan, 0.5]), np.zeros(3), 0)


@pytest.mark.parametrize("build,message", [
    (lambda: LatticeState(np.array([0.5, 0.0, 0.5]), np.zeros(3), 0), "LatticeState: a_n = 0 at site 1"),
    (lambda: LatticeState(np.full(4, 0.5), np.array([0.0, 0.0, np.nan, 0.0]), -5),
     "LatticeState: non-finite b at site -3"),
    (lambda: LatticeState(np.array([0.5, 0.0, np.inf]), np.zeros(3), 0),
     "LatticeState: a_n = 0 at site 1"),
    (lambda: GHSState(np.array([0.0, np.nan, np.nan]), np.zeros(3), 2), "GHSState: non-finite r at site 3"),
])
def test_a_state_names_its_first_bad_site(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_site_indexing():
    s = background_state(11, offset=-5)
    assert s.sites[0] == -5
    assert s.sites[-1] == 5
    assert s.site_index(0) == 5
    assert s.site_index(-5) == 0


def test_energy_vanishes_on_background():
    s = background_state(25)
    assert hamiltonian_ab(s) == 0.0


def test_energy_single_site_value():
    # one site at a=1 among background: 4 - 2 ln 2 - 1 = 3 - 2 ln 2
    s = background_state(25)
    a = s.a.copy()
    a[12] = 1.0
    e = hamiltonian_ab(LatticeState(a, s.b, s.offset))
    print(e, 3.0 - 2.0 * math.log(2.0))
    assert abs(e - (3.0 - 2.0 * math.log(2.0))) < 1e-14


def test_flaschka_roundtrip():
    s = random_localized_state(41, seed=1)
    back = relative_to_lattice(flaschka_inverse(s))
    assert np.max(np.abs(back.a - s.a)) < 1e-14
    assert np.max(np.abs(back.b - s.b)) < 1e-14
    assert back.offset == s.offset


def test_flaschka_forward_from_positions():
    # the Flaschka map of (q, p) is relative_to_lattice on r = q_{n+1} - q_n
    rng = np.random.default_rng(3)
    q = np.cumsum(rng.uniform(0.5, 1.5, 12))
    p = rng.normal(0.0, 0.4, 12)
    s = relative_to_lattice(GHSState(np.diff(q), p[:-1], offset=-6))
    assert s.n_sites == 11
    expected_a = 0.5 * np.exp(-(q[1:] - q[:-1]) / 2.0)
    assert np.max(np.abs(s.a - expected_a)) < 1e-15
    assert np.max(np.abs(s.b + p[:-1] / 2.0)) < 1e-15


def test_flaschka_forward_overflow_names_site():
    # a collapsed (or far stretched) pair maps to a = inf (or 0), without a
    # RuntimeWarning, and the state check names its site
    for r0, message in ((-2000.0, "LatticeState: non-finite a at site 7"),
                        (2000.0, "LatticeState: a_n = 0 at site 7")):
        with pytest.raises(ValueError) as err:
            relative_to_lattice(GHSState(np.array([r0, -0.5, -0.5]), np.zeros(3), offset=7))
        assert str(err.value) == message


def test_flaschka_inverse_requires_positive_a():
    s = background_state(5)
    a = s.a.copy()
    a[2] = -0.5
    with pytest.raises(ValueError):
        flaschka_inverse(LatticeState(a, s.b, s.offset))


def test_jacobi_matrix_layout():
    s = LatticeState(np.array([0.4, 0.6, 0.3]), np.array([0.1, -0.2, 0.05]), 0)
    m = jacobi_matrix(s)
    assert m.shape == (3, 3)
    assert m[0, 0] == 0.1 and m[1, 1] == -0.2
    assert m[0, 1] == m[1, 0] == 0.4
    assert m[1, 2] == m[2, 1] == 0.6
    assert m[0, 2] == 0.0
    padded = jacobi_matrix(s, pad=2)
    assert padded.shape == (7, 7)
    assert padded[0, 0] == 0.0 and padded[0, 1] == 0.5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_jacobi_norm_sandwich(seed):
    s = random_localized_state(41, seed=seed)
    nrm = jacobi_norm(s)
    dense = np.linalg.norm(jacobi_matrix(s), 2)
    lower = max(np.max(np.abs(s.a[:-1])), np.max(np.abs(s.b)))
    upper = 2.0 * np.max(np.abs(s.a)) + np.max(np.abs(s.b))
    print(seed, lower, nrm, upper)
    assert abs(nrm - dense) < 1e-12
    assert lower <= nrm + 1e-14
    assert nrm <= upper + 1e-14


def test_jacobi_norm_background():
    # free window: largest eigenvalue 2 a_bg cos(pi/(n+1)) < 1, approaching 1
    s = background_state(200)
    expected = 2.0 * 0.5 * math.cos(math.pi / 201.0)
    print(jacobi_norm(s), expected)
    assert abs(jacobi_norm(s) - expected) < 1e-12


def _mixed_sign_state():
    s = random_localized_state(41, seed=6)
    s.a[::2] *= -1.0
    return LatticeState(s.a, s.b, s.offset, s.background)


NORM_WITHIN_STATES = {
    **{f"random-{seed}": lambda seed=seed: random_localized_state(41, seed=seed)
       for seed in (0, 1, 2, 3)},
    "background": lambda: background_state(200),
    "mixed-sign-a": _mixed_sign_state,
    "negative-b-background": lambda: random_localized_state(41, seed=8,
                                                            background=(0.5, -0.3)),
    "three-sites": lambda: LatticeState(np.array([0.4, -0.6, 0.3]),
                                        np.array([0.1, -0.2, 0.05]), 0),
}


@pytest.mark.parametrize("name", sorted(NORM_WITHIN_STATES))
def test_jacobi_norm_within_oracles(name):
    """The Sturm-count verdict agrees with jacobi_norm and with the dense
    spectrum at bounds a relative 1e-12 either side of the norm, far inside
    and far outside it (beyond the Gershgorin bound, where no count runs)."""
    s = NORM_WITHIN_STATES[name]()
    nrm = jacobi_norm(s)
    dense = float(np.max(np.abs(np.linalg.eigvalsh(jacobi_matrix(s)))))
    bounds = nrm * np.array([1.0 - 1e-12, 1.0 + 1e-12, 0.0, 0.5, 1.5, 10.0])
    rows = len(bounds)
    got = jacobi_norm_within(np.tile(s.a, (rows, 1)), np.tile(s.b, (rows, 1)), bounds)
    print(name, nrm, dense, got)
    assert got.tolist() == [False, True, False, False, True, True]
    assert np.array_equal(got, nrm <= bounds)
    assert np.array_equal(got, dense <= bounds)


def test_jacobi_norm_within_rows_are_independent():
    """Each row is judged against its own bound: four distinct states, one
    per row; a negative or NaN bound passes no row."""
    states = [NORM_WITHIN_STATES[f"random-{seed}"]() for seed in (0, 1, 2, 3)]
    norms = np.array([jacobi_norm(s) for s in states])
    a, b = np.array([s.a for s in states]), np.array([s.b for s in states])
    bounds = norms * np.array([1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-12])
    assert jacobi_norm_within(a, b, bounds).tolist() == [True, False, True, False]
    assert not jacobi_norm_within(a, b, np.full(4, -1.0)).any()
    assert not jacobi_norm_within(a, b, np.full(4, np.nan)).any()


def test_trace_invariants_first_moment():
    s = random_localized_state(31, seed=5)
    tr = trace_invariants(s)
    # j = 1: tr L - tr L_bg = sum b (background b is 0)
    assert abs(tr[0] - np.sum(s.b)) < 1e-10
    assert tr.shape == (4,)


def test_trace_invariants_dense_oracle():
    s = random_localized_state(21, seed=9)
    tr = trace_invariants(s)
    L = jacobi_matrix(s)
    Lbg = jacobi_matrix(background_state(21))
    for j in range(1, 5):
        dense = np.trace(np.linalg.matrix_power(L, j)) - np.trace(np.linalg.matrix_power(Lbg, j))
        print(j, tr[j - 1], dense)
        assert abs(tr[j - 1] - dense) < 1e-9


@pytest.mark.parametrize("n", [21, 1001])
def test_trace_invariants_vanish_on_the_background(n):
    """The state and the background are summed by the same kernel, so a
    background window reads exactly 0; the eigenvalue form read 1.7e-13 at
    1001 sites."""
    assert trace_invariants(background_state(n)).tolist() == [0.0] * 4


@pytest.mark.parametrize("n", [21, 101, 201])
@pytest.mark.parametrize("kind", ["random", "soliton"])
def test_trace_invariants_are_traces_of_dense_powers(kind, n, monkeypatch):
    """tr(L^j) - tr(L_bg^j), j = 1 .. 4, of the dense window matrices, with
    no eigensolve."""
    s = random_localized_state(n, seed=n) if kind == "random" else \
        soliton_state(SolitonSpec(kappa=1.0), n, t=0.7)
    monkeypatch.setattr("scipy.linalg.eigvalsh_tridiagonal", None)   # any eigensolve fails
    tr = trace_invariants(s)
    L, L_bg = jacobi_matrix(s), jacobi_matrix(background_state(n))
    dense = [np.trace(np.linalg.matrix_power(L, j)) - np.trace(np.linalg.matrix_power(L_bg, j))
             for j in range(1, 5)]
    assert np.abs(tr - dense).max() < 1e-12
    assert np.abs(tr).max() > 1e-3                  # a state off the background


def test_random_localized_state_properties():
    s = random_localized_state(81, seed=4)
    assert np.all(s.a > 0.0)
    # deterministic for a fixed seed
    s2 = random_localized_state(81, seed=4)
    assert np.array_equal(s.a, s2.a) and np.array_equal(s.b, s2.b)
    # far tail sits numerically on the background (width-8 envelope)
    assert abs(s.a[0] - 0.5) < 1e-9 and abs(s.b[-1]) < 1e-9
    with pytest.raises(ValueError):
        random_localized_state(31, amp_a=1.2)


def test_ghs_state_validation():
    # the window body is shared by both state types
    for state in (GHSState, LatticeState):
        ones = np.ones(5)
        s = state(ones, ones, -2)
        with pytest.raises(ValueError):
            state(np.ones(5), np.ones(4), 0)
        with pytest.raises(ValueError):
            state(np.array([1.0, np.inf, 1.0]), np.ones(3), 0)
        with pytest.raises(ValueError):
            state(np.ones(3), np.array([1.0, 1.0, np.nan]), 0)
        with pytest.raises(ValueError):
            state(np.ones(2), np.ones(2), 0)
        assert list(s.sites) == [-2, -1, 0, 1, 2] and s.site_index(0) == 2
