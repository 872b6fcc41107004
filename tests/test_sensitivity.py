import math

import numpy as np
import pytest

from oracles import (_toda_second_fields, bessel_tangent, central_difference,
                     evolve_second_tangent, finite_difference_oracle, flaschka_inverse,
                     poisson_error, second_finite_difference, seed_vectors)
from todalab import (GHSState, HierarchySpec, IntegratorConfig, LatticeState,
                     PerturbationSpec, PotentialSpec, SolitonSpec,
                     background_state, evolve_tangent, random_localized_state,
                     sample_times, soliton_state, toda_envelope, verify_light_cone)
from todalab.integrators import _solve_blocks
from todalab.sensitivity import _seed_vectors, make_flow

FIXED = IntegratorConfig(method="rk4-fixed", step=0.02)


def test_seed_vectors():
    x = background_state(11, offset=-5)
    da, db = _seed_vectors(x, (2, "a"))
    assert da[x.site_index(2)] == 1.0 and np.sum(np.abs(da)) == 1.0
    assert np.all(db == 0.0)
    da, db = seed_vectors(x, (0, "btilde"))
    assert db[x.site_index(1)] == 1.0 and db[x.site_index(0)] == -1.0
    assert np.all(da == 0.0)
    with pytest.raises(ValueError):
        _seed_vectors(x, (99, "a"))
    with pytest.raises(ValueError):
        _seed_vectors(x, (0, "q"))
    # the difference seed is the tests' own: the package takes unit seeds only
    with pytest.raises(ValueError, match="'btilde'"):
        _seed_vectors(x, (0, "btilde"))
    with pytest.raises(ValueError, match="needs site 6"):
        seed_vectors(x, (5, "btilde"))


def test_grid_geometry_and_observed():
    x = background_state(21)
    g = evolve_tangent(x, (0, "b"), 0.5, FIXED, sample_dt=0.25)
    d = g.distances
    assert d[x.site_index(0)] == 0
    assert d[x.site_index(-5)] == 5 and d[x.site_index(7)] == 7
    obs = g.observed()
    assert obs.shape == (3, 21)
    # seed itself: derivative starts at exactly 1
    assert obs[0, x.site_index(0)] == 1.0
    # log-a observable doubles the relative a-part
    la = g.observed("log-a")
    assert la.shape == obs.shape


def test_grids_read_times_and_offset_from_their_base_run():
    x = background_state(21, offset=-7)
    grids = (evolve_tangent(x, (0, "b"), 0.5, FIXED, sample_dt=0.25),
             finite_difference_oracle(x, (0, "b"), 0.5, FIXED, sample_dt=0.25),
             evolve_second_tangent(x, (0, "a"), (1, "btilde"), 0.5, FIXED, sample_dt=0.25))
    for g in grids:
        assert g.times is g.base.times
        assert g.offset == g.base.offset == -7
    # a grid's sample count and sites are its base run's, from one definition
    for g in grids[:2]:
        assert (g.n_samples, g.sites.tolist()) == (g.base.n_samples, g.base.sites.tolist()) \
            == (3, list(range(-7, 14)))
    # the guard is the verdict's, not the grid's
    rep = verify_light_cone(grids[0], toda_envelope(1.0, 1.0), guard=4)
    assert (rep.seed_site, rep.seed_coord, rep.guard) == (0, "b", 4)


# variational grids against the centered-difference oracle, every flow
fd_flows = {
    "toda": None,
    "hierarchy1": HierarchySpec(1, (1.0, 0.0)),
    "hierarchy2": HierarchySpec(2, (1.0, 0.0, 0.0)),
    "perturbed": PerturbationSpec("cosine", w0=0.1),
}
@pytest.mark.parametrize("name", sorted(fd_flows))
def test_variational_matches_finite_difference(name):
    flow = "hierarchy" if name.startswith("hierarchy") else name
    spec = fd_flows[name]
    x = soliton_state(SolitonSpec(kappa=1.0), 81)
    g = evolve_tangent(x, (0, "b"), 2.0, FIXED, flow, spec, sample_dt=0.5)
    f = finite_difference_oracle(x, (0, "b"), 2.0, FIXED, flow, spec, sample_dt=0.5)
    mag = np.maximum(np.abs(g.da), np.abs(g.db))
    worst = 0.0
    for got, ref in ((g.da, f.da), (g.db, f.db)):
        mask = np.abs(got) > 1e-6
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
        worst = max(worst, float(np.max(np.where(mask, rel, 0.0))))
    print(name, worst)
    assert worst < 1e-4


def test_fd_meta_records_step():
    x = background_state(21)
    f = finite_difference_oracle(x, (0, "a"), 0.2, FIXED, sample_dt=0.2)
    assert f.meta["fd_h"] == pytest.approx(1e-5 * 1.0)
    assert f.meta["fd_error_scale"] == pytest.approx(1e-10)


def test_ghs_tangent_matches_fd():
    pot = PotentialSpec("quartic", beta=0.1)
    n = 61
    sites = np.arange(-(n // 2), n - n // 2)
    x = GHSState(np.zeros(n), np.exp(-((sites / 3.0) ** 2)), -(n // 2))
    g = evolve_tangent(x, (0, "p"), 1.5, FIXED, "ghs", spec=pot, sample_dt=0.5)
    f = finite_difference_oracle(x, (0, "p"), 1.5, FIXED, "ghs", spec=pot, sample_dt=0.5)
    mask = np.maximum(np.abs(g.da), np.abs(g.db)) > 1e-6
    worst = float(np.max(np.where(mask,
                                  np.abs(g.da - f.da) + np.abs(g.db - f.db), 0.0)))
    print(worst)
    assert worst < 1e-5
    assert g.base.state_type.coords == ("r", "p")


def test_missing_spec_errors():
    x = background_state(21)
    with pytest.raises(ValueError):
        evolve_tangent(x, (0, "b"), 0.1, FIXED, "hierarchy", sample_dt=0.1)
    with pytest.raises(ValueError):
        evolve_tangent(x, (0, "b"), 0.1, FIXED, "perturbed", sample_dt=0.1)
    with pytest.raises(ValueError):
        evolve_tangent(x, (0, "b"), 0.1, FIXED, "warp", sample_dt=0.1)


def test_toda_flow_is_perturbed_with_zero_w():
    x = random_localized_state(41, seed=1)
    g1 = evolve_tangent(x, (0, "b"), 1.0, FIXED, "toda", sample_dt=0.5)
    g2 = evolve_tangent(x, (0, "b"), 1.0, FIXED, "perturbed",
                        spec=PerturbationSpec("cosine", w0=0.0), sample_dt=0.5)
    assert np.array_equal(g1.da, g2.da)
    assert np.array_equal(g1.db, g2.db)


def test_grid_csv_roundtrip(tmp_path):
    x = background_state(15)
    g = evolve_tangent(x, (1, "a"), 0.4, FIXED, sample_dt=0.2)
    p = tmp_path / "grid.csv"
    g.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t,n,da,db"
    # 3 samples x 15 sites data rows
    assert len(lines) == 1 + 3 * 15


def test_boundary_margin_tracks_tangent_support():
    x = background_state(61)
    g = evolve_tangent(x, (0, "b"), 0.5, FIXED, sample_dt=0.25)
    assert g.clean(10)
    # seeding right next to the edge is not clean
    g2 = evolve_tangent(x, (-28, "b"), 0.5, FIXED, sample_dt=0.25)
    print(g2.boundary_margin)
    assert not g2.clean(10)


def test_second_tangent_symmetric_in_seeds():
    # d^2/dz1 dz2 must not depend on the order of differentiation
    x = soliton_state(SolitonSpec(kappa=0.8), 61)
    g12 = evolve_second_tangent(x, (0, "a"), (2, "b"), 1.5, FIXED, sample_dt=0.5)
    g21 = evolve_second_tangent(x, (2, "b"), (0, "a"), 1.5, FIXED, sample_dt=0.5)
    diff = max(np.max(np.abs(g12.w_a - g21.w_a)), np.max(np.abs(g12.w_b - g21.w_b)))
    print(diff)
    assert diff < 1e-8


def test_second_tangent_matches_nested_fd():
    x = soliton_state(SolitonSpec(kappa=0.8), 61)
    g = evolve_second_tangent(x, (0, "a"), (1, "btilde"), 1.5, FIXED, sample_dt=0.5)
    times, wa, wb = second_finite_difference(x, (0, "a"), (1, "btilde"), 1.5, cfg=FIXED,
                                             sample_dt=0.5)
    assert np.array_equal(times, g.times)
    mask = np.maximum(np.abs(g.w_a), np.abs(g.w_b)) > 1e-5
    rel_a = np.abs(g.w_a - wa) / np.maximum(np.abs(wa), 1e-300)
    rel_b = np.abs(g.w_b - wb) / np.maximum(np.abs(wb), 1e-300)
    worst = float(np.max(np.where(mask & (np.abs(g.w_a) > 1e-5), rel_a, 0.0)))
    worst = max(worst, float(np.max(np.where(mask & (np.abs(g.w_b) > 1e-5), rel_b, 0.0))))
    print(worst)
    assert worst < 1e-3


def test_first_tangents_carried_alongside_second():
    x = soliton_state(SolitonSpec(kappa=0.8), 61)
    g2 = evolve_second_tangent(x, (0, "a"), (2, "b"), 1.0, FIXED, sample_dt=0.5)
    g1 = evolve_tangent(x, (0, "a"), 1.0, FIXED, sample_dt=0.5)
    assert np.max(np.abs(g2.u1_a - g1.da)) < 1e-14
    assert np.max(np.abs(g2.u1_b - g1.db)) < 1e-14


def test_ghs_chain_rule_correspondence():
    # lattice tangent of the flaschka image: delta a = -(a/2) delta r, delta b = -dp/2
    x = random_localized_state(61, seed=9, width=4.0)
    ghs = flaschka_inverse(x)
    pot = PotentialSpec("toda")
    t_final = 1.0
    g_ghs = evolve_tangent(ghs, (0, "p"), t_final, FIXED, "ghs", spec=pot, sample_dt=t_final / 2)
    # the same physical perturbation in lattice coordinates: db = -dp/2 at site 0
    g_lat = evolve_tangent(x, (0, "b"), t_final, FIXED, "toda", sample_dt=t_final / 2)
    # map ghs tangents through a = e^{-r/2}/2, b = -p/2
    a_t = 0.5 * np.exp(-g_ghs.base.r / 2.0)
    da_t = -0.5 * a_t * g_ghs.da                      # d a = -(a/2) dr
    db_t = -0.5 * g_ghs.db
    # lattice run with the equivalent seed scale: d/dp_0 = -1/2 d/db_0
    worst = max(np.max(np.abs(da_t - (-0.5) * g_lat.da)),
                np.max(np.abs(db_t - (-0.5) * g_lat.db)))
    print(worst)
    assert worst < 1e-6


# -- flow fields ------------------------------------------------------------

def _mixed_sign_state(n):
    x = random_localized_state(n, seed=7)
    a = x.a.copy()
    a[::3] *= -1.0
    return LatticeState(a, x.b, x.offset, x.background)


LATTICE_FLOWS = {
    "toda": ("toda", None),
    **{f"hierarchy-r{r}": ("hierarchy", HierarchySpec(r, c))
       for r, c in ((1, (1.0, 0.5)), (2, (1.0, 0.0, -0.3)), (3, (1.0, 0.2, 0.0, 0.1)))},
    "perturbed-cosine": ("perturbed", PerturbationSpec("cosine", 0.2)),
    "perturbed-rational": ("perturbed", PerturbationSpec("rational", 0.3)),
    "perturbed-w0-zero": ("perturbed", PerturbationSpec("cosine", 0.0)),
}
LATTICE_STATES = {"random": lambda n: random_localized_state(n, seed=3),
                  "mixed-sign-a": _mixed_sign_state,
                  "background": background_state}


def _ghs_state(kind, n):
    rng = np.random.default_rng(11)
    if kind == "background":
        return GHSState(np.zeros(n), np.zeros(n), -(n // 2))
    r = rng.uniform(-0.4, 0.4, n)
    if kind == "large-strain":          # strong compressions and stretches
        r[::3] = -1.5
        r[1::3] = 1.5
    return GHSState(r, rng.uniform(-0.5, 0.5, n), -(n // 2))


def _check_field(field, s, rng, h=1e-6):
    """field(s, d1, d2) against field(s) along a random tangent d: the base
    half equals field(s) bit for bit, so a run with tangents keeps the bytes
    of the base run, and the tangent half equals the central difference
    (field(s + h d) - field(s - h d)) / 2h to 1e-7."""
    d1, d2 = rng.normal(size=s.n_sites), rng.normal(size=s.n_sites)
    got, base = field(s, d1, d2), field(s)
    assert len(got) == 4 and len(base) == 2
    for g, w in zip(got, base):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    for g, fd in zip(got[2:], central_difference(field, s, d1, d2, h)):
        assert np.max(np.abs(g - fd)) < 1e-7


@pytest.mark.parametrize("state", LATTICE_STATES)
@pytest.mark.parametrize("flow", LATTICE_FLOWS)
def test_fused_fields_equal_rhs_and_tangent_bitwise(flow, state):
    _check_field(make_flow(*LATTICE_FLOWS[flow]), LATTICE_STATES[state](41),
                 np.random.default_rng(5))


@pytest.mark.parametrize("state", ["random", "large-strain", "background"])
@pytest.mark.parametrize("pot", [PotentialSpec("toda"), PotentialSpec("quartic", beta=0.3)],
                         ids=["toda", "quartic"])
def test_ghs_fused_fields_equal_rhs_and_tangent_bitwise(pot, state):
    _check_field(make_flow("ghs", pot), _ghs_state(state, 41), np.random.default_rng(6))


def test_make_flow_names_every_flow():
    with pytest.raises(ValueError, match="pick one of \\('toda', 'hierarchy', 'perturbed', 'ghs'\\)"):
        make_flow("perturbed-hierarchy")
    with pytest.raises(ValueError, match="^hierarchy flow takes a HierarchySpec, got none$"):
        make_flow("hierarchy")
    # a spec the flow does not read is refused, not ignored
    with pytest.raises(ValueError, match="^toda flow takes no spec, got a PerturbationSpec$"):
        make_flow("toda", PerturbationSpec("cosine", 0.5))
    with pytest.raises(ValueError,
                       match="^hierarchy flow takes a HierarchySpec, got a PotentialSpec$"):
        make_flow("hierarchy", PotentialSpec("toda"))
    with pytest.raises(ValueError,
                       match="^perturbed flow takes a PerturbationSpec, got a HierarchySpec$"):
        make_flow("perturbed", HierarchySpec(1, (1.0, 0.0)))


def _special_tangent(n, rng):
    """A random tangent with signed zeros at both ends and a NaN inside."""
    d1, d2 = rng.normal(size=n), rng.normal(size=n)
    d1[0], d1[-1], d2[0], d2[-1] = -0.0, 0.0, 0.0, -0.0
    d2[n // 2] = np.nan
    return d1, d2


GHS_STATES = {"random": "random", "mixed-sign-a": "large-strain", "background": "background"}
GHS_POTENTIALS = {"ghs-toda": PotentialSpec("toda"), "ghs-quartic": PotentialSpec("quartic", beta=0.3)}


@pytest.mark.parametrize("state", LATTICE_STATES)
@pytest.mark.parametrize("flow", [*LATTICE_FLOWS, *GHS_POTENTIALS])
def test_fields_leave_their_arguments_unchanged(flow, state):
    """A solve hands each field a state over views of the solver's vector,
    with no check in between, and the tangent as views of it too: a field
    that wrote into its arguments would corrupt the run without an error."""
    if flow in GHS_POTENTIALS:
        field = make_flow("ghs", GHS_POTENTIALS[flow])
        x = _ghs_state(GHS_STATES[state], 41)
    else:
        field, x = make_flow(*LATTICE_FLOWS[flow]), LATTICE_STATES[state](41)
    y = np.concatenate(x.arrays + _special_tangent(41, np.random.default_rng(9)))
    before = y.tobytes()
    rows = y.reshape(4, 41)
    s = x._over(rows[0], rows[1])
    field(s)
    field(s, rows[2], rows[3])
    assert y.tobytes() == before


def _up(v, fill=0.0):
    return np.concatenate((v[1:], [fill]))


def _dn(v, fill=0.0):
    return np.concatenate(([fill], v[:-1]))


def _toda_rhs_concatenated(s, da, db):
    """toda_rhs as it was written with np.concatenate: the oracle of the
    slicing form."""
    a, b = s.a, s.b
    a_bg, b_bg = s.background
    b_step = _up(b, b_bg) - b
    a_dn = _dn(a, a_bg)
    return (a * b_step, 2.0 * (a * a - a_dn * a_dn),
            da * b_step + a * (_up(db) - db), 4.0 * (a * da - a_dn * _dn(da)))


def _perturbed_rhs_concatenated(s, pspec, da, db):
    f1, f2, g1, g2 = _toda_rhs_concatenated(s, da, db)
    if pspec.vanishes:
        return f1, f2, g1, g2
    u = np.log(4.0 * s.a * s.a)
    wp = pspec.dW(u)
    a_bg = s.background[0]
    forcing = 0.5 * (wp - _dn(wp, float(pspec.dW(math.log(4.0 * a_bg * a_bg)))))
    term = pspec.d2W(u) * da / s.a
    return f1, f2 + forcing, g1, g2 + (term - _dn(term))


def _ghs_rhs_concatenated(s, pot, dr, dp):
    r, p = s.r, s.p
    r_bg, p_bg = s.background
    vp = np.asarray(pot.dV(r), dtype=float)
    term = np.asarray(pot.d2V(r), dtype=float) * dr
    return (_up(p, p_bg) - p, vp - _dn(vp, float(pot.dV(r_bg))),
            _up(dp) - dp, term - _dn(term))


@pytest.mark.parametrize("state", LATTICE_STATES)
@pytest.mark.parametrize("flow", ["toda", "perturbed-cosine", "perturbed-rational",
                                  "perturbed-w0-zero"])
def test_sliced_shifts_equal_concatenated_shifts_bitwise(flow, state):
    """The fields fill their neighbor arrays by slices; every value, signed
    zeros and NaNs included, is the one the np.concatenate form gave."""
    x = LATTICE_STATES[state](41)
    d1, d2 = _special_tangent(41, np.random.default_rng(4))
    name, spec = LATTICE_FLOWS[flow]
    got = make_flow(name, spec)(x, d1, d2)
    want = (_toda_rhs_concatenated(x, d1, d2) if name == "toda"
            else _perturbed_rhs_concatenated(x, spec, d1, d2))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("state", ["random", "large-strain", "background"])
@pytest.mark.parametrize("pot", [PotentialSpec("toda"), PotentialSpec("quartic", beta=0.3)],
                         ids=["toda", "quartic"])
def test_ghs_sliced_shifts_equal_concatenated_shifts_bitwise(pot, state):
    x = _ghs_state(state, 41)
    d1, d2 = _special_tangent(41, np.random.default_rng(4))
    got = make_flow("ghs", pot)(x, d1, d2)
    assert [g.tobytes() for g in got] == \
        [w.tobytes() for w in _ghs_rhs_concatenated(x, pot, d1, d2)]


def _second_fields_composed(s, u1a, u1b, u2a, u2b, wa, wb):
    """The second-tangent field written out with concatenated shifts: the
    Toda field and its linearization along u1, the one along u2 from a
    second call, and d/dt w.  The bitwise oracle of _toda_second_fields."""
    a = s.a
    a_bg, b_bg = s.background
    b_up = _up(s.b, b_bg)
    a_dn = _dn(a, a_bg)
    dwa = wa * (b_up - s.b) + a * (_up(wb) - wb) \
        + u1a * (_up(u2b) - u2b) + u2a * (_up(u1b) - u1b)
    dwb = 4.0 * (a * wa - a_dn * _dn(wa)) + 4.0 * (u1a * u2a - _dn(u1a) * _dn(u2a))
    return (*_toda_rhs_concatenated(s, u1a, u1b), *_toda_rhs_concatenated(s, u2a, u2b)[2:],
            dwa, dwb)


@pytest.mark.parametrize("state", LATTICE_STATES)
def test_second_tangent_field_equals_the_composition_bitwise(state):
    x = LATTICE_STATES[state](41)
    rng = np.random.default_rng(12)
    blocks = (*_special_tangent(41, rng), *_special_tangent(41, rng), *_special_tangent(41, rng))
    got = _toda_second_fields(x, *blocks)
    assert [g.tobytes() for g in got] == \
        [w.tobytes() for w in _second_fields_composed(x, *blocks)]


def test_second_tangent_run_equals_the_composed_run_bitwise():
    """Under rk4-fixed _toda_second_fields gives the written-out field's run
    bit for bit: w, both first tangents and the base run."""
    x = soliton_state(SolitonSpec(kappa=0.8), 61)
    g = evolve_second_tangent(x, (0, "a"), (1, "btilde"), 1.5, FIXED, sample_dt=0.5)
    zeros = np.zeros(x.n_sites)
    blocks = (*seed_vectors(x, (0, "a")), *seed_vectors(x, (1, "btilde")), zeros, zeros)
    base, series = _solve_blocks(x, _second_fields_composed, blocks, g.times, FIXED)
    got = (g.base.a, g.base.b, g.u1_a, g.u1_b, g.u2_a, g.u2_b, g.w_a, g.w_b)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in (base.a, base.b, *series)]


# -- exact oracles of whole tangent grids -------------------------------------

def _bessel_error(cfg):
    """The largest |grid - Bessel solution| over seeds (0, b), (0, a) and
    (3, a) of a background window of 101 sites, every sample to t = 5."""
    x = background_state(101)
    worst = 0.0
    for seed in ((0, "b"), (0, "a"), (3, "a")):
        g = evolve_tangent(x, seed, 5.0, cfg, sample_dt=0.5)
        for i, t in enumerate(g.times):
            da, db = bessel_tangent(seed, g.sites, t)
            worst = max(worst, np.max(np.abs(g.da[i] - da)), np.max(np.abs(g.db[i] - db)))
    return worst


def test_background_tangent_is_the_bessel_solution_under_rk_adaptive():
    """2.0e-9 at tol 1e-10 and 2.2e-11 at 1e-12: the error is the
    integrator's and falls with its tolerance."""
    loose, tight = (_bessel_error(IntegratorConfig(tolerance=tol)) for tol in (1e-10, 1e-12))
    print(loose, tight)
    assert loose < 1e-8 and tight < 1e-10
    assert tight < loose / 30.0


def test_background_tangent_is_the_bessel_solution_under_rk4_fixed():
    """6.3e-9 at step 0.01 and 4.0e-10 at 0.005: halving the step divides
    the error by 16, the fourth order of RK4."""
    coarse, fine = (_bessel_error(IntegratorConfig(method="rk4-fixed", step=h))
                    for h in (0.01, 0.005))
    print(coarse, fine, coarse / fine)
    assert coarse < 2e-8 and fine < 2e-9
    assert 12.0 < coarse / fine < 20.0


@pytest.mark.parametrize("cfg", [IntegratorConfig(tolerance=1e-10),
                                 IntegratorConfig(method="rk4-fixed", step=0.01)],
                         ids=["rk-adaptive", "rk4-fixed"])
@pytest.mark.parametrize("flow, spec", [("toda", None),
                                        ("perturbed", PerturbationSpec("cosine", w0=0.1))],
                         ids=["toda", "perturbed"])
def test_the_flow_preserves_the_poisson_structure(flow, spec, cfg):
    """Phi(t) Pi(x(0)) Phi(t)^T = Pi(x(t)) over the whole Jacobian of a
    random base of 21 sites at t = 2: 6e-11 under rk-adaptive at tol 1e-10
    and 2.5-2.8e-10 under rk4-fixed at step 0.01.  With Pi(x(0)) on the
    right instead, the difference is 6e-2."""
    err, unmoved = poisson_error(random_localized_state(21), cfg, flow, spec)
    print(flow, err.max(), unmoved.max())
    assert err.max() < 1e-9
    assert unmoved.max() > 1e-2


@pytest.mark.parametrize("r, n_sites, margin, cfg", [
    (1, 41, 10, IntegratorConfig(tolerance=1e-10)), (1, 41, 10, FIXED),
    (3, 45, 20, IntegratorConfig(tolerance=1e-10))],
    ids=["r1-rk-adaptive", "r1-rk4-fixed", "r3-rk-adaptive"])
def test_hierarchy_preserves_the_poisson_structure_away_from_the_edge(r, n_sites, margin, cfg):
    """The pure order-r flow at t = 2 over the rows and seeds at least margin
    sites from the edge: r = 1 on 41 sites reads 4e-11 under rk-adaptive at
    tol 1e-10 and 1.6e-10 under rk4-fixed at step 0.02, r = 3 on 45 sites
    1.5e-10.  Over the whole window, where the frozen background truncates
    the flow, it reads 9.2e-2 (r = 1) and 1.0e-1 (r = 3)."""
    x = random_localized_state(n_sites)
    err, _ = poisson_error(x, cfg, "hierarchy", HierarchySpec(r, (1.0,) + (0.0,) * r))
    inner = np.r_[margin:n_sites - margin, n_sites + margin:2 * n_sites - margin]
    print(err[np.ix_(inner, inner)].max(), err.max())
    assert err[np.ix_(inner, inner)].max() < 1e-9
    assert err.max() > 1e-2


# -- the transport identity -----------------------------------------------------

def transport_error(x, field, cfg, vector=None, t=2.0):
    """The largest |Phi(t) v(x(0)) - v(x(t))| over the window, Phi(t) the
    tangent flow of field along its run from x: one solve with v(x(0)) as
    the tangent block.  v is the field itself unless given: an autonomous
    flow carries its own field."""
    vector = vector or field
    base, (da, db) = _solve_blocks(x, field, vector(x), sample_times(t, t), cfg)
    fa, fb = vector(base.state(1))
    return max(np.max(np.abs(da[-1] - fa)), np.max(np.abs(db[-1] - fb)))


TRANSPORT_BASE = random_localized_state(101)
TRANSPORT = {
    "toda": ("toda", None, None),
    "hierarchy-r3": ("hierarchy", LATTICE_FLOWS["hierarchy-r3"][1], None),
    "perturbed-cosine": ("perturbed", LATTICE_FLOWS["perturbed-cosine"][1], None),
    "ghs-quartic": ("ghs", GHS_POTENTIALS["ghs-quartic"], None),
    **{f"toda-carries-H{j}": ("toda", None, HierarchySpec(j, (1.0,) + (0.0,) * j))
       for j in (1, 2, 3)},
}


@pytest.mark.parametrize("case", TRANSPORT)
def test_the_tangent_flow_transports_the_field(case):
    """Phi(t) F(x(0)) = F(x(t)) for each flow F of make_flow, from a random
    base of 101 sites at t = 2 (the ghs chain from its Flaschka image), and
    Phi_Toda(t) X_{H_j}(x(0)) = X_{H_j}(x(t)) for the pure hierarchy fields
    H_j, which commute with the Toda flow.  The error is the integrator's:
    3e-11 to 2.4e-10 at tol 1e-10 and 3e-13 to 1.7e-12 at 1e-12 under
    rk-adaptive; 2.2e-9 to 9.5e-9 at step 0.02 and 16 times less at 0.01
    under rk4-fixed, its fourth order."""
    flow, spec, carried = TRANSPORT[case]
    field = make_flow(flow, spec)
    vector = make_flow("hierarchy", carried) if carried else None
    x = flaschka_inverse(TRANSPORT_BASE) if flow == "ghs" else TRANSPORT_BASE
    loose, tight, coarse, fine = (transport_error(x, field, cfg, vector) for cfg in (
        IntegratorConfig(tolerance=1e-10), IntegratorConfig(tolerance=1e-12),
        FIXED, IntegratorConfig(method="rk4-fixed", step=0.01)))
    print(case, loose, tight, coarse, fine, coarse / fine)
    assert loose < 1e-9 and tight < 1e-11
    assert tight < loose / 30.0
    assert coarse < 5e-8 and fine < 5e-9
    assert 12.0 < coarse / fine < 20.0


def test_the_transport_identity_has_teeth():
    """The Toda field with the db half of its linearization scaled by 1.001
    does not transport itself: it misses by 4.9e-4, where the check above
    allows 1e-9."""
    toda = make_flow("toda")

    def bent(st, *tangent):
        fields = toda(st, *tangent)
        return fields if not tangent else (*fields[:3], 1.001 * fields[3])

    err = transport_error(TRANSPORT_BASE, bent, IntegratorConfig(tolerance=1e-10))
    print(err)
    assert err > 1e-4
