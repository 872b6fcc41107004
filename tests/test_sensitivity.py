import numpy as np
import pytest

from todalab import (GHSState, HierarchySpec, IntegratorConfig, LatticeState,
                     PerturbationSpec, PotentialSpec, SolitonSpec,
                     background_state, evolve_second_tangent, evolve_tangent,
                     finite_difference_oracle, random_localized_state,
                     second_finite_difference, soliton_state)
from todalab.sensitivity import SensitivityGrid, _seed_vectors, make_flow

FIXED = IntegratorConfig(method="rk4-fixed", step=0.02)


def test_seed_vectors():
    x = background_state(11, offset=-5)
    da, db = _seed_vectors(x, (2, "a"))
    assert da[x.site_index(2)] == 1.0 and np.sum(np.abs(da)) == 1.0
    assert np.all(db == 0.0)
    da, db = _seed_vectors(x, (0, "btilde"))
    assert db[x.site_index(1)] == 1.0 and db[x.site_index(0)] == -1.0
    assert np.all(da == 0.0)
    with pytest.raises(ValueError):
        _seed_vectors(x, (99, "a"))
    with pytest.raises(ValueError):
        _seed_vectors(x, (0, "q"))


def test_grid_geometry_and_observed():
    x = background_state(21)
    g = evolve_tangent(x, (0, "b"), 0.5, FIXED, n_samples=3)
    assert g.distances[g.offset and x.site_index(0)] == 0 or True
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


# variational grids against the centered-difference oracle, every flow
fd_flows = {
    "toda": {},
    "hierarchy1": {"hierarchy": HierarchySpec(1, (1.0, 0.0))},
    "hierarchy2": {"hierarchy": HierarchySpec(2, (1.0, 0.0, 0.0))},
    "perturbed": {"perturbation": PerturbationSpec("cosine", w0=0.1)},
}
@pytest.mark.parametrize("name", sorted(fd_flows))
def test_variational_matches_finite_difference(name):
    flow = "hierarchy" if name.startswith("hierarchy") else name
    kw = fd_flows[name]
    x = soliton_state(SolitonSpec(kappa=1.0), 81)
    g = evolve_tangent(x, (0, "b"), 2.0, FIXED, flow, n_samples=5, **kw)
    f = finite_difference_oracle(x, (0, "b"), 2.0, FIXED, flow, n_samples=5, **kw)
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
    f = finite_difference_oracle(x, (0, "a"), 0.2, FIXED, n_samples=2)
    assert f.meta["fd_h"] == pytest.approx(1e-5 * 1.0)
    assert f.meta["fd_error_scale"] == pytest.approx(1e-10)


def test_ghs_tangent_matches_fd():
    pot = PotentialSpec("quartic", beta=0.1)
    n = 61
    sites = np.arange(-(n // 2), n - n // 2)
    x = GHSState(np.zeros(n), np.exp(-((sites / 3.0) ** 2)), -(n // 2))
    g = evolve_tangent(x, (0, "p"), 1.5, FIXED, "ghs", potential=pot, n_samples=4)
    f = finite_difference_oracle(x, (0, "p"), 1.5, FIXED, "ghs", potential=pot, n_samples=4)
    mask = np.maximum(np.abs(g.da), np.abs(g.db)) > 1e-6
    worst = float(np.max(np.where(mask,
                                  np.abs(g.da - f.da) + np.abs(g.db - f.db), 0.0)))
    print(worst)
    assert worst < 1e-5
    assert g.base.state_type.coords == ("r", "p")


def test_missing_spec_errors():
    x = background_state(21)
    with pytest.raises(ValueError):
        evolve_tangent(x, (0, "b"), 0.1, FIXED, "hierarchy")
    with pytest.raises(ValueError):
        evolve_tangent(x, (0, "b"), 0.1, FIXED, "perturbed")
    with pytest.raises(ValueError):
        evolve_tangent(x, (0, "b"), 0.1, FIXED, "warp")


def test_toda_flow_is_perturbed_with_zero_w():
    x = random_localized_state(41, seed=1)
    g1 = evolve_tangent(x, (0, "b"), 1.0, FIXED, "toda", n_samples=3)
    g2 = evolve_tangent(x, (0, "b"), 1.0, FIXED, "perturbed",
                        perturbation=PerturbationSpec("cosine", w0=0.0), n_samples=3)
    assert np.array_equal(g1.da, g2.da)
    assert np.array_equal(g1.db, g2.db)


def test_grid_csv_roundtrip(tmp_path):
    x = background_state(15)
    g = evolve_tangent(x, (1, "a"), 0.4, FIXED, n_samples=3)
    p = tmp_path / "grid.csv"
    g.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t,n,da,db"
    # 3 samples x 15 sites data rows
    assert len(lines) == 1 + 3 * 15


def test_boundary_margin_tracks_tangent_support():
    x = background_state(61)
    g = evolve_tangent(x, (0, "b"), 0.5, FIXED, n_samples=3, guard=10)
    assert g.clean
    # seeding right next to the edge is not clean
    g2 = evolve_tangent(x, (-28, "b"), 0.5, FIXED, n_samples=3, guard=10)
    print(g2.boundary_margin)
    assert not g2.clean


def test_time_index_lookup():
    x = background_state(15)
    g = evolve_tangent(x, (0, "b"), 1.0, FIXED, sample_dt=0.25)
    assert g.time_index(0.5) == 2
    with pytest.raises(ValueError):
        g.time_index(0.37)


def test_second_tangent_symmetric_in_seeds():
    # d^2/dz1 dz2 must not depend on the order of differentiation
    x = soliton_state(SolitonSpec(kappa=0.8), 61)
    g12 = evolve_second_tangent(x, (0, "a"), (2, "b"), 1.5, FIXED, n_samples=4)
    g21 = evolve_second_tangent(x, (2, "b"), (0, "a"), 1.5, FIXED, n_samples=4)
    diff = max(np.max(np.abs(g12.w_a - g21.w_a)), np.max(np.abs(g12.w_b - g21.w_b)))
    print(diff)
    assert diff < 1e-8


def test_second_tangent_matches_nested_fd():
    x = soliton_state(SolitonSpec(kappa=0.8), 61)
    g = evolve_second_tangent(x, (0, "a"), 1, 1.5, FIXED, n_samples=4)
    times, wa, wb = second_finite_difference(x, (0, "a"), 1, 1.5, cfg=FIXED, n_samples=4)
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
    g2 = evolve_second_tangent(x, (0, "a"), (2, "b"), 1.0, FIXED, n_samples=3)
    g1 = evolve_tangent(x, (0, "a"), 1.0, FIXED, n_samples=3)
    assert np.max(np.abs(g2.u1_a - g1.da)) < 1e-14
    assert np.max(np.abs(g2.u1_b - g1.db)) < 1e-14


def test_ghs_chain_rule_correspondence():
    # lattice tangent of the flaschka image: delta a = -(a/2) delta r, delta b = -dp/2
    from todalab.state import flaschka_inverse
    x = random_localized_state(61, seed=9, width=4.0)
    ghs = flaschka_inverse(x)
    pot = PotentialSpec("toda")
    t_final = 1.0
    g_ghs = evolve_tangent(ghs, (0, "p"), t_final, FIXED, "ghs", potential=pot, n_samples=3)
    # the same physical perturbation in lattice coordinates: db = -dp/2 at site 0
    g_lat = evolve_tangent(x, (0, "b"), t_final, FIXED, "toda", n_samples=3)
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


def _custom_perturbation():
    return PerturbationSpec(family="custom", w=lambda u: 0.05 * np.sin(u) ** 2,
                            dw=lambda u: 0.05 * np.sin(2.0 * u),
                            d2w=lambda u: 0.1 * np.cos(2.0 * u), w1_norm=0.05, w2_norm=0.1)


LATTICE_FLOWS = {
    "toda": ("toda", {}),
    **{f"hierarchy-r{r}": ("hierarchy", {"hierarchy": HierarchySpec(r, c)})
       for r, c in ((1, (1.0, 0.5)), (2, (1.0, 0.0, -0.3)), (3, (1.0, 0.2, 0.0, 0.1)))},
    "perturbed-cosine": ("perturbed", {"perturbation": PerturbationSpec("cosine", 0.2)}),
    "perturbed-rational": ("perturbed", {"perturbation": PerturbationSpec("rational", 0.3)}),
    "perturbed-custom": ("perturbed", {"perturbation": _custom_perturbation()}),
    "perturbed-w0-zero": ("perturbed", {"perturbation": PerturbationSpec("cosine", 0.0)}),
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
    x1, x2 = s.arrays
    up = field(type(s)(x1 + h * d1, x2 + h * d2, s.offset, s.background))
    dn = field(type(s)(x1 - h * d1, x2 - h * d2, s.offset, s.background))
    for g, u, v in zip(got[2:], up, dn):
        assert np.max(np.abs(g - (u - v) / (2.0 * h))) < 1e-7


@pytest.mark.parametrize("state", LATTICE_STATES)
@pytest.mark.parametrize("flow", LATTICE_FLOWS)
def test_fused_fields_equal_rhs_and_tangent_bitwise(flow, state):
    name, specs = LATTICE_FLOWS[flow]
    _check_field(make_flow(name, **specs), LATTICE_STATES[state](41), np.random.default_rng(5))


@pytest.mark.parametrize("state", ["random", "large-strain", "background"])
@pytest.mark.parametrize("pot", [PotentialSpec("toda"), PotentialSpec("quartic", beta=0.3)],
                         ids=["toda", "quartic"])
def test_ghs_fused_fields_equal_rhs_and_tangent_bitwise(pot, state):
    _check_field(make_flow("ghs", potential=pot), _ghs_state(state, 41), np.random.default_rng(6))


def test_make_flow_names_every_flow():
    with pytest.raises(ValueError, match="pick one of \\('toda', 'hierarchy', 'perturbed', 'ghs'\\)"):
        make_flow("perturbed-hierarchy")
    with pytest.raises(ValueError, match="hierarchy flow needs hierarchy"):
        make_flow("hierarchy")
