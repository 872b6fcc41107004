"""End-to-end acceptance checks for the sensitivity laboratory.

Each test covers one numbered check of the suite contract and prints a
single PASS/FAIL line with the measured numbers, so `pytest -v -s
tests/test_acceptance.py` reads as a checklist.  Tolerances are the
contract values, not what the implementation happens to achieve.
"""
import filecmp
import itertools
import json
import math

import numpy as np
import pytest

from oracles import (C_epsilon, check_G_convolution, finite_difference_oracle, gamma_const,
                     jacobi_matrix)
from todalab import (HierarchySpec, IntegratorConfig, PerturbationSpec,
                     SolitonSpec, background_state, evolve_tangent,
                     hierarchy_envelope, optimal_mu,
                     perturbed_envelope, random_localized_state, soliton_state,
                     timedep_envelope, toda_envelope, velocity_hierarchy,
                     velocity_toda, verify_light_cone)
from todalab.cli import default_config, main
from todalab.ghs import (PotentialSpec, ghs_energy, ghs_envelope, ghs_rhs,
                         ghs_stability_diagnostics)
from todalab.hierarchy import (free_moment, hierarchy_fields, hierarchy_hamiltonian,
                               hierarchy_rhs, path_counts)
from todalab.integrators import drift, integrate
from todalab.observables import (basic_observables, check_bracket_bound,
                                 hamiltonian_window_observable,
                                 poisson_bracket, required_bracket_seeds)
from todalab.perturbed import monitor_trajectory, perturbed_rhs
from todalab.solitons import soliton_flaschka
from todalab.state import GHSState, jacobi_norm, toda_rhs, trace_invariants

ADAPT = IntegratorConfig(method="rk-adaptive", tolerance=1e-10)
FIX = IntegratorConfig(method="rk4-fixed", step=0.02)

MU0, F0 = optimal_mu()


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    line = f"acceptance {num:02d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def soliton_run():
    spec = SolitonSpec(kappa=1.0)
    x = soliton_state(spec, 201)
    traj = integrate(x, toda_rhs, 10.0, ADAPT, sample_dt=0.25)
    return spec, x, traj


def test_01_soliton_exactness(soliton_run):
    spec, _, traj = soliton_run
    sites = traj.sites
    err_a = err_b = 0.0
    for i, t in enumerate(traj.times):
        ref_a, ref_b = soliton_flaschka(spec, sites, t)
        err_a = max(err_a, float(np.max(np.abs(traj.a[i] - ref_a))))
        err_b = max(err_b, float(np.max(np.abs(traj.b[i] - ref_b))))
    verdict(1, "soliton run tracks the closed form",
            err_a <= 1e-6 and err_b <= 1e-6,
            f"max err a {err_a:.3g}, b {err_b:.3g} (tol 1e-6)")


def test_02_isospectrality(soliton_run):
    _, _, traj = soliton_run
    nd = drift(traj.energy_series(jacobi_norm))
    td = drift(traj.energy_series(trace_invariants))
    verdict(2, "operator norm and trace invariants are pinned",
            nd <= 1e-8 and td <= 1e-8,
            f"norm drift {nd:.3g}, trace drift {td:.3g} (tol 1e-8)")


def test_03_soliton_spectral_norm(soliton_run):
    _, x, _ = soliton_run
    err = abs(jacobi_norm(x) - math.cosh(1.0))
    verdict(3, "initial spectral norm equals cosh(kappa)",
            err <= 1e-6, f"|norm - cosh 1| = {err:.3g} (tol 1e-6)")


def test_04_decay_rate_constants():
    ok = abs(MU0 - 0.47767) <= 1e-4 and abs(F0 - 6.47622) <= 1e-4
    verdict(4, "optimal decay rate and its velocity factor",
            ok, f"mu0 = {MU0:.6f}, f(mu0) = {F0:.6f} (tol 1e-4)")


def test_05_toda_light_cone():
    results = []
    fronts = {}
    for label, x in (("background", background_state(401)),
                     ("soliton", soliton_state(SolitonSpec(kappa=1.0), 401))):
        g = evolve_tangent(x, (0, "b"), 5.0, ADAPT, sample_dt=0.25)
        rep = verify_light_cone(g, toda_envelope(MU0, jacobi_norm(x)))
        results.append(rep)
        fronts[label] = (rep.empirical_front_speed, rep.bound_speed)
    clean = all(r.clean for r in results)
    no_viol = all(r.n_violations == 0 for r in results)
    inside = all(f < v for f, v in fronts.values())
    sol_floor = fronts["soliton"][0] >= math.sinh(1.0) * 0.95
    verdict(5, "sensitivity cone holds on background and soliton bases",
            clean and no_viol and inside and sol_floor,
            f"fronts {fronts['background'][0]:.2f}/{fronts['soliton'][0]:.2f}, "
            f"bounds {fronts['background'][1]:.1f}/{fronts['soliton'][1]:.1f}")


def test_06_variational_vs_finite_difference():
    cases = {
        "toda": ("toda", None),
        "hierarchy r=1": ("hierarchy", HierarchySpec(1, (1.0, 0.0))),
        "hierarchy r=2": ("hierarchy", HierarchySpec(2, (1.0, 0.0, 0.0))),
        "perturbed": ("perturbed", PerturbationSpec("cosine", w0=0.1)),
    }
    x = soliton_state(SolitonSpec(kappa=1.0), 81)
    worst = {}
    for label, (flow, spec) in cases.items():
        g = evolve_tangent(x, (0, "b"), 2.0, FIX, flow, spec, sample_dt=0.5)
        f = finite_difference_oracle(x, (0, "b"), 2.0, FIX, flow, spec, sample_dt=0.5)
        w = 0.0
        for got, ref in ((g.da, f.da), (g.db, f.db)):
            mask = np.abs(got) > 1e-6
            rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
            w = max(w, float(np.max(np.where(mask, rel, 0.0))))
        worst[label] = w
    ok = all(w <= 1e-4 for w in worst.values())
    verdict(6, "tangent grids agree with centered differences",
            ok, ", ".join(f"{k} {v:.2g}" for k, v in worst.items()) + " (tol 1e-4)")


def test_07_hierarchy_reduction_and_algebra():
    x = random_localized_state(41, seed=2)
    da0, db0 = hierarchy_rhs(x, HierarchySpec(0, (1.0,)))
    da1, db1 = toda_rhs(x)
    red = max(float(np.max(np.abs(da0 - da1))), float(np.max(np.abs(db0 - db1))))

    # the matrix elements of L^j are the g and h of the pure order-(j-1) flow
    y = random_localized_state(30, seed=12, width=4.0)
    L = jacobi_matrix(y)
    band = 0.0
    for j in range(1, 7):
        Lj = np.linalg.matrix_power(L, j)
        g, h = hierarchy_fields(y, HierarchySpec(j - 1, (1.0,) + (0.0,) * (j - 1)))
        idx = np.arange(j, y.n_sites - j - 1)
        band = max(band, np.max(np.abs(g[idx + 1] - Lj[idx, idx])),
                   np.max(np.abs(h[idx + 1] - 2.0 * y.a[idx] * Lj[idx + 1, idx])))

    lam2 = free_moment(2)

    disp = 0.0
    for seed in range(3):
        z = random_localized_state(37, seed=seed)
        h = hierarchy_hamiltonian(z, HierarchySpec(0, (1.0,)))
        disp = max(disp, abs(h - float(np.sum(2.0 * z.b ** 2 + 4.0 * z.a ** 2 - 1.0))))

    verdict(7, "order-0 reduction, banded matrix elements, moment, energy form",
            red <= 1e-15 and band <= 1e-12 and lam2 == 0.5 and disp <= 1e-12,
            f"reduction {red:.2g}, band-vs-dense {band:.2g}, "
            f"lambda(2) = {lam2}, energy-form gap {disp:.2g}")


def test_08_walk_combinatorics():
    ok = True
    for j in range(0, 13):
        eta, xi = path_counts(j)
        ok = ok and eta <= 2 * xi and xi <= 3 ** j

    # enumerate two-step walks over {-1, 0, +1} directly
    eta2 = sum(1 for steps in itertools.product((-1, 0, 1), repeat=2)
               if sum(steps) == 0)
    xi2 = sum(1 for steps in itertools.product((-1, 0, 1), repeat=2)
              if sum(steps) == 1)
    ok = ok and path_counts(1) == (eta2, xi2) and (eta2, xi2) == (3, 2)
    verdict(8, "walk-count inequalities and the two-step enumeration",
            ok, f"two-step counts {(eta2, xi2)}; checked j <= 12")


def test_09_hierarchy_light_cone():
    spec = HierarchySpec(1, (1.0, 0.0))
    x = random_localized_state(201, seed=42)
    g = evolve_tangent(x, (0, "b"), 2.0, FIX, flow="hierarchy", spec=spec,
                       sample_dt=0.25)
    rep = verify_light_cone(g, hierarchy_envelope(MU0, jacobi_norm(x), spec))
    dominated = all(
        velocity_hierarchy(MU0, lnorm, HierarchySpec(r, (1.0,) + (0.5,) * r), "lemma44")
        >= velocity_hierarchy(MU0, lnorm, HierarchySpec(r, (1.0,) + (0.5,) * r), "matrix-norm")
        for r in range(5) for lnorm in (0.8, 1.3, 2.0))
    verdict(9, "order-1 cone holds; crude velocity dominates the sharp one",
            rep.clean and rep.n_violations == 0 and dominated,
            f"violations {rep.n_violations}, max ratio {rep.max_ratio:.3g}")


def test_10_kernel_machinery():
    worst = 0.0
    ok = True
    for mu in (0.25, 0.5, 1.0):
        rep = check_G_convolution(mu)
        ok = ok and rep["ok"]
        worst = max(worst, rep["max_ratio"])
    gamma = gamma_const()
    ok = ok and worst <= gamma + 1e-6
    ceps = abs(C_epsilon(1.0) - 4.0 / math.e)
    ok = ok and ceps <= 1e-10
    verdict(10, "convolution ratio and the epsilon constant",
            ok, f"worst ratio {worst:.4f} <= gamma {gamma:.4f}; "
                f"|C(1) - 4/e| = {ceps:.2g}")


def test_11_perturbed_bounds():
    # horizon-measured constants: these checks certify properties of the
    # sampled run (monitored C1, C2, a*), not closed-form all-time constants
    x = random_localized_state(161, seed=42)
    spec = PerturbationSpec(family="cosine", w0=0.1)
    traj = integrate(x, lambda s: perturbed_rhs(s, spec), 3.0, FIX, sample_dt=0.25)
    mon = monitor_trajectory(traj)
    excess = float(np.max(traj.energy_series(jacobi_norm)
                          - (mon.Lnorm0 + spec.dw_sup * traj.times)))

    g = evolve_tangent(x, (0, "b"), 3.0, FIX, flow="perturbed",
                       spec=spec, sample_dt=0.25)
    rep_w = verify_light_cone(g, perturbed_envelope(MU0, mon.C1, mon.C2, spec.d2w_sup))
    a_star = min(float(np.abs(traj.a).min()), x.background[0])
    rep_t = verify_light_cone(
        g, timedep_envelope(MU0, mon.Lnorm0, spec.dw_sup, spec.d2w_sup, a_star))

    ok = (excess <= 1e-9 and g.clean(10)
          and rep_w.n_violations == 0 and rep_t.n_violations == 0)
    verdict(11, "forced-flow bounds with horizon-measured constants",
            ok, f"norm-line excess {excess:.2g}, cone violations "
                f"{rep_w.n_violations}/{rep_t.n_violations}")


def test_12_chain_stability_and_cone():
    n = 121
    sites = np.arange(n) - n // 2
    x = GHSState(np.zeros(n), np.exp(-((sites / 3.0) ** 2)), -(n // 2), (0.0, 0.0))

    quartic = PotentialSpec(family="quartic", beta=0.1)
    traj = integrate(x, lambda s: ghs_rhs(s, quartic), 3.0, FIX, sample_dt=0.25)
    energy_drift = drift(traj.energy_series(lambda s: ghs_energy(s, quartic)))
    stab = ghs_stability_diagnostics(traj, quartic)
    g = evolve_tangent(x, (0, "p"), 2.0, FIX, flow="ghs", spec=quartic,
                       sample_dt=0.25)
    rep = verify_light_cone(g, ghs_envelope(MU0, traj, quartic))

    toda_pot = PotentialSpec(family="toda")
    traj_t = integrate(x, lambda s: ghs_rhs(s, toda_pot), 3.0, FIX, sample_dt=0.25)
    mapped = traj_t.to_lattice_trajectory()
    direct = integrate(mapped.state(0), toda_rhs, 3.0, FIX, sample_dt=0.25)
    map_err = max(float(np.max(np.abs(mapped.a - direct.a))),
                  float(np.max(np.abs(mapped.b - direct.b))))

    ok = (energy_drift <= 1e-8
          and stab.p_l2_max <= stab.p_l2_bound + 1e-12
          and stab.r_inf_max <= stab.M_E + 1e-12
          and rep.clean and rep.n_violations == 0
          and map_err <= 1e-8)
    verdict(12, "chain energy, confinement, cone, and the lattice map",
            ok, f"drift {energy_drift:.2g}, cone violations {rep.n_violations}, "
                f"map err {map_err:.2g}")


def test_13_observable_brackets():
    sol = soliton_state(SolitonSpec(kappa=1.0), 201)
    _, B0 = basic_observables(0)
    seeds = sorted(required_bracket_seeds(B0, sol))
    grids = {s: evolve_tangent(sol, s, 5.0, FIX, sample_dt=0.25) for s in seeds}
    rep = check_bracket_bound(0, range(-40, 41), sol, MU0, velocity_toda(MU0, jacobi_norm(sol)),
                              grids)
    n_viol, worst_ratio = rep.n_violations, rep.max_ratio

    # generator identity: bracket against a wide energy window equals the
    # centered time derivative of the observable along the flow
    x = random_localized_state(121, seed=5)
    H = hamiltonian_window_observable(range(-30, 31))
    h = 1e-6

    def micro(state, rhs):
        tr = integrate(state, rhs, h, IntegratorConfig(method="rk4-fixed", step=h),
                       sample_dt=h)
        return tr.state(1)

    def neg_rhs(s):
        da, db = toda_rhs(s)
        return -da, -db

    up = micro(x, toda_rhs)
    dn = micro(x, neg_rhs)
    gen_err = 0.0
    for n in (-3, 0, 7):
        for obs in basic_observables(n):
            fd = (obs.eval(up) - obs.eval(dn)) / (2.0 * h)
            gen_err = max(gen_err, abs(fd - poisson_bracket(obs, H, x)))

    verdict(13, "bracket propagation bound and the generator identity",
            n_viol == 0 and gen_err <= 1e-5,
            f"violations {n_viol} over 81 pairs (worst ratio {worst_ratio:.3g}), "
            f"generator err {gen_err:.2g} (tol 1e-5)")


def test_14_cli_contract(tmp_path):
    raw = default_config()
    raw.update(window=61, t_final=1.0, sample_dt=0.25,
               integrator={"method": "rk4-fixed", "step": 0.02})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    ok_run = main(["run", "-c", str(cfg), "--out", str(out1)]) == 0
    ok_rerun = main(["run", "-c", str(cfg), "--out", str(out2)]) == 0
    identical = all(
        filecmp.cmp(out1 / name, out2 / name, shallow=False)
        for name in ("summary.json", "trajectory.csv", "sensitivity_m0_b.csv"))

    forced = dict(raw, envelope_scale=1e-6)
    cfg_bad = tmp_path / "forced.json"
    cfg_bad.write_text(json.dumps(forced))
    ok_violation = main(["run", "-c", str(cfg_bad), "--out", str(tmp_path / "rv")]) == 1

    broken = {k: v for k, v in raw.items() if k != "soliton"}
    broken["base"] = "soliton"
    cfg_cfgerr = tmp_path / "broken.json"
    cfg_cfgerr.write_text(json.dumps(broken))
    ok_cfgerr = main(["run", "-c", str(cfg_cfgerr), "--out", str(tmp_path / "rc")]) == 2

    verdict(14, "exit codes and byte-identical reruns",
            ok_run and ok_rerun and identical and ok_violation and ok_cfgerr,
            f"rerun identical: {identical}; exits 0/1/2 exercised")
