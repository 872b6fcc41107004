import numpy as np
import pytest

from todalab import (GHSState, IntegratorConfig, LatticeState, SolitonSpec,
                     Trajectory, background_state, evolve_tangent, hamiltonian_ab,
                     integrate, random_localized_state, soliton_state,
                     trace_invariants)
from todalab.ghs import PotentialSpec, ghs_rhs
from todalab.integrators import sample_times, solve_vector, write_csv
from todalab.state import toda_rhs


def test_integrator_config_validation():
    IntegratorConfig()
    IntegratorConfig(method="rk4-fixed", step=0.05)
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4-fixed", step=-0.1)


def test_sample_times():
    t = sample_times(2.0, sample_dt=0.5)
    assert np.allclose(t, [0.0, 0.5, 1.0, 1.5, 2.0])
    t = sample_times(1.0, n_samples=11)
    assert t.size == 11 and t[0] == 0.0 and t[-1] == 1.0
    # default: 51 samples
    assert sample_times(5.0).size == 51
    with pytest.raises(ValueError):
        sample_times(0.0)


def test_solve_vector_linear_exact():
    # y' = A y with nilpotent-free A: compare against expm
    from scipy.linalg import expm
    rng = np.random.default_rng(0)
    A = rng.normal(0.0, 0.3, (4, 4))
    y0 = rng.normal(0.0, 1.0, 4)
    times = np.linspace(0.0, 2.0, 5)
    ys = solve_vector(lambda t, y: A @ y, y0, times, IntegratorConfig())
    for i, t in enumerate(times):
        ref = expm(A * t) @ y0
        assert np.max(np.abs(ys[i] - ref)) < 1e-8


def test_rk4_fixed_step_order():
    # halving the step should shrink the error by about 2^4
    from scipy.linalg import expm
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y0 = np.array([1.0, 0.0])
    times = np.array([0.0, 1.0])
    ref = expm(A) @ y0
    errs = []
    for step in (0.1, 0.05):
        ys = solve_vector(lambda t, y: A @ y, y0, times, IntegratorConfig(method="rk4-fixed", step=step))
        errs.append(np.max(np.abs(ys[1] - ref)))
    ratio = errs[0] / errs[1]
    print(errs, ratio)
    assert 12.0 < ratio < 20.0


def test_adaptive_matches_fixed_on_soliton():
    x = soliton_state(SolitonSpec(kappa=0.8), 61)
    t_final = 1.5
    ta = integrate(x, toda_rhs, t_final, IntegratorConfig(), n_samples=4)
    tf = integrate(x, toda_rhs, t_final, IntegratorConfig(method="rk4-fixed", step=0.005), n_samples=4)
    diff = max(np.max(np.abs(ta.a - tf.a)), np.max(np.abs(ta.b - tf.b)))
    print(diff)
    assert diff < 1e-8


def test_trajectory_boundary_margin_and_clean():
    x = background_state(41)
    traj = integrate(x, toda_rhs, 1.0, IntegratorConfig(), n_samples=3, guard=10)
    # nothing ever deviates: margin is the full half width
    assert traj.clean
    assert traj.boundary_margin >= 10
    # a deviation parked next to the edge is flagged
    a = x.a.copy()
    a[1] = 0.7
    bad = LatticeState(a, x.b, x.offset)
    traj2 = integrate(bad, toda_rhs, 0.1, IntegratorConfig(), n_samples=2, guard=10)
    print(traj2.boundary_margin)
    assert not traj2.clean


def test_nonfinite_deviation_is_significant():
    x = background_state(41)
    traj = integrate(x, toda_rhs, 1.0, IntegratorConfig(), n_samples=3, guard=10)
    traj.b[2, 1] = np.nan
    assert traj.boundary_margin == 1
    assert not traj.clean


def test_energy_drift_small():
    x = random_localized_state(121, seed=2)
    traj = integrate(x, toda_rhs, 3.0, IntegratorConfig(), n_samples=13)
    drift = traj.energy_drift(hamiltonian_ab)
    print(drift)
    assert traj.clean
    assert drift < 1e-8


def test_trajectory_csv_roundtrip(tmp_path):
    x = random_localized_state(31, seed=6)
    traj = integrate(x, toda_rhs, 0.5, IntegratorConfig(), n_samples=3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,n,a,b"
    back = Trajectory.from_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.a, traj.a)
    assert np.array_equal(back.b, traj.b)
    assert back.offset == traj.offset


def test_chain_trajectory_csv_roundtrip(tmp_path):
    sites = np.arange(41) - 20
    x = GHSState(np.zeros(41), np.exp(-((sites / 3.0) ** 2)), -20)
    pot = PotentialSpec(family="toda")
    traj = integrate(x, lambda s: ghs_rhs(s, pot), 0.5,
                     IntegratorConfig(method="rk4-fixed", step=0.05), n_samples=3)
    path = tmp_path / "chain.csv"
    traj.to_csv(path)
    back = Trajectory.from_csv(path)
    assert back.state_type is GHSState and back.background == (0.0, 0.0)
    assert np.array_equal(back.r, traj.r) and np.array_equal(back.p, traj.p)
    s0 = back.state(0)
    assert isinstance(s0, GHSState)
    assert np.array_equal(s0.r, traj.r[0]) and np.array_equal(s0.p, traj.p[0])
    assert s0.offset == -20

    path.write_text("t,n,q,p\n0,0,0,0\n")
    with pytest.raises(ValueError, match="'t,n,q,p'"):
        Trajectory.from_csv(path)


def write_csv_per_cell(path, coords, times, offset, x1, x2):
    """The one-write-per-cell loop that write_csv replaced: its oracle."""
    with open(path, "w") as fh:
        fh.write("t,n,%s,%s\n" % tuple(coords))
        for i, t in enumerate(times):
            for j in range(x1.shape[1]):
                fh.write("%.17g,%d,%.17g,%.17g\n" % (t, offset + j, x1[i, j], x2[i, j]))


def assert_same_csv(tmp_path, coords, times, offset, x1, x2):
    write_csv(tmp_path / "rows.csv", coords, times, offset, x1, x2)
    write_csv_per_cell(tmp_path / "cells.csv", coords, times, offset, x1, x2)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_write_csv_matches_per_cell_oracle(tmp_path):
    """Rows mixing the two zeros, subnormals, infinities and NaNs with two
    payloads; an all-background row; an all-distinct row; a negative offset."""
    nan2 = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    tiny = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(3)
    x1 = np.full((4, 6), 0.5)
    x2 = np.zeros((4, 6))
    x1[0] = [0.0, -0.0, tiny, -tiny, np.inf, -np.inf]
    x2[0] = [np.nan, nan2, -0.0, 0.0, 2.2250738585072009e-308, 0.1]
    x1[2], x2[2] = rng.normal(size=6), rng.lognormal(-300.0, 300.0, 6)
    x1[3, ::2] = x2[3, 1::2] = 1.0 / 3.0
    times = np.array([0.0, 0.1, 1.0 / 3.0, 20.0])
    assert np.unique(np.concatenate((x1[2], x2[2]))).size == 12
    assert_same_csv(tmp_path, ("a", "b"), times, -3, x1, x2)
    assert_same_csv(tmp_path, ("r", "p"), times, 7, x2, x1)

    sites = np.arange(41) - 20
    x = GHSState(np.zeros(41), np.exp(-((sites / 3.0) ** 2)), -20)
    chain = integrate(x, lambda s: ghs_rhs(s, PotentialSpec(family="toda")), 0.5,
                      IntegratorConfig(method="rk4-fixed", step=0.05), n_samples=3)
    chain.to_csv(tmp_path / "chain.csv")
    write_csv_per_cell(tmp_path / "chain-cells.csv", ("r", "p"), chain.times, -20,
                       chain.r, chain.p)
    assert (tmp_path / "chain.csv").read_bytes() == \
        (tmp_path / "chain-cells.csv").read_bytes()

    grid = evolve_tangent(background_state(41), (0, "b"), 1.0, IntegratorConfig(),
                          n_samples=5)
    grid.to_csv(tmp_path / "grid.csv")
    write_csv_per_cell(tmp_path / "grid-cells.csv", ("da", "db"), grid.times,
                       grid.offset, grid.da, grid.db)
    assert (tmp_path / "grid.csv").read_bytes() == \
        (tmp_path / "grid-cells.csv").read_bytes()


def _runs(n_samples=6, n_sites=9):
    """Named (x1, x2) runs of a lattice window and the energy calls each
    needs: one per run of bit-equal consecutive samples."""
    rng = np.random.default_rng(5)
    a = 0.5 + 0.1 * rng.random((n_samples, n_sites))
    b = rng.normal(0.0, 0.1, (n_samples, n_sites))
    halted_a, halted_b = a.copy(), b.copy()
    halted_a[3:], halted_b[3:] = a[3], b[3]
    flip = np.zeros((n_samples, n_sites))
    flip[2, 4] = -0.0
    return {"background": (np.full((n_samples, n_sites), 0.5), np.zeros((n_samples, n_sites)), 1),
            "random": (a, b, n_samples),
            "halts-at-3": (halted_a, halted_b, 4),
            "signed-zero-flip": (np.full((n_samples, n_sites), 0.5), flip, 3)}


@pytest.mark.parametrize("energy", [hamiltonian_ab, lambda s: trace_invariants(s, 4)],
                         ids=["hamiltonian", "traces"])
@pytest.mark.parametrize("name", sorted(_runs()))
def test_energy_series_evaluates_once_per_distinct_sample(name, energy):
    x1, x2, want_calls = _runs()[name]
    traj = Trajectory(np.linspace(0.0, 1.0, x1.shape[0]), x1, x2, -4, (0.5, 0.0))
    calls = []

    def counted(s):
        calls.append(s)
        return energy(s)

    series = traj.energy_series(counted)
    assert len(calls) == want_calls
    want = np.array([energy(traj.state(i)) for i in range(traj.n_samples)])
    assert series.dtype == want.dtype and np.array_equal(series, want)


def test_integrate_state_accessor():
    x = random_localized_state(31, seed=8)
    traj = integrate(x, toda_rhs, 0.3, IntegratorConfig(), n_samples=2)
    s0 = traj.state(0)
    assert isinstance(s0, LatticeState)
    assert np.array_equal(s0.a, x.a)
    assert s0.offset == x.offset
