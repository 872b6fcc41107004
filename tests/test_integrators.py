import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from todalab import (GHSState, IntegratorConfig, LatticeState, SolitonSpec,
                     Trajectory, background_state, evolve_tangent, hamiltonian_ab,
                     integrate, random_localized_state, soliton_state,
                     trace_invariants)
from todalab.ghs import PotentialSpec, ghs_rhs
from todalab import integrators, sensitivity
from todalab.integrators import sample_times, solve_vector, write_csv
from todalab.sensitivity import make_flow
from todalab.state import toda_rhs


def test_integrator_config_validation():
    IntegratorConfig()
    IntegratorConfig(method="rk4-fixed", step=0.05)
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        IntegratorConfig(tolerance=math.inf)
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk4-fixed", step=-0.1)


def test_a_non_finite_start_field_fails_at_once():
    """r = -800 is a finite state whose Toda-chain field is not: V'(r) = 1 - e^800.
    DOP853 would take a NaN first step from it and never return, so the
    solve runs in a subprocess whose timeout fails the test, not the suite."""
    code = """if True:
        import numpy as np
        from todalab import GHSState, IntegratorConfig, integrate
        from todalab.ghs import PotentialSpec, ghs_rhs
        try:
            integrate(GHSState(np.full(5, -800.0), np.zeros(5)),
                      lambda s: ghs_rhs(s, PotentialSpec("toda")), 1.0,
                      IntegratorConfig(method="rk-adaptive"))
        except ValueError as err:
            print(err)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(__file__).parents[1] / "src"),
                                                      env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "GHSState: non-finite start field, dp/dt at site 0\n"


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


def _short_file(kind):
    """(times, x1, x2) of a file of 1, 2 or 3 distinct samples, or of five
    equal samples and a distinct last one."""
    rng = np.random.default_rng(8)
    if kind == "distinct-last-row":
        x1, x2 = np.full((6, 40), 0.5), np.zeros((6, 40))
        x1[-1], x2[-1] = rng.normal(size=40), rng.lognormal(-300.0, 300.0, 40)
        return np.linspace(0.0, 0.5, 6), x1, x2
    rows = int(kind.split("-")[0])
    return np.linspace(0.0, 1.0, rows), rng.normal(size=(rows, 40)), rng.normal(size=(rows, 40))


@pytest.mark.parametrize("block_cells", [integrators._BLOCK_CELLS, 7, 25])
def test_write_csv_matches_per_cell_oracle(block_cells, tmp_path, monkeypatch):
    """Rows mixing the two zeros, subnormals, infinities and NaNs with two
    payloads; an all-background row; an all-distinct row; a negative offset.
    Blocks of 7 cells hold one sample each and blocks of 25 hold two samples
    of up to 12 cells, so every file of more than one sample spans several
    blocks."""
    monkeypatch.setattr(integrators, "_BLOCK_CELLS", block_cells)
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

    # stationary samples, equal bit for bit, reuse the first one's text; a
    # zero that changes sign, a NaN payload or one ulp makes a new sample
    x1 = np.tile([0.5, 0.0, np.nan, 1e-300, -2.0], (9, 1))
    x2 = np.tile(rng.normal(size=5), (9, 1))
    x1[3, 1], x1[5, 2], x2[7, 4] = -0.0, nan2, np.nextafter(x2[7, 4], np.inf)
    assert_same_csv(tmp_path, ("a", "b"), np.linspace(0.0, 0.8, 9), -2, x1, x2)

    # samples A A B A A C: the third A repeats the first but follows B, so it
    # is formatted again, and in blocks of 7 or 25 cells it opens a new block
    a, b, c = rng.normal(size=(3, 2, 5))
    x1, x2 = np.stack([a, a, b, a, a, c], axis=1)
    assert_same_csv(tmp_path, ("a", "b"), np.linspace(0.0, 0.5, 6), 4, x1, x2)

    for kind in ("1-row", "2-rows", "3-rows", "distinct-last-row"):
        times, x1, x2 = _short_file(kind)
        assert_same_csv(tmp_path, ("a", "b"), times, -20, x1, x2)

    # spans: a growing cone that stalls for a sample; spans that shrink and
    # move; only the first or only the last row; the first and last rows
    # around an unchanged middle
    times, x1, x2 = _cone_file(rng)
    assert_same_csv(tmp_path, ("da", "db"), times, -6, x1, x2)
    for changes in ([range(2, 10), range(4, 7), range(7, 11), range(0, 3), [5]],
                    [[0], [0], [0]], [[11], [11], [11]], [[0, 11], [0, 11]]):
        times, x1, x2 = _changed_rows_file(rng, changes)
        assert_same_csv(tmp_path, ("a", "b"), times, 5, x1, x2)

    # a row's text grows (0.5 -> 0.30000000000000004) or shrinks back, and
    # the next span lies after it or before it
    x1, x2 = np.full((7, 12), 0.5), np.zeros((7, 12))
    x1[1:, 3] = x2[2:, 6] = 0.1 + 0.2
    x1[3:, 8] = x2[4:, 2] = -1.0 / 3.0
    x1[5:, 3] = 0.5
    x1[6:, 9] = 2.0
    assert_same_csv(tmp_path, ("a", "b"), np.linspace(0.0, 0.6, 7), -20, x1, x2)

    # a single row changes by the sign of a zero, a NaN payload or one ulp
    x1, x2 = np.zeros((4, 12)), np.full((4, 12), np.nan)
    x1[1:, 4] = -0.0
    x2[2:, 7] = nan2
    x1[3:, 10] = tiny
    assert_same_csv(tmp_path, ("a", "b"), np.linspace(0.0, 0.3, 4), 0, x1, x2)


def _cone_file(rng):
    """(times, x1, x2) of 9 samples over sites -6 .. 6, zero outside |site|
    <= r at a cone radius r of 0, 1, 2, 3, 4, 4 (sample 5 repeats sample 4),
    5, 6 and 7 (every site), and a few repeated values inside."""
    sites = np.arange(-6, 7)
    pool = np.array([0.25, -0.5, 1.0 / 3.0, np.nextafter(0.25, 1.0), -0.0])
    x1, x2 = np.zeros((9, 13)), np.zeros((9, 13))
    for i, radius in enumerate((0, 1, 2, 3, 4, 4, 5, 6, 7)):
        inside = np.abs(sites) <= radius
        x1[i, inside] = rng.choice(pool, inside.sum()) + rng.integers(0, 2, inside.sum())
        x2[i, inside] = rng.normal(size=inside.sum())
    x1[5], x2[5] = x1[4], x2[4]
    return np.linspace(0.0, 0.8, 9), x1, x2


def _changed_rows_file(rng, changes):
    """(times, x1, x2) over 12 sites: sample 0 random, and sample i the
    previous sample with new values in the rows changes[i - 1]."""
    x1, x2 = np.empty((len(changes) + 1, 12)), np.empty((len(changes) + 1, 12))
    x1[0], x2[0] = rng.normal(size=12), rng.normal(size=12)
    for i, rows in enumerate(changes, 1):
        x1[i], x2[i] = x1[i - 1], x2[i - 1]
        rows = list(rows)
        x1[i, rows], x2[i, rows] = rng.normal(size=len(rows)), rng.normal(size=len(rows))
    return np.linspace(0.0, 1.0, len(changes) + 1), x1, x2


@pytest.mark.parametrize("block_cells", [7, 25, 64])
def test_write_csv_formats_only_the_changed_spans(block_cells, tmp_path, monkeypatch):
    """Of a cone file, _format17 receives, block by block, exactly the
    distinct values (by their bits) of the cells of each sample's span:
    every row of sample 0, then the rows from the first to the last whose
    bits changed, none of a repeated sample.  The cells go in blocks of
    _BLOCK_CELLS, sample by sample, row by row, x1 before x2; the file's
    148 span cells make 22, 6 or 3 blocks, so spans open and close blocks
    mid-sample.  (In a single block the distinct values are those of the
    whole file, whichever rows are formatted.)"""
    monkeypatch.setattr(integrators, "_BLOCK_CELLS", block_cells)
    received = []
    format17 = integrators._format17

    def counting(values):
        received.append(sorted(np.asarray(values).view(np.int64).tolist()))
        return format17(values)

    monkeypatch.setattr(integrators, "_format17", counting)
    times, x1, x2 = _cone_file(np.random.default_rng(19))
    write_csv(tmp_path / "cone.csv", ("da", "db"), times, -6, x1, x2)
    write_csv_per_cell(tmp_path / "cells.csv", ("da", "db"), times, -6, x1, x2)
    assert (tmp_path / "cone.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    bits1, bits2 = x1.view(np.int64), x2.view(np.int64)
    cells = []
    for i in range(times.size):
        rows = [j for j in range(13) if i == 0 or bits1[i, j] != bits1[i - 1, j]
                or bits2[i, j] != bits2[i - 1, j]]
        for j in range(rows[0], rows[-1] + 1) if rows else ():
            cells += [int(bits1[i, j]), int(bits2[i, j])]
    want = [sorted(set(cells[c:c + block_cells])) for c in range(0, len(cells), block_cells)]
    assert received == want
    # sample 5 repeats sample 4, and rows outside a cone repeat their zeros
    assert len(cells) == 2 * (13 + 3 + 5 + 7 + 9 + 0 + 11 + 13 + 13) == 148


def _printf17(values) -> list:
    """'%.17g' % v for each v: the oracle of integrators._format17."""
    return ("%.17g," * values.size % tuple(values.tolist())).split(",")[:-1]


def _dyadic_ties(rng) -> np.ndarray:
    """a 2^-j with a odd and a 5^j of 18 digits: its decimal expansion ends
    in a 5 at the 18th significant digit, a tie for 17 digits."""
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        for a in rng.integers(lo, hi, 64).tolist():
            a |= 1
            if len(str(a * 5**j)) == 18:
                ties.append(math.ldexp(a, -j))
    return np.array(ties)


def test_format17_matches_printf_byte_for_byte():
    """_format17 gives '%.17g' % v for 10^6 random bit patterns (both signs,
    every binade, subnormals, infinities and NaNs) and for the values a
    bulk formatter most easily gets wrong.  The fast path decides all but a
    few of the finite nonzero random values; the ties are left to %.17g."""
    rng = np.random.default_rng(1717)
    bits = rng.integers(-2**63, 2**63, size=10**6, dtype=np.int64)
    fields = np.unique((bits >> 52) & 0x7FF)
    assert fields.size == 2048 and (bits < 0).any() and (bits > 0).any()
    ints = [2.0**j + k for j in range(61) for k in (-3, -1, 0, 1, 3)]
    powers10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    nans = np.array([0x7FF0000000000001, 0x7FF8000000000001, 0xFFF8000000000000,
                     0x7FFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    ties = _dyadic_ties(rng)
    cases = {
        "random bits": bits.view(np.float64),
        "powers of two": np.ldexp([[1.0], [-1.0]], np.arange(-1074, 1024)).ravel(),
        "10^k and neighbours": np.concatenate((powers10, np.nextafter(powers10, 0.0),
                                               np.nextafter(powers10, np.inf))),
        "integers": np.concatenate((np.arange(1.0, 2**16), ints,
                                    rng.integers(0, 2**60, 2**15).astype(float))),
        "fixed/scientific switches": np.concatenate((10.0 ** rng.uniform(-5, -3, 2**15),
                                                     -(10.0 ** rng.uniform(16, 17, 2**15)))),
        "dyadic ties": np.concatenate((ties, -ties)),
        "zeros, infinities, NaNs": np.concatenate(([0.0, -0.0, np.inf, -np.inf, np.nan], nans)),
    }
    for name, values in cases.items():
        got = []
        for lo in range(0, values.size, 2**15):
            got += integrators._format17(values[lo:lo + 2**15])
        want = _printf17(values)
        if got != want:
            wrong = [(w, g) for w, g in zip(want, got) if w != g]
            pytest.fail(f"{name}: {len(got)} values for {len(want)}; wrong {wrong[:5]}")
    assert ties.size > 1000 and not integrators._decimal17(ties)[0].any()
    random = cases["random bits"]
    decided = integrators._decimal17(random[np.isfinite(random) & (random != 0)])[0]
    assert decided.mean() >= 0.999


@pytest.fixture
def writer_cleanup():
    """On teardown no descriptor may be left open."""
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    yield
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds


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


@pytest.mark.parametrize("energy", [hamiltonian_ab, trace_invariants],
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


# -- checks of the sampled output ----------------------------------------------

def _overflow_field(s):
    """b at site 2 grows at the constant rate 1e302, and (a, b) at site -5
    turn around (1/2, 0) once per 2 pi, so an adaptive solver keeps short
    steps.  Finite whatever the state, so both integrators run on after b
    overflows."""
    fa, fb = np.zeros(s.n_sites), np.zeros(s.n_sites)
    fb[s.site_index(2)] = 1e302
    fa[0], fb[0] = -s.b[0], s.a[0] - 0.5
    return fa, fb


@pytest.mark.parametrize("method", ["rk4-fixed", "rk-adaptive"])
def test_a_non_finite_sample_is_named_by_time_and_site(method):
    """b at site 2 starts 19.5e302 below the largest double, so it overflows
    at t = 19.5 of 30: the run fails after the solve, naming the first
    non-finite sample, t = 20, as the solver's own output shows it."""
    x = background_state(11)
    x.a[0], x.b[7] = 0.6, np.finfo(float).max - 19.5e302
    cfg = IntegratorConfig(method=method, step=0.05)
    times = sample_times(30.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = solve_vector(lambda _t, y: np.concatenate(_overflow_field(x._over(y[:11], y[11:]))),
                           np.concatenate(x.arrays), times, cfg)
        assert np.flatnonzero(~np.isfinite(raw).all(axis=1))[0] == 20
        assert not np.isfinite(raw[20, 11 + 7])
        with pytest.raises(ValueError, match="^LatticeState run: non-finite b at t=20, site 2$"):
            integrate(x, _overflow_field, 30.0, cfg, sample_dt=1.0)


@pytest.mark.parametrize("rate", [1e306, 1e307])
def test_a_spoiled_first_adaptive_step_keeps_the_start_state(rate):
    """b at site 2 starts at 1.6e308 and grows at rate, so DOP853's first
    step overflows and its dense output is NaN even at the step's start.
    Row 0 is the start state itself, and the error names t=0.5, the first
    sample after it."""
    x = background_state(11)
    x.b[x.site_index(2)] = 1.6e308

    def growing(s):
        fa, fb = np.zeros(s.n_sites), np.zeros(s.n_sites)
        fb[s.site_index(2)] = rate
        return fa, fb

    with np.errstate(over="ignore", invalid="ignore"):
        raw = solve_vector(lambda _t, y: np.concatenate(growing(x._over(y[:11], y[11:]))),
                           np.concatenate(x.arrays), sample_times(2.0, 0.5),
                           IntegratorConfig())
        assert raw[0].tobytes() == np.concatenate(x.arrays).tobytes()
        with pytest.raises(ValueError, match="^LatticeState run: non-finite b at t=0.5, site 2$"):
            integrate(x, growing, 2.0, IntegratorConfig(), sample_dt=0.5)


def test_check_samples_names_the_earliest_time_then_the_lowest_site():
    times = np.array([0.0, 0.5, 1.0])
    a, b = np.full((3, 5), 0.5), np.zeros((3, 5))
    LatticeState.check_samples(times, a, b, -2)
    a[2, 0] = np.nan
    b[1, 4] = -np.inf
    a[1, 3] = 0.0
    with pytest.raises(ValueError, match=r"^LatticeState run: a_n = 0 at t=0.5, site 1$"):
        LatticeState.check_samples(times, a, b, -2)
    a[1, 3] = -0.0
    b[1, 3] = np.nan
    with pytest.raises(ValueError, match=r"non-finite b and a_n = 0 at t=0.5, site 1$"):
        LatticeState.check_samples(times, a, b, -2)
    # a zero is a valid chain coordinate
    GHSState.check_samples(times, np.zeros((3, 5)), np.zeros((3, 5)), 0)
    with pytest.raises(ValueError, match=r"^GHSState run: non-finite r at t=1, site -2$"):
        GHSState.check_samples(times, a, np.zeros((3, 5)), -2)


@pytest.mark.parametrize("run", ["integrate", "evolve_tangent"])
def test_states_built_per_solve_do_not_grow_with_rhs_evaluations(run, monkeypatch):
    """The stages see unchecked states: a solve builds and validates no
    more LatticeStates with 10x the rhs evaluations."""
    built, evals = [], []
    post_init = LatticeState.__post_init__
    monkeypatch.setattr(LatticeState, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(sensitivity, "toda_rhs",
                        lambda s, *tangent: evals.append(1) or toda_rhs(s, *tangent))
    x = random_localized_state(31, seed=8)
    counts = []
    for step in (0.1, 0.01):
        built.clear()
        evals.clear()
        cfg = IntegratorConfig(method="rk4-fixed", step=step)
        if run == "integrate":
            integrate(x, make_flow("toda"), 1.0, cfg, n_samples=3)
        else:
            evolve_tangent(x, (0, "b"), 1.0, cfg, n_samples=3)
        counts.append((len(evals), len(built)))
    (few, built_few), (many, built_many) = counts
    # one evaluation at the start state, then four per RK4 substep
    assert (few, many) == (1 + 4 * 10, 1 + 4 * 100)
    assert built_many == built_few <= 1


# -- the row template -----------------------------------------------------------

def _template_case(kind):
    """(times, offset, x1, x2) of one edge case of the row template."""
    nan2 = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    nan3 = np.array([-0x0007FFFFFFFFFFFF], dtype=np.int64).view(np.float64)[0]
    tiny = np.nextafter(0.0, 1.0)
    times = np.array([0.0, 0.25, 1.0 / 3.0])
    x1, x2 = np.full((3, 4), 0.5), np.zeros((3, 4))
    if kind == "signed-zeros":
        x1[:, :2] = [0.0, -0.0]
        x2[1] = [-0.0, 0.0, -0.0, 0.0]
    elif kind == "nan-payloads":
        x1[0, 1:] = [np.nan, nan2, nan3]
        x2[2] = [nan3, np.nan, nan2, -np.nan]
    elif kind == "inf-subnormals":
        x1[1] = [np.inf, -np.inf, tiny, -tiny]
        x2[:, 0] = [2.2250738585072009e-308, -5e-324, np.inf]
    elif kind == "3-sites":
        return times, -7, np.random.default_rng(1).normal(size=(3, 3)), np.zeros((3, 3))
    elif kind == "1-row":
        return times[:1], -1, x1[:1], np.array([[0.0, -0.0, np.nan, np.inf]])
    return times, -2, x1, x2


@pytest.mark.parametrize("kind", ["signed-zeros", "nan-payloads", "inf-subnormals", "3-sites",
                                  "1-row"])
def test_row_template_matches_per_cell_oracle(kind, tmp_path, writer_cleanup):
    """The per-sample template gives the per-cell bytes."""
    times, offset, x1, x2 = _template_case(kind)
    assert_same_csv(tmp_path, ("a", "b"), times, offset, x1, x2)


# -- what a caller may rely on once a writer returns -------------------------

def _writers(tmp_path):
    """(name, write(path), the per-cell bytes) of the three CSV entry points."""
    rng = np.random.default_rng(14)
    times, x1, x2 = np.linspace(0.0, 1.0, 6), rng.normal(size=(6, 30)), rng.normal(size=(6, 30))
    traj = Trajectory(times, x1, x2, -4, (0.5, 0.0))
    grid = evolve_tangent(background_state(31), (0, "b"), 1.0, IntegratorConfig(),
                          n_samples=6)

    def oracle(coords, offset, a, b):
        write_csv_per_cell(tmp_path / "oracle.csv", coords, times, offset, a, b)
        return (tmp_path / "oracle.csv").read_bytes()

    return [("write_csv", lambda p: write_csv(p, ("r", "p"), times, 3, x1, x2),
             oracle(("r", "p"), 3, x1, x2)),
            ("Trajectory.to_csv", traj.to_csv, oracle(("a", "b"), -4, x1, x2)),
            ("SensitivityGrid.to_csv", grid.to_csv,
             oracle(("da", "db"), grid.offset, grid.da, grid.db))]


def test_a_csv_is_complete_when_its_writer_returns(tmp_path, writer_cleanup):
    """A caller may stat or read the file as soon as the call returns (a
    per-file byte count does): every row is in it by then."""
    for name, write, want in _writers(tmp_path):
        path = tmp_path / f"{name}.csv"
        write(path)
        assert os.path.getsize(path) == len(want) and path.read_bytes() == want, name
