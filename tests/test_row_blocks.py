"""Every pass over a grid after its solve walks the (T, N) arrays in blocks
of integrators.ROW_BLOCK samples.  These tests hold each blocked pass to
its whole-grid body in tests/oracles.py bit for bit, at the package's block
size and at 3 samples per block, and hold what the passes allocate to a
fraction of the grid."""
import os
import pickle
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from oracles import (whole_boundary_margin, whole_fit_front_speed, whole_ghs_cone_constant,
                     whole_ghs_stability_diagnostics, whole_monitor_trajectory,
                     whole_verify_light_cone)

from todalab import cli, integrators
from todalab.bounds import (MAX_VIOLATIONS_STORED, fit_front_speed, optimal_mu, timedep_envelope,
                            toda_envelope, verify_light_cone)
from todalab.ghs import PotentialSpec, ghs_cone_constant, ghs_stability_diagnostics
from todalab.integrators import Trajectory, row_blocks
from todalab.perturbed import monitor_trajectory
from todalab.sensitivity import SensitivityGrid
from todalab.state import GHSState, hamiltonian_ab

MU0 = optimal_mu()[0]


def cone_grid(n_samples, n_sites=61, *, radius=2.0, seed=0):
    """A SensitivityGrid at the samples 0, 0.1, ... of a window centred on
    site 0, seeded at (0, b).  Inside the cone |n| <= radius + 3 t the
    tangent is random over twelve decades and the base run moves by a few
    percent; outside it both sit exactly at the background."""
    rng = np.random.default_rng(seed)
    times = 0.1 * np.arange(n_samples)
    offset = -(n_sites // 2)
    inside = np.abs(np.arange(offset, offset + n_sites)) <= radius + 3.0 * times[:, np.newaxis]

    def field(scale):
        values = scale * rng.normal(size=inside.shape) * 10.0 ** rng.uniform(-12, 0, inside.shape)
        return np.where(inside, values, 0.0)

    base = Trajectory(times, 0.5 + field(0.05), field(0.05), offset, (0.5, 0.0))
    return SensitivityGrid(field(1.0), field(1.0), base, 0, "b", "toda")


def spoiled(grid):
    """The grid with NaN, +inf and -inf cells in both tangent arrays and a
    NaN in the base run, all after the first sample."""
    da, db, a = grid.da.copy(), grid.db.copy(), grid.base.a.copy()
    t, n = da.shape
    da[t // 2, n // 2 + 1], db[-1, n // 2], da[-1, n // 2 - 2] = np.nan, np.inf, -np.inf
    a[-1, n // 2 + 1] = np.nan
    return replace(grid, da=da, db=db, base=replace(grid.base, x1=a))


SIZES = {"one-sample": lambda rb: 1, "under-one-block": lambda rb: rb - 1,
         "two-blocks": lambda rb: 2 * rb, "ragged": lambda rb: 3 * rb + 5}
GRIDS = {"cone": lambda t: cone_grid(t),
         "non-finite": lambda t: spoiled(cone_grid(t)),
         "contaminated": lambda t: cone_grid(t, radius=30.0)}
ENVELOPES = {"toda": toda_envelope(MU0, 1.0),
             "squeezed": replace(toda_envelope(MU0, 1.0), prefactor=1e-9),
             "log-a": timedep_envelope(MU0, 1.0, 0.1, 0.1, 0.45)}


def same_bits(a, b):
    """Equal as pickles: every float to its bits, every type the same."""
    return pickle.dumps(a) == pickle.dumps(b)


def outcome(f, *args):
    """The fields of f(*args), or the type and message of what it raised (a
    spoiled first sample is no state), and the messages of the warnings it
    gave (a block gives its own)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = asdict(f(*args))
        except ValueError as e:
            result = type(e), str(e)
    return result, sorted({str(w.message) for w in caught})


@pytest.fixture(params=[None, 3], ids=["ROW_BLOCK", "3"])
def row_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(integrators, "ROW_BLOCK", request.param)
    return integrators.ROW_BLOCK


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", GRIDS)
def test_blocked_passes_equal_the_whole_grid(kind, size, row_block):
    grid = GRIDS[kind](SIZES[size](row_block))
    assert (grid.boundary_margin, grid.base.boundary_margin) == \
        (whole_boundary_margin(grid), whole_boundary_margin(grid.base))
    assert (kind == "contaminated") == (not grid.clean(10))
    for env in ENVELOPES.values():
        rep = verify_light_cone(grid, env)
        assert same_bits(asdict(rep), asdict(whole_verify_light_cone(grid, env)))
    obs = grid.observed()
    for threshold in (1e-8, 1e-3):
        speed = whole_fit_front_speed(grid.times, grid.distances, obs, threshold)
        assert same_bits(fit_front_speed(grid.times, grid.distances, [obs], threshold), speed)
        blocks = (obs[rows] for rows in row_blocks(grid.n_samples))
        assert same_bits(fit_front_speed(grid.times, grid.distances, blocks, threshold), speed)
    assert same_bits(outcome(monitor_trajectory, grid.base),
                     outcome(whole_monitor_trajectory, grid.base))


def chain_run(grid):
    """The grid's tangent arrays as the (r, p) run of a chain at rest
    outside the cone."""
    return Trajectory(grid.times, grid.da, grid.db, grid.offset, (0.0, 0.0), GHSState)


POTENTIALS = {"toda": PotentialSpec("toda"), "quartic": PotentialSpec("quartic", 3.0)}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", ["cone", "non-finite"])
def test_blocked_chain_passes_equal_the_whole_run(kind, size, row_block):
    """The stability diagnostics, whose trapezoid sum is carried across
    blocks, and the cone constant, on runs with NaN and infinite cells
    after the first sample too."""
    run = chain_run(GRIDS[kind](SIZES[size](row_block)))
    for pot in POTENTIALS.values():
        assert same_bits(outcome(ghs_stability_diagnostics, run, pot),
                         outcome(whole_ghs_stability_diagnostics, run, pot))
        assert same_bits(ghs_cone_constant(run, pot), whole_ghs_cone_constant(run, pot))


def test_the_cases_reach_what_they_name():
    """The cases above hold what they are there for: front speeds, a log-a
    verdict with a radius function, and non-finite cells that are
    violations."""
    grid = cone_grid(53)
    assert verify_light_cone(grid, ENVELOPES["toda"]).empirical_front_speed is not None
    rep = verify_light_cone(spoiled(grid), ENVELOPES["log-a"])
    assert rep.bound_speed is not None and ENVELOPES["log-a"].speed is None
    assert rep.clean and rep.n_violations == 4
    assert not any(np.isfinite(v["observed"]) for v in rep.violations)


def test_stored_violations_straddle_block_edges_in_time_order(row_block):
    """More than MAX_VIOLATIONS_STORED violations: the stored ones are the
    first in time order, then in site order, across several blocks, and the
    count is exact."""
    grid = cone_grid(53)
    env = replace(ENVELOPES["toda"], prefactor=1e-20)
    rep = verify_light_cone(grid, env)
    bad = np.argwhere(grid.observed() > env.value(grid.distances, grid.times[:, np.newaxis]))
    assert rep.n_violations == bad.shape[0] > MAX_VIOLATIONS_STORED
    assert rep.violations_truncated and len(rep.violations) == MAX_VIOLATIONS_STORED
    assert [(v["t"], v["n"]) for v in rep.violations] == \
        [(float(grid.times[i]), int(grid.sites[j])) for i, j in bad[:MAX_VIOLATIONS_STORED]]
    last = bad[MAX_VIOLATIONS_STORED - 1][0]        # the row of the last stored one
    assert last // row_block >= 1                  # the stored ones span a block edge


def equal_runs(row_block):
    """A run of 3 row blocks plus 5 samples, in runs of four equal samples
    that straddle the block edges."""
    rng = np.random.default_rng(5)
    t = 3 * row_block + 5
    which = np.arange(t) // 4                       # runs of four equal samples
    x1 = (0.5 + 0.01 * rng.normal(size=(which[-1] + 1, 21)))[which]
    x2 = (0.01 * rng.normal(size=(which[-1] + 1, 21)))[which]
    return Trajectory(0.1 * np.arange(t), x1, x2, -10, (0.5, 0.0))


def test_energy_series_reads_every_sample_across_block_edges(row_block):
    """Runs of equal samples that straddle block edges share one energy;
    each sample's energy is that of its own state, bit for bit."""
    traj = equal_runs(row_block)
    each = np.array([hamiltonian_ab(traj.state(i)) for i in range(traj.n_samples)])
    assert traj.energy_series().tobytes() == each.tobytes()


def test_a_run_finds_its_equal_samples_once(row_block, monkeypatch):
    """The energy series and the norm line of one run share one bitwise
    pass over its samples: _changed_rows runs once per row block."""
    traj = equal_runs(row_block)
    t = traj.n_samples
    calls, changed_rows = [], integrators._changed_rows
    monkeypatch.setattr(integrators, "_changed_rows",
                        lambda *args: calls.append(args[2]) or changed_rows(*args))
    traj.energy_series()
    assert cli._within_line(traj, np.full(t, 2.0)).all()
    assert calls == list(row_blocks(t))


def test_passes_hold_a_fraction_of_the_grid():
    """On a cone grid of 20 row blocks over 4001 sites, the verdict, the
    edge margin and the CSV writer, and on a chain run of the same shape
    the stability diagnostics and the cone constant, each allocate less
    than half of one of the run's arrays at their peak; read whole, the
    verdict took about 4 times the array, the margin and the diagnostics
    3 times and the cone constant twice."""
    grid = cone_grid(20 * integrators.ROW_BLOCK + 1, 4001)
    limit = grid.da.nbytes / 2
    chain, pot = chain_run(grid), POTENTIALS["quartic"]
    passes = {"verify_light_cone": lambda: verify_light_cone(grid, ENVELOPES["toda"]),
              "boundary_margin": lambda: grid.boundary_margin,
              "to_csv": lambda: grid.to_csv(os.devnull),
              "ghs_stability_diagnostics": lambda: ghs_stability_diagnostics(chain, pot),
              "ghs_cone_constant": lambda: ghs_cone_constant(chain, pot)}
    grid.to_csv(os.devnull)                         # the formatter's tables are built once
    peaks = {}
    tracemalloc.start()
    try:
        for name, run in passes.items():
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert all(peak < limit for peak in peaks.values()), (peaks, limit)
