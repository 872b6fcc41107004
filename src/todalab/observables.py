"""Finitely supported observables and the modified Poisson bracket.

The bracket

    {A, B} = (1/4) sum_n a_n (dA/da_n DB_n - DA_n dB/da_n),
    DX_n = dX/db_{n+1} - dX/db_n

generates the Toda flow.  Time-evolved brackets {A o flow_t, B} are assembled
by the chain rule from sensitivity grids seeded at the coordinates B touches,
weighted as required_bracket_seeds gives; their decay in
|supp(A) - supp(B)| is what the bracket propagation bound controls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SQRT17, Envelope, compare
from .state import LatticeState, site_energy


@dataclass
class ObservableDescriptor:
    """Observable with finite support and explicit partial derivatives.

    eval maps a state to a real; d_da(state, n) and d_db(state, n) are the
    partials, zero whenever n is off the support.  norms, when declared,
    maps site -> (sup_t |dA/da_n|, sup_t |dA/db_n|) along the flow; measured
    horizon-limited values are used otherwise.
    """

    support: tuple
    eval: object
    d_da: object
    d_db: object
    name: str = "A"
    norms: dict | None = None

    def __post_init__(self):
        self.support = tuple(sorted(int(n) for n in self.support))
        if not self.support:
            raise ValueError("support must be nonempty")


def basic_observables(n: int):
    """(A_n, B_n): the coordinate observables x -> a_n and x -> b_n."""
    a_obs = ObservableDescriptor(
        support=(n,),
        eval=lambda s, n=n: float(s.a[s.site_index(n)]),
        d_da=lambda s, m, n=n: 1.0 if m == n else 0.0,
        d_db=lambda s, m: 0.0,
        name=f"a[{n}]",
        norms={n: (1.0, 0.0)})
    b_obs = ObservableDescriptor(
        support=(n,),
        eval=lambda s, n=n: float(s.b[s.site_index(n)]),
        d_da=lambda s, m: 0.0,
        d_db=lambda s, m, n=n: 1.0 if m == n else 0.0,
        name=f"b[{n}]",
        norms={n: (0.0, 1.0)})
    return a_obs, b_obs


def hamiltonian_window_observable(sites) -> ObservableDescriptor:
    """The energy restricted to a finite site set: the sum of
    state.site_energy over the sites.  Acts as the generator in bracket
    identities for observables supported well inside the site set."""
    sites = tuple(sorted(int(n) for n in sites))
    site_set = frozenset(sites)

    def _eval(s):
        idx = [s.site_index(n) for n in sites]
        return float(np.sum(site_energy(s.a[idx], s.b[idx])))

    def _d_da(s, n):
        if n not in site_set:
            return 0.0
        a = s.a[s.site_index(n)]
        return float(8.0 * a - 2.0 / a)

    def _d_db(s, n):
        if n not in site_set:
            return 0.0
        return float(4.0 * s.b[s.site_index(n)])

    return ObservableDescriptor(support=sites, eval=_eval, d_da=_d_da,
                                d_db=_d_db, name="H-window")


def poisson_bracket(A: ObservableDescriptor, B: ObservableDescriptor,
                    x: LatticeState) -> float:
    """{A, B}(x) = sum_seed weight * dA/d(seed) over B's seeds (see
    required_bracket_seeds); both supports must lie inside the window."""
    partial = {"a": A.d_da, "b": A.d_db}
    return float(sum(w * partial[c](x, n) for (n, c), w in required_bracket_seeds(B, x).items()))


def required_bracket_seeds(B: ObservableDescriptor, x: LatticeState) -> dict:
    """{seed: weight} over the sensitivity grids that {A o flow_t, B}(x)
    reads, with

        {A o flow_t, B}(x) = sum_seed weight * d(A o flow_t)/d(seed):

    (n, 'a') weighs (1/4) a_n DB_n wherever DB_n != 0, and (n, 'b') and
    (n+1, 'b') weigh +(1/4) a_n dB/da_n and -(1/4) a_n dB/da_n wherever
    dB/da_n != 0; a seed reached twice sums its weights."""
    weights = {}
    for n in sorted({k for m in B.support for k in (m - 1, m)}):
        w = B.d_db(x, n + 1) - B.d_db(x, n)
        if w != 0.0:
            weights[(n, "a")] = 0.25 * float(x.a[x.site_index(n)]) * w
    for m in B.support:
        w = B.d_da(x, m)
        if w != 0.0:
            q = 0.25 * float(x.a[x.site_index(m)]) * w
            weights[(m, "b")] = weights.get((m, "b"), 0.0) + q
            weights[(m + 1, "b")] = weights.get((m + 1, "b"), 0.0) - q
    return weights


def _seed_grid(weights: dict, grids: dict):
    """The grid of B's first seed, whose base run the bracket reads; None
    when B has no seeds.  Raises KeyError naming the missing seeds."""
    missing = sorted(set(weights) - set(grids))
    if missing:
        raise KeyError(f"the bracket needs sensitivity grids for seeds {missing}")
    return grids[next(iter(weights))] if weights else None


def _partials(obs: ObservableDescriptor, states) -> list:
    """(site, dA/da_site, dA/db_site) over supp(A), each a (T,) array over
    the given states."""
    return [(k, np.array([obs.d_da(s, k) for s in states], dtype=float),
             np.array([obs.d_db(s, k) for s in states], dtype=float))
            for k in obs.support]


def _bracket_series(partials: list, weights: dict, grids: dict) -> np.ndarray:
    """{A o flow_t, B}(x) at every sample: the weighted sum over B's seeds of
    d(A o flow_t)/d(seed), each by the chain rule over supp(A) from the
    seed grid's columns.  A zero partial skips its column; a site of A
    outside the grids' window raises IndexError naming it."""
    total = np.zeros(partials[0][1].size)
    for seed, w in weights.items():
        grid = grids[seed]
        grad = np.zeros_like(total)
        for k, ga, gb in partials:
            j = k - grid.offset
            if not 0 <= j < grid.n_sites:
                raise IndexError(f"observable site {k} outside window "
                                 f"[{grid.offset}, {grid.offset + grid.n_sites})")
            for g, col in ((ga, grid.da[:, j]), (gb, grid.db[:, j])):
                grad += np.multiply(g, col, out=np.zeros_like(g), where=g != 0.0)
        total += w * grad
    return total


def evolved_bracket(A: ObservableDescriptor, B: ObservableDescriptor,
                    x: LatticeState, t: float, grids: dict) -> float:
    """{A o flow_t, B}(x) via the chain rule.

    grids maps (site, coord) to the SensitivityGrid seeded there over a
    common sample-time set; missing entries raise with the required list.
    At t = 0 the value reduces to poisson_bracket(A, B, x).
    """
    weights = required_bracket_seeds(B, x)
    grid = _seed_grid(weights, grids)
    if grid is None:
        return 0.0
    states = [grid.base.state(i) for i in range(grid.n_samples)]
    return float(_bracket_series(_partials(A, states), weights, grids)[grid.time_index(t)])


def bracket_bound_constant(mu: float) -> float:
    """C = (2/sqrt(17)) (1 + e^mu) of the bracket propagation bound."""
    return 2.0 / SQRT17 * (1.0 + math.exp(mu))


def _site_weights(obs: ObservableDescriptor, states, partials=None):
    """site -> sup |d/da| + sup |d/db|, and where the sups come from:
    declared when available, otherwise measured over obs's partials along
    the sampled base run (horizon-limited): those given, or else those at
    the states, evaluated only in this case."""
    if obs.norms is not None:
        return {n: na + nb for n, (na, nb) in obs.norms.items()}, "declared"
    partials = _partials(obs, states) if partials is None else partials
    return ({k: float(np.max(np.abs(ga), initial=0.0)) + float(np.max(np.abs(gb), initial=0.0))
             for k, ga, gb in partials}, "measured-horizon")


@dataclass
class BracketBoundReport:
    mu: float
    velocity: float
    constant: float
    a_sup: float
    norm_source: str
    n_violations: int
    violations: list
    max_ratio: float
    times: list

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def check_bracket_bound(As, B: ObservableDescriptor, x: LatticeState, times,
                        mu: float, v: float, grids: dict, scale: float = 1.0) -> list:
    """One BracketBoundReport per observable A in As, in order: whether

        |{A o flow_t, B}(x)| <= C ||a||_inf sum_{n,m} (|dA| sums)(|dB| sums) e^{-mu(|n-m| - v|t|)}

    at the given sample times.  v is the caller's velocity_toda(mu,
    jacobi_norm(x)), from the initial operator norm, computed once per
    state; derivative norms are declared or horizon-measured as available.
    What depends only on (x, B) is computed once: C, ||a||_inf, B's seed
    weights and norms, and the base states at the samples; B's partials
    are evaluated along the run only when B declares no norms.  Each
    e^{-mu(|n-m| - v|t|)}, times scale, is the value of one Envelope of
    prefactor scale (the CLI's envelope_scale); bounds.compare gives the
    verdict.
    """
    weights = required_bracket_seeds(B, x)
    grid = _seed_grid(weights, grids)
    states = [grid.base.state(i) for i in range(grid.n_samples)] if grid else []
    times = np.asarray(times, dtype=float)
    rows = [grid.time_index(t) for t in times] if grid else []
    cone = Envelope(family="bracket", mu=mu, prefactor=scale, speed=v)
    c = bracket_bound_constant(mu)
    a_sup = float(np.max(np.abs(x.a)))
    wb, src_b = _site_weights(B, states)
    reports = []
    for A in As:
        partials = _partials(A, states)
        wa, src_a = _site_weights(A, states, partials)
        val = (np.abs(_bracket_series(partials, weights, grids)[rows]) if weights
               else np.zeros(times.size))
        pairs = [(na * nb, abs(n - m)) for n, na in wa.items() if na != 0.0
                 for m, nb in wb.items() if nb != 0.0]
        coef, dist = np.array(pairs, dtype=float).reshape(-1, 2).T
        with np.errstate(over="ignore"):
            bound = c * a_sup * np.sum(coef[:, None] * cone.value(dist[:, None], times), axis=0)
        bad, max_ratio = compare(val, bound)
        bad = np.flatnonzero(bad)
        reports.append(BracketBoundReport(
            mu=mu, velocity=v, constant=c, a_sup=a_sup,
            norm_source=f"A:{src_a},B:{src_b}", n_violations=int(bad.size),
            violations=[{"t": float(times[i]), "observed": float(val[i]),
                         "bound": float(bound[i])} for i in bad],
            max_ratio=max_ratio, times=[float(t) for t in times]))
    return reports
