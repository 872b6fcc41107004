"""Finitely supported observables and the modified Poisson bracket.

The bracket

    {A, B} = (1/4) sum_n a_n (dA/da_n DB_n - DA_n dB/da_n),
    DX_n = dX/db_{n+1} - dX/db_n

generates the Toda flow.  The bracket propagation bound controls the decay
of {A o flow_t, B} in |supp(A) - supp(B)|; the CLI checks it for the
coordinate pairs (a_n, b_m), whose evolved brackets are columns of the
sensitivity grids seeded at b_m's seeds, weighted as required_bracket_seeds
gives: evolved_brackets reads them as one (T, S) array per site m, and
check_bracket_bound compares that array with the bound.  The bound for
general local A and B, by the chain rule over supp(A), has no CLI verdict;
its oracle is tests/test_observables.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import MAX_VIOLATIONS_STORED, SQRT17, Envelope, compare
from .state import LatticeState, site_energy


@dataclass
class ObservableDescriptor:
    """Observable with finite support and explicit partial derivatives.

    eval maps a state to a real; d_da(state, n) and d_db(state, n) are the
    partials, zero whenever n is off the support.
    """

    support: tuple
    eval: object
    d_da: object
    d_db: object

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
        d_db=lambda s, m: 0.0)
    b_obs = ObservableDescriptor(
        support=(n,),
        eval=lambda s, n=n: float(s.b[s.site_index(n)]),
        d_da=lambda s, m: 0.0,
        d_db=lambda s, m, n=n: 1.0 if m == n else 0.0)
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

    return ObservableDescriptor(support=sites, eval=_eval, d_da=_d_da, d_db=_d_db)


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


def bracket_bound_constant(mu: float) -> float:
    """C = (2/sqrt(17)) (1 + e^mu) of the bracket propagation bound."""
    return 2.0 / SQRT17 * (1.0 + math.exp(mu))


def evolved_brackets(m: int, sites, x: LatticeState, grids: dict) -> np.ndarray:
    """{a_n o flow_t, b_m}(x) at every sample, for each n in sites: a (T, S)
    array, the sum of weight * d a_n(t) / d(seed) over b_m's seeds, in the
    order of required_bracket_seeds(b_m, x).  grids maps (site, coord) to
    the SensitivityGrid seeded there over a common sample-time set.  Raises
    KeyError naming every missing seed grid, and IndexError naming a site
    outside the grids' window, whose column a negative index would wrap."""
    weights = required_bracket_seeds(basic_observables(m)[1], x)
    missing = sorted(set(weights) - set(grids))
    if missing:
        raise KeyError(f"the bracket needs sensitivity grids for seeds {missing}")
    first = grids[next(iter(weights))]
    cols = np.asarray(sites, dtype=int) - first.offset
    for n, j in zip(sites, cols):
        if not 0 <= j < first.n_sites:
            raise IndexError(f"observable site {n} outside window "
                             f"[{first.offset}, {first.offset + first.n_sites})")
    total = np.zeros((first.n_samples, cols.size))
    for seed, w in weights.items():
        total += w * grids[seed].da[:, cols]
    return total


@dataclass
class BracketBoundReport:
    mu: float
    velocity: float
    constant: float
    a_sup: float
    n_violations: int
    violations: list
    max_ratio: float

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def check_bracket_bound(m: int, sites, x: LatticeState, cone: Envelope,
                        grids: dict) -> BracketBoundReport:
    """Whether, for each n in sites and at every sample t,

        |{a_n o flow_t, b_m}(x)| <= C ||a||_inf e^{-mu(|n - m| - v|t|)},

    the (T, S) block of evolved_brackets against C ||a||_inf times the
    caller's cone, of rate mu and speed v (the CLI's is bracket_envelope,
    scaled as every cone), in one bounds.compare.  Every violation is
    counted; the first MAX_VIOLATIONS_STORED, by site and then by time, are
    stored."""
    val = np.abs(evolved_brackets(m, sites, x, grids))
    times = next(iter(grids.values())).times
    sites = np.asarray(sites, dtype=int)
    c = bracket_bound_constant(cone.mu)
    a_sup = float(np.max(np.abs(x.a)))
    with np.errstate(over="ignore"):
        bound = c * a_sup * cone.value(np.abs(sites - m), times[:, np.newaxis])
    bad, max_ratio = compare(val, bound)
    bad = np.argwhere(bad.T)                     # (site, time) pairs, site-major
    return BracketBoundReport(
        mu=cone.mu, velocity=cone.speed, constant=c, a_sup=a_sup, n_violations=int(bad.shape[0]),
        violations=[{"n": int(sites[j]), "t": float(times[i]), "observed": float(val[i, j]),
                     "bound": float(bound[i, j])} for j, i in bad[:MAX_VIOLATIONS_STORED]],
        max_ratio=max_ratio)
