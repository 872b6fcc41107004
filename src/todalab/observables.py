"""Finitely supported observables and the modified Poisson bracket.

The bracket

    {A, B} = (1/4) sum_n a_n (dA/da_n DB_n - DA_n dB/da_n),
    DX_n = dX/db_{n+1} - dX/db_n

generates the Toda flow.  Time-evolved brackets {A o flow_t, B} are assembled
by the chain rule from sensitivity grids seeded at the coordinates B touches;
their decay in |supp(A) - supp(B)| is what the bracket propagation bound
controls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SQRT17, velocity_toda
from .state import LatticeState, jacobi_norm


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
    """The energy restricted to a finite site set:

        sum_{n in sites} (2 b_n^2 + 4 a_n^2 - 2 ln(2 |a_n|) - 1)

    Acts as the generator in bracket identities for observables supported
    well inside the site set.
    """
    sites = tuple(sorted(int(n) for n in sites))
    site_set = frozenset(sites)

    def _eval(s):
        idx = [s.site_index(n) for n in sites]
        a, b = s.a[idx], s.b[idx]
        return float(np.sum(2.0 * b * b + 4.0 * a * a - 2.0 * np.log(2.0 * np.abs(a)) - 1.0))

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


def _btilde_derivative(obs: ObservableDescriptor, s: LatticeState, n: int) -> float:
    return obs.d_db(s, n + 1) - obs.d_db(s, n)


def poisson_bracket(A: ObservableDescriptor, B: ObservableDescriptor,
                    x: LatticeState) -> float:
    """{A, B}(x); both supports must lie inside the window."""
    relevant = set()
    for n in A.support + B.support:
        relevant.update((n - 1, n))
    total = 0.0
    first = x.offset
    last = x.offset + x.n_sites - 1
    for n in sorted(relevant):
        if not first <= n <= last:
            continue
        a_n = float(x.a[n - first])
        total += 0.25 * a_n * (A.d_da(x, n) * _btilde_derivative(B, x, n)
                               - _btilde_derivative(A, x, n) * B.d_da(x, n))
    return total


def required_bracket_seeds(B: ObservableDescriptor, x: LatticeState):
    """Seeds whose sensitivity grids evolved_bracket(A, B, ...) consumes:
    (n, 'a') wherever DB_n != 0 and (n, 'b'), (n+1, 'b') wherever dB/da_n != 0."""
    seeds = set()
    for m in B.support:
        for n in (m - 1, m):
            if _btilde_derivative(B, x, n) != 0.0:
                seeds.add((n, "a"))
        if B.d_da(x, m) != 0.0:
            seeds.add((m, "b"))
            seeds.add((m + 1, "b"))
    return seeds


def _evolved_gradient(A: ObservableDescriptor, grid, i: int, state_t) -> float:
    """d(A o flow_t)/dz from one sensitivity grid: chain rule over supp(A)."""
    total = 0.0
    for k in A.support:
        j = k - grid.offset
        ga = A.d_da(state_t, k)
        gb = A.d_db(state_t, k)
        if ga != 0.0:
            total += ga * grid.da[i, j]
        if gb != 0.0:
            total += gb * grid.db[i, j]
    return total


def evolved_bracket(A: ObservableDescriptor, B: ObservableDescriptor,
                    x: LatticeState, t: float, grids: dict) -> float:
    """{A o flow_t, B}(x) via the chain rule.

    grids maps (site, coord) to the SensitivityGrid seeded there over a
    common sample-time set; missing entries raise with the required list.
    At t = 0 the value reduces to poisson_bracket(A, B, x).
    """
    needed = required_bracket_seeds(B, x)
    missing = sorted(needed - set(grids))
    if missing:
        raise KeyError(f"evolved_bracket needs sensitivity grids for seeds {missing}")
    if not needed:
        return 0.0
    any_grid = grids[next(iter(needed))]
    i = any_grid.time_index(t)
    state_t = any_grid.base_state(i)
    first = x.offset

    total = 0.0
    for m in B.support:
        for n in (m - 1, m):
            w = _btilde_derivative(B, x, n)
            if w != 0.0:
                a_n = float(x.a[n - first])
                total += 0.25 * a_n * _evolved_gradient(A, grids[(n, "a")], i, state_t) * w
        w = B.d_da(x, m)
        if w != 0.0:
            a_m = float(x.a[m - first])
            grad = (_evolved_gradient(A, grids[(m + 1, "b")], i, state_t)
                    - _evolved_gradient(A, grids[(m, "b")], i, state_t))
            total -= 0.25 * a_m * grad * w
    return total


def bracket_bound_constant(mu: float) -> float:
    """C = (2/sqrt(17)) (1 + e^mu) of the bracket propagation bound."""
    return 2.0 / SQRT17 * (1.0 + math.exp(mu))


def _derivative_norms(obs: ObservableDescriptor, grids: dict, x: LatticeState):
    """site -> (sup |d/da|, sup |d/db|): declared when available, otherwise
    measured along the sampled base trajectory (horizon-limited)."""
    if obs.norms is not None:
        return dict(obs.norms), "declared"
    any_grid = next(iter(grids.values()))
    out = {}
    for n in obs.support:
        na = nb = 0.0
        for i in range(any_grid.n_samples):
            st = any_grid.base_state(i)
            na = max(na, abs(obs.d_da(st, n)))
            nb = max(nb, abs(obs.d_db(st, n)))
        out[n] = (na, nb)
    return out, "measured-horizon"


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


def check_bracket_bound(A: ObservableDescriptor, B: ObservableDescriptor,
                        x: LatticeState, times, mu: float,
                        grids: dict) -> BracketBoundReport:
    """Assert |{A o flow_t, B}(x)| <= C ||a||_inf sum_{n,m} (|dA| sums)(|dB| sums)
    e^{-mu(|n-m| - v|t|)} over the given sample times.

    v uses the initial operator norm; derivative norms are declared or
    horizon-measured as available.
    """
    v = velocity_toda(mu, jacobi_norm(x))
    c = bracket_bound_constant(mu)
    a_sup = float(np.max(np.abs(x.a)))
    norms_a, src_a = _derivative_norms(A, grids, x)
    norms_b, src_b = _derivative_norms(B, grids, x)

    def weight(norms):
        return {n: na + nb for n, (na, nb) in norms.items()}

    wa, wb = weight(norms_a), weight(norms_b)
    violations = []
    max_ratio = 0.0
    for t in times:
        val = abs(evolved_bracket(A, B, x, t, grids))
        bound = 0.0
        for n, na in wa.items():
            if na == 0.0:
                continue
            for m, nb in wb.items():
                if nb == 0.0:
                    continue
                bound += na * nb * math.exp(-mu * (abs(n - m) - v * abs(t)))
        bound *= c * a_sup
        ratio = val / bound if bound > 0 else math.inf
        max_ratio = max(max_ratio, ratio)
        if val > bound:
            violations.append({"t": float(t), "value": val, "bound": bound})
    return BracketBoundReport(mu=mu, velocity=v, constant=c, a_sup=a_sup,
                              norm_source=f"A:{src_a},B:{src_b}",
                              n_violations=len(violations), violations=violations,
                              max_ratio=max_ratio,
                              times=[float(t) for t in times])
