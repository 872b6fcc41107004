"""Closed-form one-soliton solutions of the Toda lattice.

The profile is driven by the phase u_n(t) = -2 kappa n + sign 2 sinh(kappa) t
+ delta through the logistic function sigma:

    a_n(t)^2 = 1/4 + sinh(kappa)^2 sigma'(u_n)
    b_n(t)   = sign sinh(kappa) (sigma(u_n) - sigma(u_{n-1}))

sigma is evaluated by expit, so the tails are exact to machine precision
for |u| beyond ~40 instead of overflowing.
The wave travels at speed sign * sinh(kappa)/kappa sites per unit time and
the Jacobi operator norm is cosh(kappa) for all t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import LatticeState, centered_offset


@dataclass
class SolitonSpec:
    kappa: float
    sign: int = 1            # +1 moves right, -1 left
    delta: float = 0.0       # phase offset: shifts the initial position

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")


def _phase(spec: SolitonSpec, n, t: float):
    return -2.0 * spec.kappa * np.asarray(n, dtype=float) \
        + spec.sign * 2.0 * math.sinh(spec.kappa) * t + spec.delta


def soliton_flaschka(spec: SolitonSpec, n, t: float = 0.0):
    """(a_n(t), b_n(t)) at integer sites n (scalar or array)."""
    from scipy.special import expit     # only a soliton needs it
    u = _phase(spec, n, t)
    u_prev = _phase(spec, np.asarray(n, dtype=float) - 1.0, t)
    sig = expit(u)
    sh = math.sinh(spec.kappa)
    a = 0.5 * np.sqrt(1.0 + 4.0 * sh * sh * sig * (1.0 - sig))
    b = spec.sign * sh * (sig - expit(u_prev))
    return a, b


def soliton_speed(spec: SolitonSpec) -> float:
    return spec.sign * math.sinh(spec.kappa) / spec.kappa


def soliton_Lnorm(spec: SolitonSpec) -> float:
    """Spectral norm of the Jacobi operator: cosh(kappa), time independent."""
    return math.cosh(spec.kappa)


def soliton_state(spec: SolitonSpec, n_sites: int, offset: int | None = None,
                  t: float = 0.0) -> LatticeState:
    """Sampled window state; background is the free lattice (1/2, 0)."""
    if offset is None:
        offset = centered_offset(n_sites)
    n = np.arange(offset, offset + n_sites)
    a, b = soliton_flaschka(spec, n, t)
    return LatticeState(a, b, offset, (0.5, 0.0))
