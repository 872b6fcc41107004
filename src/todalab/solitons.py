"""Closed-form one-soliton solutions of the Toda lattice.

The profile is driven by the phase u_n(t) = -2 kappa n + sign 2 sinh(kappa) t
+ delta through the logistic function sigma:

    a_n(t)^2 = 1/4 + sinh(kappa)^2 sigma'(u_n)
    b_n(t)   = sign sinh(kappa) (sigma(u_n) - sigma(u_{n-1}))

sigma(u) = 1/(1 + e^{-u}) is evaluated as scipy.special.expit evaluates it,
with libm's exp through math.exp, so its bits equal expit's without
importing scipy.special; the tails are exact to machine precision for |u|
beyond ~40 instead of overflowing.
The wave travels at speed sign * sinh(kappa)/kappa sites per unit time and
the Jacobi operator norm is cosh(kappa) for all t.
"""
from __future__ import annotations

import math
import sys
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


# math.exp raises OverflowError above this; libm's exp returns +inf there
_EXP_MAX = math.log(sys.float_info.max)


def _logistic(u):
    """1/(1 + e^{-u}) elementwise, in the order expit takes it: libm's exp
    (math.exp, never np.exp, whose SIMD loops differ from libm in the last
    bit on some hosts) of -u, then 1/(1 + e) in numpy.  exp is taken only
    where it can matter: where -u exceeds _EXP_MAX, e is +inf and the
    result 0.0, and below -37, e < 2^-53 and 1 + e rounds to 1, so the
    result is 1.0."""
    neg = -np.asarray(u, dtype=float)
    sig = np.where(neg > _EXP_MAX, 0.0, 1.0)
    live = ~((neg < -37.0) | (neg > _EXP_MAX))      # NaN stays live: exp(NaN) is NaN
    sig[live] = 1.0 / (1.0 + np.fromiter(map(math.exp, neg[live].tolist()), float))
    return sig


def _phase(spec: SolitonSpec, n, t: float):
    return -2.0 * spec.kappa * np.asarray(n, dtype=float) \
        + spec.sign * 2.0 * math.sinh(spec.kappa) * t + spec.delta


def soliton_flaschka(spec: SolitonSpec, n, t: float = 0.0):
    """(a_n(t), b_n(t)) at integer sites n (scalar or array)."""
    u = _phase(spec, n, t)
    u_prev = _phase(spec, np.asarray(n, dtype=float) - 1.0, t)
    sig = _logistic(u)
    sh = math.sinh(spec.kappa)
    a = 0.5 * np.sqrt(1.0 + 4.0 * sh * sh * sig * (1.0 - sig))
    b = spec.sign * sh * (sig - _logistic(u_prev))
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
