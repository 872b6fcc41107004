"""Dormand-Prince 8(5,3) through given sample times, without scipy.integrate.

dop853(fun, y0, times, tol) takes the steps of

    scipy.integrate.solve_ivp(fun, (times[0], times[-1]), y0, method="DOP853",
                              t_eval=times, rtol=tol, atol=tol)

with the same numpy operations in the same order as scipy's RungeKutta and
DOP853 solvers (scipy/integrate/_ivp/rk.py and common.py; Hairer, Norsett &
Wanner, Solving ODEs I, Sec. II.5), so it gives the same bits from the same
rhs evaluations: the first step of select_initial_step, 12 stages per step
attempt, the DOP853 error norm, scipy's step control (factors 0.2 to 10
with safety 0.9, no growth right after a rejection, no step below 10 ulp
of t), and the 7-term dense output, from three more stages, in each step
that holds sample times.  It does only what solve_vector asks of it:
forward in time, float64, no step ceiling, no events.  The tests hold it
to solve_ivp bit for bit.
"""
from __future__ import annotations

import warnings

import numpy as np

# The DOP853 tableau of scipy.integrate._ivp.dop853_coefficients (SciPy,
# BSD-3-Clause: Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy
# Developers), each double written as its shortest repr.  A row of A or D
# lists {column: value} of its nonzero entries.


def _rows(shape, rows: dict) -> np.ndarray:
    out = np.zeros(shape)
    for i, row in rows.items():
        for j, value in row.items():
            out[i, j] = value
    return out


C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])

A = _rows((16, 16), {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
    13: {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
         8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
         7: -0.05492374857139099, 10: -0.00010834732869724932,
         11: 0.0003825710908356584, 12: -0.00034046500868740456, 13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
         7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
         13: 2.9475147891527724, 14: -9.15095847217987}})

B = A[12, :12]

E3 = np.append(B, 0.0)
E3[[0, 8, 11]] = -0.18980075407240762, -0.4226823213237919, 0.02265179219836082

E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)

D = _rows((4, 16), {
    0: {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
        7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
        10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
        13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    1: {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
        7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
        10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
        13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    2: {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
        7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
        10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
        13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    3: {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
        7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
        10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
        13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564}})

# (A[s, :s], C[s]) of the 11 stages after the first, and of the 3 extra
# stages of the dense output
_STAGES = [(A[s, :s], C[s]) for s in range(1, 12)]
_EXTRA = [(A[s, :s], C[s]) for s in range(13, 16)]

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8            # -1 / (error estimator order + 1)
_EPS = np.finfo(float).eps


def _rms(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _first_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """scipy's select_initial_step: Hairer, Norsett & Wanner, Sec. II.4."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense(fun, K, t_old, y_old, t, y, f, ts):
    """The (len(ts), N) dense output of the step from (t_old, y_old) to
    (t, y) at the times ts; K holds its 13 stages and gets the 3 extra."""
    h = t - t_old
    for s, (a, c) in enumerate(_EXTRA, start=13):
        K[s] = fun(t_old + c * h, y_old + np.dot(K[:s].T, a) * h)
    F = np.empty((7, y.size))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    x = ((ts - t_old) / h)[:, None]
    out = np.zeros((ts.size, y.size))
    for i, row in enumerate(reversed(F)):
        out += row
        if i % 2 == 0:
            out *= x
        else:
            out *= 1 - x
    out += y_old
    return out


def dop853(fun, y0: np.ndarray, times: np.ndarray, tol: float) -> np.ndarray:
    """The (T, N) samples of dy/dt = fun(t, y), y(times[0]) = y0, at the
    strictly increasing float64 times, with rtol = atol = tol; y0 and what
    fun returns are float64 arrays.  This is solve_ivp's sol.y.T, row 0
    too, which is the first step's dense output at its start.  A step below
    min_step raises RuntimeError with scipy's message; rtol is at least
    100 eps, as scipy makes it, with a warning."""
    if not (np.diff(times) > 0).all():
        raise ValueError("sample times must increase strictly")
    if not np.isfinite(y0).all():
        raise ValueError("the start state must be finite")
    if tol < 100 * _EPS:
        warnings.warn(f"tolerance {tol:g} is below 100 eps: rtol is raised to {100 * _EPS:g}",
                      stacklevel=3)
    rtol, atol = max(tol, 100 * _EPS), tol
    t, t_bound = float(times[0]), float(times[-1])
    y, f = y0, fun(t, y0)
    h_abs = _first_step(fun, t, y, f, t_bound, rtol, atol)
    K_extended = np.empty((16, y.size))
    K = K_extended[:13]
    out = np.empty((times.size, y.size))
    sampled = 0
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("integration failed: Required step size is less "
                                   "than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, (a, c) in enumerate(_STAGES, start=1):
                K[s] = fun(t + c * h, y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        # the sample times in (t_old, t], and times[0] in the first step
        end = np.searchsorted(times, t, side="right")
        if end > sampled:
            out[sampled:end] = _dense(fun, K_extended, t_old, y_old, t, y, f,
                                      times[sampled:end])
            sampled = end
        if t >= t_bound:
            return out
