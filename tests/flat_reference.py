"""Four earlier flat-distance solvers, kept unchanged as test references.

``reference_flat_distance``, the grid + Nelder-Mead + finite-difference BFGS
solver, was ``wcc.flagmetric.flat_distance`` before the convex solve with the
exact SVD gradient replaced it.  ``scipy_bfgs_flat_distance`` was that convex
solve while it ran on ``scipy.optimize.minimize``, before the numpy BFGS.
``reference_flat_minimum`` is that numpy BFGS as it ran at every d, from the
identity inverse Hessian with a first-step rescale, before d = 2 took the closed
form and d = 3 the inverse Hessian I / (2k).  ``scaled_bfgs_flat_minimum`` is that
d = 3 BFGS from I / (2k), before Newton's method on the exact Hessian replaced it.
All four minimize through ``flat_value_and_grad``, the objective they ran on, which
reads ``stacked_flat_rows``: ``wcc.flagmetric``'s stacked kernel of F, its gradient and
Hessian, before Newton's method took the one-matrix ``_flat_row``.
``decimal_sl2_flat_distance`` is the d = 2 closed form evaluated at 50 digits.
"""

import decimal
import itertools
import math

import numpy as np

from wcc.errors import NumericError, TransversalityError
from wcc.flagmetric import (
    FLAT_TOL,
    TransversePair,
    _zero_sum_basis,
    gromov_product,
)
from wcc.projections import BasePoint
from wcc.rootsys import root_system

from flagmetric_reference import witness


def stacked_flat_rows(ms: np.ndarray, basis: np.ndarray, k: float):
    """F = d_X(o, m o)^2 = k |a - mean(a)|^2, a = log svd(m), its exact gradient and
    Hessian along ``basis`` (of Y in m exp(Y), at Y = 0) and log(s_1 / s_d), for a stack
    (n, d, d) of m, and which rows have finite nonzero singular values (the others carry
    no value).  With z_ij = (vh_i * vh_j) @ basis^T, d log s_i / dY = z_ii, so
    grad F = 2k sum_i a_i z_ii and Hess F = 2k sum_ij phi(a_i - a_j) z_ij z_ij^T,
    phi(x) = x coth x, phi(0) = 1: at least 2k I, and 2k I on a flat through o."""
    _, s, vh = np.linalg.svd(ms)
    ok = np.isfinite(s).all(axis=-1) & (s[..., -1] > 0.0)
    a = np.log(np.where(ok[..., None], s, 1.0))
    a -= a.sum(axis=-1, keepdims=True) / a.shape[-1]  # np.mean, without its overhead
    grad = 2.0 * k * ((a[..., None, :] @ (vh * vh)) @ basis.T)[..., 0, :]
    n, d = s.shape
    z = (vh[:, :, None, :] * vh[:, None, :, :]).reshape(n, d * d, d) @ basis.T
    diff = (a[:, :, None] - a[:, None, :]).reshape(n, d * d, 1)
    phi = np.divide(diff, np.tanh(diff), out=np.ones_like(diff), where=diff != 0.0)
    hess = 2.0 * k * (z.swapaxes(1, 2) @ (phi * z))
    return k * np.vecdot(a, a), grad, hess, a[:, 0] - a[:, -1], ok


def flat_value_and_grad(m: np.ndarray, basis: np.ndarray, rs):
    """F(Y) = d_X(o, m exp(Y) o)^2 and its gradient along ``basis``: ``stacked_flat_rows`` of
    the one-row stack m exp(Y)."""
    k = rs.killing_scale

    def fg(coords: np.ndarray):
        y = coords @ basis
        # keep exp() finite during line searches; F is coercive, so a growing
        # penalty outside the window cannot hide the minimum
        if np.abs(y).max() <= 250.0:
            f, g, _, _, ok = stacked_flat_rows((m * np.exp(y))[None], basis, k)
            if ok[0]:
                return float(f[0]), g[0]
        return 1e12 + float(coords @ coords), 2.0 * coords

    return fg


def reference_flat_objective(m: np.ndarray, basis: np.ndarray, rs):
    def f(coords: np.ndarray) -> float:
        y = coords @ basis
        # keep exp() finite; the true objective is coercive so a growing
        # penalty outside the window cannot hide the minimum
        if np.max(np.abs(y)) > 250.0:
            return 1e6 + float(np.linalg.norm(y))
        s = np.linalg.svd(m * np.exp(y)[None, :], compute_uv=False)
        if not np.all(np.isfinite(s)) or s[-1] <= 0.0:
            return 1e6 + float(np.linalg.norm(y))
        a = np.log(s)
        a -= a.mean()
        return float(np.sqrt(rs.killing_scale * np.dot(a, a)))

    return f


def reference_flat_distance(x: BasePoint, pair: TransversePair, tol: float = 1e-8) -> float:
    """Distance from x to the maximal flat of a transverse pair.

    Minimizes d_X(x, w exp(Y) o) over the Cartan subspace, where w is the
    witness of the pair: coarse grid seeding, Nelder-Mead, then a BFGS
    polish away from the non-smooth zero of the norm.
    """
    import scipy.optimize

    d = x.d
    rs = root_system(d)
    w = witness(pair)
    m = x.h.inverse().mat @ w.mat
    basis = _zero_sum_basis(d)
    f = reference_flat_objective(m, basis, rs)

    try:
        reach = 1.5 * rs.killing_norm(gromov_product(pair.xi_plus, pair.xi_minus, x)) + 2.0
    except TransversalityError:
        reach = 6.0
    n_grid = 64 if d > 2 else 65
    per_axis = int(round(n_grid ** (1.0 / (d - 1))))
    axes = [np.linspace(-reach, reach, per_axis) for _ in range(d - 1)]
    best_coords, best_val = None, math.inf
    for point in itertools.product(*axes):
        val = f(np.array(point))
        if val < best_val:
            best_val, best_coords = val, np.array(point)

    res = scipy.optimize.minimize(
        f, best_coords, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
    )
    value, coords = float(res.fun), res.x
    if value > best_val:
        value, coords = best_val, best_coords
    if value > 1e-8:
        polish = scipy.optimize.minimize(f, coords, method="BFGS", options={"gtol": tol})
        if polish.fun <= value:
            value, coords = float(polish.fun), polish.x
    if value > 1e-3:
        # away from the flat the objective is smooth, so a non-vanishing
        # gradient means the optimizer stalled; near zero the norm is conical
        # and the value itself is the answer
        grad_norm = float(np.linalg.norm(scipy.optimize.approx_fprime(coords, f, 1.49e-8)))
        if grad_norm > 1e-4 * max(1.0, value):
            raise NumericError(
                f"flat-distance optimizer did not converge: value {value}, gradient {grad_norm}"
            )
    return max(0.0, value)


def scipy_bfgs_flat_distance(x: BasePoint, pair: TransversePair, tol: float = 1e-8) -> float:
    """Distance from x to the maximal flat of a transverse pair.

    BFGS from Y = 0 with the exact gradient (``tol`` its gradient tolerance) on the
    squared distance d_X(x, w exp(Y) o)^2, w the witness of the pair: convex along
    the flat (Bridson-Haefliger II.2) and smooth also on it, so a stationary point
    is the minimum.  A stall away from the flat raises NumericError.
    """
    import scipy.optimize

    d = x.d
    m = x.h.inverse().mat @ witness(pair).mat
    fg = flat_value_and_grad(m, _zero_sum_basis(d), root_system(d))
    res = scipy.optimize.minimize(fg, np.zeros(d - 1), jac=True, method="BFGS",
                                  options={"gtol": tol})
    value = math.sqrt(res.fun)
    if value > 1e-3:
        # gradient of the distance itself: grad F / (2 sqrt F)
        grad_norm = float(np.linalg.norm(res.jac)) / (2.0 * value)
        if grad_norm > 1e-4 * max(1.0, value):
            raise NumericError(
                f"flat-distance optimizer did not converge: value {value}, gradient {grad_norm}"
            )
    return value


def reference_flat_minimum(m: np.ndarray) -> float:
    """Distance from the origin to the flat m A o, for m = h_x^-1 w (``flat_distance``).

    Dense BFGS with Armijo backtracking from Y = 0 with the exact gradient on the
    squared distance F(Y) = d_X(o, m exp(Y) o)^2: convex along the flat
    (Bridson-Haefliger II.2) and smooth also on it, so a stationary point is the
    minimum.  It stops at max |grad F| <= ``FLAT_TOL``, after 200 (d-1) iterations,
    when backtracking runs out, or when a step no longer lowers F beyond rounding
    (near a nonzero minimum the gradient cannot reach a small ``FLAT_TOL`` in floating
    point).  A stall away from the flat raises NumericError.
    """
    d = m.shape[-1]
    fg = flat_value_and_grad(m, _zero_sum_basis(d), root_system(d))
    y = np.zeros(d - 1)
    f, g = fg(y)
    h = eye = np.eye(d - 1)
    for it in range(200 * (d - 1)):
        if np.abs(g).max() <= FLAT_TOL:
            break
        p = -(h @ g)
        slope = float(g @ p)
        t = 1.0
        for _ in range(60):
            f_new, g_new = fg(y + t * p)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        s, dg = t * p, g_new - g
        y, f_old, f, g = y + s, f, f_new, g_new
        if f_old - f <= 1e-15 * f_old:
            break
        sy = float(s @ dg)
        if sy > 0.0:
            if it == 0:
                h = h * (sy / float(dg @ dg))
            a = eye - s[:, None] * dg / sy  # outer products s dg^T and s s^T
            h = a @ h @ a.T + s[:, None] * s / sy
    value = math.sqrt(f)
    if value > 1e-3:
        # gradient of the distance itself: grad F / (2 sqrt F)
        grad_norm = float(np.linalg.norm(g)) / (2.0 * value)
        if grad_norm > 1e-4 * max(1.0, value):
            raise NumericError(
                f"flat-distance optimizer did not converge: value {value}, gradient {grad_norm}"
            )
    return value


def decimal_sl2_flat_distance(hinv: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> float:
    """sqrt(2) asinh(|<p, q>| / |det[p q]|) for p = hinv xi and q = hinv eta, evaluated
    at 50 digits from the exact values of the float inputs (asinh r = ln(r + sqrt(r^2 + 1)))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        h = [[decimal.Decimal(float(v)) for v in row] for row in hinv]
        p, q = ([h[i][0] * decimal.Decimal(float(v[0])) + h[i][1] * decimal.Decimal(float(v[1]))
                 for i in range(2)] for v in (xi, eta))
        r = abs(p[0] * q[0] + p[1] * q[1]) / abs(p[0] * q[1] - p[1] * q[0])
        return float(decimal.Decimal(2).sqrt() * (r + (r * r + 1).sqrt()).ln())


def scaled_bfgs_flat_minimum(m: np.ndarray) -> float:
    """``reference_flat_minimum`` with its inverse Hessian started at I / (2k), k the
    Killing scale, and no first-step rescale: exact on a flat through o, where
    F(Y) = k |Y|^2 in the orthonormal zero-sum basis."""
    d = m.shape[-1]
    rs = root_system(d)
    fg = flat_value_and_grad(m, _zero_sum_basis(d), rs)
    y = np.zeros(d - 1)
    f, g = fg(y)
    eye = np.eye(d - 1)
    h = eye / (2.0 * rs.killing_scale)
    for _ in range(200 * (d - 1)):
        if np.abs(g).max() <= FLAT_TOL:
            break
        p = -(h @ g)
        slope = float(g @ p)
        t = 1.0
        for _ in range(60):
            f_new, g_new = fg(y + t * p)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        s, dg = t * p, g_new - g
        y, f_old, f, g = y + s, f, f_new, g_new
        if f_old - f <= 1e-15 * f_old:
            break
        sy = float(s @ dg)
        if sy > 0.0:
            a = eye - s[:, None] * dg / sy  # outer products s dg^T and s s^T
            h = a @ h @ a.T + s[:, None] * s / sy
    value = math.sqrt(f)
    if value > 1e-3:
        # gradient of the distance itself: grad F / (2 sqrt F)
        grad_norm = float(np.linalg.norm(g)) / (2.0 * value)
        if grad_norm > 1e-4 * max(1.0, value):
            raise NumericError(
                f"flat-distance optimizer did not converge: value {value}, gradient {grad_norm}"
            )
    return value
