"""Full flags of R^d with projective-embedding metrics and Hopf coordinates.

A flag is stored as a special-orthogonal frame, read modulo the finite
gauge group M of determinant-one sign matrices.  The k-th exterior-power
line of the flag is the wedge of the first k frame columns; all metric
quantities are assembled from inner products of such unit wedges, so the
M-gauge drops out through absolute values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    LoxodromyError,
    NumericError,
    PreconditionError,
    TransversalityError,
)
from .projections import (
    BasePoint,
    GroupElement,
    TAU_LOX_DEFAULT,
    cartan_vector,
    flag_frame_action,
    iwasawa_batch,
    iwasawa_cocycle,
    jordan_project,
)
from .rootsys import root_system

FRAME_ORTHO_TOL = 1e-8
TRANSVERSE_TOL_DEFAULT = 1e-9


def wedge_coordinates(columns: np.ndarray) -> np.ndarray:
    """Plucker coordinates of the span of k orthonormal columns.

    Entries are the k x k minors over lexicographically ordered row subsets;
    for orthonormal input the result is a unit vector.
    """
    d, k = columns.shape
    if k == 1:
        return columns[:, 0].copy()
    coords = [np.linalg.det(columns[list(rows), :]) for rows in itertools.combinations(range(d), k)]
    return np.array(coords)


class Flag:
    """A full flag, represented by a special-orthogonal frame modulo M."""

    def __init__(self, frame, check: bool = True):
        frame = np.array(frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
            raise PreconditionError(f"flag frame must be square, got shape {frame.shape}")
        if check:
            gram_err = np.max(np.abs(frame.T @ frame - np.eye(frame.shape[0])))
            if gram_err > FRAME_ORTHO_TOL:
                raise PreconditionError(f"flag frame is not orthonormal (error {gram_err:.2e})")
        if np.linalg.det(frame) < 0:
            # the last column never enters the flag data (k <= d-1), so the
            # sign flip is a pure gauge fix into SO(d)
            frame = frame.copy()
            frame[:, -1] *= -1.0
        self.frame = frame

    @property
    def d(self) -> int:
        return self.frame.shape[0]

    @cached_property
    def embedded_lines(self) -> list[np.ndarray]:
        """Unit wedge of the first k columns, k = 1 .. d-1."""
        return [wedge_coordinates(self.frame[:, :k]) for k in range(1, self.d)]

    @cached_property
    def perp_lines(self) -> list[np.ndarray]:
        """Unit wedge of the last k columns, k = 1 .. d-1.

        These are the embedded lines of the opposite flag through the origin,
        used by the transversality gauge delta.
        """
        return [wedge_coordinates(self.frame[:, self.d - k :]) for k in range(1, self.d)]

    def translate(self, g) -> "Flag":
        mat = g.mat if isinstance(g, GroupElement) else np.asarray(g, dtype=float)
        return Flag(flag_frame_action(mat, self.frame), check=False)

    def __repr__(self):
        return f"Flag({self.frame.tolist()})"


def eta0(d: int) -> Flag:
    """Flag of the identity frame (asymptotic class of the positive chamber)."""
    return Flag(np.eye(d), check=False)


def zeta0(d: int) -> Flag:
    """Opposite standard flag (asymptotic class of the inverted chamber)."""
    return Flag(root_system(d).reversal_frame(), check=False)


# ------------------------------------------------------------------ metrics


def dist_d(xi: Flag, eta: Flag) -> float:
    """Boundary distance: max over k of the sine of the wedge-line angle."""
    worst = 0.0
    for u, v in zip(xi.embedded_lines, eta.embedded_lines):
        c = min(1.0, abs(float(u @ v)))
        worst = max(worst, math.sqrt(max(0.0, 1.0 - c * c)))
    return worst


def dist_delta(xi: Flag, eta: Flag) -> float:
    """Transversality gauge: min over k of |<w_k(xi), perp_k(eta)>| in [0, 1]."""
    best = 1.0
    for u, v in zip(xi.embedded_lines, eta.perp_lines):
        best = min(best, abs(float(u @ v)))
    return best


def is_transverse(xi: Flag, eta: Flag, tol: float = TRANSVERSE_TOL_DEFAULT) -> bool:
    if tol <= 0:
        raise PreconditionError("transversality tolerance must be positive")
    return dist_delta(xi, eta) > tol


def _subspace_intersection_line(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit vector spanning the intersection of span(a) and span(b).

    Both spans must intersect in a line (the transverse configuration);
    detected through the smallest singular value of the stacked system.
    """
    k = a.shape[1]
    system = np.hstack([a, -b])  # d x (d+1): null space is nonempty, and is a
    # line exactly when the system has full rank d (the transverse case)
    _, s, vh = np.linalg.svd(system)
    if s[-1] < 1e-7:
        raise TransversalityError(
            f"subspaces meet in more than a line (d-th singular value {s[-1]:.2e})"
        )
    coeffs = vh[-1, :k]
    v = a @ coeffs
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise TransversalityError("degenerate intersection in witness construction")
    return v / n


def transverse_witness(xi: Flag, eta: Flag) -> GroupElement:
    """Unimodular g with g(eta0, zeta0) = (xi, eta).

    Built column by column: the k-th column spans the line where the k-th
    forward subspace of xi meets the (d-k+1)-th forward subspace of eta.
    """
    d = xi.d
    cols = []
    for k in range(1, d + 1):
        a = xi.frame[:, :k]
        b = eta.frame[:, : d - k + 1]
        cols.append(_subspace_intersection_line(a, b))
    g = np.column_stack(cols)
    det = np.linalg.det(g)
    if abs(det) < 1e-12:
        raise TransversalityError("witness frame is singular")
    if det < 0:
        g[:, -1] *= -1.0
        det = -det
    g = g / det ** (1.0 / d)
    return GroupElement(g, check=False)


@dataclass
class TransversePair:
    """An ordered transverse flag pair with its gauge value and witness."""

    xi_plus: Flag
    xi_minus: Flag
    delta_value: float = field(init=False)

    def __post_init__(self):
        self.delta_value = dist_delta(self.xi_plus, self.xi_minus)
        if self.delta_value <= 0.0:
            raise TransversalityError("flag pair is not transverse")

    @cached_property
    def witness(self) -> GroupElement:
        return transverse_witness(self.xi_plus, self.xi_minus)


# ---------------------------------------------------------- Gromov products


def gromov_product(xi: Flag, eta: Flag, x: BasePoint | None = None) -> np.ndarray:
    """Chamber-valued transversality gauge of a transverse pair seen from x.

    The k-th fundamental weight of the result is -log of a per-factor gauge
    value; the vector is recovered through the prefix-sum basis.  The k-th
    factor couples the k-dimensional part of ``eta`` with the transverse
    (d-k)-dimensional part of ``xi``; with this orientation the translation
    identity (g.xi | g.eta) - (xi | eta) = iota sigma(g,xi) + sigma(g,eta)
    holds exactly (the opposite orientation puts iota on the other summand).
    """
    d = xi.d
    if x is not None and not np.allclose(x.h.mat, np.eye(d)):
        hx_inv = x.h.inverse().mat
        xi = xi.translate(hx_inv)
        eta = eta.translate(hx_inv)
    weights = []
    for u, v in zip(eta.embedded_lines, xi.perp_lines):
        delta_k = abs(float(u @ v))
        if delta_k <= 0.0:
            raise TransversalityError("Gromov product undefined: pair is not transverse")
        weights.append(-math.log(delta_k))
    y = np.empty(d)
    y[0] = weights[0]
    for k in range(1, d - 1):
        y[k] = weights[k] - weights[k - 1]
    y[d - 1] = -weights[d - 2]
    return y


def bms_weight(xi: Flag, eta: Flag, x: BasePoint | None = None) -> float:
    """Inverse conformal density of the pair measure: exp(2 rho(xi|eta)_x) >= 1.

    The exponent is the full sum of positive roots (twice the half-sum), the
    modular character of the Borel subgroup: the same normalization the
    boundary Radon-Nikodym factor needs to preserve total mass, and the one
    that makes the pair measure translation invariant.
    """
    rs = root_system(xi.d)
    y = gromov_product(xi, eta, x)
    return math.exp(float(rs.two_rho @ y))


def rn_derivative(g: GroupElement, xi: Flag) -> float:
    """Radon-Nikodym factor of the translated boundary measure at xi.

    exp(-2 rho sigma(g^-1, xi)): the Poisson kernel of the full flag
    variety.  Averaging it over the rotation-invariant measure returns total
    mass one (the change-of-variables oracle pins the factor two in the
    exponent).
    """
    rs = root_system(g.d)
    sigma = iwasawa_cocycle(g.inverse(), xi)
    return math.exp(-float(rs.two_rho @ sigma))


# -------------------------------------------------------- Hopf coordinates


@dataclass
class HopfPoint:
    pair: TransversePair
    a_coord: np.ndarray


def hopf(g: GroupElement) -> HopfPoint:
    """Hopf coordinates of gM: the flag pair (g eta0, g zeta0) and sigma(g, eta0)."""
    d = g.d
    plus = eta0(d).translate(g)
    minus = zeta0(d).translate(g)
    a = iwasawa_cocycle(g, eta0(d))
    return HopfPoint(TransversePair(plus, minus), a)


def hopf_inverse(point: HopfPoint) -> GroupElement:
    """A representative of the M-coset with the given Hopf coordinates."""
    w = point.pair.witness
    base = iwasawa_cocycle(w, eta0(w.d))
    shift = np.asarray(point.a_coord, dtype=float) - base
    return GroupElement(w.mat @ np.diag(np.exp(shift)), check=False)


def fixed_points(g: GroupElement, tau_lox: float = TAU_LOX_DEFAULT):
    """Attracting and repelling fixed flags of a loxodromic element.

    Computed from the real eigenbasis sorted by decreasing eigenvalue
    modulus; the two flags are the orthonormalized forward and backward
    eigenflags.
    """
    lam, is_lox = jordan_project(g, tau_lox)
    if not is_lox:
        raise LoxodromyError(f"element is not loxodromic: jordan projection {lam}")
    eigvals, eigvecs = np.linalg.eig(g.mat)
    if np.max(np.abs(eigvals.imag)) > 1e-8 * np.max(np.abs(eigvals)):
        raise LoxodromyError("element has non-real eigenvalues despite loxodromy check")
    order = np.argsort(-np.abs(eigvals.real))
    basis = eigvecs.real[:, order]
    plus = Flag(flag_frame_action(np.eye(g.d), basis), check=False)
    minus = Flag(flag_frame_action(np.eye(g.d), basis[:, ::-1]), check=False)
    return plus, minus


# ------------------------------------------------------------------- flats


def _flat_value_and_grad(m: np.ndarray, basis: np.ndarray, rs):
    """F(Y) = d_X(o, m exp(Y) o)^2 = k |a - mean(a)|^2, a = log svd(m exp(Y)), and its
    exact gradient, in the coordinates of Y along ``basis``: ds_i = u_i^T dM v_i gives
    d log s_i / d y_j = vh[i, j]^2, so grad F = 2k (vh^2)^T (a - mean(a)).
    """
    k = rs.killing_scale

    def fg(coords: np.ndarray):
        y = coords @ basis
        # keep exp() finite during line searches; F is coercive, so a growing
        # penalty outside the window cannot hide the minimum
        if np.max(np.abs(y)) <= 250.0:
            _, s, vh = np.linalg.svd(m * np.exp(y)[None, :])
            if np.all(np.isfinite(s)) and s[-1] > 0.0:
                a = np.log(s)
                a -= a.mean()
                return k * float(a @ a), 2.0 * k * (((vh * vh).T @ a) @ basis.T)
        return 1e12 + float(coords @ coords), 2.0 * coords

    return fg


def _flat_objective(m: np.ndarray, basis: np.ndarray, rs):
    """The distance d_X(o, m exp(Y) o) in the coordinates of Y along ``basis``."""
    fg = _flat_value_and_grad(m, basis, rs)
    return lambda coords: math.sqrt(fg(coords)[0])


def _zero_sum_basis(d: int) -> np.ndarray:
    """Euclidean-orthonormal basis rows of the zero-sum subspace."""
    basis = []
    for k in range(1, d):
        v = np.zeros(d)
        v[:k] = 1.0
        v[k] = -float(k)
        basis.append(v / np.linalg.norm(v))
    return np.array(basis)


def flat_distance(x: BasePoint, pair: TransversePair, tol: float = 1e-8) -> float:
    """Distance from x to the maximal flat of a transverse pair.

    Dense BFGS with Armijo backtracking from Y = 0 with the exact gradient on the
    squared distance F(Y) = d_X(x, w exp(Y) o)^2, w the witness of the pair: convex
    along the flat (Bridson-Haefliger II.2) and smooth also on it, so a stationary
    point is the minimum.  It stops at max |grad F| <= ``tol``, after 200 (d-1)
    iterations, when backtracking runs out, or when a step no longer lowers F
    beyond rounding (near a nonzero minimum the gradient cannot reach a small
    ``tol`` in floating point).  A stall away from the flat raises NumericError.
    """
    d = x.d
    m = x.h.inverse().mat @ pair.witness.mat
    fg = _flat_value_and_grad(m, _zero_sum_basis(d), root_system(d))
    y = np.zeros(d - 1)
    f, g = fg(y)
    h = np.eye(d - 1)
    for it in range(200 * (d - 1)):
        if np.max(np.abs(g)) <= tol:
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
                h *= sy / float(dg @ dg)
            a = np.eye(d - 1) - np.outer(s, dg) / sy
            h = a @ h @ a.T + np.outer(s, s) / sy
    value = math.sqrt(f)
    if value > 1e-3:
        # gradient of the distance itself: grad F / (2 sqrt F)
        grad_norm = float(np.linalg.norm(g)) / (2.0 * value)
        if grad_norm > 1e-4 * max(1.0, value):
            raise NumericError(
                f"flat-distance optimizer did not converge: value {value}, gradient {grad_norm}"
            )
    return value
