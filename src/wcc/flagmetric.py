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


def _flat_objective(m: np.ndarray, basis: np.ndarray, rs):
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

    Minimizes d_X(x, w exp(Y) o) over the Cartan subspace, where w is the
    witness of the pair: coarse grid seeding, Nelder-Mead, then a BFGS
    polish away from the non-smooth zero of the norm.
    """
    import scipy.optimize

    d = x.d
    rs = root_system(d)
    w = pair.witness
    m = x.h.inverse().mat @ w.mat
    basis = _zero_sum_basis(d)
    f = _flat_objective(m, basis, rs)

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
