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
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LoxodromyError, NumericError, PreconditionError, TransversalityError, WccError
from . import projections as pj
from .projections import (
    BasePoint,
    GroupElement,
    TAU_LOX_DEFAULT,
    flag_frame_action,
    iwasawa_cocycle,
    _jordan_solve,
    _so_sign_fix,
)
from .rootsys import root_system

FRAME_ORTHO_TOL = 1e-8
FLAT_TOL = 1e-8  # flat_distance stops at max |grad F| <= FLAT_TOL
FLAT_RESOLUTION = 1e-5  # d >= 3 flat distances are refused where eps s_1 / s_d exceeds this
_MAX_SPREAD = math.log(FLAT_RESOLUTION / np.finfo(float).eps)  # the log(s_1 / s_d) of that refusal
_NON_REAL = "element has non-real eigenvalues despite loxodromy check"
_SINGULAR_WITNESS = "witness frame is singular"
_R2, _R6 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)


def wedge_coordinates(columns: np.ndarray) -> np.ndarray:
    """Plucker coordinates of the span of k orthonormal columns, over any leading axes.

    Entries are the k x k minors over lexicographically ordered row subsets;
    for orthonormal input the result is a unit vector.
    """
    d, k = columns.shape[-2:]
    if k == 1:
        return columns[..., 0].copy()
    return np.linalg.det(columns[..., list(itertools.combinations(range(d), k)), :])


class Flag:
    """A full flag, represented by a special-orthogonal frame modulo M.  A d = 3 flag built
    from its unit line and plane normal (``_of_lines``) builds its frame when it is read."""

    def __init__(self, frame, check: bool = True):
        frame = np.array(frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] != frame.shape[1]:
            raise PreconditionError(f"flag frame must be square, got shape {frame.shape}")
        if check:
            if not np.isfinite(frame).all():
                raise PreconditionError(f"flag frame entries must be finite, got {frame[~np.isfinite(frame)][0]}")
            gram_err = np.abs(frame.T @ frame - np.eye(frame.shape[0])).max()
            if gram_err > FRAME_ORTHO_TOL:
                raise PreconditionError(f"flag frame is not orthonormal (error {gram_err:.2e})")
        _so_sign_fix(frame)  # the last column never enters the flag data: a pure gauge fix
        self.frame = frame

    @classmethod
    def _of_so_frame(cls, frame: np.ndarray) -> Flag:
        """The flag of a frame already gauge-fixed into SO(d), taken as it is."""
        flag = cls.__new__(cls)
        flag.frame = frame
        return flag

    @classmethod
    def _of_lines(cls, line, normal) -> Flag:
        """The d = 3 flag of a unit line in the plane of a unit normal orthogonal to it."""
        flag = cls.__new__(cls)
        flag.lines = line, normal
        return flag

    @cached_property
    def frame(self) -> np.ndarray:
        line, normal = self.lines
        return np.array([line, _cross(normal, line), normal]).T

    @cached_property
    def lines(self) -> tuple:
        """The first and last frame columns: at d = 3 the unit line and plane normal."""
        return self.frame[:, 0].tolist(), self.frame[:, -1].tolist()

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
        if mat.shape != self.frame.shape:
            raise PreconditionError(f"a flag of R^{self.d} needs a {self.d} x {self.d} matrix, got shape {mat.shape}")
        return Flag._of_so_frame(flag_frame_action(mat, self.frame))

    def __repr__(self):
        return f"Flag({self.frame.tolist()})"


def eta0(d: int) -> Flag:
    """Flag of the identity frame (asymptotic class of the positive chamber)."""
    return Flag(np.eye(d), check=False)


def zeta0(d: int) -> Flag:
    """Opposite standard flag (asymptotic class of the inverted chamber)."""
    return Flag(root_system(d).reversal_frame(), check=False)


# ------------------------------------------------------------------ metrics


def _pair_dimension(xi: Flag, eta: Flag) -> int:
    """The dimension of two flags of one R^d; flags of two dimensions are refused."""
    if xi.d != eta.d:
        raise PreconditionError(f"a flag pair needs flags of one dimension, got R^{xi.d} and R^{eta.d}")
    return xi.d


def dist_d(xi: Flag, eta: Flag) -> float:
    """Boundary distance: max over k of the sine of the wedge-line angle."""
    worst, _ = 0.0, _pair_dimension(xi, eta)
    for u, v in zip(xi.embedded_lines, eta.embedded_lines):
        # fmin and fmax: a NaN keeps the other operand, as Python's min and max do here
        c = np.fmin(1.0, np.abs(np.vecdot(u, v)))
        worst = np.fmax(worst, np.sqrt(np.fmax(0.0, 1.0 - c * c)))
    return float(worst)


def dist_delta(xi: Flag, eta: Flag) -> float:
    """Transversality gauge: min over k of |<w_k(xi), perp_k(eta)>| in [0, 1]."""
    best, _ = 1.0, _pair_dimension(xi, eta)
    for u, v in zip(xi.embedded_lines, eta.perp_lines):
        best = np.fmin(best, np.abs(np.vecdot(u, v)))  # fmin: a NaN keeps best, as min does
    return float(best)


def _dot(u, v) -> float:
    return sum(map(operator.mul, u, v))


def _cross(u, v) -> tuple:
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _sine(u, v) -> float:
    """|u x v| / (|u| |v|): unlike sqrt(1 - c^2) this sine does not cancel for nearby lines."""
    return math.hypot(*_cross(u, v)) / (math.hypot(*u) * math.hypot(*v))


def _sl3_witness(p1, p3, m1, m3):
    """The witness of one SO(3) flag pair (unit lines p1, m1, unit plane normals p3, m3) as
    the rows of a 3 x 3 matrix, or None and the message of the TransversalityError it raises.
    Column k spans the line where the k-th forward subspace of the first flag meets the
    (4-k)-th of the second: p_1, the line p_3 x m_3 where the planes meet, and m_1, with the
    sign of the determinant on m_1 and its cube root off all three.  Only the middle system
    [p_1 p_2 -m_1 -m_2] can lose rank; its third singular value is |p_3 x m_3| /
    sqrt(1 + |<p_3, m_3>|), which unlike sqrt(1 - |<p_3, m_3>|) does not cancel."""
    line = _cross(p3, m3)
    norm = math.hypot(*line)
    s = norm / math.sqrt(1.0 + abs(_dot(p3, m3)))
    if s < 1e-7:
        return None, f"subspaces meet in more than a line (d-th singular value {s:.2e})"
    det = _dot(_cross(p1, line), m1) / norm  # of the columns p_1, line / norm, m_1
    if abs(det) < 1e-12:
        return None, _SINGULAR_WITNESS
    scale = abs(det) ** (1.0 / 3.0)
    return [[p1[i] / scale, line[i] / norm / scale, m1[i] / math.copysign(scale, det)] for i in range(3)], None


@dataclass
class TransversePair:
    """An ordered transverse flag pair with its gauge value."""

    xi_plus: Flag
    xi_minus: Flag
    delta_value: float = field(init=False)

    def __post_init__(self):
        self.delta_value = dist_delta(self.xi_plus, self.xi_minus)
        if self.delta_value <= 0.0:
            raise TransversalityError("flag pair is not transverse")

    @classmethod
    def _of_flags(cls, plus: Flag, minus: Flag, delta_value: float) -> TransversePair:
        """The pair of two flags whose positive gauge value is known, taken as it is."""
        pair = cls.__new__(cls)
        pair.xi_plus, pair.xi_minus, pair.delta_value = plus, minus, delta_value
        return pair


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
    d = _pair_dimension(xi, eta)
    if x is not None and not np.array_equal(x.h.mat, np.eye(d)):
        xi = xi.translate(x.h_inverse)
        eta = eta.translate(x.h_inverse)
    weights = []
    for u, v in zip(eta.embedded_lines, xi.perp_lines):
        delta_k = abs(float(u @ v))
        if delta_k <= 0.0:
            raise TransversalityError("Gromov product undefined: pair is not transverse")
        weights.append(-math.log(delta_k))
    return np.diff([0.0, *weights, -0.0])  # y_k = w_k - w_{k-1}; -0.0 - w is -w also at w = 0


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


def fixed_points(g: GroupElement):
    """Attracting and repelling fixed flags of a loxodromic element.

    Computed from the real eigenbasis sorted by decreasing eigenvalue modulus;
    the two flags are the orthonormalized forward and backward eigenflags.  The
    loxodromy test (at ``TAU_LOX_DEFAULT``) reads the same eigen-solve.
    """
    lam, is_lox, (eigvals, eigvecs) = _jordan_solve(g, TAU_LOX_DEFAULT, vectors=True)
    if not is_lox:
        raise LoxodromyError(f"element is not loxodromic: jordan projection {lam}")
    if not np.abs(eigvals.imag).max() <= 1e-8 * np.abs(eigvals).max():
        raise LoxodromyError(_NON_REAL)
    basis = eigvecs.real[:, np.argsort(-np.abs(eigvals.real))]  # by decreasing modulus
    plus, minus = flag_frame_action(np.eye(g.d), np.stack([basis, basis[:, ::-1]]))  # in SO(d)
    return Flag._of_so_frame(plus), Flag._of_so_frame(minus)


# ------------------------------------------------------------------- flats


def _flat_row(m: np.ndarray):
    """F = d_X(o, m o)^2 = k |a - mean(a)|^2, a = log svd(m), its exact gradient and
    Hessian along the zero-sum basis B (of Y in m exp(Y), at Y = 0) and log(s_1 / s_3), for
    one matrix m (3, 3), in floats after the SVD; None where its singular values are not
    finite and nonzero.  With z_ij = B (vh_i * vh_j), d log s_i / dY = z_ii, so
    grad F = 2k sum_i a_i z_ii and Hess F = 2k sum_ij phi(a_i - a_j) z_ij z_ij^T,
    phi(x) = x coth x, phi(0) = 1: at least 2k I, and 2k I on a flat through o.  B has the
    rows (1, -1, 0) / sqrt 2 and (1, 1, -2) / sqrt 6, and z_ij = z_ji."""
    r2, r6, k = _R2, _R6, 6.0  # the d = 3 Killing scale 2d
    _, s, vh = pj._lapack("svd_f", m)
    s = s.tolist()
    if not (s[-1] > 0.0 and all(map(math.isfinite, s))):
        return None
    l0, l1, l2 = logs = [math.log(v) for v in s]
    mean = sum(logs) / 3.0
    a0, a1, a2 = l0 - mean, l1 - mean, l2 - mean
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = vh.tolist()  # z_ij from p = v_i0 v_j0, q = v_i1 v_j1
    x0, y0 = ((p := u0 * u0) - (q := u1 * u1)) * r2, (p + q - 2.0 * u2 * u2) * r6
    x1, y1 = ((p := v0 * v0) - (q := v1 * v1)) * r2, (p + q - 2.0 * v2 * v2) * r6
    x2, y2 = ((p := w0 * w0) - (q := w1 * w1)) * r2, (p + q - 2.0 * w2 * w2) * r6
    x01, y01 = ((p := u0 * v0) - (q := u1 * v1)) * r2, (p + q - 2.0 * u2 * v2) * r6
    x02, y02 = ((p := u0 * w0) - (q := u1 * w1)) * r2, (p + q - 2.0 * u2 * w2) * r6
    x12, y12 = ((p := v0 * w0) - (q := v1 * w1)) * r2, (p + q - 2.0 * v2 * w2) * r6
    e01, e02, e12 = [2.0 * e / math.tanh(e) if e != 0.0 else 2.0 for e in (a0 - a1, a0 - a2, a1 - a2)]
    g0, g1 = 0.0 + a0 * x0 + a1 * x1 + a2 * x2, 0.0 + a0 * y0 + a1 * y1 + a2 * y2
    h00 = 0.0 + x0 * x0 + x1 * x1 + x2 * x2 + e01 * x01 * x01 + e02 * x02 * x02 + e12 * x12 * x12
    h01 = 0.0 + x0 * y0 + x1 * y1 + x2 * y2 + e01 * x01 * y01 + e02 * x02 * y02 + e12 * x12 * y12
    h11 = 0.0 + y0 * y0 + y1 * y1 + y2 * y2 + e01 * y01 * y01 + e02 * y02 * y02 + e12 * y12 * y12
    two_k = 2.0 * k
    return (k * sum((a0 * a0, a1 * a1, a2 * a2)), [two_k * g0, two_k * g1],
            [[two_k * h00, two_k * h01], [two_k * h01, two_k * h11]], a0 - a2)


def flat_distance(x: BasePoint, pair: TransversePair) -> float:
    """Distance from x to the maximal flat of a transverse pair: at d = 3 ``_sl3_flat_distance``
    of its lines and plane normals, at d = 2 ``_sl2_flat_distance`` of its lines."""
    plus, minus = pair.xi_plus, pair.xi_minus
    d = len(plus.lines[0])  # from the lines: a d = 3 flag built from its lines builds no frame
    if d != x.d:
        raise PreconditionError(f"flags of R^{d} need a base point of that dimension, got d = {x.d}")
    if d == 3:
        value = _sl3_flat_distance(x, *plus.lines, *minus.lines)
    elif d == 2:
        value = _sl2_flat_distance(x, plus.lines[0], minus.lines[0])
    else:
        raise PreconditionError(f"witness frames are built for d = 2 and 3, got d = {d}")
    if isinstance(value, WccError):
        raise value
    return value


def _sl3_flat_distance(x: BasePoint, p1, p3, m1, m3):
    """Distance from x to the flat of one SO(3) flag pair (unit lines p1, m1, plane normals p3, m3), or
    the library error it raises: ``_flat_minimum`` of h_x^-1 w (w at the origin), w its witness."""
    witness, error = _sl3_witness(p1, p3, m1, m3)
    if error:
        return TransversalityError(error)
    try:
        return _flat_minimum(np.array(witness) if x is BasePoint.origin(3) else x.h_inverse @ witness)
    except WccError as exc:
        return exc


def _sl2_flat_distance(x: BasePoint, xi, eta):
    """Distance from x to the flat of one SO(2) flag pair (unit lines xi, eta) in closed form, or
    the TransversalityError of the witness: |det[xi eta]| < 1e-12, the only witness test that
    unit lines can fail at d = 2.

    The flat is the geodesic of H^2 between the lines of p = h_x^-1 xi and q = h_x^-1 eta.
    Carried by h_x^-1 and a rotation to the geodesic (0, inf), whose hyperbolic distance to z
    is asinh(|Re z| / Im z), its distance to o is asinh(|<p, q>| / |det[p q]|) (Beardon, The
    Geometry of Discrete Groups, ch. 7), and d_X = sqrt(2) d_H in the Killing normalisation.
    """
    ends = np.array([[xi[0], eta[0]], [xi[1], eta[1]]])  # columns xi, eta
    if abs(xi[0] * eta[1] - xi[1] * eta[0]) < 1e-12:
        return TransversalityError(_SINGULAR_WITNESS)
    (p0, q0), (p1, q1) = (ends if x is BasePoint.origin(2) else x.h_inverse @ ends).tolist()
    return math.sqrt(2.0) * float(np.arcsinh(abs((p0 * q0 + p1 * q1) / (p0 * q1 - p1 * q0))))


def _flat_minimum(m: np.ndarray) -> float:
    """Distance from the origin to the flat m A o, for m = h_x^-1 w (``flat_distance``).

    Newton's method with Armijo backtracking from Y = 0 on F(Y) = d_X(o, m exp(Y) o)^2,
    in floats from the exact gradient and Hessian of ``_flat_row``: F is convex along the
    flat (Bridson-Haefliger II.2) and smooth also on it, so a stationary point is the
    minimum.  It stops at max |grad F| <= ``FLAT_TOL``, after 400 iterations, when
    backtracking runs out, or when a step no longer lowers F beyond rounding, and returns
    sqrt(F - g^T H^-1 g / 2): less the decrease one more step predicts, to third order.
    A stall away from the flat raises NumericError, and so does a point where
    eps s_1 / s_d exceeds ``FLAT_RESOLUTION``, as the float64 SVD resolves s_d only to
    that relative: for one seeded d = 3 pair and x = exp(diag(e, -e/2, -e/2) ln 10),
    e = 2 .. 9, the value was within 0.05 eps s_1 / s_d of a 60-digit SVD (1.8e-14 at
    e = 2, d_X(o, x) = 13.8; 6.4e-8 at e = 6), and it is refused from e = 7.
    """
    def evaluate(c0, c1):
        y0, y1, y2 = c0 * _R2 + c1 * _R6, c1 * _R6 - c0 * _R2, c1 * (-2.0 * _R6)  # Y = B^T c, B of ``_flat_row``
        # keep exp() finite during line searches; F is coercive, so a growing
        # penalty outside the window cannot hide the minimum
        if max(abs(y0), abs(y1), abs(y2)) <= 250.0 and (row := _flat_row(m * np.exp((y0, y1, y2)))):
            return row
        return 1e12 + (c0 * c0 + c1 * c1), (2.0 * c0, 2.0 * c1), ((2.0, 0.0), (0.0, 2.0)), math.inf

    y0 = y1 = 0.0
    if (row := _flat_row(m)) is None:  # s_d of m itself is 0 or not finite: no step can start
        s = pj._lapack("svd_f", m)[1]  # that SVD again, bit for bit, for the refusal to name
        raise NumericError(f"flat distance beyond float64 resolution: s_1 {s[0]:.3e}, s_d {s[-1]:.3e}")
    f, (g0, g1), h, spread = row
    for _ in range(400):
        if max(abs(g0), abs(g1)) <= FLAT_TOL:
            break
        p0, p1 = _solve(h, -g0, -g1)
        slope = g0 * p0 + g1 * p1
        t = 1.0
        for _ in range(60):
            trial = y0 + t * p0, y1 + t * p1
            f_new, g_new, h_new, spread_new = evaluate(*trial)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        (y0, y1), f_old, f, (g0, g1), h, spread = trial, f, f_new, g_new, h_new, spread_new
        if f_old - f <= 1e-15 * f_old:
            break
    value = math.sqrt(f)
    if spread > _MAX_SPREAD:
        raise NumericError(
            f"flat distance beyond float64 resolution: value {value}, s_1/s_d {np.exp(spread):.3e}")
    if value > 1e-3:
        # gradient of the distance itself: grad F / (2 sqrt F)
        grad_norm = math.hypot(g0, g1) / (2.0 * value)
        if grad_norm > 1e-4 * max(1.0, value):
            raise NumericError(
                f"flat-distance optimizer did not converge: value {value}, gradient {grad_norm}"
            )
    return math.sqrt(max(0.0, f - 0.5 * _dot((g0, g1), _solve(h, g0, g1))))


def _solve(h, u, v) -> tuple:
    """h^-1 (u, v) of the 2 x 2 Newton system by Cramer's rule (np.linalg.solve: 6x the time)."""
    (a, b), (c, d) = h
    det = a * d - b * c
    return (d * u - b * v) / det, (a * v - c * u) / det
