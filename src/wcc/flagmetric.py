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
from functools import cached_property, partial

import numpy as np

from .errors import (
    LoxodromyError,
    NumericError,
    PreconditionError,
    TransversalityError,
    WccError,
)
from .projections import (
    BasePoint,
    GroupElement,
    TAU_LOX_DEFAULT,
    flag_frame_action,
    iwasawa_cocycle,
    _h_inverse,
    _jordan_solve,
    _so_sign_fix,
)
from .rootsys import root_system

FRAME_ORTHO_TOL = 1e-8
FLAT_TOL = 1e-8  # flat_distance stops at max |grad F| <= FLAT_TOL
FLAT_RESOLUTION = 1e-5  # d >= 3 flat distances are refused where eps s_1 / s_d exceeds this
_NON_REAL = "element has non-real eigenvalues despite loxodromy check"
_SINGULAR_WITNESS = "witness frame is singular"
_R2, _R6 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)
# the columns of the zero-sum basis B of ``_flat_row``, rows (1, -1, 0) / sqrt 2 and (1, 1, -2) / sqrt 6
_ZERO_SUM_COLUMNS = ((_R2, _R6), (-_R2, _R6), (0.0, -2.0 * _R6))


def wedge_coordinates(columns: np.ndarray) -> np.ndarray:
    """Plucker coordinates of the span of k orthonormal columns, over any leading axes.

    Entries are the k x k minors over lexicographically ordered row subsets;
    for orthonormal input the result is a unit vector.
    """
    d, k = columns.shape[-2:]
    if k == 1:
        return columns[..., 0].copy()
    return np.linalg.det(columns[..., list(itertools.combinations(range(d), k)), :])


def _embedded_lines(frames: np.ndarray) -> list[np.ndarray]:
    """``Flag.embedded_lines`` of frames over any leading axes."""
    return [wedge_coordinates(frames[..., :k]) for k in range(1, frames.shape[-1])]


def _perp_lines(frames: np.ndarray) -> list[np.ndarray]:
    """``Flag.perp_lines`` of frames over any leading axes."""
    d = frames.shape[-1]
    return [wedge_coordinates(frames[..., d - k :]) for k in range(1, d)]


class Flag:
    """A full flag, represented by a special-orthogonal frame modulo M."""

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

    @property
    def d(self) -> int:
        return self.frame.shape[0]

    @cached_property
    def embedded_lines(self) -> list[np.ndarray]:
        """Unit wedge of the first k columns, k = 1 .. d-1."""
        return _embedded_lines(self.frame)

    @cached_property
    def perp_lines(self) -> list[np.ndarray]:
        """Unit wedge of the last k columns, k = 1 .. d-1.

        These are the embedded lines of the opposite flag through the origin,
        used by the transversality gauge delta.
        """
        return _perp_lines(self.frame)

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
        # fmin and fmax: a NaN keeps the other operand, as Python's min and max do here
        c = np.fmin(1.0, np.abs(np.vecdot(u, v)))
        worst = np.fmax(worst, np.sqrt(np.fmax(0.0, 1.0 - c * c)))
    return float(worst)


def dist_delta(xi: Flag, eta: Flag) -> float:
    """Transversality gauge: min over k of |<w_k(xi), perp_k(eta)>| in [0, 1]."""
    return float(_delta(xi.embedded_lines, eta.perp_lines))


def _delta(lines, perps):
    """``dist_delta`` from the embedded lines of xi and the perp lines of eta, over any
    leading axes."""
    best = 1.0
    for u, v in zip(lines, perps):
        best = np.fmin(best, np.abs(np.vecdot(u, v)))  # fmin: a NaN keeps best, as min does
    return best


def _dot(u, v) -> float:
    return sum(map(operator.mul, u, v))


def _cross(u, v) -> tuple:
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _sine(u, v) -> float:
    """|u x v| / (|u| |v|): unlike sqrt(1 - c^2) this sine does not cancel for nearby lines."""
    return math.hypot(*_cross(u, v)) / (math.hypot(*u) * math.hypot(*v))


def _so3_flag(first, second) -> tuple:
    """The SO(3) flag of the line of ``first`` in its plane with ``second``: unit line, unit normal."""
    normal = _cross(first, second)
    a, b = math.hypot(*first), math.hypot(*normal)
    return (first[0] / a, first[1] / a, first[2] / a), (normal[0] / b, normal[1] / b, normal[2] / b)


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
    def _of_so_frames(cls, plus: np.ndarray, minus: np.ndarray, delta_value: float) -> TransversePair:
        """The pair of two SO(d) frames whose positive gauge value is known, taken as it is."""
        pair = cls.__new__(cls)
        pair.xi_plus, pair.xi_minus = Flag._of_so_frame(plus), Flag._of_so_frame(minus)
        pair.delta_value = delta_value
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
    d = xi.d
    if x is not None and not np.array_equal(x.h.mat, np.eye(d)):
        xi = xi.translate(_h_inverse(x))
        eta = eta.translate(_h_inverse(x))
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
    lam, is_lox, eig = _jordan_solve(g, TAU_LOX_DEFAULT, vectors=True)
    if not is_lox:
        raise LoxodromyError(f"element is not loxodromic: jordan projection {lam}")
    (plus, minus), real = _eigen_frames(eig[0][None], eig[1][None])
    if not real[0]:
        raise LoxodromyError(_NON_REAL)
    return Flag._of_so_frame(plus[0]), Flag._of_so_frame(minus[0])


def _eigen_frames(eigvals: np.ndarray, eigvecs: np.ndarray):
    """Frames (2, n, d, d) of the forward and backward eigenflags of a stack of eigen-pairs,
    from their real eigenbases by decreasing modulus, gauge-fixed into SO(d) as ``Flag``
    does, and which rows have a real spectrum (the frames of the others are meaningless)."""
    real = np.abs(eigvals.imag).max(axis=-1) <= 1e-8 * np.abs(eigvals).max(axis=-1)
    order = np.argsort(-np.abs(eigvals.real), axis=-1)
    basis = eigvecs.real[np.arange(len(order))[:, None], :, order].swapaxes(1, 2)
    frames = flag_frame_action(np.eye(basis.shape[-1]), np.stack([basis, basis[..., ::-1]]))
    _so_sign_fix(frames)
    return frames, real


# ------------------------------------------------------------------- flats


def _flat_row(m: np.ndarray):
    """F = d_X(o, m o)^2 = k |a - mean(a)|^2, a = log svd(m), its exact gradient and
    Hessian along the zero-sum basis B (of Y in m exp(Y), at Y = 0) and log(s_1 / s_3), for
    one matrix m (3, 3), in floats after the SVD; None where its singular values are not
    finite and nonzero.  With z_ij = B (vh_i * vh_j), d log s_i / dY = z_ii, so
    grad F = 2k sum_i a_i z_ii and Hess F = 2k sum_ij phi(a_i - a_j) z_ij z_ij^T,
    phi(x) = x coth x, phi(0) = 1: at least 2k I, and 2k I on a flat through o.  B has the
    rows (1, -1, 0) / sqrt 2 and (1, 1, -2) / sqrt 6, and z_ij = z_ji."""
    r2, r6, k = _R2, _R6, root_system(3).killing_scale
    _, s, vh = np.linalg.svd(m)
    s = s.tolist()
    if not (s[-1] > 0.0 and all(map(math.isfinite, s))):
        return None
    a = [math.log(v) for v in s]
    a = [v - sum(a) / 3.0 for v in a]
    v = vh.tolist()
    g0 = g1 = h00 = h01 = h11 = 0.0
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        (p0, p1, p2), (q0, q1, q2) = v[i], v[j]
        w0, w1 = p0 * q0, p1 * q1
        z0, z1 = (w0 - w1) * r2, (w0 + w1 - 2.0 * p2 * q2) * r6
        if i == j:
            g0, g1, weight = g0 + a[i] * z0, g1 + a[i] * z1, 1.0
        else:
            diff = a[i] - a[j]
            weight = 2.0 * diff / math.tanh(diff) if diff != 0.0 else 2.0
        h00, h01, h11 = h00 + weight * z0 * z0, h01 + weight * z0 * z1, h11 + weight * z1 * z1
    two_k = 2.0 * k
    return (k * sum(x * x for x in a), [two_k * g0, two_k * g1],
            [[two_k * h00, two_k * h01], [two_k * h01, two_k * h11]], a[0] - a[-1])


def flat_distance(x: BasePoint, pair: TransversePair) -> float:
    """Distance from x to the maximal flat of a transverse pair: the one-row case of
    ``_flat_distances``."""
    value = _flat_distances(x, pair.xi_plus.frame[None], pair.xi_minus.frame[None])[0]
    if isinstance(value, WccError):
        raise value
    return value


def _flat_distances(x: BasePoint, plus: np.ndarray, minus: np.ndarray) -> list:
    """Distance from x to the maximal flat of each pair of a stack (n, d, d) of SO(d)
    frames: per row the distance, or the library error the row raises.  At d = 2 the closed
    form ``_sl2_flat_distances``; at d = 3 ``_flat_minimum`` of m = h_x^-1 w (w at the shared
    origin), w the witness (``_sl3_witness``) of the row's lines and plane normals."""
    if x.d == 2:
        values, singular = _sl2_flat_distances(x, plus, minus)
        return [TransversalityError(_SINGULAR_WITNESS) if bad else value
                for value, bad in zip(values.tolist(), singular.tolist())]
    if x.d != 3:
        raise PreconditionError(f"witness frames are built for d = 2 and 3, got d = {x.d}")
    to_x, rows = np.array if x is BasePoint.origin(3) else partial(np.matmul, _h_inverse(x)), []
    for flags in zip(*(frames[:, :, col].tolist() for frames in (plus, minus) for col in (0, 2))):
        witness, error = _sl3_witness(*flags)
        try:
            rows.append(TransversalityError(error) if error else _flat_minimum(to_x(witness)))
        except WccError as exc:
            rows.append(exc)
    return rows


def _sl2_flat_distances(x: BasePoint, plus: np.ndarray, minus: np.ndarray):
    """Distance from x to the flat of each pair of a stack (n, 2, 2) of SO(2) frames, in
    closed form, and which rows the witness refuses: |det[xi_1 eta_1]| < 1e-12 for the
    first frame columns, the only witness test that unit columns can fail at d = 2.

    The flat is the geodesic of H^2 between the lines of p = h_x^-1 xi_1 and
    q = h_x^-1 eta_1.  Carried by h_x^-1 and a rotation to the geodesic (0, inf), whose
    hyperbolic distance to z is asinh(|Re z| / Im z), its distance to o is
    asinh(|<p, q>| / |det[p q]|) (Beardon, The Geometry of Discrete Groups, ch. 7), and
    d_X = sqrt(2) d_H in the Killing normalisation.
    """
    ends = np.concatenate([plus[:, :, :1], minus[:, :, :1]], axis=2)  # columns xi_1, eta_1
    singular = np.abs(_det2(ends)) < 1e-12
    pq = ends if x is BasePoint.origin(2) else _h_inverse(x) @ ends  # columns p, q
    dot = pq[:, 0, 0] * pq[:, 0, 1] + pq[:, 1, 0] * pq[:, 1, 1]
    det = np.where(singular, 1.0, _det2(pq))  # no division by a refused zero
    return math.sqrt(2.0) * np.arcsinh(np.abs(dot / det)), singular


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack (n, 2, 2), written out: no LU as in ``np.linalg.det``."""
    return m[:, 0, 0] * m[:, 1, 1] - m[:, 1, 0] * m[:, 0, 1]


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
    def evaluate(coords: list):
        y = [_dot(coords, col) for col in _ZERO_SUM_COLUMNS]
        # keep exp() finite during line searches; F is coercive, so a growing
        # penalty outside the window cannot hide the minimum
        if max(map(abs, y)) <= 250.0 and (row := _flat_row(m * np.exp(y))) is not None:
            return row
        return (1e12 + _dot(coords, coords), [2.0 * c for c in coords],
                [[2.0, 0.0], [0.0, 2.0]], math.inf)

    y = [0.0, 0.0]
    f, g, h, spread = evaluate(y)
    for _ in range(400):
        if max(map(abs, g)) <= FLAT_TOL:
            break
        p = [-v for v in _solve(h, g)]
        slope = _dot(g, p)
        t = 1.0
        for _ in range(60):
            trial = [a + t * b for a, b in zip(y, p)]
            f_new, g_new, h_new, spread_new = evaluate(trial)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        y, f_old, f, g, h, spread = trial, f, f_new, g_new, h_new, spread_new
        if f_old - f <= 1e-15 * f_old:
            break
    value = math.sqrt(f)
    if spread > math.log(FLAT_RESOLUTION / np.finfo(float).eps):
        raise NumericError(
            f"flat distance beyond float64 resolution: value {value}, s_1/s_d {np.exp(spread):.3e}")
    if value > 1e-3:
        # gradient of the distance itself: grad F / (2 sqrt F)
        grad_norm = math.hypot(*g) / (2.0 * value)
        if grad_norm > 1e-4 * max(1.0, value):
            raise NumericError(
                f"flat-distance optimizer did not converge: value {value}, gradient {grad_norm}"
            )
    return math.sqrt(max(0.0, f - 0.5 * _dot(g, _solve(h, g))))


def _solve(h, g) -> list:
    """h^-1 g of the 2 x 2 Newton system by Cramer's rule (np.linalg.solve: 6x the time)."""
    ((a, b), (c, d)), (u, v) = h, g
    det = a * d - b * c
    return [(d * u - b * v) / det, (a * v - c * u) / det]


def _fixed_flat_distances(x: BasePoint, eigvals: np.ndarray, eigvecs: np.ndarray) -> list:
    """``flat_distance(x, TransversePair(*fixed flags))`` for a stack of eigen-pairs in one
    stacked pass: per row the distance, or the library error that the per-element path
    (``fixed_points``, ``TransversePair``, ``flat_distance``) raises for it.  The rows
    with a real spectrum and transverse fixed flags go to ``_flat_distances``."""
    (plus, minus), real = _eigen_frames(eigvals, eigvecs)
    delta = _delta(_embedded_lines(plus), _perp_lines(minus))
    rows = [LoxodromyError(_NON_REAL) if not is_real
            else TransversalityError("flag pair is not transverse") if not gauge > 0.0 else None
            for is_real, gauge in zip(real.tolist(), delta.tolist())]
    good = np.array([row is None for row in rows], dtype=bool)
    flats = iter(_flat_distances(x, plus[good], minus[good]))
    return [next(flats) if row is None else row for row in rows]
