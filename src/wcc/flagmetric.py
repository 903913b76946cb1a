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
from functools import cached_property, lru_cache

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
    return float(_dist_d(xi.embedded_lines, eta.embedded_lines))


def _dist_d(lines, others):
    """``dist_d`` from the embedded lines of xi and of eta, over any leading axes."""
    worst = 0.0
    for u, v in zip(lines, others):
        # fmin and fmax: a NaN keeps the other operand, as Python's min and max do here
        c = np.fmin(1.0, np.abs(np.vecdot(u, v)))
        worst = np.fmax(worst, np.sqrt(np.fmax(0.0, 1.0 - c * c)))
    return worst


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


def _witness_frames(plus: np.ndarray, minus: np.ndarray):
    """Transverse witnesses of stacked SO(d) frame pairs (n, d, d), d = 2 or 3, and per
    row the message of the TransversalityError that row raises instead (None where it
    has a witness).

    Column k spans the line where the k-th forward subspace of ``plus`` meets the
    (d-k+1)-th forward subspace of ``minus`` (the null line of the d x (d+1) system
    [a, -b]): p_1, at d = 3 the line p_3 x m_3 where the planes normal to p_3 and m_3
    meet, and m_1.  Only that middle system [p_1 p_2 -m_1 -m_2] can lose rank; its d-th
    singular value is s = |p_3 x m_3| / sqrt(1 + |<p_3, m_3>|), from the eigenvalues of
    2I - p_3 p_3^T - m_3 m_3^T, and unlike sqrt(1 - |<p_3, m_3>|) it does not cancel.
    """
    n, d = plus.shape[:2]
    if d not in (2, 3):
        raise PreconditionError(f"witness frames are built for d = 2 and 3, got d = {d}")
    g, s = np.empty((n, d, d)), np.ones(n)
    g[:, :, 0], g[:, :, -1] = plus[:, :, 0], minus[:, :, 0]
    if d == 3:
        p, m = plus[:, :, 2], minus[:, :, 2]
        line = p[:, [1, 2, 0]] * m[:, [2, 0, 1]] - p[:, [2, 0, 1]] * m[:, [1, 2, 0]]  # p x m
        norm = np.sqrt(np.vecdot(line, line))
        s = norm / np.sqrt(1.0 + np.abs(np.vecdot(p, m)))
        g[:, :, 1] = line / np.maximum(norm, 1e-300)[:, None]
    errors, scale = [], np.ones(n)
    for i, (det, row_s) in enumerate(zip(np.linalg.det(g), s.tolist())):
        if row_s < 1e-7:
            errors.append(f"subspaces meet in more than a line (d-th singular value {row_s:.2e})")
        elif abs(det) < 1e-12:
            errors.append(_SINGULAR_WITNESS)
        else:
            errors.append(None)
            if det < 0:
                g[i, :, -1] *= -1.0
            scale[i] = abs(det) ** (1.0 / d)  # a scalar power: the array power rounds differently
    g /= scale[:, None, None]
    return g, errors


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


def _eigen_basis(eigvals: np.ndarray, eigvecs: np.ndarray):
    """Real eigenbases of a stack (n, d), (n, d, d) of eigen-pairs, by decreasing modulus,
    and which rows have a real spectrum (the bases of the others are meaningless)."""
    real = np.abs(eigvals.imag).max(axis=-1) <= 1e-8 * np.abs(eigvals).max(axis=-1)
    order = np.argsort(-np.abs(eigvals.real), axis=-1)
    return eigvecs.real[np.arange(len(order))[:, None], :, order].swapaxes(1, 2), real


def _eigen_frames(eigvals: np.ndarray, eigvecs: np.ndarray):
    """Frames (2, n, d, d) of the forward and backward eigenflags of a stack of eigen-pairs,
    gauge-fixed into SO(d) as ``Flag`` does, and which rows have a real spectrum."""
    basis, real = _eigen_basis(eigvals, eigvecs)
    frames = flag_frame_action(np.eye(basis.shape[-1]), np.stack([basis, basis[..., ::-1]]))
    _so_sign_fix(frames)
    return frames, real


# ------------------------------------------------------------------- flats


def _flat_row(m: np.ndarray):
    """F = d_X(o, m o)^2 = k |a - mean(a)|^2, a = log svd(m), its exact gradient and
    Hessian along the zero-sum basis (of Y in m exp(Y), at Y = 0) and log(s_1 / s_d), for
    one matrix m (d, d); None where its singular values are not finite and nonzero.  With
    z_ij = (vh_i * vh_j) @ basis^T, d log s_i / dY = z_ii, so grad F = 2k sum_i a_i z_ii
    and Hess F = 2k sum_ij phi(a_i - a_j) z_ij z_ij^T, phi(x) = x coth x, phi(0) = 1: at
    least 2k I, and 2k I on a flat through o."""
    d = m.shape[-1]
    basis, k = _zero_sum_basis(d), root_system(d).killing_scale
    _, s, vh = np.linalg.svd(m)
    if not (s[-1] > 0.0 and np.isfinite(s).all()):
        return None
    a = np.log(s)
    a -= a.sum() / d  # np.mean, without its overhead
    z = (vh[:, None] * vh).reshape(d * d, d) @ basis.T  # row i d + j is z_ij, z_ii every (d+1)-th
    diff = (a[:, None] - a).ravel()
    phi = np.divide(diff, np.tanh(diff), out=np.ones_like(diff), where=diff != 0.0)
    return (k * float(a @ a), 2.0 * k * (a @ z[:: d + 1]), 2.0 * k * (z.T @ (phi[:, None] * z)),
            float(a[0] - a[-1]))


@lru_cache(maxsize=None)
def _zero_sum_basis(d: int) -> np.ndarray:
    """Euclidean-orthonormal basis rows of the zero-sum subspace, read-only, once per d."""
    k = np.arange(1, d)
    basis = np.tri(d - 1, d)  # row k - 1 is (1, ..., 1, -k, 0, ..., 0) with k ones, normalised
    basis[k - 1, k] = -k
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    basis.flags.writeable = False
    return basis


def flat_distance(x: BasePoint, pair: TransversePair) -> float:
    """Distance from x to the maximal flat of a transverse pair: the one-row case of
    ``_flat_distances``."""
    value = _flat_distances(x, pair.xi_plus.frame[None], pair.xi_minus.frame[None])[0]
    if isinstance(value, WccError):
        raise value
    return value


def _flat_distances(x: BasePoint, plus: np.ndarray, minus: np.ndarray) -> list:
    """Distance from x to the maximal flat of each pair of a stack (n, d, d) of SO(d)
    frames: per row the distance, or the library error the row raises.  At d = 2 the
    closed form ``_sl2_flat_distances``; at d >= 3 ``_flat_minimum`` of m = h_x^-1 w,
    w the row's witness (``_witness_frames``)."""
    if x.d == 2:
        values, singular = _sl2_flat_distances(x, plus, minus)
        return [TransversalityError(_SINGULAR_WITNESS) if bad else value
                for value, bad in zip(values.tolist(), singular.tolist())]
    witness, errors = _witness_frames(plus, minus)
    hinv, rows = _h_inverse(x), []
    for w, error in zip(witness, errors):
        try:
            rows.append(TransversalityError(error) if error else _flat_minimum(hinv @ w))
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
    pq = _h_inverse(x) @ ends  # columns p, q
    dot = pq[:, 0, 0] * pq[:, 0, 1] + pq[:, 1, 0] * pq[:, 1, 1]
    det = np.where(singular, 1.0, _det2(pq))  # no division by a refused zero
    return math.sqrt(2.0) * np.arcsinh(np.abs(dot / det)), singular


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack (n, 2, 2), written out: no LU as in ``np.linalg.det``."""
    return m[:, 0, 0] * m[:, 1, 1] - m[:, 1, 0] * m[:, 0, 1]


def _flat_minimum(m: np.ndarray) -> float:
    """Distance from the origin to the flat m A o, for m = h_x^-1 w (``flat_distance``).

    Newton's method with Armijo backtracking from Y = 0 on F(Y) = d_X(o, m exp(Y) o)^2,
    from the exact gradient and Hessian of ``_flat_row``: F is convex along the flat
    (Bridson-Haefliger II.2) and smooth also on it, so a stationary point is the minimum.
    It stops at max |grad F| <= ``FLAT_TOL``, after 200 (d-1) iterations, when
    backtracking runs out, or when a step no longer lowers F beyond rounding, and returns
    sqrt(F - g^T H^-1 g / 2): less the decrease one more step predicts, to third order.
    A stall away from the flat raises NumericError, and so does a point where
    eps s_1 / s_d exceeds ``FLAT_RESOLUTION``, as the float64 SVD resolves s_d only to
    that relative: for one seeded d = 3 pair and x = exp(diag(e, -e/2, -e/2) ln 10),
    e = 2 .. 9, the value was within 0.05 eps s_1 / s_d of a 60-digit SVD (1.8e-14 at
    e = 2, d_X(o, x) = 13.8; 6.4e-8 at e = 6), and it is refused from e = 7.
    """
    d = m.shape[-1]
    basis = _zero_sum_basis(d)

    def evaluate(coords: np.ndarray):
        y = coords @ basis
        # keep exp() finite during line searches; F is coercive, so a growing
        # penalty outside the window cannot hide the minimum
        if np.abs(y).max() <= 250.0 and (row := _flat_row(m * np.exp(y))) is not None:
            return row
        return 1e12 + float(coords @ coords), 2.0 * coords, 2.0 * np.eye(d - 1), math.inf

    y = np.zeros(d - 1)
    f, g, h, spread = evaluate(y)
    for _ in range(200 * (d - 1)):
        if np.abs(g).max() <= FLAT_TOL:
            break
        p = -_solve(h, g)
        slope = float(g @ p)
        t = 1.0
        for _ in range(60):
            f_new, g_new, h_new, spread_new = evaluate(y + t * p)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        y, f_old, f, g, h, spread = y + t * p, f, f_new, g_new, h_new, spread_new
        if f_old - f <= 1e-15 * f_old:
            break
    value = math.sqrt(f)
    if spread > math.log(FLAT_RESOLUTION / np.finfo(float).eps):
        raise NumericError(
            f"flat distance beyond float64 resolution: value {value}, s_1/s_d {np.exp(spread):.3e}")
    if value > 1e-3:
        # gradient of the distance itself: grad F / (2 sqrt F)
        grad_norm = float(np.linalg.norm(g)) / (2.0 * value)
        if grad_norm > 1e-4 * max(1.0, value):
            raise NumericError(
                f"flat-distance optimizer did not converge: value {value}, gradient {grad_norm}"
            )
    return math.sqrt(max(0.0, f - 0.5 * float(g @ _solve(h, g))))


def _solve(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """h^-1 g for the 1 x 1 and 2 x 2 Newton systems of d = 2, 3, by Cramer's rule: on one
    2 x 2 system ``np.linalg.solve`` costs about six times as much."""
    if len(g) == 1:
        return g / h[0, 0]
    (a, b), (c, d) = h.tolist()
    u, v = g.tolist()
    det = a * d - b * c
    return np.array([(d * u - b * v) / det, (a * v - c * u) / det])


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
