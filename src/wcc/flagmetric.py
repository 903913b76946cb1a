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
_NON_REAL = "element has non-real eigenvalues despite loxodromy check"


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
        if np.linalg.det(frame) < 0:
            # the last column never enters the flag data (k <= d-1), so the
            # sign flip is a pure gauge fix into SO(d)
            frame = frame.copy()
            frame[:, -1] *= -1.0
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
        c = min(1.0, abs(float(u @ v)))
        worst = max(worst, math.sqrt(max(0.0, 1.0 - c * c)))
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
    """Transverse witnesses of stacked frame pairs (n, d, d), and per row the message
    of the TransversalityError that row raises instead (None where it has a witness).

    Column k spans the line where the k-th forward subspace of ``plus`` meets the
    (d-k+1)-th forward subspace of ``minus``: the null line of the d x (d+1) system
    [a, -b], which is a line exactly when the system has full rank d.
    """
    n, d = plus.shape[:2]
    # the d systems of every row, each gathered from the columns of [plus, -minus], in one SVD
    cols = [j for k in range(1, d + 1) for j in (*range(k), *range(d, 2 * d - k + 1))]
    systems = np.concatenate([plus, -minus], axis=2)[:, :, cols].reshape(n, d, d, d + 1)
    _, s, vh = np.linalg.svd(systems.swapaxes(1, 2))
    s_min, g, norms = s[..., -1], np.empty((n, d, d)), np.empty((n, d))
    for k in range(1, d + 1):
        v = (plus[:, :, :k] @ vh[:, k - 1, -1, :k, None])[..., 0]
        norms[:, k - 1] = np.sqrt(np.vecdot(v, v))  # np.linalg.norm per row
        g[:, :, k - 1] = v
    g /= np.maximum(norms, 1e-300)[:, None, :]
    errors, scale = [], np.ones(n)
    for i, (det, row_s, row_n) in enumerate(zip(np.linalg.det(g), s_min.tolist(), norms.tolist())):
        k = next((k for k in range(d) if row_s[k] < 1e-7 or row_n[k] < 1e-12), None)
        if k is not None:
            errors.append(f"subspaces meet in more than a line (d-th singular value {row_s[k]:.2e})"
                          if row_s[k] < 1e-7 else "degenerate intersection in witness construction")
        elif abs(det) < 1e-12:
            errors.append("witness frame is singular")
        else:
            errors.append(None)
            if det < 0:
                g[i, :, -1] *= -1.0
            scale[i] = abs(det) ** (1.0 / d)  # a scalar power: the array power rounds differently
    g /= scale[:, None, None]
    return g, errors


def transverse_witness(xi: Flag, eta: Flag) -> GroupElement:
    """Unimodular g with g(eta0, zeta0) = (xi, eta), column by column as in
    ``_witness_frames``."""
    g, errors = _witness_frames(xi.frame[None], eta.frame[None])
    if errors[0]:
        raise TransversalityError(errors[0])
    return GroupElement(g[0], check=False)


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
        xi = xi.translate(_h_inverse(x))
        eta = eta.translate(_h_inverse(x))
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


def fixed_points(g: GroupElement, tau_lox: float = TAU_LOX_DEFAULT):
    """Attracting and repelling fixed flags of a loxodromic element.

    Computed from the real eigenbasis sorted by decreasing eigenvalue
    modulus; the two flags are the orthonormalized forward and backward
    eigenflags.  The loxodromy test reads the same eigen-solve.
    """
    lam, is_lox, eig = _jordan_solve(g, tau_lox, vectors=True)
    if not is_lox:
        raise LoxodromyError(f"element is not loxodromic: jordan projection {lam}")
    return _eigen_flags(*eig)


def _eigen_frames(eigvals: np.ndarray, eigvecs: np.ndarray):
    """Frames (2, ..., d, d) of the forward and backward eigenflags of eigen-pairs over
    leading axes, gauge-fixed into SO(d) as ``Flag`` does, and which rows have a real
    spectrum (the frames of the others are meaningless)."""
    real = np.abs(eigvals.imag).max(axis=-1) <= 1e-8 * np.abs(eigvals).max(axis=-1)
    order = np.argsort(-np.abs(eigvals.real), axis=-1)
    basis = np.take_along_axis(eigvecs.real, order[..., None, :], axis=-1)
    frames = flag_frame_action(np.eye(basis.shape[-1]), np.stack([basis, basis[..., ::-1]]))
    _so_sign_fix(frames)
    return frames, real


def _eigen_flags(eigvals: np.ndarray, eigvecs: np.ndarray):
    """Attracting and repelling flags of one element from its eigen-pairs."""
    (plus, minus), real = _eigen_frames(eigvals, eigvecs)
    if not real:
        raise LoxodromyError(_NON_REAL)
    return Flag._of_so_frame(plus), Flag._of_so_frame(minus)


# ------------------------------------------------------------------- flats


def _flat_rows(ms: np.ndarray, basis: np.ndarray, k: float):
    """F = d_X(o, m o)^2 = k |a - mean(a)|^2, a = log svd(m), and its exact gradient
    along ``basis`` (of Y in m exp(Y), at Y = 0), for a stack (n, d, d) of m, and which
    rows have finite nonzero singular values (the others carry no value):
    ds_i = u_i^T dM v_i gives d log s_i / d y_j = vh[i, j]^2, so
    grad F = 2k (vh^2)^T (a - mean(a)).
    """
    _, s, vh = np.linalg.svd(ms)
    ok = np.isfinite(s).all(axis=-1) & (s[..., -1] > 0.0)
    a = np.log(np.where(ok[..., None], s, 1.0))
    a -= a.sum(axis=-1, keepdims=True) / a.shape[-1]  # np.mean, without its overhead
    return k * np.vecdot(a, a), 2.0 * k * ((a[..., None, :] @ (vh * vh)) @ basis.T)[..., 0, :], ok


def _flat_value_and_grad(m: np.ndarray, basis: np.ndarray, rs):
    """F(Y) = d_X(o, m exp(Y) o)^2 and its gradient along ``basis``: ``_flat_rows`` of
    the one-row stack m exp(Y)."""
    k = rs.killing_scale

    def fg(coords: np.ndarray):
        y = coords @ basis
        # keep exp() finite during line searches; F is coercive, so a growing
        # penalty outside the window cannot hide the minimum
        if np.abs(y).max() <= 250.0:
            f, g, ok = _flat_rows((m * np.exp(y))[None], basis, k)
            if ok[0]:
                return float(f[0]), g[0]
        return 1e12 + float(coords @ coords), 2.0 * coords

    return fg


@lru_cache(maxsize=None)
def _zero_sum_basis(d: int) -> np.ndarray:
    """Euclidean-orthonormal basis rows of the zero-sum subspace, read-only, once per d."""
    basis = []
    for k in range(1, d):
        v = np.zeros(d)
        v[:k] = 1.0
        v[k] = -float(k)
        basis.append(v / np.linalg.norm(v))
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


def flat_distance(x: BasePoint, pair: TransversePair, tol: float = FLAT_TOL) -> float:
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
    m = _h_inverse(x) @ pair.witness.mat
    fg = _flat_value_and_grad(m, _zero_sum_basis(d), root_system(d))
    y = np.zeros(d - 1)
    f, g = fg(y)
    h = eye = np.eye(d - 1)
    for it in range(200 * (d - 1)):
        if np.abs(g).max() <= tol:  # the test of _flat_start
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


def _flat_start(x: BasePoint, witnesses: np.ndarray, tol: float = FLAT_TOL):
    """F(0) of ``flat_distance`` for a stack (n, d, d) of witnesses, and which rows meet
    its stop test at once, on a finite start: ``flat_distance`` returns sqrt(F(0))
    for those, and its stall test cannot fire there."""
    d = x.d
    f, g, ok = _flat_rows(_h_inverse(x) @ witnesses, _zero_sum_basis(d), root_system(d).killing_scale)
    return f, ok & (np.abs(g).max(axis=-1) <= tol)


def _fixed_flat_distances(x: BasePoint, eigvals: np.ndarray, eigvecs: np.ndarray) -> list:
    """``flat_distance(x, TransversePair(*fixed flags))`` for a stack of eigen-pairs in one
    stacked pass: per row the distance, or the library error that the per-element path
    (``_eigen_flags``, ``TransversePair``, ``transverse_witness``) raises for it.  Rows
    that ``_flat_start`` does not settle go through ``flat_distance`` itself."""
    (plus, minus), real = _eigen_frames(eigvals, eigvecs)
    delta = _delta(_embedded_lines(plus), _perp_lines(minus))
    witness, errors = _witness_frames(plus, minus)
    rows = [LoxodromyError(_NON_REAL) if not is_real
            else TransversalityError("flag pair is not transverse") if not gauge > 0.0
            else TransversalityError(error) if error else None
            for is_real, gauge, error in zip(real.tolist(), delta.tolist(), errors)]
    good = [i for i, row in enumerate(rows) if row is None]
    f0, settled = _flat_start(x, witness[good])
    for i, f, done in zip(good, f0.tolist(), settled.tolist()):
        try:
            rows[i] = math.sqrt(f) if done else flat_distance(
                x, TransversePair(Flag._of_so_frame(plus[i]), Flag._of_so_frame(minus[i])))
        except WccError as exc:
            rows[i] = exc
    return rows
