"""Cartan, Jordan, Iwasawa and Busemann calculus on concrete SL(d,R) matrices.

All decompositions are numerical:

* Cartan ``g = k exp(a) l^-1`` via singular value decomposition, with a
  determinant-sign correction so both frames land in SO(d);
* Jordan via eigenvalue moduli (LAPACK solver; matrices are balanced there,
  which handles the extreme dynamic ranges loxodromy certification produces);
* Iwasawa ``g k_xi = k exp(sigma) n`` via QR factorization with the
  positive-diagonal convention fixing the factor signs.

The low-level kernels accept numpy stacks ``(..., d, d)`` so that the large
seeded identity suites can run vectorized; integer (n, 2, 2) and (n, 3, 3)
stacks give the census columns (sl2 in closed form, sl3 by stacked solves of
exact compounds), and an integer ``GroupElement`` goes through the same integer
body as an exact one-row stack of Python ints.
"""

from __future__ import annotations

import importlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericError, PreconditionError, RegularityError
from .rootsys import root_system

TAU_LOX_DEFAULT = 1e-9
_DET_TOL = 1e-9
# integer stacks keep |entries| <= 2^30, so the sl2 mass and sl2 discriminant stay exact in int64
_INT_STACK_MAX = 2**30


def _int_det(m):
    """Cofactor-expansion determinant over the last two axes, exact in the dtype of m
    (object arrays for Python-int arithmetic; one object matrix gives a Python int)."""
    t = m.T  # the transposes: same determinants, and t[i, j] is a scalar for one matrix
    n = len(t)
    if n <= 2:
        return t[0, 0] if n == 1 else t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    cols = np.arange(n)
    return sum((-1) ** j * t[0, j] * _int_det(t[1:, cols != j].T) for j in range(n))


class GroupElement:
    """A d x d unimodular real matrix; integer elements also keep their exact entries
    (``int_mat``, Python ints), which the projections read as a one-row stack."""

    def __init__(self, mat, check: bool = True):
        self.mat = np.array(mat, dtype=float)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise PreconditionError(f"expected a square matrix, got shape {self.mat.shape}")
        self.int_mat = None
        if check:
            self._check_unimodular()

    @classmethod
    def from_integer(cls, mat) -> "GroupElement":
        rows = [[int(x) for x in row] for row in np.asarray(mat)]
        det = _int_det(np.array(rows, dtype=object))
        if det != 1:
            raise PreconditionError(f"integer matrix must have determinant 1, got {det}")
        g = cls(rows, check=False)
        g.int_mat = rows
        return g

    @classmethod
    def from_cartan_vector(cls, y) -> "GroupElement":
        y = np.asarray(y, dtype=float)
        bad = y[~(np.abs(y) <= 709.78)]  # not finite, or exp(y) overflows (past log of the largest float)
        if bad.size:
            raise PreconditionError(f"cartan vector entries and their exp must be finite, got {bad[0]}")
        root_system(len(y)).check_traceless(y)
        return cls(np.diag(np.exp(y)), check=False)

    def _check_unimodular(self):
        m = self.mat
        if not all(map(math.isfinite, m.ravel().tolist())):
            raise PreconditionError(f"matrix entries must be finite, got {m[~np.isfinite(m)][0]}")
        # the rounding error of a float determinant scales with the Hadamard bound (np.linalg's values, unwrapped)
        hadamard = math.prod(np.sqrt(np.add.reduce(m * m, axis=0)).tolist())
        det = float(_GUFUNC["det"](m))
        if not abs(det - 1.0) <= _DET_TOL * max(1.0, hadamard):
            raise PreconditionError(f"matrix must have determinant 1, got {det}")

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    def inverse(self) -> "GroupElement":
        if self.int_mat is not None:
            return GroupElement.from_integer(_integer_inverse(self.int_mat))
        return GroupElement(np.linalg.inv(self.mat), check=False)

    def __repr__(self):
        return f"GroupElement({self.mat.tolist()})"


def _compound(m, k: int):
    """The k-th compound over the last two axes: the exact k x k minors on k-subsets of rows and
    columns in lexicographic order, in the dtype of m (m itself for k = 1)."""
    return m if k == 1 else _int_det(m[(..., *_minor_index(m.shape[-1], k))]).T  # _int_det reverses axes


@lru_cache(maxsize=None)
def _minor_index(n: int, k: int):
    """Row and column indices gathering the k x k blocks of the k-th compound of n x n matrices."""
    sub = np.array(list(itertools.combinations(range(n), k)))
    return sub[:, None, :, None], sub[None, :, None, :]


def _integer_inverse(m) -> np.ndarray:
    """Adjugate over the last two axes of integer matrices with determinant 1: their
    exact inverse, in the dtype of an array argument and in Python ints for lists.
    It is the (d-1)-th compound, reversed, transposed and signed."""
    m = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    n = m.shape[-1]
    if n == 1:
        return np.ones_like(m)
    sign = (-1) ** np.add.outer(np.arange(n), np.arange(n))
    return sign * np.swapaxes(_compound(m, n - 1)[..., ::-1, ::-1], -1, -2)


def _robust_logs(values_desc: np.ndarray) -> np.ndarray:
    """Zero-sum logs of descending singular or eigenvalue moduli, along the last axis
    of one row or of a stack of rows."""
    out = np.log(np.maximum(values_desc, 1e-300))
    out -= out.sum(axis=-1, keepdims=True) / out.shape[-1]  # np.mean, without its overhead
    return out


def _numpy_private(*names) -> list:
    """numpy's private objects by dotted name, or one ImportError that names every missing one and
    numpy's version (wcc calls them directly, verified on numpy 2.4.6 only)."""
    found, missing = [], []
    for name in names:
        module, _, attr = name.rpartition(".")
        try:
            found.append(getattr(importlib.import_module(module), attr))
        except (ImportError, AttributeError):
            missing.append(name)
    if missing:
        raise ImportError(f"wcc needs numpy's private {', '.join(missing)}, missing in numpy {np.__version__}")
    return found


def _lapack_failed(err, flag):
    raise np.linalg.LinAlgError("LAPACK solver did not converge")


_GUFUNCS = ("svd_f", "svd", "eig", "eigvals", "det")
*_gufuncs, _make_extobj, _extobj_contextvar = _numpy_private(
    *(f"numpy.linalg._umath_linalg.{name}" for name in _GUFUNCS),
    "numpy._core.umath._make_extobj", "numpy._core._ufunc_config._extobj_contextvar")
_GUFUNC = dict(zip(_GUFUNCS, _gufuncs))
# the np.errstate that np.linalg's svd, eig and eigvals enter, built once
_LAPACK_ERRSTATE = _make_extobj(call=_lapack_failed, invalid="call", over="ignore", divide="ignore", under="ignore")


def _lapack(name: str, m: np.ndarray):
    """numpy's LAPACK gufunc ``svd_f`` (u, s, vh), ``svd`` (s), ``eig`` (w, v) or ``eigvals`` (w) on float64 input:
    np.linalg's result bit for bit, in its error state (prebuilt; left also on a raise, so a solver failure raises
    LinAlgError), and eigen-pairs stay complex.  An eigen-solve refuses a non-finite input, as np.linalg does.  An SVD
    input must be finite (LAPACK may never return on an inf): ``cartan_batch`` and ``_conjugate_stack`` refuse it."""
    if name.startswith("eig") and not (  # as np.linalg refuses it; one matrix in Python floats, 3x faster
            np.isfinite(m).all() if m.ndim > 2 else all(map(math.isfinite, m.ravel().tolist()))):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    token = _extobj_contextvar.set(_LAPACK_ERRSTATE)
    try:
        return _GUFUNC[name](m)
    finally:
        _extobj_contextvar.reset(token)


def _compound_logs(mats: np.ndarray, top, first=None) -> np.ndarray:
    """Logs a_k = log(T_k / T_(k-1)) of integer det-one matrices (d >= 3), T_0 = T_d = 1, T_k the top
    singular value or eigenvalue modulus ``top`` of their exact k-th compound (``first`` passes T_1).
    A top singular value is resolved to eps relative (Demmel et al., LAA 299, 1999), a small one not."""
    tops = np.ones((len(mats), mats.shape[-1] + 1))
    for k in range(1, mats.shape[-1]):
        tops[:, k] = first if k == 1 and first is not None else top(_compound(mats, k).astype(float))
    return np.log(tops[:, 1:] / tops[:, :-1])


@dataclass(frozen=True)
class BasePoint:
    """A point of the symmetric space, carried by a representative h with h.o = x.

    Operations consuming a BasePoint do not depend on the representative
    modulo right multiplication by orthogonal matrices.
    """

    h: GroupElement

    @classmethod
    @lru_cache(maxsize=None)
    def origin(cls, d: int) -> "BasePoint":
        """The origin: one shared base point per d, h = I with a read-only matrix."""
        h = GroupElement(np.eye(d), check=False)
        h.mat.flags.writeable = False
        return cls(h)

    @property
    def d(self) -> int:
        return self.h.d

    @cached_property
    def h_inverse(self) -> np.ndarray:
        """h_x^-1, computed once per base point, read-only (exact for an integer h, as
        ``GroupElement.inverse``)."""
        inv = self.h.inverse().mat
        inv.flags.writeable = False
        return inv


def _so_sign_fix(u, vh=None) -> None:
    """Flip, in place and over any leading axes, the last column of u and the last row
    of vh where det u < 0, so both frames land in SO(d)."""
    sign = np.where(np.linalg.det(u) < 0, -1.0, 1.0)[..., None]
    u[..., -1] *= sign
    if vh is not None:
        vh[..., -1, :] *= sign


def cartan_batch(mats):
    """Stacked Cartan decomposition: mats = k exp(a) l^-1 with k,l in SO(d), of finite mats."""
    mats = np.asarray(mats, dtype=float)
    if not np.isfinite(mats).all():  # an infinite entry can keep LAPACK's SVD from returning
        raise PreconditionError(f"cartan decomposition needs finite entries, got {mats[~np.isfinite(mats)][0]}")
    u, s, vh = _lapack("svd_f", mats)
    _so_sign_fix(u, vh)
    return u, _robust_logs(s), np.swapaxes(vh, -1, -2)


def cartan_project(g: GroupElement):
    """Cartan decomposition (k, a, l): non-increasing zero-sum a, g = k exp(a) l^-1;
    an integer element gets the exact a of ``cartan_vector``."""
    k, a, l = cartan_batch(g.mat)
    if g.int_mat is not None:
        a = cartan_vector(g)
    return k, a, l


def _int_stack(mats) -> np.ndarray:
    mats = np.asarray(mats)
    if (mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] not in (2, 3)
            or mats.dtype.kind not in "iu"):
        raise PreconditionError(
            f"need an integer (n, 2, 2) or (n, 3, 3) stack, got {mats.dtype} {mats.shape}")
    if np.any((mats > _INT_STACK_MAX) | (mats < -_INT_STACK_MAX)):
        top = np.abs(mats.astype(float)).max()
        raise PreconditionError(f"integer stacks need entries within 2^30, got {top:.4g}")
    return mats.astype(np.int64)


def _cartan_rows(mats: np.ndarray) -> np.ndarray:
    """Cartan rows of a stack: from the SVD of ``cartan_batch`` for a float stack; exact
    for an integer one, an int64 stack or the object one-row stack of an integer
    GroupElement (Python ints, any size and any d)."""
    if mats.dtype.kind == "f":
        return cartan_batch(mats)[1]
    if mats.shape[1] == 2:
        s = 0.5 * np.arccosh(np.einsum("nij,nij->n", mats, mats).astype(float) / 2.0)
        return np.stack([s, 0.0 - s], axis=1)  # 0.0 - s: +0.0, not -0.0, at s = 0
    return _compound_logs(mats, lambda c: _lapack("svd", c)[:, 0])


def cartan_vector(g) -> np.ndarray:
    """Zero-sum Cartan vector of one element, or its rows for an integer (n, d, d) stack.

    Float elements take the SVD of ``cartan_batch``.  Integer stacks and integer
    elements (exact one-row stacks of Python ints, with no 2^30 bound) share one
    body: for d = 2, sigma^2 + sigma^-2 = F (the Frobenius mass) gives
    log sigma_max = 1/2 log((F + sqrt(F^2 - 4)) / 2) = 1/2 arccosh(F / 2); for
    d >= 3 the logs of sigma_1 ... sigma_k are those of the top singular values of
    the exact k-th compounds (``_compound_logs``), one stacked SVD per k, so
    every log is resolved to eps relative."""
    if not isinstance(g, GroupElement):
        return _cartan_rows(_int_stack(g))
    return _cartan_rows(_one_row(g))[0]


def _one_row(g: GroupElement) -> np.ndarray:
    """g as a one-row stack: its exact Python ints when it is integer, else its floats."""
    return g.mat[None] if g.int_mat is None else np.array([g.int_mat], dtype=object)


def _int_char_discriminant(mats):
    """Exact discriminants of the characteristic polynomials of det-one integer
    matrices (over the last two axes), d <= 3 (None otherwise), from their
    principal minors."""
    d = mats.shape[-1]
    if d > 3:
        return None
    # int64 stacks (entries within 2^30) keep tr^2 - 4 and |c1| <= 3 * 2^61 exact; the transposes t
    # have the same characteristic polynomials, and t[i, j] is a scalar for a single matrix
    t = mats.T
    tr = sum(t[i, i] for i in range(d))
    if d == 2:
        return tr * tr - 4
    c1 = sum(t[i, i] * t[j, j] - t[i, j] * t[j, i] for i, j in ((0, 1), (0, 2), (1, 2)))
    tr, c1 = np.asarray(tr, dtype=object), np.asarray(c1, dtype=object)  # x^3 - tr x^2 + c1 x - 1 in Python ints
    return tr**2 * c1**2 - 4 * c1**3 - 4 * tr**3 + 18 * tr * c1 - 27


def _eig(mats, vectors: bool = False):
    """Eigenvalues (with ``vectors``, eigenvalues and eigenvectors) of one float matrix
    or a stack, complex; a solver failure is a NumericError."""
    try:
        return _lapack("eig" if vectors else "eigvals", mats)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solver failed on {mats!r}") from exc


def _gap_test(lam: np.ndarray, tau_lox: float) -> np.ndarray:
    """Loxodromy from log-moduli rows: every consecutive gap exceeds tau_lox."""
    return (lam.shape[-1] > 1) & (-np.diff(lam, axis=-1) > tau_lox).all(axis=-1)


def _jordan_rows(mats: np.ndarray, tau_lox: float = TAU_LOX_DEFAULT, eig=None):
    """Jordan rows and loxodromy flags of a stack: the gap test on the eigenvalue logs
    of a float stack; exact for an integer one (as ``_cartan_rows``).  ``eig`` passes
    the eigenvalues of the stack already solved for."""
    if mats.dtype.kind == "f":
        lam = _robust_logs(np.sort(np.abs(_eig(mats) if eig is None else eig), axis=-1)[..., ::-1])
        return lam, _gap_test(lam, tau_lox)
    if mats.shape[1] == 2:
        half_trace = np.abs(mats[:, 0, 0] + mats[:, 1, 1]).astype(float) / 2.0
        ell = np.arccosh(np.maximum(half_trace, 1.0))
        lam = np.stack([ell, 0.0 - ell], axis=1)
    else:  # separate solves can order equal moduli either way: sorted back into the chamber
        lam = np.sort(_compound_logs(mats, lambda c: np.abs(_eig(c)).max(axis=-1),
                                     None if eig is None else np.abs(eig).max(axis=-1)))[:, ::-1]
    # distinct real eigenvalues iff disc > 0; for unimodular integer matrices of
    # size <= 3 that also forces distinct moduli
    disc = _int_char_discriminant(mats)
    lox = _gap_test(lam, tau_lox) if disc is None else disc > 0
    return lam, np.asarray(lox, dtype=bool)


def jordan_project(g, tau_lox: float = TAU_LOX_DEFAULT):
    """Jordan projection: sorted log-moduli of eigenvalues plus a loxodromy flag.

    Float elements take one eigenvalue solve and are loxodromic when all
    consecutive log-moduli gaps exceed ``tau_lox``.  Integer elements are exact
    one-row stacks of Python ints and share the body of integer (n, d, d)
    stacks (rows and a boolean array): for d = 2 the rows are
    +-arccosh(|tr| / 2), zero when not loxodromic; for d >= 3 the logs of
    |lambda_1 ... lambda_k| are those of the top eigenvalue moduli of the exact
    k-th compounds, one stacked eigenvalue solve per k.  For d <= 3 loxodromy is
    the exact test "the characteristic discriminant is positive": defective or complex
    spectra are never misflagged by eigensolver noise, which reaches sqrt(eps)
    at a double root and would swamp the default gap threshold.  Larger
    integer elements keep the gap test.
    """
    if not isinstance(g, GroupElement):
        return _jordan_rows(_int_stack(g), tau_lox)
    return _jordan_solve(g, tau_lox)[:2]


def _jordan_solve(g: GroupElement, tau_lox: float = TAU_LOX_DEFAULT, vectors: bool = False):
    """``jordan_project`` of one element, and with ``vectors`` the eigenvalues and
    eigenvectors of the same solve (None without): the loxodromy test and the fixed
    flags of an element take one eigen-solve."""
    eig = _eig(g.mat, vectors=True) if vectors else None
    lam, lox = _jordan_rows(_one_row(g), tau_lox, None if eig is None else eig[0][None])
    return lam[0], bool(lox[0]), eig


def iwasawa_batch(mats, frames):
    """Stacked Iwasawa cocycle values sigma(g, xi) with g k_xi = k exp(sigma) n."""
    prod = np.asarray(mats, dtype=float) @ np.asarray(frames, dtype=float)
    _, r = np.linalg.qr(prod)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return np.log(np.abs(diag))


def iwasawa_cocycle(g: GroupElement, xi) -> np.ndarray:
    """Iwasawa cocycle sigma(g, xi) of a ``Flag`` xi, from the QR factorization of g k_xi."""
    return iwasawa_batch(g.mat, xi.frame)


def flag_frame_action(mat, frame) -> np.ndarray:
    """K-part of g k_xi over any leading axes: the frame of the translated flag from the
    positive-diagonal QR, gauge-fixed into SO(d) (``_so_sign_fix``)."""
    q, r = np.linalg.qr(np.asarray(mat, dtype=float) @ np.asarray(frame, dtype=float))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    q *= np.where(signs == 0.0, 1.0, signs)[..., None, :]
    _so_sign_fix(q)
    return q


def _conjugate_stack(mats: np.ndarray, x: BasePoint) -> np.ndarray:
    """h_x^-1 m h_x over the last two axes: m itself at the origin, exact in Python
    ints for an integer m (int64 or object) when h_x is integer, in floats otherwise,
    where a non-finite entry (an overflow) is a NumericError that names it."""
    h = x.h
    _same_dimension(mats.shape[-1], x)
    if x is BasePoint.origin(h.d) or np.array_equal(h.mat, np.eye(h.d)):
        return mats
    if mats.dtype.kind != "f" and h.int_mat is not None:
        return _int_conjugate(mats, h.int_mat)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by the entry
        conj = x.h_inverse @ mats.astype(float) @ h.mat
    if (bad := np.argwhere(~np.isfinite(conj))).size:
        entry = tuple(bad[0].tolist())
        raise NumericError(f"h_x^-1 g h_x is not finite in floats: entry {entry} is {conj[entry]}")
    return conj


def _int_conjugate(mats: np.ndarray, h) -> np.ndarray:
    """h^-1 m h over the last two axes in Python ints, for integer m and a det-one integer h."""
    h = np.array(h, dtype=object)
    return _integer_inverse(h) @ mats.astype(object) @ h


def _conjugate(g: GroupElement, x: BasePoint) -> GroupElement:
    """h_x^-1 g h_x as an element (g itself at the shared origin), exact when it is integer."""
    _same_dimension(g.d, x)
    return g if x is BasePoint.origin(x.d) else _row_element(_conjugate_stack(_one_row(g), x)[0])


def _same_dimension(d: int, x: BasePoint) -> None:
    if d != x.d:
        raise PreconditionError(f"a d = {d} element needs a base point of that dimension, got d = {x.d}")


def _row_element(row: np.ndarray) -> GroupElement:
    """A stack row as an element, unchecked, with its exact ints when it is integer."""
    g = GroupElement(row, check=False)
    if row.dtype.kind != "f":
        g.int_mat = row.tolist()
    return g


def cartan_at(g: GroupElement, x: BasePoint) -> np.ndarray:
    """Cartan projection seen from x: a(h_x^-1 g h_x), exact (as ``cartan_vector``)
    for an integer g at the origin or at an x with an integer representative."""
    return cartan_vector(_conjugate(g, x))


def angular_points(g: GroupElement, x: BasePoint):
    """Attracting/repelling angular flags of an x-Cartan-regular element, from the frames
    of a Cartan decomposition k exp(a) l^-1 of h_x^-1 g h_x in one stacked frame action.

    Requires the chamber-valued displacement of x (exact as in ``cartan_at``)
    to stay further than ``TAU_LOX_DEFAULT`` from the walls; raises RegularityError
    (carrying the measured wall distance) otherwise.
    """
    from .flagmetric import Flag

    rs = root_system(g.d)
    k, a, l = cartan_project(_conjugate(g, x))
    wall = rs.wall_distance(a)
    if wall <= TAU_LOX_DEFAULT:
        raise RegularityError(
            f"element is not x-cartan-regular at margin {TAU_LOX_DEFAULT} (wall distance {wall})",
            wall_distance=wall,
        )
    frames = flag_frame_action(x.h.mat, np.stack([k, l @ rs.reversal_frame()]))
    return Flag._of_so_frame(frames[0]), Flag._of_so_frame(frames[1])


def random_so(d: int, rng: np.random.Generator, size=None) -> np.ndarray:
    """Haar-uniform SO(d) frames from the positive-diagonal QR of Gaussian matrices."""
    shape = (d, d) if size is None else (size, d, d)
    return flag_frame_action(np.eye(d), rng.normal(size=shape))
