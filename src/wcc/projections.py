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
stacks give the census columns (sl2 in closed form, sl3 by stacked solves).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, PreconditionError, RegularityError
from .rootsys import RootSystemA, root_system

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
    """A d x d unimodular real matrix with decomposition caches."""

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
        rs = root_system(len(y))
        rs.check_traceless(y)
        return cls(np.diag(np.exp(y)), check=False)

    def _check_unimodular(self):
        # the rounding error of a float determinant scales with the Hadamard bound
        hadamard = float(np.prod(np.linalg.norm(self.mat, axis=0)))
        det = float(np.linalg.det(self.mat))
        if not abs(det - 1.0) <= _DET_TOL * max(1.0, hadamard):
            raise PreconditionError(f"matrix must have determinant 1, got {det}")

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    @property
    def root_system(self) -> RootSystemA:
        return root_system(self.d)

    def inverse(self) -> "GroupElement":
        if self.int_mat is not None:
            return GroupElement.from_integer(_integer_inverse(self.int_mat))
        return GroupElement(np.linalg.inv(self.mat), check=False)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        out = GroupElement(self.mat @ other.mat, check=False)
        if self.int_mat is not None and other.int_mat is not None:
            a, b = self.int_mat, other.int_mat
            out.int_mat = (np.array(a, dtype=object) @ np.array(b, dtype=object)).tolist()
        return out

    @cached_property
    def _svd(self):
        u, s, vh = np.linalg.svd(self.mat)
        u, vh = _so_sign_fix(u, vh)
        return u, _robust_logs(s[None], self._int_rows(), "svd")[0], vh

    @cached_property
    def _log_eigen_moduli(self) -> np.ndarray:
        try:
            eig = np.linalg.eigvals(self.mat)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigenvalue solver failed on {self.mat!r}") from exc
        return _robust_logs(np.sort(np.abs(eig))[None, ::-1], self._int_rows(), "eig")[0]

    def _int_rows(self) -> list | None:
        """The exact matrix as a one-element stack (a list); None for float elements."""
        return None if self.int_mat is None else [self.int_mat]

    def __repr__(self):
        return f"GroupElement({self.mat.tolist()})"


def _integer_inverse(m) -> np.ndarray:
    """Adjugate over the last two axes of integer matrices with determinant 1: their
    exact inverse, in the dtype of an array argument and in Python ints for lists."""
    m = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    n = m.shape[-1]
    keep = ~np.eye(n, dtype=bool)
    adj = np.ones_like(m)
    if n > 1:
        for i in range(n):
            for j in range(n):
                adj[..., i, j] = (-1) ** (i + j) * _int_det(m[..., keep[j], :][..., keep[i]])
    return adj


def _robust_logs(values_desc: np.ndarray, int_mats, kind: str) -> np.ndarray:
    """Zero-sum logs of the rows of descending singular ("svd") or eigen ("eig") moduli.

    Where a row of the integer-exact stack ``int_mats`` (an int64 array, or a
    list of lists of Python ints) spans more than 1e10, the values below 1 are
    recomputed as reciprocals of the large values of the exact adjugate; the
    small values of the direct solve only carry absolute accuracy
    eps * sigma_max.  Float matrices (``int_mats`` None) get the direct
    values: their representation already limits what is recoverable.
    """
    values = np.maximum(values_desc, 1e-300)
    out = np.log(values)
    out -= out.sum(axis=-1, keepdims=True) / out.shape[-1]  # np.mean, without its overhead
    wide = () if int_mats is None else np.flatnonzero(values[:, 0] > 1e10 * values[:, -1])
    for i in wide:
        adj = _integer_inverse(int_mats[i]).astype(float)
        if kind == "svd":
            mirror = np.linalg.svd(adj, compute_uv=False)
        else:
            mirror = np.sort(np.abs(np.linalg.eigvals(adj)))[::-1]
        row = np.array([np.log(v) if v >= 1.0 else -np.log(m)
                        for v, m in zip(values[i], np.maximum(mirror, 1e-300)[::-1])])
        out[i] = row - np.mean(row)
    return out


@dataclass(frozen=True)
class BasePoint:
    """A point of the symmetric space, carried by a representative h with h.o = x.

    Operations consuming a BasePoint do not depend on the representative
    modulo right multiplication by orthogonal matrices.
    """

    h: GroupElement

    @classmethod
    def origin(cls, d: int) -> "BasePoint":
        return cls(GroupElement(np.eye(d), check=False))

    @classmethod
    def from_matrix(cls, mat) -> "BasePoint":
        return cls(GroupElement(mat))

    @property
    def d(self) -> int:
        return self.h.d


def _so_sign_fix(u, vh):
    """Flip the last singular pair where needed so both frames are in SO(d)."""
    u = np.array(u, copy=True)
    vh = np.array(vh, copy=True)
    det = np.linalg.det(u)
    if u.ndim == 2:
        if det < 0:
            u[:, -1] *= -1.0
            vh[-1, :] *= -1.0
    else:
        mask = det < 0
        u[mask, :, -1] *= -1.0
        vh[mask, -1, :] *= -1.0
    return u, vh


def cartan_batch(mats):
    """Stacked Cartan decomposition: mats = k exp(a) l^-1 with k,l in SO(d)."""
    mats = np.asarray(mats, dtype=float)
    u, s, vh = np.linalg.svd(mats)
    u, vh = _so_sign_fix(u, vh)
    a = np.log(s)
    a = a - np.mean(a, axis=-1, keepdims=True)
    l = np.swapaxes(vh, -1, -2)
    return u, a, l


def cartan_project(g: GroupElement):
    """Cartan decomposition (k, a, l): non-increasing zero-sum a, g = k exp(a) l^-1."""
    u, a, vh = g._svd
    return u, a, vh.T


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


def cartan_vector(g) -> np.ndarray:
    """Zero-sum Cartan vector of one element, or its rows for an integer (n, d, d) stack.

    For d = 2, sigma^2 + sigma^-2 = F (the Frobenius mass) gives log sigma_max =
    1/2 log((F + sqrt(F^2 - 4)) / 2) = 1/2 arccosh(F / 2); for d = 3 the rows are
    the per-element values from one stacked SVD."""
    if isinstance(g, GroupElement):
        return g._svd[1]
    mats = _int_stack(g)
    if mats.shape[1] == 2:
        s = 0.5 * np.arccosh(np.einsum("nij,nij->n", mats, mats) / 2.0)
        return np.stack([s, -s], axis=1)
    return _robust_logs(np.linalg.svd(mats.astype(float))[1], mats, "svd")


def _int_char_discriminant(mats):
    """Exact discriminants of the characteristic polynomials of det-one integer
    matrices (over the last two axes), d <= 3 (None otherwise), from their
    principal minors."""
    d = mats.shape[-1]
    if d > 3:
        return None
    # int64 stacks keep tr^2 - 4 exact; the transposes t have the same characteristic
    # polynomials, and t[i, j] is a scalar for a single matrix
    t = (mats.astype(object) if d == 3 else mats).T
    tr = sum(t[i, i] for i in range(d))
    if d == 2:
        return tr * tr - 4
    c1 = sum(t[i, i] * t[j, j] - t[i, j] * t[j, i] for i, j in ((0, 1), (0, 2), (1, 2)))
    # x^3 - tr x^2 + c1 x - 1
    return tr**2 * c1**2 - 4 * c1**3 - 4 * tr**3 + 18 * tr * c1 - 27


def jordan_project(g, tau_lox: float = TAU_LOX_DEFAULT):
    """Jordan projection: sorted log-moduli of eigenvalues plus a loxodromy flag.

    Floating elements are loxodromic when all consecutive log-moduli gaps
    exceed ``tau_lox``.  Integer-exact elements (d <= 3) get the exact test
    through the characteristic discriminant: defective or complex spectra
    are never misflagged by eigensolver noise, which reaches sqrt(eps) at a
    double root and would swamp the default gap threshold.

    An integer (n, d, d) stack gives rows and a boolean array, loxodromic iff
    the discriminant is positive.  For d = 2 the rows are +-arccosh(|tr| / 2),
    zero when not loxodromic; for d = 3 they are the per-element values from
    one stacked eigenvalue solve.
    """
    if not isinstance(g, GroupElement):
        mats = _int_stack(g)
        lox = (_int_char_discriminant(mats) > 0).astype(bool)
        if mats.shape[1] == 2:
            ell = np.arccosh(np.maximum(np.abs(mats[:, 0, 0] + mats[:, 1, 1]) / 2.0, 1.0))
            return np.stack([ell, -ell], axis=1), lox
        try:
            eig = np.linalg.eigvals(mats.astype(float))
        except np.linalg.LinAlgError as exc:
            raise NumericError("eigenvalue solver failed on an integer stack") from exc
        return _robust_logs(np.sort(np.abs(eig), axis=-1)[:, ::-1], mats, "eig"), lox
    lam = g._log_eigen_moduli
    gaps = -np.diff(lam)
    is_lox = bool(lam.size > 1 and np.min(gaps) > tau_lox)
    if g.int_mat is not None:
        disc = _int_char_discriminant(np.array(g.int_mat, dtype=object))
        if disc is not None:
            # distinct real eigenvalues iff disc > 0; for unimodular integer
            # matrices of size <= 3 that also forces distinct moduli
            is_lox = disc > 0
    return lam, is_lox


def is_loxodromic(g: GroupElement, tau_lox: float = TAU_LOX_DEFAULT) -> bool:
    return jordan_project(g, tau_lox)[1]


def _frame_of(xi) -> np.ndarray:
    frame = getattr(xi, "frame", xi)
    return np.asarray(frame, dtype=float)


def iwasawa_batch(mats, frames):
    """Stacked Iwasawa cocycle values sigma(g, xi) with g k_xi = k exp(sigma) n."""
    prod = np.asarray(mats, dtype=float) @ np.asarray(frames, dtype=float)
    _, r = np.linalg.qr(prod)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return np.log(np.abs(diag))


def iwasawa_cocycle(g: GroupElement, xi) -> np.ndarray:
    """Iwasawa cocycle sigma(g, xi) from the QR factorization of g k_xi."""
    return iwasawa_batch(g.mat, _frame_of(xi))


def flag_frame_action(mat, frame) -> np.ndarray:
    """K-part of g k_xi: the frame of the translated flag, positive-diag QR."""
    q, r = np.linalg.qr(np.asarray(mat, dtype=float) @ np.asarray(frame, dtype=float))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    return q * signs[..., None, :]


def busemann(xi, x: BasePoint, y: BasePoint) -> np.ndarray:
    """Busemann cocycle beta_xi(x, y) = sigma(h_x^-1 h_y, h_y^-1 xi)."""
    hy_inv = y.h.inverse()
    relative = x.h.inverse().mat @ y.h.mat
    moved_frame = flag_frame_action(hy_inv.mat, _frame_of(xi))
    return iwasawa_batch(relative, moved_frame)


def cartan_distance(x: BasePoint, y: BasePoint):
    """Chamber-valued distance d_a(x,y) and its Killing norm d_X(x,y)."""
    rel = GroupElement(x.h.inverse().mat @ y.h.mat, check=False)
    a = cartan_vector(rel)
    rs = root_system(x.d)
    return a, rs.killing_norm(a)


def dist_x(x: BasePoint, y: BasePoint) -> float:
    return cartan_distance(x, y)[1]


def cartan_at(g: GroupElement, x: BasePoint) -> np.ndarray:
    """Cartan projection seen from x: a(h_x^-1 g h_x)."""
    conj = x.h.inverse().mat @ g.mat @ x.h.mat
    return cartan_vector(GroupElement(conj, check=False))


def angular_points(g: GroupElement, x: BasePoint, margin: float = TAU_LOX_DEFAULT):
    """Attracting/repelling angular flags of an x-Cartan-regular element.

    Requires the chamber-valued displacement of x to stay further than
    ``margin`` from the walls; raises RegularityError (carrying the measured
    wall distance) otherwise.
    """
    from .flagmetric import Flag

    rs = root_system(g.d)
    hx_inv = x.h.inverse().mat
    conj = GroupElement(hx_inv @ g.mat @ x.h.mat, check=False)
    k, a, l = cartan_project(conj)
    wall = rs.wall_distance(a)
    if wall <= margin:
        raise RegularityError(
            f"element is not x-cartan-regular at margin {margin} (wall distance {wall})",
            wall_distance=wall,
        )
    plus = flag_frame_action(x.h.mat, k)
    minus = flag_frame_action(x.h.mat, l @ rs.reversal_frame())
    return Flag(plus), Flag(minus)


def random_so(d: int, rng: np.random.Generator, size=None) -> np.ndarray:
    """Haar-uniform SO(d) frames from QR of Gaussian matrices."""
    shape = (d, d) if size is None else (size, d, d)
    q, r = np.linalg.qr(rng.normal(size=shape))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    q = q * signs[..., None, :]
    det = np.linalg.det(q)
    if size is None:
        if det < 0:
            q[:, -1] *= -1.0
    else:
        q[det < 0, :, -1] *= -1.0
    return q
