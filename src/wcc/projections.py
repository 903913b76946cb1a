"""Cartan, Jordan, Iwasawa and Busemann calculus on concrete SL(d,R) matrices.

All decompositions are numerical:

* Cartan ``g = k exp(a) l^-1`` via singular value decomposition, with a
  determinant-sign correction so both frames land in SO(d);
* Jordan via eigenvalue moduli (LAPACK solver; matrices are balanced there,
  which handles the extreme dynamic ranges loxodromy certification produces);
* Iwasawa ``g k_xi = k exp(sigma) n`` via QR factorization with the
  positive-diagonal convention fixing the factor signs.

The low-level kernels accept numpy stacks ``(..., d, d)`` so that the large
seeded identity suites can run vectorized (integer sl2 stacks in closed form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, PreconditionError, RegularityError
from .rootsys import RootSystemA, root_system

TAU_LOX_DEFAULT = 1e-9

# determinant validation is only meaningful while the entries stay in a range
# where the floating-point determinant itself is trustworthy
_DET_CHECK_MAX_ENTRY = 1e5
_DET_TOL = 1e-9


def _exact_int_det(m) -> int:
    """Cofactor-expansion determinant over python ints."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _exact_int_det(minor)
    return total


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
        det = _exact_int_det(rows)
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
        if np.max(np.abs(self.mat)) <= _DET_CHECK_MAX_ENTRY:
            det = float(np.linalg.det(self.mat))
            if abs(det - 1.0) > _DET_TOL * max(1.0, np.max(np.abs(self.mat))):
                raise PreconditionError(f"matrix must have determinant 1, got {det}")

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    @property
    def root_system(self) -> RootSystemA:
        return root_system(self.d)

    def inverse(self) -> "GroupElement":
        if self.int_mat is not None:
            inv = _integer_inverse(self.int_mat)
            return GroupElement.from_integer(inv)
        return GroupElement(np.linalg.inv(self.mat), check=False)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        out = GroupElement(self.mat @ other.mat, check=False)
        if self.int_mat is not None and other.int_mat is not None:
            a, b = self.int_mat, other.int_mat
            n = self.d
            out.int_mat = [
                [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
            ]
        return out

    @cached_property
    def _svd(self):
        u, s, vh = np.linalg.svd(self.mat)
        u, vh = _so_sign_fix(u, vh)
        a = self._robust_logs(s, kind="svd")
        return u, a, vh

    @cached_property
    def _log_eigen_moduli(self) -> np.ndarray:
        try:
            eig = np.linalg.eigvals(self.mat)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigenvalue solver failed on {self.mat!r}") from exc
        return self._robust_logs(np.sort(np.abs(eig))[::-1], kind="eig")

    def _robust_logs(self, values_desc: np.ndarray, kind: str) -> np.ndarray:
        """Zero-sum logs of singular/eigen moduli.

        For integer-exact elements with a huge dynamic range, the values
        below 1 are recomputed as reciprocals of the large values of the
        exact adjugate; the small values of the direct solve only carry
        absolute accuracy eps * sigma_max.  Float matrices get the direct
        values: their representation already limits what is recoverable.
        """
        values = np.maximum(np.asarray(values_desc, dtype=float), 1e-300)
        if self.int_mat is not None and values[0] > 1e10 * values[-1]:
            adj = np.array(_integer_inverse(self.int_mat), dtype=float)
            if kind == "svd":
                mirror = np.linalg.svd(adj, compute_uv=False)
            else:
                mirror = np.sort(np.abs(np.linalg.eigvals(adj)))[::-1]
            mirror = np.maximum(mirror, 1e-300)
            d = len(values)
            out = np.empty(d)
            for i in range(d):
                out[i] = np.log(values[i]) if values[i] >= 1.0 else -np.log(mirror[d - 1 - i])
            return out - np.mean(out)
        a = np.log(values)
        return a - np.mean(a)

    def __repr__(self):
        return f"GroupElement({self.mat.tolist()})"


def _integer_inverse(rows):
    """Adjugate of an integer matrix with determinant 1 (exact)."""
    n = len(rows)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
            adj[i][j] = (-1) ** (i + j) * _exact_int_det(minor) if n > 1 else 1
    return adj




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


def _sl2_stack(mats) -> np.ndarray:
    mats = np.asarray(mats)
    if mats.ndim != 3 or mats.shape[1:] != (2, 2) or mats.dtype.kind not in "iu":
        raise PreconditionError(f"need an integer (n, 2, 2) stack, got {mats.dtype} {mats.shape}")
    return mats.astype(np.int64)


def cartan_vector(g) -> np.ndarray:
    """Zero-sum Cartan vector of one element, or its rows for an integer sl2 stack,
    where sigma^2 + sigma^-2 = F (the Frobenius mass) gives log sigma_max =
    1/2 log((F + sqrt(F^2 - 4)) / 2) = 1/2 arccosh(F / 2)."""
    if isinstance(g, GroupElement):
        return g._svd[1]
    mats = _sl2_stack(g)
    s = 0.5 * np.arccosh(np.einsum("nij,nij->n", mats, mats) / 2.0)
    return np.stack([s, -s], axis=1)


def _int_char_discriminant(rows) -> int | None:
    """Exact discriminant of the characteristic polynomial, d <= 3."""
    n = len(rows)
    if n == 2:
        tr = rows[0][0] + rows[1][1]
        return tr * tr - 4
    if n == 3:
        c2 = -(rows[0][0] + rows[1][1] + rows[2][2])
        adj = _integer_inverse(rows)
        c1 = adj[0][0] + adj[1][1] + adj[2][2]
        c0 = -1
        return (
            18 * c2 * c1 * c0
            - 4 * c2**3 * c0
            + c2**2 * c1**2
            - 4 * c1**3
            - 27 * c0**2
        )
    return None


def jordan_project(g, tau_lox: float = TAU_LOX_DEFAULT):
    """Jordan projection: sorted log-moduli of eigenvalues plus a loxodromy flag.

    Floating elements are loxodromic when all consecutive log-moduli gaps
    exceed ``tau_lox``.  Integer-exact elements (d <= 3) get the exact test
    through the characteristic discriminant: defective or complex spectra
    are never misflagged by eigensolver noise, which reaches sqrt(eps) at a
    double root and would swamp the default gap threshold.

    An integer sl2 stack gives rows and a boolean array: loxodromic iff
    |tr| > 2, with log-moduli +-arccosh(|tr| / 2), and zero rows otherwise.
    """
    if not isinstance(g, GroupElement):
        mats = _sl2_stack(g)
        trace = np.abs(mats[:, 0, 0] + mats[:, 1, 1])
        ell = np.arccosh(np.maximum(trace / 2.0, 1.0))
        return np.stack([ell, -ell], axis=1), trace > 2
    lam = g._log_eigen_moduli
    gaps = -np.diff(lam)
    is_lox = bool(lam.size > 1 and np.min(gaps) > tau_lox)
    if g.int_mat is not None:
        disc = _int_char_discriminant(g.int_mat)
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
