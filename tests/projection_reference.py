"""The earlier per-element Cartan and Jordan computation and integer inverse, kept
as test references, and a 60-digit oracle of the integer logs.

``reference_cartan`` and ``reference_jordan`` were ``GroupElement``'s decomposition
path before integer elements became exact one-row stacks of the integer kernels:
one float SVD, or one float eigenvalue solve, of a single matrix, with zero-sum
logs of the moduli.  For an integer matrix whose moduli span more than 1e10, the
values below 1 were recomputed as reciprocals of the large values of the exact
adjugate; below that, the small values keep only eps * s_1 absolute accuracy.
``cofactor_inverse`` is the cofactor double loop that built that adjugate, and
the oracle of ``_integer_inverse`` (now a signed compound).

``sixty_digit_logs`` gives the log singular values and log eigenvalue moduli of
an integer matrix at 60 digits (mpmath), and ``jordan_log_bounds`` the
first-order conditioning of the compound eigenvalues the Jordan logs come from.

Also the Cartan distance between two base points (``cartan_distance``,
``dist_x``), the loxodromy predicate ``is_loxodromic`` and the Busemann cocycle
``busemann``, which no command or acceptance criterion runs: they were
``wcc.projections.cartan_distance``, ``dist_x``, ``is_loxodromic`` and
``busemann``, unchanged.
"""

import itertools

import numpy as np
from mpmath import mp

from wcc.projections import (
    TAU_LOX_DEFAULT,
    BasePoint,
    GroupElement,
    _int_det,
    cartan_vector,
    flag_frame_action,
    iwasawa_batch,
    jordan_project,
)
from wcc.rootsys import root_system

EPS = np.finfo(float).eps


def cofactor_inverse(m) -> np.ndarray:
    """Adjugate over the last two axes of integer det-one matrices, one cofactor at a time:
    their exact inverse, in the dtype of an array argument and in Python ints for lists."""
    m = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    n = m.shape[-1]
    keep = ~np.eye(n, dtype=bool)
    adj = np.ones_like(m)
    if n > 1:
        for i in range(n):
            for j in range(n):
                adj[..., i, j] = (-1) ** (i + j) * _int_det(m[..., keep[j], :][..., keep[i]])
    return adj


def _zero_sum_logs(values_desc: np.ndarray, int_mat, kind: str) -> np.ndarray:
    values = np.maximum(values_desc, 1e-300)
    row = np.log(values)
    if int_mat is not None and values[0] > 1e10 * values[-1]:
        adj = cofactor_inverse(int_mat).astype(float)
        if kind == "svd":
            mirror = np.linalg.svd(adj, compute_uv=False)
        else:
            mirror = np.sort(np.abs(np.linalg.eigvals(adj)))[::-1]
        row = np.array([np.log(v) if v >= 1.0 else -np.log(m)
                        for v, m in zip(values, np.maximum(mirror, 1e-300)[::-1])])
    return row - np.mean(row)


def exact_compound(int_mat, k: int) -> list:
    """The k-th compound of one integer matrix (a list of rows) in Python ints: its k x k
    minors by Laplace expansion, rows and columns indexed by lexicographic k-subsets."""
    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]]) for j in range(len(rows)))

    sub = list(itertools.combinations(range(len(int_mat)), k))
    return [[det([[int_mat[r][c] for c in cols] for r in rows]) for cols in sub] for rows in sub]


def _newton_roots(coeffs, guesses):
    """The roots of the polynomial with exact integer ``coeffs`` (highest degree first) by
    Newton's method at the working precision, one from each float guess; None unless each
    step converges and the roots are distinct, so that they are all the roots."""
    tol, roots = mp.mpf(10) ** (8 - mp.dps), []
    for g in guesses:
        x = mp.mpf(g.real) if g.imag == 0 else mp.mpc(g)
        for _ in range(60):
            p = dp = 0
            for c in coeffs:
                p, dp = p * x + c, dp * x + p
            if dp == 0:
                return None
            step = p / dp
            x -= step
            if abs(step) <= tol * abs(x):
                break
        else:
            return None
        roots.append(x)
    distinct = all(abs(u - v) > 10**10 * tol * abs(u) for u, v in itertools.combinations(roots, 2))
    return roots if distinct else None


def sixty_digit_logs(int_mat):
    """Log singular values and log eigenvalue moduli, both descending, of one integer
    matrix (a list of rows), each correctly rounded from 60 digits.  The squared singular
    values are the roots of the characteristic polynomial of M^T M, whose coefficients are
    the sums of squares of the exact compounds (Cauchy-Binet), and the eigenvalues those of
    M, whose coefficients are their traces; Newton's method from the float values finds
    them, and mpmath's SVD and eigenvalue solver stand in where it does not."""
    d, m = len(int_mat), np.array(int_mat, dtype=float)
    compounds = [exact_compound(int_mat, k) for k in range(1, d + 1)]
    gram = [1] + [(-1) ** k * sum(v * v for row in c for v in row) for k, c in enumerate(compounds, 1)]
    char = [1] + [(-1) ** k * sum(c[i][i] for i in range(len(c))) for k, c in enumerate(compounds, 1)]
    with mp.workdps(60):
        squares = _newton_roots(gram, np.linalg.svd(m, compute_uv=False) ** 2)
        if squares is None:
            cartan = [mp.log(v) for v in mp.svd_r(mp.matrix(int_mat), compute_uv=False)]
        else:
            cartan = [mp.log(v.real) / 2 for v in squares]
        eig = _newton_roots(char, np.linalg.eigvals(m))
        if eig is None:
            eig = mp.eig(mp.matrix(int_mat), left=False, right=False)
        jordan = [mp.log(abs(v)) for v in eig]
    return np.sort([float(v) for v in cartan])[::-1], np.sort([float(v) for v in jordan])[::-1]


def jordan_log_bounds(int_mat) -> np.ndarray:
    """First-order bounds on the error of each Jordan log a_k = L_k - L_(k-1) of a det-one
    integer matrix, from the eigenvalue mu_k of largest modulus of its k-th compound C_k
    (L_k = log |mu_k|, L_0 = L_d = 0): a backward error eps |C_k|_F of the float solve moves
    L_k by eps |C_k|_F kappa_k / |mu_k|, kappa_k = |x| |y| / |y^H x| for its right and left
    eigenvectors x, y (Wilkinson), and rounding the log adds eps max(1, |a_k|)."""
    d, bounds = len(int_mat), [0.0]
    for k in range(1, d):
        c = np.array(exact_compound(int_mat, k), dtype=float)
        mu, right = np.linalg.eig(c)
        top = int(np.argmax(np.abs(mu)))
        kappa = np.linalg.norm(right[:, top]) * np.linalg.norm(np.linalg.inv(right)[top])
        bounds.append(EPS * np.linalg.norm(c) * kappa / abs(mu[top]))
    bounds.append(0.0)
    return np.array(bounds[1:]) + np.array(bounds[:-1])


def reference_cartan(int_mat) -> np.ndarray:
    """Zero-sum log singular values of one integer matrix (a list of rows)."""
    s = np.linalg.svd(np.array(int_mat, dtype=float))[1]
    return _zero_sum_logs(s, int_mat, "svd")


def reference_jordan(int_mat) -> np.ndarray:
    """Sorted zero-sum log eigenvalue moduli of one integer matrix (a list of rows)."""
    eig = np.linalg.eigvals(np.array(int_mat, dtype=float))
    return _zero_sum_logs(np.sort(np.abs(eig))[::-1], int_mat, "eig")


def cartan_distance(x: BasePoint, y: BasePoint):
    """Chamber-valued distance d_a(x,y) and its Killing norm d_X(x,y)."""
    rel = GroupElement(x.h.inverse().mat @ y.h.mat, check=False)
    a = cartan_vector(rel)
    rs = root_system(x.d)
    return a, rs.killing_norm(a)


def dist_x(x: BasePoint, y: BasePoint) -> float:
    return cartan_distance(x, y)[1]


def is_loxodromic(g: GroupElement, tau_lox: float = TAU_LOX_DEFAULT) -> bool:
    return jordan_project(g, tau_lox)[1]


def busemann(xi, x: BasePoint, y: BasePoint) -> np.ndarray:
    """Busemann cocycle beta_xi(x, y) = sigma(h_x^-1 h_y, h_y^-1 xi)."""
    moved_frame = flag_frame_action(y.h_inverse, xi.frame)
    return iwasawa_batch(x.h_inverse @ y.h.mat, moved_frame)
