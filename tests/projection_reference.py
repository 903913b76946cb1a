"""The earlier per-element Cartan and Jordan computation, kept as a test reference.

It was ``GroupElement``'s decomposition path before integer elements became exact
one-row stacks of the integer kernels: one float SVD, or one float eigenvalue
solve, of a single matrix, with zero-sum logs of the moduli.  For an integer
matrix whose moduli span more than 1e10, the values below 1 are recomputed as
reciprocals of the large values of the exact adjugate.

Also the Cartan distance between two base points (``cartan_distance``,
``dist_x``), the loxodromy predicate ``is_loxodromic`` and the Busemann cocycle
``busemann``, which no command or acceptance criterion runs: they were
``wcc.projections.cartan_distance``, ``dist_x``, ``is_loxodromic`` and
``busemann``, unchanged.
"""

import numpy as np

from wcc.projections import (
    TAU_LOX_DEFAULT,
    BasePoint,
    GroupElement,
    _frame_of,
    _h_inverse,
    _integer_inverse,
    cartan_vector,
    flag_frame_action,
    iwasawa_batch,
    jordan_project,
)
from wcc.rootsys import root_system


def _zero_sum_logs(values_desc: np.ndarray, int_mat, kind: str) -> np.ndarray:
    values = np.maximum(values_desc, 1e-300)
    row = np.log(values)
    if int_mat is not None and values[0] > 1e10 * values[-1]:
        adj = _integer_inverse(int_mat).astype(float)
        if kind == "svd":
            mirror = np.linalg.svd(adj, compute_uv=False)
        else:
            mirror = np.sort(np.abs(np.linalg.eigvals(adj)))[::-1]
        row = np.array([np.log(v) if v >= 1.0 else -np.log(m)
                        for v, m in zip(values, np.maximum(mirror, 1e-300)[::-1])])
    return row - np.mean(row)


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
    moved_frame = flag_frame_action(_h_inverse(y), _frame_of(xi))
    return iwasawa_batch(_h_inverse(x) @ y.h.mat, moved_frame)
