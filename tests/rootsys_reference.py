"""Root-system helpers that no command, acceptance criterion or library function runs,
kept for their tests.  They were the ``wcc.rootsys.RootSystemA`` methods ``weyl_group``,
``chamber_sort``, ``delta_zero_direction``, ``dual_vector`` and ``killing_inner``,
unchanged, and now take the root system as their first argument.  ``reference_c_a`` is
``RootSystemA.c_a`` before its closed form: a linear solve at every vertex of the polytope
{ |chi_k(y)| <= 1 for all k }.  ``reference_levi_delta0`` is ``RootSystemA.levi_delta0``,
the Levi exponent of one simple-root subset, which ``RootSystemA.c_gap`` minimised over
every nonempty subset before its closed form."""

import itertools

import numpy as np

from wcc.errors import ParameterError
from wcc.rootsys import RootSystemA, _as_vector


def weyl_group(rs: RootSystemA):
    """Coordinate permutations, as index tuples."""
    return list(itertools.permutations(range(rs.d)))


def chamber_sort(rs: RootSystemA, y) -> np.ndarray:
    """Weyl representative: coordinates sorted non-increasingly."""
    y = rs.check_traceless(y)
    return np.sort(y)[::-1]


def delta_zero_direction(rs: RootSystemA) -> np.ndarray:
    return dual_vector(rs, rs.two_rho)


def dual_vector(rs: RootSystemA, c) -> np.ndarray:
    """Unit Cartan vector maximizing the functional c on the Killing sphere."""
    c = _as_vector(c, rs.d)
    c0 = c - np.mean(c)
    n = np.linalg.norm(c0)
    if n == 0.0:
        raise ParameterError("zero functional has no maximizing direction")
    return c0 / (n * np.sqrt(rs.killing_scale))


def killing_inner(rs: RootSystemA, x, y) -> float:
    x = rs.check_traceless(x)
    y = rs.check_traceless(y)
    return float(rs.killing_scale * np.dot(x, y))


def reference_c_a(rs: RootSystemA) -> float:
    """Smallest C >= 1 with (1/C)||y|| <= sup_k |chi_k(y)| <= C ||y||.  The upper ratio is
    max_k of the dual norm of chi_k; the lower one is attained at a vertex of the polytope."""
    upper = max(rs.dual_norm(chi) for chi in rs.fundamental_weights)
    worst = 0.0
    n = rs.d - 1
    chi_matrix = np.array(rs.fundamental_weights)  # (d-1, d)
    ones = np.ones((1, rs.d))
    system = np.vstack([chi_matrix, ones])
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        rhs = np.append(np.array(signs), 0.0)
        y = np.linalg.solve(system, rhs)
        worst = max(worst, rs.killing_norm(y))
    lower = 1.0 / worst
    return max(upper, 1.0 / lower, 1.0)


def reference_levi_delta0(rs: RootSystemA, theta) -> float:
    """Growth exponent of the Levi factor selected by a simple-root subset.

    ``theta`` is a collection of simple-root indices (0-based).  The
    relevant root set is the positive roots supported entirely on the
    complement of theta; the exponent is the max of their sum over the
    unit ball, its dual norm.  theta = empty recovers delta_zero, theta =
    all gives 0.
    """
    theta = frozenset(theta)
    if not theta.issubset(range(rs.d - 1)):
        raise ParameterError(f"theta must be a subset of simple-root indices, got {theta}")
    complement = set(range(rs.d - 1)) - theta
    total = np.zeros(rs.d)
    for root in rs.positive_roots:
        if _simple_support(root).issubset(complement):
            total += root
    return rs.dual_norm(total)


def _simple_support(root) -> set:
    """Indices of simple roots appearing in a positive root y_i - y_j."""
    i = int(np.argmax(root))
    j = int(np.argmin(root))
    return set(range(i, j))
