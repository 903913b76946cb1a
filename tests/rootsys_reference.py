"""Root-system helpers that no command, acceptance criterion or library function runs,
kept for their tests.  They were the ``wcc.rootsys.RootSystemA`` methods
``weyl_group``, ``chamber_sort``, ``delta_zero_direction`` and ``dual_vector``,
unchanged, and now take the root system as their first argument."""

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
