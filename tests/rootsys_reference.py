"""Root-system helpers that no command, acceptance criterion or library function runs,
kept for their tests.  They were the ``wcc.rootsys.RootSystemA`` methods
``weyl_group``, ``chamber_sort`` and ``delta_zero_direction``, unchanged, and now
take the root system as their first argument."""

import itertools

import numpy as np

from wcc.rootsys import RootSystemA


def weyl_group(rs: RootSystemA):
    """Coordinate permutations, as index tuples."""
    return list(itertools.permutations(range(rs.d)))


def chamber_sort(rs: RootSystemA, y) -> np.ndarray:
    """Weyl representative: coordinates sorted non-increasingly."""
    y = rs.check_traceless(y)
    return np.sort(y)[::-1]


def delta_zero_direction(rs: RootSystemA) -> np.ndarray:
    return rs.dual_vector(rs.two_rho)
