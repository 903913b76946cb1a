"""Flag helpers that no command, acceptance criterion or library function runs,
kept for their tests: the transversality predicate and a representative with
given Hopf coordinates (they were ``wcc.flagmetric.is_transverse``, with its
default tolerance, and ``hopf_inverse``, unchanged)."""

import numpy as np

from wcc.errors import PreconditionError
from wcc.flagmetric import HopfPoint, dist_delta, eta0
from wcc.projections import GroupElement, iwasawa_cocycle

TRANSVERSE_TOL_DEFAULT = 1e-9


def is_transverse(xi, eta, tol: float = TRANSVERSE_TOL_DEFAULT) -> bool:
    if tol <= 0:
        raise PreconditionError("transversality tolerance must be positive")
    return dist_delta(xi, eta) > tol


def hopf_inverse(point: HopfPoint) -> GroupElement:
    """A representative of the M-coset with the given Hopf coordinates."""
    w = point.pair.witness
    base = iwasawa_cocycle(w, eta0(w.d))
    shift = np.asarray(point.a_coord, dtype=float) - base
    return GroupElement(w.mat @ np.diag(np.exp(shift)), check=False)
