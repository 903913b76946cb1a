"""Root-system, Weyl-group and metric data for the Cartan subspace of sl(d,R).

Cartan vectors are length-d coordinate arrays with zero sum.  The closed
positive chamber consists of vectors with non-increasing coordinates.  All
lengths are measured in the Killing norm, normalized as

    <X, Y> = 2d * trace(XY)   on traceless diagonal matrices,

so ``killing_norm(y) = sqrt(2d * sum(y_i^2))``.  Linear functionals on the
Cartan subspace are stored as coefficient arrays ``c`` acting by ``c @ y``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError, PreconditionError

ZERO_SUM_TOL = 1e-9
CHAMBER_TOL = 1e-9


def _as_vector(y, d: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise PreconditionError(f"expected a length-{d} Cartan vector, got shape {y.shape}")
    return y


class RootSystemA:
    """Static data of the type-A root system in dimension d (sl(d,R))."""

    def __init__(self, d: int):
        if d < 2:
            raise ParameterError(f"dimension must be >= 2, got {d}")
        self.d = d
        self.killing_scale = 2 * d

        # positive roots y_i - y_j, i < j, multiplicity 1 each
        self.positive_roots = [self.positive_roots_pair(i, j) for i in range(d) for j in range(i + 1, d)]

        # simple roots y_i - y_{i+1}
        self.simple_roots = [self.positive_roots_pair(i, i + 1) for i in range(d - 1)]

        # fundamental weights y_1 + ... + y_k
        self.fundamental_weights = []
        for k in range(1, d):
            c = np.zeros(d)
            c[:k] = 1.0
            self.fundamental_weights.append(c)

        # half the sum of positive roots
        self.rho = 0.5 * np.sum(self.positive_roots, axis=0)
        self.two_rho = 2.0 * self.rho

        self.simple_dual_norms = np.array([self.dual_norm(c) for c in self.simple_roots])
        # the antidiagonal permutation frame, its first column negated where needed for SO(d)
        self._reversal = np.eye(d)[::-1].copy()
        if np.linalg.det(self._reversal) < 0:
            self._reversal[:, 0] *= -1.0

    def positive_roots_pair(self, i: int, j: int) -> np.ndarray:
        c = np.zeros(self.d)
        c[i], c[j] = 1.0, -1.0
        return c

    # ---------------------------------------------------------------- metric

    def check_traceless(self, y) -> np.ndarray:
        y = _as_vector(y, self.d)
        scale = max(1.0, float(np.abs(y).max()))
        if abs(float(y.sum())) > ZERO_SUM_TOL * scale:
            raise PreconditionError(f"Cartan vector must have zero coordinate sum, got {y}")
        return y

    def killing_norm(self, y) -> float:
        y = self.check_traceless(y)
        return float(np.sqrt(self.killing_scale * np.dot(y, y)))

    def dual_norm(self, c) -> float:
        """Killing-dual norm of a linear functional: max of c.y on the unit ball."""
        c = _as_vector(c, self.d)
        c0 = c - np.mean(c)
        return float(np.linalg.norm(c0) / np.sqrt(self.killing_scale))

    # --------------------------------------------------------------- chamber

    def in_closed_chamber(self, y) -> bool:
        y = self.check_traceless(y)
        scale = max(1.0, float(np.abs(y).max()))
        return bool((np.diff(y) <= CHAMBER_TOL * scale).all())

    def wall_distance(self, y) -> float:
        """Killing distance from a chamber vector to the chamber boundary.

        Equals min over simple roots of the point-to-hyperplane distance
        alpha(y) / ||alpha||_*, which in type A is sqrt(d) * min_i alpha_i(y).
        """
        y = _as_vector(y, self.d)
        if not self.in_closed_chamber(y):  # which also refuses a vector off the zero-sum plane
            raise PreconditionError(f"wall_distance needs a closed-chamber vector, got {y}")
        return float(self.wall_distances(y))

    def wall_distances(self, ys) -> np.ndarray:
        """``wall_distance`` over the last axis of (..., d) rows, unchecked: a row
        outside the closed chamber gets the distance of its clipped root values."""
        # the simple roots y_i - y_{i+1}: -diff(y), rounded as c @ y; negatives and -0.0 to 0.0
        alpha = -np.diff(ys, axis=-1)
        return (np.where(alpha > 0.0, alpha, 0.0) / self.simple_dual_norms).min(axis=-1)

    def opposition(self, y) -> np.ndarray:
        """The involution reversing and negating coordinates; preserves the chamber."""
        y = self.check_traceless(y)
        return -y[::-1]

    def reversal_frame(self) -> np.ndarray:
        """Special-orthogonal permutation frame implementing the opposition.

        Conjugation by this frame maps exp(y) to exp(reverse(y)); the sign of
        one antidiagonal entry is flipped when needed to land in SO(d).
        """
        return self._reversal.copy()

    # ------------------------------------------------------ growth exponents

    def delta_zero(self) -> float:
        """Volume growth exponent: max of twice rho over the Killing unit ball,
        which is the dual norm of 2 rho."""
        return self.dual_norm(self.two_rho)

    def c_gap(self) -> float:
        """Uniform gap: min over nonempty simple-root subsets theta of delta_zero minus the
        growth exponent of the Levi factor of theta.  The largest of those drops an end simple
        root and leaves sl(d-1), whose 2 rho has dual norm sqrt((d-1)(d-2)/6)."""
        return self.delta_zero() - math.sqrt((self.d - 1) * (self.d - 2) / 6)

    def c_a(self) -> float:
        """Comparison constant between sup_k |chi_k| and the Killing norm.

        Smallest C >= 1 with (1/C)||y|| <= sup_k |chi_k(y)| <= C ||y||.  Every dual norm
        of chi_k is below 1, so C is the largest Killing norm at a vertex of the polytope
        { |chi_k(y)| <= 1 for all k }, y_k = s_k - s_(k-1) with s_k = +-1 and s_0 = s_d = 0;
        alternating signs give sum y_k^2 = 4d - 6.
        """
        return math.sqrt(self.killing_scale * (4 * self.d - 6))


@lru_cache(maxsize=None)
def root_system(d: int) -> RootSystemA:
    return RootSystemA(d)


def for_group(name: str) -> RootSystemA:
    """Resolve a CLI group name (sl2, sl3, ... slN) to its root system."""
    name = name.strip().lower()
    if not name.startswith("sl"):
        raise ParameterError(f"unknown group {name!r}; expected sl2 or sl3")
    try:
        d = int(name[2:])
    except ValueError:
        raise ParameterError(f"unknown group {name!r}; expected sl2 or sl3") from None
    if d < 2:
        raise ParameterError(f"unknown group {name!r}; expected sl2 or sl3")
    return root_system(d)
