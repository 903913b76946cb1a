"""Independent expected values for the benchmark's checks.

The SL(2,Z) census oracle is written from the definition, not from the
library: every integer (a, b, c, d) with ad - bc = 1 and Frobenius mass
a^2 + b^2 + c^2 + d^2 <= M^2 + M^-2, where M = exp(t / sqrt 8) is the
largest singular value allowed in the Killing ball of radius t.  It scans
the (a, d, b) cube and solves for c, while the library scans (a, b, c) and
solves for d.  Loxodromic means |a + d| > 2, and an element is regular
(off the chamber walls) unless its mass is 2, which only rotations have.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SQRT8 = 2.0 * math.sqrt(2.0)


def mass_cap(t: float) -> float:
    m = math.exp(t / SQRT8)
    return m * m + 1.0 / (m * m)


class Sl2Census:
    """All SL(2,Z) matrices in the ball of radius `t_max`, as an int64 table."""

    def __init__(self, t_max: float):
        cap = mass_cap(t_max)
        bound = math.isqrt(int(math.floor(cap)))
        r = np.arange(-bound, bound + 1, dtype=np.int64)
        a, d, b = np.meshgrid(r, r, r[r != 0], indexing="ij")
        a, d, b = a.ravel(), d.ravel(), b.ravel()
        bc = a * d - 1
        a, d, b, bc = (x[bc % b == 0] for x in (a, d, b, bc))
        c = bc // b
        rows = [np.stack([a, b, c, d], axis=1)]
        # b = 0 forces ad = 1, with c free
        for s in (1, -1):
            c0 = r[r * r <= cap - 2]
            rows.append(np.stack([np.full_like(c0, s), np.zeros_like(c0), c0,
                                  np.full_like(c0, s)], axis=1))
        mats = np.concatenate(rows)
        mass = np.einsum("ij,ij->i", mats, mats)
        keep = mass <= cap
        self.mats, self.mass = mats[keep], mass[keep]
        order = np.lexsort(self.mats.T[::-1])
        self.mats, self.mass = self.mats[order], self.mass[order]

    def ball(self, t: float) -> np.ndarray:
        """Rows (a, b, c, d) of the ball of radius t, sorted by entries."""
        return self.mats[self.mass <= mass_cap(t)]

    def counts(self, t: float) -> dict:
        mats = self.ball(t)
        mass = np.einsum("ij,ij->i", mats, mats)
        return {
            "total": int(len(mats)),
            "loxodromic": int(np.count_nonzero(np.abs(mats[:, 0] + mats[:, 3]) > 2)),
            "regular": int(np.count_nonzero(mass > 2)),
        }


def rows_digest(rows: np.ndarray) -> str:
    """sha256 of rows sorted by entries as int64; matches spans.matrices_digest."""
    return hashlib.sha256(np.ascontiguousarray(rows, dtype="<i8").tobytes()).hexdigest()


def sl2_ball_volume(t: float) -> float:
    """Closed-form Harish-Chandra volume of the sl2 ball of radius t."""
    return math.sqrt(2.0) * (math.cosh(t / math.sqrt(2.0)) - 1.0)


DELTA0 = {"sl2": 1.0 / math.sqrt(2.0), "sl3": 2.0 / math.sqrt(3.0)}
