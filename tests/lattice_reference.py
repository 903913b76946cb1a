"""Per-record reference for the census tables of ``wcc.lattice``.

Every matrix goes through its own ``GroupElement``: the breadth-first word
ball multiplies one element at a time, sl3 columns come from one SVD and one
eigenvalue solve per element, and a base point conjugates record by record.
sl2 columns are the closed forms of the integer kernels applied to one matrix
at a time.  Records are filtered by ``volume_reference.contains_cartan`` (sl2
full-integer censuses by their exact mass cap and their wall distance against a
margin or slab, each taken here at 50 digits by mpmath) and ordered by ``sort_key``.  ``cube_candidates`` is the scan of every candidate
of the entry cube that ``wcc.lattice._sl2_candidates`` replaced, kept as its oracle.

Also ``census_counts``, the count table of one census, and ``census_sweep``,
counts over a sweep of balls with their fitted slab decay, which no command
runs (the CLI's sweep is ``wcc.survey.angular_sweep``): they were
``wcc.lattice.census_counts`` and ``census_sweep``, unchanged.  Only
``census_counts`` raises ``CompletenessError``, so it lives here too (it was
``wcc.errors.CompletenessError``).
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np

from wcc.errors import WccError
from wcc.lattice import (
    Census,
    ElementRecord,
    LatticeSpec,
    _default_sl3_generators,
    enumerate_elements,
    restrict,
)
from wcc.projections import GroupElement, cartan_vector, jordan_project
from wcc.rootsys import RootSystemA, root_system
from wcc.volume import Domain, domain_volume

from volume_reference import contains_cartan


class CompletenessError(WccError):
    """Exact statistics were requested from a sample-mode (incomplete) cache."""


def from_rows(rows, rs: RootSystemA) -> ElementRecord:
    """One record from one GroupElement (SVD and eigenvalues of the element)."""
    g = GroupElement.from_integer(rows)
    a = cartan_vector(g)
    lam, lox = jordan_project(g)
    return ElementRecord(
        matrix=tuple(tuple(int(x) for x in row) for row in rows),
        cartan=a,
        wall_margin=rs.wall_distance(a),
        loxodromic=lox,
        jordan=lam if lox else None,
    )


def sl2_record(rows, rs: RootSystemA) -> ElementRecord:
    """One sl2 record from the closed forms, computed for this matrix alone."""
    one = np.array([rows], dtype=np.int64)
    a = cartan_vector(one)[0]
    lam, lox = jordan_project(one)
    lox = bool(lox[0])
    beta = rs.simple_roots[0]
    return ElementRecord(
        matrix=tuple(tuple(int(x) for x in row) for row in rows),
        cartan=a,
        wall_margin=max(float(a @ beta), 0.0) / rs.dual_norm(beta),
        loxodromic=lox,
        jordan=lam[0] if lox else None,
    )


def sort_key(rec: ElementRecord):
    flat = tuple(x for row in rec.matrix for x in row)
    return (round(float(np.dot(rec.cartan, rec.cartan)), 12), flat)


def word_ball(generators, radius: int):
    """Breadth-first ball over the generators and their inverses, exact dedup."""
    gens = []
    for g in generators:
        ge = GroupElement.from_integer([list(r) for r in g])
        gens.append(np.array(ge.int_mat, dtype=object))
        gens.append(np.array(ge.inverse().int_mat, dtype=object))
    d = len(gens[0])
    identity = tuple(tuple(int(x) for x in row) for row in np.eye(d, dtype=int))
    seen = {identity}
    frontier = [identity]
    for _ in range(radius):
        new = []
        for rows in frontier:
            left = np.array(rows, dtype=object)
            for g in gens:
                key = tuple(tuple(int(x) for x in row) for row in (left @ g).tolist())
                if key not in seen:
                    seen.add(key)
                    new.append(key)
        frontier = new
    return sorted(seen)


def conjugated(records, base_point) -> list:
    """Records enumerated around x = h.o re-expressed as h m h^-1, in sort_key order."""
    if base_point is None:
        return records
    base = GroupElement.from_integer([list(r) for r in base_point])
    h, inv = (np.array(m.int_mat, dtype=object) for m in (base, base.inverse()))
    records = [replace(rec, matrix=tuple(tuple(int(x) for x in row) for row in (
        h @ np.array(rec.matrix, dtype=object) @ inv).tolist()))
        for rec in records]
    return sorted(records, key=sort_key)


def mass_cap(domain) -> int:
    """floor(M^2 + M^-2) = floor(2 cosh(2w)) of an sl2 ball or box, w its ``max_top_weight``
    (t / sqrt 8, or t e / 2), from the exact t and e at 50 digits."""
    with mpmath.workdps(50):
        t = mpmath.mpf(domain.t)
        two_w = t / mpmath.sqrt(2) if domain.kind == "ball" else t * mpmath.mpf(domain.edges[0])
        return int(mpmath.floor(2 * mpmath.cosh(two_w)))


def sl2_wall_kept(mass: int, domain) -> bool:
    """Whether the margin or slab of the domain keeps an sl2 matrix of mass F, at 50 digits: its
    wall distance is its Killing norm sqrt(2) arccosh(F / 2), against the exact float filter."""
    with mpmath.workdps(50):
        wall = mpmath.sqrt(2) * mpmath.acosh(mpmath.mpf(mass) / 2)
        if domain.slab is not None:
            return wall <= mpmath.mpf(domain.slab)
        return domain.regular_margin is None or wall > mpmath.mpf(domain.regular_margin)


def sl2_ball(domain, rs: RootSystemA):
    """Every SL(2,Z) matrix of mass within the domain's cap, by nested loops."""
    cap = mass_cap(domain)
    bound = math.isqrt(cap)
    rng = range(-bound, bound + 1)
    return [((a, b), (c, d)) for a in rng for b in rng for c in rng for d in rng
            if a * d - b * c == 1 and a * a + b * b + c * c + d * d <= cap]


def cube_candidates(bound: int, a_lo: int, a_hi: int, cap: int) -> np.ndarray:
    """Int64 rows (a, b, c, d) of det-one matrices with a in [a_lo, a_hi], mass <= cap,
    from every (b, c) of the cube [-bound, bound]^2 (``wcc.lattice._sl2_candidates`` as it was).

    For a != 0 the scan solves ad - bc = 1 for d; a = 0 forces bc = -1, d free.
    """
    r = np.arange(-bound, bound + 1, dtype=np.int64)
    bc1 = 1 + np.multiply.outer(r, r)
    parts = [np.empty((0, 4), dtype=np.int64)]
    for a in range(a_lo, a_hi + 1):
        if a == 0:
            d = r[r * r <= cap - 2]
            parts += [np.stack([0 * d, 0 * d + s, 0 * d - s, d], axis=1) for s in (1, -1)]
            continue
        b, c = np.nonzero(bc1 % a == 0)
        rows = np.stack([np.full_like(b, a), b - bound, c - bound, bc1[b, c] // a], axis=1)
        parts.append(rows[np.einsum("ij,ij->i", rows, rows) <= cap])
    return np.concatenate(parts)


@lru_cache(maxsize=None)
def _word_record(rows: tuple, d: int) -> ElementRecord:
    """The record of one word-ball matrix, memoised: nested balls share their matrices."""
    make = sl2_record if d == 2 else from_rows
    return make([list(r) for r in rows], root_system(d))


def reference_census(spec, domain, word_radius: int = 4) -> list:
    """What ``enumerate_elements`` returns, built one record at a time."""
    rs = root_system(spec.d)
    if spec.group == "sl2" and spec.presentation == "full_integer":
        records = [sl2_record(rows, rs) for rows in sl2_ball(domain, rs)
                   if sl2_wall_kept(sum(x * x for row in rows for x in row), domain)]
    else:
        words = word_ball(spec.generators or _default_sl3_generators(), word_radius)
        records = [_word_record(rows, spec.d) for rows in words]
        records = [rec for rec in records if contains_cartan(domain, rs, rec.cartan)]
    return conjugated(sorted(records, key=sort_key), spec.base_point)


def census_sweep(spec: LatticeSpec, t_grid, epsilons=(), **kwargs) -> dict:
    """Counts across a sweep of balls with slab ratios and their fitted decay."""
    rs = root_system(spec.d)
    grid = [float(t) for t in t_grid]
    census, meta = enumerate_elements(spec, Domain("ball", max(grid)), **kwargs)
    rows = []
    for t in grid:
        domain = Domain("ball", t)
        vol = domain_volume(rs, domain)
        ball = census if t == max(grid) else restrict(census.table, spec, domain)[0]
        counts = census_counts(ball, slabs=[eps * t for eps in epsilons],
                               volume_log=vol.log_value, complete=meta.complete)
        rows.append({**counts, "t": t, "log_volume": vol.log_value})
    report = {"rows": rows, "complete": all(r["complete"] for r in rows)}
    if epsilons and len(rows) >= 2:
        fits = {}
        for i, eps in enumerate(epsilons):
            ratios, logs = [], []
            for row in rows:
                s = eps * row["t"]
                cnt = row["slabs"][float(s)]
                if cnt > 0:
                    ratios.append(math.log(cnt) - row["log_volume"])
                    logs.append(row["log_volume"])
            if len(ratios) >= 2:
                A = np.vstack([logs, np.ones_like(logs)]).T
                (slope, _), *_ = np.linalg.lstsq(A, np.array(ratios), rcond=None)
                fits[float(eps)] = {"kappa_fit": float(-slope), "points": len(ratios)}
        report["slab_decay"] = fits
    return report


def census_counts(
    census: Census,
    slabs=(),
    regular_margin: float = 0.0,
    volume_log: float | None = None,
    complete: bool = True,
    require_complete: bool = False,
) -> dict:
    """Count table over one census: total, regular, and per-slab counts.

    Counts are normalized by the domain volume when ``volume_log`` is given.
    """
    if require_complete and not complete:
        raise CompletenessError("exact counts requested from an incomplete (sample) census")
    total, wall = len(census), census.wall_margin
    regular = int(np.count_nonzero(wall > regular_margin))
    loxo = int(np.count_nonzero(census.loxodromic))
    out = {
        "total": total,
        "regular": regular,
        "loxodromic": loxo,
        "complete": complete,
        "slabs": {},
    }
    for s in slabs:
        out["slabs"][float(s)] = int(np.count_nonzero(wall <= s))
    if volume_log is not None:
        vol = math.exp(volume_log)
        out["normalized"] = {
            "total": total / vol,
            "regular": regular / vol,
            "slabs": {k: v / vol for k, v in out["slabs"].items()},
        }
    return out
