"""Statistical harness over the census: angular equidistribution, conjugacy
classes and periodic-torus bookkeeping, growth trends, Jordan-Cartan gaps.

SL(2,Z) caveats, stated once: the lattice is neither cocompact nor torsion
free, and -identity is central and acts trivially on the space of Weyl
chambers.  Conjugacy classes are therefore taken at positive trace (each
sign pair collapses to its positive representative), which is exactly the
quotient on which the class <-> (torus, regular period) correspondence is a
bijection.  All reported trends are exploratory in the non-cocompact regime.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError, WccError
from .rootsys import root_system

if TYPE_CHECKING:  # the sibling modules load in the functions that run them
    from .lattice import Census, LatticeSpec
    from .projections import BasePoint

SQRT8 = 2.0 * math.sqrt(2.0)


def __getattr__(name):
    # `survey.enumerate_elements` is still read by perfbench's recorder test
    if name == "enumerate_elements":
        from .lattice import enumerate_elements

        return enumerate_elements
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------- angular distribution


def sl2_angles(matrices):
    """Attracting/repelling boundary angles (mod pi) of an (n, 2, 2) matrix array.

    The attracting flag of a regular element is its top left-singular
    direction; the repelling one is the orthogonal complement of the top
    right-singular direction.
    """
    mats = np.asarray(matrices, dtype=float)
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    # top eigenvector angle of g^T g gives the right-singular direction
    theta_v = 0.5 * np.arctan2(2.0 * (a * b + c * d), (a * a + c * c) - (b * b + d * d))
    cos, sin = np.cos(theta_v), np.sin(theta_v)
    theta_plus = np.mod(np.arctan2(c * cos + d * sin, a * cos + b * sin), math.pi)
    theta_minus = np.mod(theta_v + 0.5 * math.pi, math.pi)
    return theta_plus, theta_minus


def ks_to_uniform(values, period: float = math.pi) -> float:
    """Kolmogorov-Smirnov distance of samples to the uniform law on [0, period)."""
    x = np.sort(np.asarray(values, dtype=float)) / period
    n = len(x)
    if n == 0:
        raise ParameterError("KS distance needs at least one sample")
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - x), np.max(x - (grid - 1.0 / n))))


def angular_statistics(census: Census, rs, volume_log: float, bins: int = 36, psi=None) -> dict:
    """Empirical angular measure of a census against the rotation-invariant law.

    Counts the chamber-regular elements, those with ``wall_margin > 0`` (angular
    flags require chamber-regular displacements).  For sl2 the two boundary
    marginals live on the circle of lines, where the invariant law is uniform in
    angle; the report carries KS distances, histogram rows, and the normalized
    test-function sums, whose reference mean is over 200,000 uniform samples
    (seed 5).
    """
    kept = census.wall_margin > 0.0
    n_regular = int(np.count_nonzero(kept))
    if rs.d != 2:
        raise ParameterError("angular statistics are shipped for sl2 censuses")
    if not n_regular:
        raise ParameterError("no regular census elements above the margin")
    theta_plus, theta_minus = sl2_angles(census.table[kept].reshape(-1, 2, 2))
    vol = math.exp(volume_log)
    out = {
        "n_regular": n_regular,
        "count_over_volume": n_regular / vol,
        "ks_plus": ks_to_uniform(theta_plus),
        "ks_minus": ks_to_uniform(theta_minus),
    }
    edges = np.linspace(0.0, math.pi, bins + 1)
    hist_plus, _ = np.histogram(theta_plus, bins=edges)
    hist_minus, _ = np.histogram(theta_minus, bins=edges)
    out["histogram"] = {
        "edges": edges.tolist(),
        "plus": hist_plus.tolist(),
        "minus": hist_minus.tolist(),
    }
    if psi is not None:
        empirical = float(np.sum(psi(theta_plus, theta_minus))) / vol
        rng, n_reference = np.random.default_rng(5), 200000
        ref_plus = rng.uniform(0.0, math.pi, n_reference)
        ref_minus = rng.uniform(0.0, math.pi, n_reference)
        vals = np.asarray(psi(ref_plus, ref_minus), dtype=float)
        mean, err = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_reference))
        out["psi"] = {
            "empirical_sum_over_volume": empirical,
            "reference_mean": mean,
            "reference_std_err": err,
            "predicted_sum_over_volume": out["count_over_volume"] * mean,
        }
    return out


def angular_sweep(spec: LatticeSpec, t_grid, bins: int = 36) -> dict:
    """KS distances across a sweep of balls plus the fitted decay exponent."""
    from .lattice import enumerate_elements, restrict
    from .volume import Domain, domain_volume

    rs = root_system(spec.d)
    grid = [float(t) for t in t_grid]
    census, meta = enumerate_elements(spec, Domain("ball", max(grid)))
    rows = []
    for t in grid:
        domain = Domain("ball", t)
        vol = domain_volume(rs, domain)
        ball = census if t == max(grid) else restrict(census.table, spec, domain)[0]
        stats = angular_statistics(ball, rs, vol.log_value, bins=bins)
        row = {k: stats[k] for k in ("n_regular", "ks_plus", "ks_minus")}
        rows.append({"t": t, **row, "ks_max": max(row["ks_plus"], row["ks_minus"]),
                     "log_volume": vol.log_value, "complete": meta.complete})
    report = {"rows": rows}
    if len(rows) >= 2:
        logs_v = np.array([r["log_volume"] for r in rows])
        logs_ks = np.log(np.array([r["ks_max"] for r in rows]))
        A = np.vstack([logs_v, np.ones_like(logs_v)]).T
        (slope, _), *_ = np.linalg.lstsq(A, logs_ks, rcond=None)
        report["kappa_fit"] = float(-slope)
        tail = [r["ks_max"] for r in rows[-3:]]
        report["tail_nonincreasing"] = bool(all(x >= y for x, y in zip(tail, tail[1:])))
    return report


# -------------------------------------------- conjugacy classes and tori


@dataclass
class TorusRecord:
    """One positive-trace hyperbolic class with its periodic-torus data."""

    class_id: tuple
    trace: int
    primitive: bool
    power: int
    root_trace: int
    jordan: np.ndarray
    period_volume: float  # Killing covolume of the period grid = primitive length
    length: float  # Killing norm of this class's own Jordan projection
    root_key: tuple  # (trace, least form) of the primitive root class


@dataclass(frozen=True, eq=False)
class ClassTable(Sequence):
    """Positive-trace hyperbolic classes of SL(2,Z) as columns, one row per
    class in (trace, least form) order: trace, power, the row of the primitive
    root class, primitive, jordan, period_volume and length.  Class j's
    reduction cycle is forms[start[j]:start[j + 1]], from its least form.
    Indexing and iteration give ``TorusRecord`` views, built once per row; class ids
    come as tuples from ``class_id`` and as their repr text from ``class_id_text``."""

    forms: np.ndarray
    start: np.ndarray
    trace: np.ndarray
    power: np.ndarray
    root: np.ndarray
    primitive: np.ndarray
    jordan: np.ndarray
    period_volume: np.ndarray
    length: np.ndarray
    _views: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.trace)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k = range(len(self))[i]
        if k not in self._views:
            r = int(self.root[k])
            self._views[k] = TorusRecord(
                self.class_id(k), int(self.trace[k]), bool(self.primitive[k]),
                int(self.power[k]), int(self.trace[r]), self.jordan[k],
                float(self.period_volume[k]), float(self.length[k]),
                (int(self.trace[r]), tuple(self.forms[self.start[r]].tolist())))
        return self._views[k]

    def class_id(self, k: int) -> tuple:
        """(trace, reduction cycle from the least form) of class k."""
        lo, hi = self.start[k : k + 2].tolist()
        return int(self.trace[k]), tuple(map(tuple, self.forms[lo:hi].tolist()))

    def class_id_text(self, rows: np.ndarray) -> list[str]:
        """``repr(self.class_id(k))`` for k in rows, in one pass: every trace and form
        entry goes through one `%` template joined from one template per cycle length."""
        lo, n = self.start[rows], np.diff(self.start)[rows]
        first = np.cumsum(n) - n  # of each class's forms among the selected ones
        forms = self.forms[np.repeat(lo - first, n) + np.arange(n.sum())]
        values = np.insert(forms.ravel(), 3 * first, self.trace[rows])
        text = "\n".join(map(_id_template, n.tolist())) % tuple(values.tolist())
        return text.split("\n") if len(rows) else []


@lru_cache(maxsize=None)
def _id_template(length: int) -> str:
    """`%` template of the repr of a class id whose cycle has this many forms."""
    return "(%d, (" + ", ".join(["(%d, %d, %d)"] * length) + ("," if length == 1 else "") + "))"


def conjugacy_classes_sl2(trace_bound: int) -> ClassTable:
    """All positive-trace hyperbolic classes of SL(2,Z) with trace <= bound.

    Class identity is the canonical reduction cycle of the fixed-point form,
    an exact integer invariant; primitivity and the primitive length come
    from the Pell automorph (u1, v1) of the form's primitive part, which
    depends on the trace and the content m0 only.  That automorph is the root
    class; its form is v1/m0 times this one, and rho commutes with positive
    scaling, so v1/m0 times the least form is the least form of the root.
    """
    from . import bqf

    if trace_bound < 3:
        raise ParameterError(f"trace bound must be at least 3, got {trace_bound}")
    traces = range(3, trace_bound + 1)
    forms, start, disc = bqf.cycle_table([t * t - 4 for t in traces])
    trace, least = disc + 3, forms[start[:-1]]
    m0 = np.gcd.reduce(np.abs(least), axis=1)
    _, first, pair = np.unique(trace * (m0.max() + 1) + m0, return_index=True,
                               return_inverse=True)
    # one power decomposition per (trace, content) pair, then broadcast
    split = [bqf.primitive_split(t, f) for t, f in
             zip(trace[first].tolist(), map(tuple, least[first].tolist()))]
    power, u1, v1 = np.array([(k, u, v) for k, _, (u, v), _ in split]).T[:, pair]
    root = bqf._lookup(np.c_[disc, least], np.c_[u1 - 3, least // m0[:, None] * v1[:, None]])
    log_eps = np.array([math.log((t + math.sqrt(t * t - 4.0)) / 2.0) for t in traces])
    return ClassTable(
        forms=forms,
        start=start,
        trace=trace,
        power=power,
        root=root,
        primitive=power == 1,
        jordan=np.c_[log_eps, -log_eps][disc],
        period_volume=np.array([SQRT8 * math.log((u + v * math.sqrt(Dp)) / 2.0)
                                for _, _, (u, v), Dp in split])[pair],
        length=(SQRT8 * log_eps)[disc],
    )


def trace_bound_for_length(T: float) -> int:
    """Largest trace whose Jordan length fits in the Killing ball of radius T, and 3 below the
    shortest class (trace 3, length sqrt 8 arccosh(3/2)), so that a census there is empty."""
    if not T > 0:  # the bound is even in T: a negative T would ask for as many classes as -T
        raise ParameterError(f"torus scale T must be positive, got {T}")
    return max(3, int(math.floor(2.0 * math.cosh(T / SQRT8))))


def _torus_sums(T: float, classes: ClassTable):
    """(primitive rows in the ball, their multiplicities, classes in the ball,
    left sum, right sum, regroup_exact) at scale T.  The regrouping is exact
    when the (root row, power) pairs of the classes in the ball are exactly
    (p, 1..multiplicity of p) over the primitive rows p in the ball."""
    in_ball = classes.length <= T
    prim = np.flatnonzero(in_ball & classes.primitive)
    pv = classes.period_volume[prim]
    mult = np.floor(T / pv + 1e-12).astype(np.int64)
    left_sum = math.fsum(classes.period_volume[in_ball].tolist())
    # left to right in class order: np.sum is pairwise, and the builtin sum
    # is compensated on Python >= 3.12, so either would move the last bits
    right_sum = reduce(add, (mult * pv).tolist(), 0.0)
    pairs = np.c_[classes.root, classes.power][in_ball]
    first = np.repeat(np.cumsum(mult) - mult, mult)
    expect = np.c_[np.repeat(prim, mult), np.arange(len(first)) - first + 1]
    order = np.argsort(pairs[:, 0] * (pairs[:, 1].max(initial=0) + 1) + pairs[:, 1])
    exact = np.array_equal(pairs[order], expect)
    exact = exact and abs(left_sum - right_sum) <= 1e-9 * max(1.0, left_sum)
    return prim, mult, len(pairs), left_sum, right_sum, exact


def torus_census(T: float, classes: ClassTable | None = None) -> dict:
    """Weighted torus sum at scale T with the exact regrouping check.

    Left side: the primitive length summed over all classes with Jordan
    length at most T.  Right side: over primitive classes, the number of
    chamber periods in the ball times the period covolume.  The two are the
    same data regrouped; the report carries both sums, the integer-level
    regrouping verdict, and per-torus rows; a row's class id is its repr text.
    """
    if classes is None:
        classes = conjugacy_classes_sl2(trace_bound_for_length(T))
    prim, mult, n_in_ball, left_sum, right_sum, regroup_exact = _torus_sums(T, classes)
    rows = [{"trace": t, "class_id": cid, "period_volume": pv, "multiplicity": n}
            for t, cid, pv, n in zip(classes.trace[prim].tolist(), classes.class_id_text(prim),
                                     classes.period_volume[prim].tolist(), mult.tolist())]
    return {"T": T, "classes_in_ball": n_in_ball, "primitive_tori": len(prim),
            "left_sum": left_sum, "right_sum": right_sum, "regroup_exact": regroup_exact,
            "rows": rows}


def torus_sweep(T_grid, classes: ClassTable | None = None) -> dict:
    """Ratio of the weighted torus sum to the ball volume across a T sweep."""
    from .volume import Domain, domain_volume

    rs = root_system(2)
    T_grid = [float(t) for t in T_grid]
    if classes is None:
        classes = conjugacy_classes_sl2(trace_bound_for_length(max(T_grid)))
    rows = []
    for T in T_grid:
        *_, right_sum, regroup_exact = _torus_sums(T, classes)
        vol = domain_volume(rs, Domain("ball", T))
        rows.append({"T": T, "weighted_sum": right_sum, "log_volume": vol.log_value,
                     "ratio": right_sum / math.exp(vol.log_value), "regroup_exact": regroup_exact})
    report = {"rows": rows}
    if len(rows) >= 2:
        last, prev = rows[-1]["ratio"], rows[-2]["ratio"]
        report["tail_relative_change"] = abs(last - prev) / max(abs(prev), 1e-300)
    return report


def conjugacy_growth(T_grid, classes: ClassTable | None = None) -> dict:
    """Loxodromic class counts over a T sweep and the growth-rate fit.

    Fits log count = rate * T + p * log T + c; the reported rate targets the
    volume growth exponent, and p is the empirical polynomial correction,
    reported with a standard error and no pass/fail attached.  Only
    positive-trace hyperbolic classes are counted: the parabolic classes of
    SL(2,Z) form an infinite family with zero Jordan projection, an artifact
    of non-cocompactness.
    """
    T_grid = [float(t) for t in T_grid]
    if len(set(T_grid)) < 3:
        raise ParameterError(f"the growth fit has three parameters: it needs three distinct T, got {T_grid}")
    if classes is None:
        classes = conjugacy_classes_sl2(trace_bound_for_length(max(T_grid)))
    # classes come in trace order and the length grows with the trace
    counts = np.searchsorted(classes.length, T_grid, side="right")
    if np.any(counts == 0):
        raise ParameterError("T grid starts below the shortest class length")
    ys = np.log(counts.astype(float))
    A = np.vstack([T_grid, np.log(T_grid), np.ones_like(T_grid)]).T
    coef, residuals, *_ = np.linalg.lstsq(A, ys, rcond=None)
    dof = max(1, len(T_grid) - 3)
    resid = ys - A @ coef
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(A.T @ A)
    return {
        "rows": [{"T": T, "count": int(n)} for T, n in zip(T_grid, counts)],
        "rate_fit": float(coef[0]),
        "poly_exponent_fit": float(coef[1]),
        "poly_exponent_std_err": float(math.sqrt(max(cov[1, 1], 0.0))),
        "rate_std_err": float(math.sqrt(max(cov[0, 0], 0.0))),
        "monotone": bool(np.all(np.diff(counts) >= 0)),
    }


# ------------------------------------------------------ Jordan-Cartan survey


def jordan_cartan_survey(trace_bound: int, radii=(0, 2, 4, 6)) -> dict:
    """Minimal conjugate Cartan-vs-Jordan gap per class over word balls.

    For each positive-trace class, minimizes the Killing distance between
    the Jordan projection and the origin-based displacement of conjugated
    representatives over conjugator balls of growing radius.  The largest
    minimum is the empirical conjugation constant of the lattice.
    """
    from . import bqf
    from .lattice import _word_ball
    from .projections import _integer_inverse, cartan_vector

    classes = conjugacy_classes_sl2(trace_bound)
    generators = (((0, -1), (1, 0)), ((1, 1), (0, 1)))  # S and T
    balls = {r: _word_ball(generators, r) for r in radii}
    rows = []
    for rec in classes:
        t, cid = rec.class_id
        rep = np.array(bqf.matrix_of_form(cid[0], t))
        gaps = {}
        for r in radii:
            conjs = balls[r] @ rep @ _integer_inverse(balls[r])
            # both vectors are (s, -s): the gap is the norm difference
            gaps[r] = float(np.min(np.abs(SQRT8 * cartan_vector(conjs)[:, 0] - rec.length)))
        rows.append({"trace": t, "class_id": cid, "gaps": gaps})
    max_radius = max(radii)
    c_gamma = max(row["gaps"][max_radius] for row in rows)
    monotone = all(
        row["gaps"][r1] >= row["gaps"][r2] - 1e-12
        for row in rows
        for r1, r2 in zip(radii, radii[1:])
    )
    return {"rows": rows, "C_Gamma": c_gamma, "radii": list(radii), "monotone": monotone}


def flat_bound_survey(records, x: BasePoint | None = None) -> dict:
    """Jordan-Cartan flat bound over the loxodromic part of a census (a ``Census``, read
    by its columns, or a list of ``ElementRecord``s), as one stacked pass; elements whose
    gap raises a library error are violations, listed under ``failures``."""
    from .lattice import Census
    from .loxodromy import _flat_bound_rows
    from .projections import _INT_STACK_MAX, BasePoint

    if isinstance(records, Census):
        d = math.isqrt(records.table.shape[1])
        mats = records.table[records.loxodromic].reshape(-1, d, d)
    else:
        mats = np.array([rec.matrix for rec in records if rec.loxodromic], dtype=object)
    if not len(mats):
        return {"checked": 0, "violations": 0, "failures": [], "max_gap": 0.0}
    mats = mats.astype(np.int64 if np.all(np.abs(mats) <= _INT_STACK_MAX) else object)
    base = x if x is not None else BasePoint.origin(mats.shape[1])
    gaps, failures = [], []
    for i, row in enumerate(_flat_bound_rows(mats, base)):
        if isinstance(row, WccError):  # the matrix as ``ElementRecord.matrix`` holds it: rows of ints
            failures.append({"matrix": tuple(map(tuple, mats[i].tolist())), "error": f"{type(row).__name__}: {row}"})
        else:
            gaps.append(row)
    return {"checked": len(gaps), "violations": len(failures), "failures": failures,
            "max_gap": max(gaps, default=0.0)}
