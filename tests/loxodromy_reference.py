"""The per-element Jordan-Cartan flat bound, kept unchanged as a test reference.

``reference_jordan_cartan_gap`` and ``reference_flat_bound_survey`` were
``wcc.loxodromy.jordan_cartan_gap`` and ``wcc.survey.flat_bound_survey`` before
the survey became one stacked pass over its records: one Jordan projection,
one x-Cartan projection, one pair of fixed flags and one ``flat_distance``
per element.

Also the projective contraction check, which no command, acceptance criterion or
library function runs: ``ContractionResult`` and ``contraction_check`` were
``wcc.loxodromy``'s, unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np

from wcc import flagmetric as fm
from wcc import projections as pj
from wcc.errors import LoxodromyError, NumericError, PreconditionError, WccError
from wcc.loxodromy import GAP_SLACK
from wcc.projections import BasePoint, GroupElement
from wcc.rootsys import root_system


def reference_jordan_cartan_gap(gamma: GroupElement, x: BasePoint) -> float:
    """Distance between the Jordan and x-Cartan projections of a loxodromic element.

    Also asserts the flat bound: the gap never exceeds twice the distance
    from x to the fixed-point flat (plus ``GAP_SLACK``).
    """
    lam, is_lox = pj.jordan_project(gamma)
    if not is_lox:
        raise LoxodromyError("jordan_cartan_gap needs a loxodromic element")
    rs = root_system(gamma.d)
    gap = rs.killing_norm(lam - pj.cartan_at(gamma, x))
    gp, gm = fm.fixed_points(gamma)
    bound = 2.0 * fm.flat_distance(x, fm.TransversePair(gp, gm)) + GAP_SLACK
    if gap > bound:
        raise NumericError(
            f"flat bound violated: gap {gap} exceeds 2*flat_distance + slack = {bound}"
        )
    return gap


def reference_flat_bound_survey(records, x: BasePoint | None = None) -> dict:
    """Jordan-Cartan flat bound over the loxodromic part of a census; elements
    whose gap raises a library error are violations, listed under ``failures``."""
    rows, failures = [], []
    for rec in records:
        if not rec.loxodromic:
            continue
        g = GroupElement.from_integer([list(r) for r in rec.matrix])
        base = x if x is not None else BasePoint.origin(g.d)
        try:
            gap = reference_jordan_cartan_gap(g, base)
        except WccError as exc:
            failures.append({"matrix": rec.matrix, "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append({"matrix": rec.matrix, "gap": gap})
    return {"checked": len(rows), "violations": len(failures), "failures": failures,
            "max_gap": max((r["gap"] for r in rows), default=0.0), "gaps": [r["gap"] for r in rows]}


@dataclass
class ContractionResult:
    analytic: bool
    n_sampled: int
    n_contracted: int
    max_image_distance: float


def contraction_check(a, epsilon: float, n_samples: int = 1000, seed: int = 7) -> ContractionResult:
    """Analytic contraction criterion plus a sampled verification.

    Analytic flag: every simple root of ``a`` is at least -2 log(eps).  When
    sampling, flags at gauge distance at least eps from the repelling flag
    must be mapped into the eps-ball of the attracting one.
    """
    a = np.asarray(a, dtype=float)
    rs = root_system(len(a))
    if not rs.in_closed_chamber(a):  # which also refuses a vector off the zero-sum plane
        raise PreconditionError("contraction_check needs a closed-chamber vector")
    if not 0.0 < epsilon < 1.0:
        raise PreconditionError(f"epsilon must be in (0,1), got {epsilon}")
    analytic = all(float(c @ a) >= -2.0 * math.log(epsilon) for c in rs.simple_roots)

    rng = np.random.default_rng(seed)
    d = len(a)
    g = np.diag(np.exp(a))
    target = fm.eta0(d)
    repeller = fm.zeta0(d)
    contracted, sampled = 0, 0
    worst = 0.0
    attempts = 0
    while sampled < n_samples and attempts < 50 * n_samples:
        attempts += 1
        xi = fm.Flag(pj.random_so(d, rng))
        if fm.dist_delta(xi, repeller) < epsilon:
            continue
        sampled += 1
        dist = fm.dist_d(xi.translate(g), target)
        worst = max(worst, dist)
        if dist <= epsilon:
            contracted += 1
    return ContractionResult(analytic, sampled, contracted, worst)
