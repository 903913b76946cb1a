"""The per-element Jordan-Cartan flat bound, kept unchanged as a test reference.

``reference_jordan_cartan_gap`` and ``reference_flat_bound_survey`` were
``wcc.loxodromy.jordan_cartan_gap`` and ``wcc.survey.flat_bound_survey`` before
the survey became one stacked pass over its records: one Jordan projection,
one x-Cartan projection, one pair of fixed flags and one ``flat_distance``
per element.
"""

from wcc import flagmetric as fm
from wcc import projections as pj
from wcc.errors import LoxodromyError, NumericError, WccError
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
