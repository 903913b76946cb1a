"""Survey helpers that no command or acceptance criterion runs, kept for their
tests: the balanced/unbalanced split of a sampled census and the class id of one
matrix (they were ``wcc.survey.balanced_split`` and ``class_id_of_matrix``,
unchanged); and the class-id text one row at a time, the oracle of
``ClassTable.class_id_text``."""

import numpy as np

from bqf_reference import form_of_matrix
from wcc import bqf
from wcc.errors import ParameterError
from wcc.lattice import Census
from wcc.rootsys import root_system


def balanced_split(census: Census, T: float, kappa: float) -> dict:
    """Balanced/unbalanced split of sampled loxodromic elements at T / kappa.

    Sample-mode report (word-ball censuses are not exhaustive): an element
    counts as balanced when its Jordan length exceeds the threshold.
    """
    threshold = T / kappa
    jordan = census.jordan[census.loxodromic]
    length = np.sqrt(root_system(jordan.shape[1]).killing_scale * np.vecdot(jordan, jordan))
    length = length[length <= T]
    return {
        "T": T,
        "kappa": kappa,
        "threshold": threshold,
        "balanced": int(np.count_nonzero(length > threshold)),
        "unbalanced": int(np.count_nonzero(length <= threshold)),
        "exhaustive": False,
    }


def class_id_of_matrix(m) -> tuple:
    """Conjugation-invariant id of a positive-trace hyperbolic integer matrix."""
    (a, b), (c, d) = m
    trace = int(a) + int(d)
    if trace < 3:
        raise ParameterError(f"class ids are issued for trace >= 3, got {trace}")
    return (trace, bqf.class_id(form_of_matrix(m)))


def reference_class_id_text(classes, rows) -> list:
    """The repr of each row's class-id tuple, one row at a time (as ``torus_census``
    and ``wcc tori`` wrote it before the one-pass text)."""
    return [repr(classes.class_id(k)) for k in rows]
