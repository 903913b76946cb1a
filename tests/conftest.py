import faulthandler
import functools
import math
import signal

import numpy as np
import pytest

from wcc import projections as pj
from wcc.lattice import LatticeSpec, enumerate_elements
from wcc.volume import Domain


def random_group(rng, d, scale=0.6):
    """Random unimodular matrix with chamber displacement of controlled size."""
    y = rng.normal(size=d) * scale
    y -= y.mean()
    y = np.sort(y)[::-1]
    k1 = pj.random_so(d, rng)
    k2 = pj.random_so(d, rng)
    return pj.GroupElement(k1 @ np.diag(np.exp(y)) @ k2, check=False)


def random_group_batch(rng, d, n, scale=0.6):
    ys = rng.normal(size=(n, d)) * scale
    ys -= ys.mean(axis=1, keepdims=True)
    ys = -np.sort(-ys, axis=1)
    k1 = pj.random_so(d, rng, size=n)
    k2 = pj.random_so(d, rng, size=n)
    return k1 @ (np.exp(ys)[:, :, None] * k2)


@functools.cache
def criterion4_elements():
    """The constructed elements of acceptance criterion 4 as {d: [GroupElement]}: seed 4,
    500 per rank (d = 2, then d = 3), each just past ``t_zero`` at the origin for the
    (r, eps) of that criterion, with a conjugator of Cartan norm below 0.3 r."""
    from wcc import loxodromy as lx
    from wcc.rootsys import root_system

    rng = np.random.default_rng(4)
    out = {}
    for d in (2, 3):
        rs = root_system(d)
        consts = lx.fitted_constants(d)
        o = pj.BasePoint.origin(d)
        r = 0.98 * consts.r0
        eps = 0.9 * min(r / lx.cx_constant(o), consts.eps0)
        margin = 1.05 * lx.t_zero(o, eps) / math.sqrt(d)
        y = margin * (np.arange(d)[::-1] - (d - 1) / 2.0)
        out[d] = []
        for _ in range(500):
            yh = rng.normal(size=d)
            yh -= yh.mean()
            yh *= rng.uniform(0.0, 0.3 * r) / max(rs.killing_norm(yh), 1e-12)
            h = pj.random_so(d, rng) @ np.diag(np.exp(np.sort(yh)[::-1])) @ pj.random_so(d, rng)
            signs = rng.choice([1.0, -1.0], size=d)
            if np.prod(signs) < 0:
                signs[0] *= -1
            g = h @ (np.diag(np.exp(y)) @ np.diag(signs)) @ np.linalg.inv(h)
            out[d].append(pj.GroupElement(g, check=False))
    return out


@pytest.fixture(scope="session")
def census_t8():
    records, meta = enumerate_elements(LatticeSpec("sl2"), Domain("ball", 8.0))
    return records, meta


@pytest.fixture(scope="session")
def classes_trace_10():
    from wcc.survey import conjugacy_classes_sl2

    return conjugacy_classes_sl2(10)


@pytest.fixture
def linalg_calls(monkeypatch):
    """The (name, shape) of every svd, eig and eigvals call of the library, through its one LAPACK
    helper ``projections._lapack`` (whose ``svd_f`` and ``svd`` both count as svd), and of every
    np.linalg qr, det and solve call."""
    calls = []
    lapack = pj._lapack
    monkeypatch.setattr(pj, "_lapack", lambda name, m: calls.append(
        ("svd" if name.startswith("svd") else name, np.shape(m))) or lapack(name, m))
    for name in ("qr", "det", "solve"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, *args, _fn=fn, _name=name, **kwargs:
                            calls.append((_name, np.shape(m))) or _fn(m, *args, **kwargs))
    return calls


@pytest.fixture
def alarm():
    """Fail a call that does not return within 20 s instead of hanging the suite: SIGALRM
    raises in Python code, and a watchdog thread ends the process if it is stuck in C."""
    def timeout(signum, frame):
        raise TimeoutError("no result within 20 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    faulthandler.dump_traceback_later(40, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
