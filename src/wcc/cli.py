"""Single command-line entry point for the library.

Subcommands: project, flag, loxo, volume, enumerate, angular, tori, growth,
check.  Outputs are deterministic JSON documents on stdout (CSV artifacts on
request); every document embeds the effective configuration, its hash, the
library version and completeness flags.  Exit codes: 0 success, 2 parameter
or usage errors, 3 feasibility errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FeasibilityError, ParameterError, WccError

CACHE_ENV = "WCC_CACHE"


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.integer, np.floating)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(payload: dict, config: dict, complete=True, out=None):
    out = out if out is not None else sys.stdout
    config_blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=_json_default)
    doc = {
        "version": __version__,
        "config": config,
        "config_hash": hashlib.sha256(config_blob.encode()).hexdigest(),
        "complete": complete,
        "result": payload,
    }
    out.write(_dumps(doc) + "\n")


def _dumps(node, pad: str = "") -> str:
    """`json.dumps(node, sort_keys=True, indent=2, default=_json_default)`, nested at `pad`.

    Dicts with string keys recurse and row tables come from `_table_rows`;
    every other node is json.dumps's own output, re-indented.
    """
    inner = pad + "  "
    if type(node) is dict and node and all(type(k) is str for k in node):
        items = [f"{_json_str(k)}: {_dumps(v, inner)}" for k, v in sorted(node.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    rows = _table_rows(node, inner)
    if rows is not None:
        return "[\n" + inner + (",\n" + inner).join(rows) + "\n" + pad + "]"
    text = json.dumps(node, sort_keys=True, indent=2, default=_json_default)
    return text.replace("\n", "\n" + pad)


_CELL = {str: "%s", bool: "%s", int: "%r", float: "%r"}


def _table_rows(rows, pad: str):
    """The rows of a list of dicts with the same string keys and one exact type of
    `_CELL` per column (floats all finite), each from one `%` template; else None."""
    if type(rows) is not list or not rows or type(rows[0]) is not dict or not rows[0]:
        return None
    first = rows[0].keys()
    if any(type(k) is not str for k in first) or any(type(r) is not dict or r.keys() != first
                                                     for r in rows):
        return None
    inner, cells, columns = pad + "  ", [], []
    for key in sorted(first):
        column = [r[key] for r in rows]
        kinds = set(map(type, column))
        kind = kinds.pop()
        if kinds or kind not in _CELL or kind is float and not all(map(math.isfinite, column)):
            return None
        if kind is str:
            column = list(map(_json_str, column))
        elif kind is bool:
            column = ["true" if v else "false" for v in column]
        columns.append(column)
        cells.append(_json_str(key).replace("%", "%%") + ": " + _CELL[kind])
    template = "{\n" + inner + (",\n" + inner).join(cells) + "\n" + pad + "}"
    return [template % values for values in zip(*columns)]


def _parse_rows(text: str, what: str) -> list:
    """JSON rows of a square matrix of finite numbers, or of the file named after an @."""
    try:
        rows = json.loads(Path(text[1:]).read_text() if text.startswith("@") else text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"{what} must be a JSON array of rows, got {text}: {exc}") from None
    if not isinstance(rows, list) or not rows or not all(
            isinstance(r, list) and len(r) == len(rows) for r in rows):
        raise ParameterError(f"{what} must be a square JSON array of rows, got {text}")
    for x in (x for row in rows for x in row):
        if not isinstance(x, (int, float)) or isinstance(x, float) and not math.isfinite(x):
            raise ParameterError(f"{what} entry {json.dumps(x)} is not a finite number")
    return rows


def _parse_matrix(text: str):
    from .projections import GroupElement

    rows = _parse_rows(text, "matrix")
    if all(not isinstance(x, float) or x.is_integer() for row in rows for x in row):
        return GroupElement.from_integer([[int(x) for x in row] for row in rows])
    return GroupElement(np.asarray(rows))


def _finite(text: str) -> float:
    """The type of every real-valued option: a float that is not NaN or infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _count(text: str) -> int:
    """The type of --bins and --shards: an integer of at least 1."""
    if int(text) < 1:
        raise ValueError(f"below 1: {text!r}")
    return int(text)


def _radius(text: str) -> int:
    """The type of --word-radius: an integer of at least 0."""
    if int(text) < 0:
        raise ValueError(f"negative: {text!r}")
    return int(text)


def _parse_grid(text: str) -> list:
    try:
        return [_finite(token) for token in text.split(",")]
    except ValueError as exc:  # its message names the token
        raise ParameterError(f"{text!r} is not a list of finite numbers: {exc}") from None


def _write_rows(args, suffix: str, columns, rows) -> None:
    """With --out, the CSV artifact <out><suffix> of the named columns of each row dict."""
    if args.out:
        _write_csv(Path(args.out + suffix), columns, [tuple(r[c] for c in columns) for r in rows])


def _write_csv(path: Path, header, rows):
    import csv

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ------------------------------------------------------------- subcommands


def _cmd_project(args) -> int:
    from . import projections as pj
    from .rootsys import for_group

    rs = for_group(args.group)
    g = _parse_matrix(args.matrix)
    if g.d != rs.d:
        raise ParameterError(f"matrix dimension {g.d} does not match group {args.group}")
    tau_lox = pj.TAU_LOX_DEFAULT if args.tau_lox is None else args.tau_lox
    a = pj.cartan_vector(g)
    lam, lox = pj.jordan_project(g, tau_lox)
    payload = {
        "cartan": a,
        "jordan": lam,
        "loxodromic": lox,
        "wall_distance": rs.wall_distance(a),
        "killing_norm": rs.killing_norm(a),
    }
    _emit(payload, {"cmd": "project", "group": args.group, "matrix": g.mat,
                    "tau_lox": tau_lox, "seed": args.seed})
    return 0


def _cmd_flag(args) -> int:
    from . import flagmetric as fm
    from .rootsys import for_group

    d = for_group(args.group).d
    xi = fm.Flag(_parse_rows(args.xi, "xi")) if args.xi else fm.eta0(d)
    eta = fm.Flag(_parse_rows(args.eta, "eta")) if args.eta else fm.zeta0(d)
    for name, flag in (("xi", xi), ("eta", eta)):
        if flag.d != d:
            raise ParameterError(f"{name} dimension {flag.d} does not match group {args.group}")
    payload: dict = {}
    if args.op == "dist":
        payload["dist"] = fm.dist_d(xi, eta)
    elif args.op == "delta":
        payload["delta"] = fm.dist_delta(xi, eta)
    elif args.op == "gromov":
        payload["gromov"] = fm.gromov_product(xi, eta)
        payload["bms_weight"] = fm.bms_weight(xi, eta)
    elif args.op == "hopf":
        if not args.matrix:
            raise ParameterError("hopf needs --matrix")
        g = _parse_matrix(args.matrix)
        if g.d != d:
            raise ParameterError(f"matrix dimension {g.d} does not match group {args.group}")
        hp = fm.hopf(g)
        payload["xi_plus_frame"] = hp.pair.xi_plus.frame
        payload["xi_minus_frame"] = hp.pair.xi_minus.frame
        payload["a_coord"] = hp.a_coord
        payload["delta_value"] = hp.pair.delta_value
    else:
        raise ParameterError(f"unknown flag op {args.op!r}")
    _emit(payload, {"cmd": "flag", "group": args.group, "op": args.op, "seed": args.seed})
    return 0


def _cmd_loxo(args) -> int:
    from . import loxodromy as lx
    from .projections import BasePoint

    g = _parse_matrix(args.matrix)
    base = BasePoint(_parse_matrix(args.base)) if args.base else BasePoint.origin(g.d)
    if base.d != g.d:
        raise ParameterError(f"base point dimension {base.d} does not match matrix dimension {g.d}")
    cert = lx.certify(g, base, args.r, args.eps)
    payload = cert.as_dict()
    _emit(payload, {"cmd": "loxo", "matrix": g.mat, "r": args.r, "eps": args.eps,
                    "seed": args.seed})
    return 0


def _cmd_volume(args) -> int:
    from . import volume as vol
    from .rootsys import for_group

    rs = for_group(args.group)
    edges = tuple(_parse_grid(args.edges)) if args.edges else None
    # refuses a box without edges, edges without a box, and --slab with --regular-margin
    domain = vol.Domain(args.domain, args.t, edges, args.regular_margin, args.slab)
    config = {
        "cmd": "volume", "group": args.group, "domain": args.domain, "t": args.t,
        "edges": edges, "slab": args.slab, "regular_margin": args.regular_margin,
        "seed": args.seed,
    }
    if args.slab is not None:
        res = vol.slab_volume(rs, args.t, args.slab, args.domain, edges)
        extras = {"ratio_to_volume": res.extras["ratio"], "log_volume": res.extras["log_volume"]}
    elif args.domain == "box" and args.regular_margin is None:
        res = vol.box_volume(rs, args.t, edges)
        extras = {key: res.extras[key] for key in ("C_G", "delta_P", "delta_minus")}
    else:
        res, extras = vol.domain_volume(rs, domain), {}
    _emit({"value_log": res.log_value, "value": res.value, "method": res.method,
           "error": res.error_estimate, "delta0": rs.delta_zero(), **extras}, config)
    return 0


def _cmd_enumerate(args) -> int:
    from . import lattice as lt
    from .volume import Domain

    spec = lt.LatticeSpec(args.group)
    edges = tuple(_parse_grid(args.edges)) if args.edges else None
    domain = Domain(args.domain, args.t, edges, regular_margin=args.regular_margin)
    records, meta = lt.enumerate_elements(spec, domain, shards=args.shards,
                                          word_radius=args.word_radius)
    out_dir = Path(args.out or os.environ.get(CACHE_ENV, "wcc_cache"))
    lt.save_cache(out_dir, spec, domain, records, meta, shards=args.shards)
    payload = {
        "out": str(out_dir),
        "total": len(records),
        "complete": meta.complete,
        "bound": meta.bound,
        "word_radius": meta.word_radius,
        "loxodromic": int(np.count_nonzero(records.loxodromic)),
    }
    _emit(payload, {"cmd": "enumerate", "group": args.group, "domain": args.domain,
                    "t": args.t, "edges": edges, "shards": args.shards,
                    "word_radius": args.word_radius, "regular_margin": args.regular_margin,
                    "seed": args.seed},
          complete=meta.complete)
    return 0


def _load_or_enumerate(args):
    from . import lattice as lt
    from .volume import Domain

    if args.cache:
        spec, domain, records, manifest = lt.load_cache(args.cache)
        return spec, domain, records, manifest["complete"]
    if args.t is None:
        raise ParameterError("need --cache or --t to build a census")
    spec = lt.LatticeSpec(args.group)
    domain = Domain("ball", args.t)
    records, meta = lt.enumerate_elements(spec, domain)
    return spec, domain, records, meta.complete


def _cmd_angular(args) -> int:
    from . import lattice as lt, survey as sv, volume as vol
    from .rootsys import root_system

    config = {"cmd": "angular", "group": args.group, "cache": args.cache, "t": args.t,
              "bins": args.bins, "sweep": args.sweep, "seed": args.seed}
    if args.sweep:
        spec = lt.LatticeSpec(args.group)
        report = sv.angular_sweep(spec, _parse_grid(args.sweep), bins=args.bins)
        _write_rows(args, "_angular_sweep.csv", ["t", "n_regular", "ks_plus", "ks_minus"], report["rows"])
        _emit(report, config)
        return 0
    spec, domain, records, complete = _load_or_enumerate(args)
    rs = root_system(spec.d)
    v = vol.domain_volume(rs, domain)
    stats = sv.angular_statistics(records, rs, v.log_value, bins=args.bins)
    if args.out:
        hist = stats["histogram"]
        rows = list(zip(hist["edges"][:-1], hist["edges"][1:], hist["plus"], hist["minus"]))
        _write_csv(Path(args.out + "_angular_hist.csv"),
                   ["theta_lo", "theta_hi", "count_plus", "count_minus"], rows)
    _emit(stats, config, complete=complete)
    return 0


def _cmd_tori(args) -> int:
    from . import survey as sv

    config = {"cmd": "tori", "T": args.T, "T_grid": args.T_grid,
              "trace_bound": args.trace_bound, "seed": args.seed}
    if args.T_grid:
        report = sv.torus_sweep(_parse_grid(args.T_grid))
        _write_rows(args, "_tori_sweep.csv", ["T", "weighted_sum", "log_volume", "ratio"], report["rows"])
        _emit(report, config)
        return 0
    if args.T is None and args.trace_bound is None:
        raise ParameterError("tori needs --T, --T-grid or --trace-bound")
    if args.T is not None:
        report = sv.torus_census(args.T)
        _write_rows(args, "_tori.csv", ["trace", "period_volume", "multiplicity"], report["rows"])
        _emit(report, config)
        return 0
    classes = sv.conjugacy_classes_sl2(args.trace_bound)
    columns = (classes.trace.tolist(), classes.primitive.tolist(), classes.power.tolist(),
               classes.period_volume.tolist(), classes.length.tolist())
    rows = [{"trace": t, "primitive": prim, "power": k, "jordan": j, "period_volume": vol,
             "length": length, "class_id": cid}
            for t, prim, k, vol, length, j, cid in zip(*columns, classes.jordan.tolist(),
                                             classes.class_id_text(np.arange(len(classes))))]
    payload = {"classes": rows, "count": len(classes)}
    if args.out:
        _write_csv(Path(args.out + "_classes.csv"),
                   ["trace", "primitive", "power", "period_volume", "length"], zip(*columns))
    _emit(payload, config)
    return 0


def _cmd_growth(args) -> int:
    from . import survey as sv
    from .rootsys import root_system

    grid = _parse_grid(args.T_grid)
    report = sv.conjugacy_growth(grid)
    report["delta0"] = root_system(2).delta_zero()
    _write_rows(args, "_growth.csv", ["T", "count"], report["rows"])
    _emit(report, {"cmd": "growth", "T_grid": args.T_grid, "seed": args.seed})
    return 0


def _box_product_rule() -> float:
    """The d = 3 box volume at t = 3 on edges (1, 1), by a fixed 24-node Gauss-Legendre product rule
    over [0, 3]^2 in the simple-root coordinates z_i of 2 sqrt 3 sinh z_0 sinh z_1 sinh(z_0 + z_1),
    2 sqrt 3 the Killing area of the unit z-square."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(24)
    z, w = 1.5 * (x + 1.0), 1.5 * w
    return 2.0 * math.sqrt(3.0) * float(w @ (np.outer(np.sinh(z), np.sinh(z)) * np.sinh(z[:, None] + z)) @ w)


def _cmd_check(args) -> int:
    from . import flagmetric as fm, lattice as lt, loxodromy as lx, projections as pj
    from . import survey as sv, volume as vol
    from .rootsys import root_system

    quick = args.quick
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, fn):
        try:
            ok = bool(fn())
            checks.append((name, ok, ""))
        except WccError as exc:
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    rs2, rs3 = root_system(2), root_system(3)
    record("delta0 sl2", lambda: abs(rs2.delta_zero() - 1 / math.sqrt(2)) < 1e-9)
    record("delta0 sl3", lambda: abs(rs3.delta_zero() - 2 / math.sqrt(3)) < 1e-9)
    record("levi gap positive", lambda: rs3.c_gap() > 0)

    def random_groups(n):
        """n random SL(3,R) matrices k1 exp(y) k2 with a chamber displacement y of scale 0.5."""
        y = rng.normal(size=(n, 3)) * 0.5
        y = -np.sort(y.mean(axis=1, keepdims=True) - y)  # centred, in descending order
        return pj.random_so(3, rng, n) @ (np.exp(y)[:, :, None] * pj.random_so(3, rng, n))

    def cocycle_check():
        n = 50 if quick else 400
        g1, g2, frames = random_groups(n), random_groups(n), pj.random_so(3, rng, n)
        lhs = pj.iwasawa_batch(g1 @ g2, frames)
        rhs = pj.iwasawa_batch(g1, pj.flag_frame_action(g2, frames)) + pj.iwasawa_batch(g2, frames)
        return np.max(np.abs(lhs - rhs)) < 1e-8

    record("iwasawa cocycle relation", cocycle_check)

    def gromov_check():
        n = 25 if quick else 200
        worst = 0.0
        for g, xi, eta in zip(random_groups(n), pj.random_so(3, rng, n), pj.random_so(3, rng, n)):
            g, xi, eta = pj.GroupElement(g, check=False), fm.Flag(xi), fm.Flag(eta)
            lhs = fm.gromov_product(xi.translate(g), eta.translate(g)) - fm.gromov_product(xi, eta)
            rhs = rs3.opposition(pj.iwasawa_cocycle(g, xi)) + pj.iwasawa_cocycle(g, eta)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        return worst < 1e-8

    record("gromov transformation identity", gromov_check)
    record(
        "d=2 ball closed form",
        lambda: abs(vol.ball_volume(rs2, 4.0).value / vol.closed_form_ball_d2(4.0) - 1) < 1e-9,
    )
    record("d=3 box closed form vs quadrature",
           lambda: abs(vol.box_volume(rs3, 3.0, (1.0, 1.0)).value / _box_product_rule() - 1) < 1e-6)

    def census_check():
        recs, meta = lt.enumerate_elements(lt.LatticeSpec("sl2"), vol.Domain("ball", 1e-9))
        return meta.complete and len(recs) == 4

    record("census orthogonal core", census_check)
    record("golden class primitive length",
           lambda: abs(rs2.delta_zero() * sv.conjugacy_classes_sl2(3)[0].period_volume
                       - 2 * math.acosh(1.5)) < 1e-9)

    def certify_check():
        consts = lx.fitted_constants(2)
        o = pj.BasePoint.origin(2)
        r = 0.98 * consts.r0
        eps = 0.9 * min(r / lx.cx_constant(o), consts.eps0)
        m = 1.05 * lx.t_zero(o, eps) / math.sqrt(2)
        g = pj.GroupElement.from_cartan_vector(np.array([m, -m]) / 2 * 2)
        cert = lx.certify(g, o, r, eps)
        return cert.certified and max(cert.fixed_point_errors) < eps

    record("loxodromy certificate (diagonal)", certify_check)

    width = max(len(name) for name, *_ in checks)
    all_ok = True
    for name, ok, note in checks:
        all_ok &= ok
        line = f"{name:<{width}}  {'PASS' if ok else 'FAIL'}"
        if note:
            line += f"  ({note})"
        print(line)
    print(f"{'overall':<{width}}  {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcc",
        description="Weyl-chamber-flow counting toolkit for SL(2,R)/SL(3,R) lattices",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("project", help="Cartan/Jordan data of one matrix")
    p.add_argument("--group", required=True)
    p.add_argument("--matrix", required=True, help="JSON rows, or @file")
    p.add_argument("--tau-lox", type=_finite)
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("flag", help="boundary metrics and Hopf coordinates")
    p.add_argument("--group", required=True)
    p.add_argument("--op", required=True, choices=["dist", "delta", "gromov", "hopf"])
    p.add_argument("--xi", help="JSON frame (defaults to the standard flag)")
    p.add_argument("--eta", help="JSON frame (defaults to the opposite standard flag)")
    p.add_argument("--matrix", help="JSON rows for --op hopf")
    p.set_defaults(fn=_cmd_flag)

    p = sub.add_parser("loxo", help="loxodromy certificate of one matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--base", help="JSON rows of a base-point representative")
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--eps", type=_finite, required=True)
    p.set_defaults(fn=_cmd_loxo)

    p = sub.add_parser("volume", help="Harish-Chandra volumes and slabs")
    p.add_argument("--group", required=True)
    p.add_argument("--domain", default="ball", choices=["ball", "box"])
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--edges", help="comma-separated box edge lengths")
    p.add_argument("--slab", type=_finite)
    p.add_argument("--regular-margin", type=_finite, dest="regular_margin")
    p.set_defaults(fn=_cmd_volume)

    p = sub.add_parser("enumerate", help="integer lattice census into a cache")
    p.add_argument("--group", required=True)
    p.add_argument("--domain", default="ball", choices=["ball", "box"])
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--edges")
    p.add_argument("--regular-margin", type=_finite, dest="regular_margin")
    p.add_argument("--out", help=f"cache directory (default ${CACHE_ENV} or wcc_cache)")
    p.add_argument("--shards", type=_count, default=1)
    p.add_argument("--word-radius", type=_radius, default=4)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("angular", help="angular equidistribution statistics")
    p.add_argument("--group", default="sl2")
    p.add_argument("--cache", help="census cache directory")
    p.add_argument("--t", type=_finite)
    p.add_argument("--bins", type=_count, default=36)
    p.add_argument("--sweep", help="comma-separated t grid")
    p.add_argument("--out", help="CSV artifact prefix")
    p.set_defaults(fn=_cmd_angular)

    p = sub.add_parser("tori", help="conjugacy classes and periodic-torus sums")
    p.add_argument("--T", type=_finite)
    p.add_argument("--T-grid", dest="T_grid")
    p.add_argument("--trace-bound", type=int, dest="trace_bound")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tori)

    p = sub.add_parser("growth", help="conjugacy-class growth trend")
    p.add_argument("--T-grid", dest="T_grid", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("check", help="run the invariant battery")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=_cmd_check)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except FeasibilityError as exc:
        print(f"feasibility error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, WccError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
