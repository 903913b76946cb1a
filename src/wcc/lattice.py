"""Exact enumeration of integer lattice elements in chamber domains.

SL(2,Z) is enumerated exactly: the domain bounds the largest singular value,
hence the Frobenius mass, by an integer cap decided at 50 digits; each
primitive first column within it gives the matrices of mass within the cap
as one integer range.  SL(3,Z) (or any generated presentation) ships as a
breadth-first word ball with exact dedup and an explicit incompleteness
flag: stats downstream are samples, not censuses.  Every census is one int64
table with its columns (a ``Census``), conjugated by a base point in one exact
stack product and ordered by (round(|a|^2, 12), entries).  Balls are nested,
so a sweep enumerates once and restricts that census to each smaller ball.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import shutil
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from decimal import ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import numpy as np

from .errors import FeasibilityError, NumericError, ParameterError, PreconditionError
from .projections import _int_conjugate, _int_det, _integer_inverse, cartan_vector, jordan_project
from .rootsys import RootSystemA, root_system
from .volume import Domain

CACHE_VERSION = 2
CANDIDATE_CAP = int(5e6)  # sl2 scan rows: a census peaks near 190 bytes a row, ~1 GB here (t ~ 19.3)


@dataclass(frozen=True)
class LatticeSpec:
    group: str
    presentation: str = "full_integer"
    generators: tuple | None = None
    base_point: tuple | None = None  # integer unimodular matrix rows, or None for the origin

    def __post_init__(self):
        if self.group not in ("sl2", "sl3"):
            raise ParameterError(f"group must be sl2 or sl3, got {self.group!r}")
        if self.presentation not in ("full_integer", "generated"):
            raise ParameterError(f"unknown presentation {self.presentation!r}")
        if self.presentation == "generated" and not self.generators:
            raise ParameterError("generated presentation needs generator matrices")
        named = [("generator", g) for g in self.generators or ()]
        if self.base_point is not None:
            named.append(("base point", self.base_point))
        for what, m in named:
            rows = np.array(m, dtype=object)
            if not (rows.shape == (self.d, self.d) and all(isinstance(x, numbers.Integral) for x in rows.flat)
                    and _int_det(np.frompyfunc(int, 1, 1)(rows)) == 1):
                raise ParameterError(f"{what} must be {self.d} x {self.d} integer rows of determinant 1, got {m!r}")

    @property
    def d(self) -> int:
        return 2 if self.group == "sl2" else 3


@dataclass
class ElementRecord:
    matrix: tuple  # rows of exact integers
    cartan: np.ndarray
    wall_margin: float
    loxodromic: bool
    jordan: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Census(Sequence):
    """An ordered census as columns: the int64 (n, d*d) table of its matrices and
    their cartan, wall_margin, loxodromic and jordan columns.  Indexing and
    iteration build ``ElementRecord``s on demand; slices give lists of them."""

    table: np.ndarray
    cartan: np.ndarray
    wall_margin: np.ndarray
    loxodromic: np.ndarray
    jordan: np.ndarray

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self._records(i))
        k = range(len(self))[i]
        return next(self._records(slice(k, k + 1)))

    def __iter__(self):
        return self._records(slice(None))

    def _records(self, rows: slice):
        d = math.isqrt(self.table.shape[1])
        cols = self.table[rows].T.tolist()  # row tuples zipped from columns: no list per record
        matrices = zip(*(zip(*cols[i * d:(i + 1) * d]) for i in range(d)))
        return (ElementRecord(m, a, w, x, lam if x else None) for m, a, w, x, lam in
                zip(matrices, self.cartan[rows], self.wall_margin[rows].tolist(),
                    self.loxodromic[rows].tolist(), self.jordan[rows]))


# ------------------------------------------------------------- enumeration


def _sl2_mass_cap(domain: Domain, rs: RootSystemA) -> int:
    """Ball and box bound sigma_max by M = exp(w), w the domain's ``max_top_weight`` (t / sqrt 8 for
    a ball, t e / 2 for a box of edge e): for det-one g that is mass <= M^2 + M^-2.  Decided exactly:
    M^2 from the exact t and e in ``decimal``, and floor(M^2 + M^-2) at 50 digits past the point.
    M^2 + M^-2 is no integer for t > 0 (e^(2w) is transcendental by Lindemann-Weierstrass), so a
    value within 1e-40 of one above 2 raises NumericError (one within 1e-40 of 2 gives 2)."""
    if (w := domain.max_top_weight(rs)) > 350.0:  # no int64 census nears M^2 > e^700, and decimal would crawl
        raise NumericError(f"census cap exp({2.0 * w}) is beyond float range")
    with localcontext() as ctx:
        ctx.prec = 60 + int(w)  # 50 digits past the point at least
        t = Decimal(domain.t)
        m2 = (t / Decimal(2).sqrt() if domain.kind == "ball" else t * Decimal(domain.edges[0])).exp()
        value = m2 + 1 / m2
        if (near := value.to_integral_value()) > 2 and abs(value - near) < Decimal("1e-40"):
            raise NumericError(f"census cap {value} at t = {domain.t!r} is too close to an integer")
        return max(2, int(value.to_integral_value(ROUND_FLOOR)))


def _sl2_wall_cap(radius: float, rs: RootSystemA) -> int:
    """The mass cap of the rows within wall distance r, the ball of radius r; 2 at r = 0.  From
    r = 900 on it is the cap at 900, e^636, which passes every int64 mass (below e^89) as well."""
    return _sl2_mass_cap(Domain("ball", min(radius, 900.0)), rs) if radius > 0 else 2


def _sl2_candidates(a_lo: int, a_hi: int, mass_cap: int) -> np.ndarray:
    """Int64 rows (a, b, c, d) of the det-one matrices with a in [a_lo, a_hi] and mass <= mass_cap,
    in time linear in the rows.  Their first columns (a, c) are primitive with n = a^2 + c^2 < mass_cap,
    as n (b^2 + d^2) >= (ad - bc)^2 = 1; one stacked extended Euclid gives a d0 - b0 c = 1, and the
    matrices of that column are (a, b0 + k a; c, d0 + k c).  With p = a b0 + c d0, Lagrange's identity
    n (b0^2 + d0^2) - p^2 = 1 makes n (mass - n) = (n k + p)^2 + 1, so mass <= mass_cap exactly for
    |n k + p| <= isqrt(n (mass_cap - n) - 1)."""
    top = math.isqrt(mass_cap - 1)
    a, c = np.meshgrid(np.arange(max(a_lo, -top), min(a_hi, top) + 1, dtype=np.int64),
                       np.arange(-top, top + 1, dtype=np.int64), indexing="ij")
    n = a * a + c * c
    keep = (n < mass_cap) & (np.gcd(a, c) == 1)
    a, c, n = a[keep], c[keep], n[keep]
    r0, r1, x0, x1, y0, y1 = a, c, np.ones_like(a), 0 * a, 0 * a, np.ones_like(a)
    while (live := r1 != 0).any():  # r0 = a x0 + c y0 and r1 = a x1 + c y1 throughout
        q = r0 // np.where(live, r1, 1)
        r0, r1, x0, x1, y0, y1 = (np.where(live, new, old) for new, old in (
            (r1, r0), (r0 - q * r1, r1), (x1, x0), (x0 - q * x1, x1), (y1, y0), (y0 - q * y1, y1)))
    d0, b0 = x0 * r0, -y0 * r0  # r0 = gcd = +-1
    p, disc = a * b0 + c * d0, n * (mass_cap - n) - 1
    s = np.sqrt(disc.astype(float)).astype(np.int64)
    s += (s + 1) * (s + 1) <= disc
    s -= s * s > disc
    k_lo, k_hi = -((p + s) // n), (s - p) // n
    count = np.maximum(k_hi - k_lo + 1, 0)
    col = np.repeat(np.arange(len(n)), count)
    k = k_lo[col] + np.arange(len(col)) - np.repeat(np.cumsum(count) - count, count)
    return np.stack([a[col], b0[col] + k * a[col], c[col], d0[col] + k * c[col]], axis=1)


def _round12(x: np.ndarray) -> np.ndarray:
    """Python's correctly rounded round(v, 12) of every entry; np.round differs only
    where v * 1e12 lies within its rounding error of a half-integer."""
    y, out = x * 1e12, np.round(x, 12)
    near = np.flatnonzero(np.abs(y - np.floor(y) - 0.5) <= 2 * np.spacing(y))
    out[near] = [round(v, 12) for v in x[near].tolist()]
    return out


def _conjugate(table: np.ndarray, h) -> np.ndarray:
    """Rows of h^-1 r h for the rows r of an int64 (n, d*d) table, exact in Python ints."""
    d = len(h)
    return _int_conjugate(table.reshape(-1, d, d), h).reshape(len(table), d * d).astype(np.int64)


def _table_records(m: np.ndarray, rs: RootSystemA, domain: Domain, census_rows=None, mass_cap=None):
    """The census of the rows of an int64 (n, d*d) table of displacements m = h^-1 g h seen
    from x = h.o that lie in the domain, and the number of rows that do not.

    The columns are those of m, the rows ``census_rows(kept indices)``: the elements g (m
    itself by default), which a caller conjugates only where kept.  Rows are ordered by
    (round(|a|^2, 12), entries of g).  sl2 membership is exact in integer masses: the cap of
    the domain (its ``_sl2_mass_cap`` unless given), and that of the ball of radius s or m for a
    slab s or a margin m, as the wall distance at d = 2 is the Killing norm.  sl3 membership is
    ``Domain.contains_rows``."""
    mats = m.reshape(-1, rs.d, rs.d)
    cartan = cartan_vector(mats)
    walls = rs.wall_distances(cartan)
    if rs.d == 2:
        mass = np.vecdot(m, m)
        inside = mass <= (mass_cap or _sl2_mass_cap(domain, rs))
        if domain.slab is not None:
            inside &= mass <= _sl2_wall_cap(domain.slab, rs)
        elif domain.regular_margin is not None:
            inside &= mass > _sl2_wall_cap(domain.regular_margin, rs)
    else:
        inside = domain.contains_rows(rs, cartan, walls)
    keep = np.flatnonzero(inside)
    g = m[keep] if census_rows is None else census_rows(keep)
    order = np.lexsort((*g.T[::-1], _round12(np.vecdot(cartan[keep], cartan[keep]))))
    rows = keep[order]
    jordan, lox = jordan_project(mats[rows])  # row by row: the kept rows only
    census = Census(g[order], cartan[rows], walls[rows], lox, jordan)
    return census, len(inside) - len(keep)


def restrict(table: np.ndarray, spec: LatticeSpec, domain: Domain):
    """``_table_records`` of the rows g of a census table under the spec's base point."""
    m = table if spec.base_point is None else _conjugate(table, spec.base_point)
    return _table_records(m, root_system(spec.d), domain, table.__getitem__)


def _default_sl3_generators():
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = np.eye(3, dtype=int)
                m[i, j] = 1
                gens.append(tuple(tuple(int(x) for x in row) for row in m))
    return tuple(gens)


def _word_ball(generators, radius: int) -> np.ndarray:
    """Breadth-first ball over det-one integer generators and their inverses: its distinct
    matrices as an int64 (n, d, d) stack in lexicographic order of the entries."""
    gens = np.array(generators, dtype=object)
    steps = np.concatenate([gens, _integer_inverse(gens)])
    d = gens.shape[-1]
    ball = frontier = np.eye(d, dtype=np.int64)[None]
    for r in range(radius):
        if d * int(np.max(np.abs(frontier), initial=0)) * max(map(abs, steps.flat)) >= 2**63:
            raise FeasibilityError(f"word ball entries could overflow int64 at radius {r + 1}")
        products = (frontier[:, None] @ steps.astype(np.int64)).reshape(-1, d, d)
        merged = np.concatenate([ball, products])
        known = len(ball)  # rows first seen past the old ball are the new sphere
        ball, first = np.unique(merged, axis=0, return_index=True)
        frontier = merged[first[first >= known]]
    return ball


@dataclass
class EnumerationMeta:
    complete: bool
    bound: int | None = None
    word_radius: int | None = None
    shard_ranges: list = field(default_factory=list)
    candidates: int | None = None


def enumerate_elements(
    spec: LatticeSpec,
    domain: Domain,
    shards: int = 1,
    word_radius: int = 4,
):
    """Census of lattice elements whose chamber displacement lies in the domain.

    Returns (census, meta); the census rows are sorted by displacement norm
    then entries.  The sl2 full-integer path is exact; everything else is a word
    ball with ``meta.complete = False``.  An sl2 scan of more than ``CANDIDATE_CAP``
    estimated rows raises ``FeasibilityError``; ``meta.candidates`` counts the rows it generates.
    """
    rs = root_system(spec.d)
    domain.for_dimension(spec.d)
    if spec.group == "sl2" and spec.presentation == "full_integer":
        top = domain.max_top_weight(rs)
        estimate = 6.0 * math.exp(min(2.0 * top, 700.0))  # ~6 (M^2 + M^-2) rows
        if estimate > CANDIDATE_CAP:
            raise FeasibilityError(f"sl2 enumeration would generate ~{estimate:.2e} rows, beyond the cap of "
                                   f"{CANDIDATE_CAP:.0e}", estimated_candidates=estimate)
        bound = int(math.floor(math.exp(top) + 1e-12))
        shards = max(1, min(shards, 2 * bound + 1))
        edges = np.linspace(-bound, bound + 1, shards + 1).astype(int)
        ranges = [(int(edges[i]), int(edges[i + 1] - 1)) for i in range(shards)]
        mass_cap = _sl2_mass_cap(domain, rs)
        table = np.concatenate([_sl2_candidates(lo, hi, mass_cap) for lo, hi in ranges])
        meta = EnumerationMeta(True, bound=bound, shard_ranges=ranges, candidates=len(table))
    else:
        words = _word_ball(spec.generators or _default_sl3_generators(), word_radius)
        table, mass_cap = words.reshape(len(words), -1), None
        meta = EnumerationMeta(False, word_radius=word_radius)
    if spec.base_point is None:
        return _table_records(table, rs, domain, mass_cap=mass_cap)[0], meta
    h_inverse = _integer_inverse(spec.base_point)  # the origin scan is m: the kept rows are g = h m h^-1
    return _table_records(table, rs, domain, lambda keep: _conjugate(table[keep], h_inverse), mass_cap)[0], meta


# ------------------------------------------------------------------- cache


def records_blob(census: Census) -> bytes:
    """Canonical little-endian int64 serialization of a census's matrices, in its order."""
    return census.table.astype("<i8").tobytes()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(manifest: dict) -> str:
    """Hash of every manifest field the shard files do not verify themselves."""
    keyed = {k: manifest[k] for k in ("version", "spec", "domain", "complete", "bound",
                                      "word_radius")}
    return hashlib.sha256(_canonical_json(keyed).encode()).hexdigest()


def _float_as_written(text: str) -> float:
    value = float(text)
    if repr(value) != text:
        raise ValueError(f"float {text!r} is not written as repr writes it")
    return value


def save_cache(directory, spec: LatticeSpec, domain: Domain, census: Census,
               meta: EnumerationMeta, shards: int = 1) -> Path:
    """Write the census as shards plus a manifest into a fresh sibling directory,
    then rename that into place, so a reader finds the old cache or the new one,
    never a part.  A target holding anything but a cache's files is refused."""
    directory = Path(os.path.abspath(directory))  # "." and ".." have no sibling name
    if directory.exists():
        foreign = sorted(p.name for p in directory.iterdir() if not p.is_file()
                         or not (p.name == "manifest.json" or p.match("shard_*.bin")))
        if foreign:
            raise PreconditionError(f"{directory} holds files no cache writes: {foreign}")
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.with_name(f".{directory.name}.tmp-{os.getpid()}")
    staging.mkdir()
    try:
        _write_cache(staging, spec, domain, census, meta, shards)
        if directory.exists():
            old = directory.with_name(f".{directory.name}.old-{os.getpid()}")
            directory.rename(old)
            try:
                staging.rename(directory)
            except OSError:
                old.rename(directory)
                raise
            shutil.rmtree(old)
        else:
            staging.rename(directory)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return directory


def _write_cache(directory: Path, spec: LatticeSpec, domain: Domain, census: Census,
                 meta: EnumerationMeta, shards: int) -> None:
    shard_files, checksums, counts = [], [], []
    for i, rows in enumerate(np.array_split(census.table, max(1, shards))):
        blob = rows.astype("<i8").tobytes()
        name = f"shard_{i:04d}.bin"
        (directory / name).write_bytes(blob)
        shard_files.append(name)
        checksums.append(hashlib.sha256(blob).hexdigest())
        counts.append(len(rows))
    manifest = {
        "version": CACHE_VERSION,
        "spec": asdict(spec),
        "domain": asdict(domain),
        "complete": meta.complete,
        "bound": meta.bound,
        "word_radius": meta.word_radius,
        "shards": shard_files,
        "checksums": checksums,
        "counts": counts,
        "total": len(census),
    }
    manifest["config_hash"] = _config_hash(manifest)
    (directory / "manifest.json").write_text(_canonical_json(manifest) + "\n")


def _read_cache(directory: Path):
    """Manifest, spec, domain and int64 table of a cache, every byte verified: the
    manifest is one JSON object (floats as ``repr`` writes them, at most a final
    newline after it) that passes its config_hash, and each listed shard matches its
    checksum and count."""
    raw = (directory / "manifest.json").read_bytes()
    body = raw[:-1] if raw.endswith(b"\n") else raw
    manifest = json.loads(body, parse_float=_float_as_written)
    if body != body.strip():
        raise ValueError("manifest has whitespace around its JSON object")
    if manifest["version"] != CACHE_VERSION:
        raise ParameterError(f"unsupported cache version {manifest['version']}")
    if manifest["config_hash"] != _config_hash(manifest):
        raise PreconditionError("cache manifest fails its config_hash")
    unlisted = sorted({p.name for p in directory.glob("shard_*.bin")} - set(manifest["shards"]))
    if unlisted:
        raise PreconditionError(f"cache holds shards its manifest does not list: {unlisted}")
    sp, dm = manifest["spec"], manifest["domain"]
    spec = LatticeSpec(
        group=sp["group"],
        presentation=sp["presentation"],
        generators=tuple(tuple(tuple(r) for r in g) for g in sp["generators"]) if sp["generators"] else None,
        base_point=tuple(tuple(r) for r in sp["base_point"]) if sp["base_point"] else None,
    )
    domain = Domain(dm["kind"], dm["t"], tuple(dm["edges"]) if dm["edges"] else None,
                    dm["regular_margin"], dm["slab"])
    width = spec.d * spec.d
    tables = [np.empty((0, width), dtype=np.int64)]
    shards = zip(manifest["shards"], manifest["checksums"], manifest["counts"], strict=True)
    for name, checksum, count in shards:
        blob = (directory / name).read_bytes()
        if hashlib.sha256(blob).hexdigest() != checksum:
            raise PreconditionError(f"cache shard {name} fails its checksum")
        if len(blob) != count * width * 8:
            raise PreconditionError(f"cache shard {name} has the wrong length")
        tables.append(np.frombuffer(blob, dtype="<i8").reshape(count, width))
    table = np.concatenate(tables).astype(np.int64)
    if len(table) != manifest["total"]:
        raise PreconditionError(
            f"cache holds {len(table)} records where its manifest says {manifest['total']}")
    return manifest, spec, domain, table


def load_cache(directory):
    """Load and verify a census cache; returns (spec, domain, census, manifest).

    Rejects with PreconditionError an unreadable, malformed or refused (version, spec,
    domain) manifest, any mismatch with it, a missing or unlisted shard, duplicates,
    entries beyond 2^30, a determinant other than 1 and records off the stored domain;
    columns and order are those ``enumerate_elements`` gives, also with a base point.
    """
    directory = Path(directory)
    try:
        manifest, spec, domain, table = _read_cache(directory)
    except (OSError, ValueError, KeyError, TypeError, ParameterError) as exc:
        raise PreconditionError(f"cache at {directory} is unreadable: {exc!r}") from exc
    ordered = table[np.lexsort(table.T)]  # equal rows become adjacent
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise PreconditionError("cache contains duplicate records")
    if np.any((table > 2**30) | (table < -(2**30))):  # keeps the int64 determinant exact
        raise PreconditionError("cache holds entries beyond 2^30 in absolute value")
    d = spec.d
    mats = table.reshape(-1, d, d)
    det = _int_det(mats if d == 2 else mats.astype(object))
    if np.any(det != 1):
        raise PreconditionError(f"cache holds {np.count_nonzero(det != 1)} records of det != 1")
    census, outside = restrict(table, spec, domain)
    if outside:
        raise PreconditionError(f"cache holds {outside} records off its domain")
    return spec, domain, census, manifest


# ------------------------------------------------------------------ counts
