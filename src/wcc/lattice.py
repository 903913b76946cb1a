"""Exact enumeration of integer lattice elements in chamber domains.

SL(2,Z) is enumerated exactly: the domain bounds the largest singular value,
hence every entry, and the determinant condition fixes the fourth entry from
the other three.  The census is one int64 table whose membership (integer
Frobenius mass against the domain's cap) and order (mass, then entries) are
exact; its Cartan and Jordan columns come from one closed-form call each.
SL(3,Z) (or any generated presentation) ships as a breadth-first word ball
with exact dedup and an explicit incompleteness flag: stats downstream are
samples, not censuses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    CompletenessError,
    FeasibilityError,
    ParameterError,
    PreconditionError,
)
from .projections import GroupElement, cartan_vector, jordan_project
from .rootsys import RootSystemA, root_system
from .volume import Domain

CACHE_VERSION = 1
CANDIDATE_CAP = int(1e9)


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

    @property
    def d(self) -> int:
        return 2 if self.group == "sl2" else 3

    def base_element(self) -> GroupElement | None:
        if self.base_point is None:
            return None
        return GroupElement.from_integer([list(r) for r in self.base_point])

    def key(self) -> dict:
        return {
            "group": self.group,
            "presentation": self.presentation,
            "generators": self.generators,
            "base_point": self.base_point,
        }


@dataclass
class ElementRecord:
    matrix: tuple  # rows of exact integers
    cartan: np.ndarray
    wall_margin: float
    loxodromic: bool
    jordan: np.ndarray | None = None

    @classmethod
    def from_rows(cls, rows, rs: RootSystemA) -> "ElementRecord":
        g = GroupElement.from_integer(rows)
        a = cartan_vector(g)
        lam, lox = jordan_project(g)
        wall = rs.wall_distance(a)
        return cls(
            matrix=tuple(tuple(int(x) for x in row) for row in rows),
            cartan=a,
            wall_margin=wall,
            loxodromic=lox,
            jordan=lam if lox else None,
        )

    def sort_key(self):
        flat = tuple(x for row in self.matrix for x in row)
        return (round(float(np.dot(self.cartan, self.cartan)), 12), flat)


# ------------------------------------------------------------- enumeration


def _sl2_mass_cap(domain: Domain, rs: RootSystemA) -> int:
    """Ball and box bound sigma_max by M: for det-one g that is mass <= M^2 + M^-2."""
    m = math.exp(domain.max_top_weight(rs))
    return math.floor(m * m + 1.0 / (m * m))


def _sl2_candidates(bound: int, a_lo: int, a_hi: int, mass_cap: int) -> np.ndarray:
    """Int64 rows (a, b, c, d) of det-one matrices with a in [a_lo, a_hi], mass <= mass_cap.

    For a != 0 the scan solves ad - bc = 1 for d; a = 0 forces bc = -1, d free.
    """
    r = np.arange(-bound, bound + 1, dtype=np.int64)
    bc1 = 1 + np.multiply.outer(r, r)
    parts = [np.empty((0, 4), dtype=np.int64)]
    for a in range(a_lo, a_hi + 1):
        if a == 0:
            d = r[r * r <= mass_cap - 2]
            parts += [np.stack([0 * d, 0 * d + s, 0 * d - s, d], axis=1) for s in (1, -1)]
            continue
        b, c = np.nonzero(bc1 % a == 0)
        rows = np.stack([np.full_like(b, a), b - bound, c - bound, bc1[b, c] // a], axis=1)
        parts.append(rows[np.einsum("ij,ij->i", rows, rows) <= mass_cap])
    return np.concatenate(parts)


def _sl2_table_records(table: np.ndarray, rs: RootSystemA, domain: Domain):
    """Records of an int64 (n, 4) sl2 table in (mass, entries) order, and the
    mask of those inside the domain."""
    mass = np.einsum("ij,ij->i", table, table)
    order = np.lexsort((*table.T[::-1], mass))
    table, mass = table[order], mass[order]
    cartan = cartan_vector(table.reshape(-1, 2, 2))
    jordan, lox = jordan_project(table.reshape(-1, 2, 2))
    beta = rs.simple_roots[0]
    walls = np.maximum(cartan @ beta, 0.0) / rs.dual_norm(beta)
    inside = mass <= _sl2_mass_cap(domain, rs)
    if domain.regular_margin is not None:
        inside &= walls > domain.regular_margin
    if domain.slab is not None:
        inside &= walls <= domain.slab
    rows = zip(table.tolist(), cartan, walls.tolist(), lox.tolist(), jordan)
    records = [ElementRecord(((a, b), (c, d)), cart, wall, is_lox, lam if is_lox else None)
               for (a, b, c, d), cart, wall, is_lox, lam in rows]
    return records, inside


def _default_sl3_generators():
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = np.eye(3, dtype=int)
                m[i, j] = 1
                gens.append(tuple(tuple(int(x) for x in row) for row in m))
    return tuple(gens)


def _word_ball(generators, radius: int):
    """Breadth-first ball over the generators and their inverses, exact dedup."""
    gens = []
    for g in generators:
        ge = GroupElement.from_integer([list(r) for r in g])
        gens.append(ge)
        gens.append(ge.inverse())
    d = gens[0].d
    identity = tuple(tuple(int(x) for x in row) for row in np.eye(d, dtype=int))
    seen = {identity}
    frontier = [identity]
    for _ in range(radius):
        new = []
        for rows in frontier:
            left = GroupElement.from_integer([list(r) for r in rows])
            for g in gens:
                prod = left @ g
                key = tuple(tuple(int(x) for x in row) for row in prod.int_mat)
                if key not in seen:
                    seen.add(key)
                    new.append(key)
        frontier = new
    return sorted(seen)


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
    threads: int = 1,
    candidate_cap: int = CANDIDATE_CAP,
):
    """Census of lattice elements whose chamber displacement lies in the domain.

    Returns (records, meta); records are sorted by displacement norm then
    entries.  The sl2 full-integer path is exact; everything else is a word
    ball with ``meta.complete = False``.  ``threads`` is unused (vectorized scan).
    """
    rs = root_system(spec.d)
    domain.for_dimension(spec.d)
    base = spec.base_element()

    if spec.group == "sl2" and spec.presentation == "full_integer":
        sigma_max = math.exp(domain.max_top_weight(rs))
        bound = int(math.floor(sigma_max + 1e-12))
        candidates = (2 * bound + 1) ** 3
        if candidates > candidate_cap:
            raise FeasibilityError(
                f"sl2 enumeration would scan ~{candidates:.2e} candidates "
                f"(entry bound {bound}); raise the cap explicitly to proceed",
                estimated_candidates=candidates,
            )
        shards = max(1, min(shards, 2 * bound + 1))
        edges = np.linspace(-bound, bound + 1, shards + 1).astype(int)
        ranges = [(int(edges[i]), int(edges[i + 1] - 1)) for i in range(shards)]
        mass_cap = _sl2_mass_cap(domain, rs)
        table = np.concatenate([_sl2_candidates(bound, lo, hi, mass_cap) for lo, hi in ranges])
        records, inside = _sl2_table_records(table, rs, domain)
        records = [rec for rec, ok in zip(records, inside.tolist()) if ok]
        meta = EnumerationMeta(True, bound=bound, shard_ranges=ranges, candidates=candidates)
    else:
        words = _word_ball(spec.generators or _default_sl3_generators(), word_radius)
        if spec.d == 2:  # the columns load_cache builds
            records, _ = _sl2_table_records(np.array(words, dtype=np.int64).reshape(-1, 4), rs, domain)
        else:
            records = [ElementRecord.from_rows([list(r) for r in rows], rs) for rows in words]
        records = sorted((rec for rec in records if domain.contains_cartan(rs, rec.cartan)),
                         key=ElementRecord.sort_key)
        meta = EnumerationMeta(False, word_radius=word_radius)
    return _conjugated(records, base), meta


def _conjugated(records, base: GroupElement | None) -> list:
    """Records enumerated around x = h.o re-expressed as h m h^-1, in sort_key order."""
    if base is None:
        return records
    inv = base.inverse()
    records = [replace(rec, matrix=tuple(tuple(int(x) for x in row) for row in (
        base @ GroupElement.from_integer([list(r) for r in rec.matrix]) @ inv).int_mat))
        for rec in records]
    return sorted(records, key=ElementRecord.sort_key)


# ------------------------------------------------------------------- cache


def records_blob(records) -> bytes:
    """Canonical little-endian int64 serialization of sorted records."""
    flat = [x for rec in records for row in rec.matrix for x in row]
    return np.array(flat, dtype="<i8").tobytes()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(manifest: dict) -> str:
    keyed = {k: manifest[k] for k in ("version", "spec", "domain")}
    return hashlib.sha256(_canonical_json(keyed).encode()).hexdigest()


def save_cache(directory, spec: LatticeSpec, domain: Domain, records, meta: EnumerationMeta,
               shards: int = 1) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shards = max(1, shards)
    chunks = np.array_split(np.arange(len(records)), shards)
    shard_files, checksums, counts = [], [], []
    for i, chunk in enumerate(chunks):
        blob = records_blob([records[j] for j in chunk])
        name = f"shard_{i:04d}.bin"
        (directory / name).write_bytes(blob)
        shard_files.append(name)
        checksums.append(hashlib.sha256(blob).hexdigest())
        counts.append(int(len(chunk)))
    manifest = {
        "version": CACHE_VERSION,
        "spec": spec.key(),
        "domain": {
            "kind": domain.kind,
            "t": domain.t,
            "edges": list(domain.edges) if domain.edges else None,
            "regular_margin": domain.regular_margin,
            "slab": domain.slab,
        },
        "complete": meta.complete,
        "bound": meta.bound,
        "word_radius": meta.word_radius,
        "shards": shard_files,
        "checksums": checksums,
        "counts": counts,
        "total": len(records),
    }
    manifest["config_hash"] = _config_hash(manifest)
    (directory / "manifest.json").write_text(_canonical_json(manifest) + "\n")
    for stale in directory.glob("shard_*.bin"):
        if stale.name not in shard_files:
            stale.unlink()
    return directory


def load_cache(directory):
    """Load and verify a census cache; returns (spec, domain, records, manifest).

    Rejects any mismatch with the manifest, an unlisted shard, duplicates, a
    determinant other than 1 and records outside a full-integer sl2 census;
    columns and order are those ``enumerate_elements`` gives, also with a base point.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest["version"] != CACHE_VERSION:
        raise ParameterError(f"unsupported cache version {manifest['version']}")
    if manifest.get("config_hash") != _config_hash(manifest):
        raise PreconditionError("cache manifest fails its config_hash")
    unlisted = sorted({p.name for p in directory.glob("shard_*.bin")} - set(manifest["shards"]))
    if unlisted:
        raise PreconditionError(f"cache holds shards its manifest does not list: {unlisted}")
    sp = manifest["spec"]
    spec = LatticeSpec(
        group=sp["group"],
        presentation=sp["presentation"],
        generators=tuple(tuple(tuple(r) for r in g) for g in sp["generators"]) if sp["generators"] else None,
        base_point=tuple(tuple(r) for r in sp["base_point"]) if sp["base_point"] else None,
    )
    dm = manifest["domain"]
    domain = Domain(dm["kind"], dm["t"], tuple(dm["edges"]) if dm["edges"] else None,
                    dm["regular_margin"], dm["slab"])
    rs = root_system(spec.d)
    d = spec.d
    tables = [np.empty((0, d * d), dtype=np.int64)]
    for name, checksum, count in zip(manifest["shards"], manifest["checksums"], manifest["counts"]):
        blob = (directory / name).read_bytes()
        if hashlib.sha256(blob).hexdigest() != checksum:
            raise PreconditionError(f"cache shard {name} fails its checksum")
        if len(blob) != count * d * d * 8:
            raise PreconditionError(f"cache shard {name} has the wrong length")
        tables.append(np.frombuffer(blob, dtype="<i8").reshape(count, d * d))
    table = np.concatenate(tables).astype(np.int64)
    if len(np.unique(table, axis=0)) != len(table):
        raise PreconditionError("cache contains duplicate records")
    base = spec.base_element()
    if base is not None:
        # back to m = h^-1 g h (exactly), whose columns enumerate_elements recorded
        h, h_inv = (np.array(e.int_mat, dtype=object) for e in (base, base.inverse()))
        table = (h_inv @ table.astype(object).reshape(-1, d, d) @ h).reshape(-1, d * d)
    if d != 2:
        records = [ElementRecord.from_rows(rows.tolist(), rs) for rows in table.reshape(-1, d, d)]
        return spec, domain, _conjugated(sorted(records, key=ElementRecord.sort_key), base), manifest
    if np.any((table > 2**30) | (table < -(2**30))):  # keeps int64 ad - bc and mass exact
        raise PreconditionError("cache holds entries beyond 2^30 in absolute value")
    det = table[:, 0] * table[:, 3] - table[:, 1] * table[:, 2]
    if np.any(det != 1):
        raise PreconditionError(f"cache holds {np.count_nonzero(det != 1)} records of det != 1")
    records, inside = _sl2_table_records(table.astype(np.int64), rs, domain)
    if spec.presentation == "full_integer" and not inside.all():
        raise PreconditionError(f"cache holds {np.count_nonzero(~inside)} records off its domain")
    return spec, domain, _conjugated(records, base), manifest


class EnumerationCache:
    """Convenience handle over a cache directory (manifest + shards)."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.spec, self.domain, self.records, self.manifest = load_cache(self.directory)

    @property
    def complete(self) -> bool:
        return bool(self.manifest["complete"])

    @classmethod
    def write(cls, directory, spec, domain, records, meta, shards: int = 1) -> "EnumerationCache":
        save_cache(directory, spec, domain, records, meta, shards=shards)
        return cls(directory)


# ------------------------------------------------------------------ counts


def census_counts(
    records,
    rs: RootSystemA,
    domain: Domain,
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
    total = len(records)
    regular = sum(1 for r in records if r.wall_margin > regular_margin)
    loxo = sum(1 for r in records if r.loxodromic)
    out = {
        "total": total,
        "regular": regular,
        "loxodromic": loxo,
        "complete": complete,
        "slabs": {},
    }
    for s in slabs:
        out["slabs"][float(s)] = sum(1 for r in records if r.wall_margin <= s)
    if volume_log is not None:
        vol = math.exp(volume_log)
        out["normalized"] = {
            "total": total / vol,
            "regular": regular / vol,
            "slabs": {k: v / vol for k, v in out["slabs"].items()},
        }
    return out


def census_sweep(spec: LatticeSpec, t_grid, epsilons=(), kind: str = "ball", **kwargs) -> dict:
    """Counts across a t sweep with slab ratios and their fitted decay."""
    from .volume import domain_volume

    rs = root_system(spec.d)
    rows = []
    for t in t_grid:
        domain = Domain(kind, float(t))
        records, meta = enumerate_elements(spec, domain, **kwargs)
        vol = domain_volume(rs, domain)
        counts = census_counts(
            records, rs, domain,
            slabs=[eps * t for eps in epsilons],
            volume_log=vol.log_value,
            complete=meta.complete,
        )
        counts["t"] = float(t)
        counts["log_volume"] = vol.log_value
        rows.append(counts)
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
