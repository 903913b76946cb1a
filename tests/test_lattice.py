import cProfile
import hashlib
import json
import math
import pstats
import struct
import tempfile

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcc import lattice as lt
from wcc import survey as sv
from wcc.errors import FeasibilityError, ParameterError, PreconditionError, WccError
from wcc.lattice import LatticeSpec
from wcc.rootsys import root_system
from wcc.volume import Domain, domain_volume

import lattice_reference as ref
from lattice_reference import CompletenessError
from volume_reference import contains_cartan


def brute_force_sl2(entry_bound, frob_cap):
    out = []
    B = entry_bound
    for a in range(-B, B + 1):
        for b in range(-B, B + 1):
            for c in range(-B, B + 1):
                for d in range(-B, B + 1):
                    if a * d - b * c == 1 and a * a + b * b + c * c + d * d <= frob_cap:
                        out.append(((a, b), (c, d)))
    return sorted(out)


def t_of_cap(cap):
    """Ball radius whose mass cap M^2 + M^-2 is exactly `cap`."""
    return math.sqrt(8.0) * 0.5 * math.log((cap + math.sqrt(cap * cap - 4.0)) / 2.0)


def per_record_census(t):
    """The census as a GroupElement + SVD + eig per matrix of the entry cube."""
    rs = root_system(2)
    domain = Domain("ball", t)
    bound = int(math.floor(math.exp(domain.max_top_weight(rs)) + 1e-12))
    records = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c == 1:
                        rec = ref.from_rows([[a, b], [c, d]], rs)
                        if contains_cartan(domain, rs, rec.cartan):
                            records.append(rec)
    return records


def mass_entries_key(matrix):
    flat = tuple(x for row in matrix for x in row)
    return (sum(x * x for x in flat), flat)


class TestColumnarCensus:
    @pytest.mark.parametrize("t", [1e-9, 2.0, 5.0, 7.0])
    def test_matches_per_record_path(self, t):
        records, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", t))
        oracle = {rec.matrix: rec for rec in per_record_census(t)}
        assert sorted(r.matrix for r in records) == sorted(oracle)
        for rec in records:
            want = oracle[rec.matrix]
            assert rec.loxodromic == want.loxodromic
            assert np.max(np.abs(rec.cartan - want.cartan)) <= 1e-12
            assert abs(rec.wall_margin - want.wall_margin) <= 1e-12
            if want.loxodromic:
                assert np.max(np.abs(rec.jordan - want.jordan)) <= 1e-12
            else:
                assert rec.jordan is None

    @pytest.mark.parametrize("group, t", [("sl2", 11.0), ("sl3", 8.0)])
    def test_wall_margin_is_the_checked_wall_distance(self, group, t):
        # the stacked kernel's column is the one-row RootSystemA.wall_distance, bit for bit
        spec = LatticeSpec(group)
        census, _ = lt.enumerate_elements(spec, Domain("ball", t))  # sl3: the word ball r = 4
        rs = root_system(spec.d)
        want = np.array([rs.wall_distance(a) for a in census.cartan])
        assert len(census) > 1000 and census.wall_margin.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "cap,int_cap",
        [(3.5, 3), (7.0 + 5e-10, 7), (7.0 - 5e-10, 6), (27.0 + 5e-10, 27), (27.0 - 5e-10, 26),
         (102.25, 102)],
    )
    def test_matches_nested_loop_oracle_at_integer_caps(self, cap, int_cap):
        records, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", t_of_cap(cap)))
        oracle = brute_force_sl2(math.isqrt(int_cap), int_cap)
        assert sorted(r.matrix for r in records) == oracle
        # caps within 1e-9 of 7 and 27 decide masses SL(2,Z) really has
        for witness, mass in ((((2, 1), (1, 1)), 7), (((5, 1), (-1, 0)), 27)):
            assert (witness in oracle) == (int_cap >= mass)

    @pytest.mark.parametrize("shards", [1, 4, 9])
    def test_records_in_exact_mass_entries_order(self, shards):
        records, meta = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 7.0),
                                              shards=shards)
        assert len(meta.shard_ranges) == shards
        keys = [mass_entries_key(r.matrix) for r in records]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    def test_census_is_a_sequence_of_records(self, census_t8):
        census, _ = census_t8
        records = list(census)
        assert len(census) == len(records) > 10
        assert census[-1].matrix == records[-1].matrix
        assert [r.matrix for r in census[3:9:2]] == [r.matrix for r in records[3:9:2]]
        with pytest.raises(IndexError):
            census[len(census)]
        rec = census[5]
        assert type(rec) is lt.ElementRecord
        assert all(type(x) is int for row in rec.matrix for x in row)
        assert type(rec.wall_margin) is float and type(rec.loxodromic) is bool
        assert all((r.jordan is None) is (not r.loxodromic) for r in records)


class TestExactEnumeration:
    def test_orthogonal_core(self):
        records, meta = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 1e-9))
        assert meta.complete
        mats = sorted(r.matrix for r in records)
        assert mats == [
            ((-1, 0), (0, -1)),
            ((0, -1), (1, 0)),
            ((0, 1), (-1, 0)),
            ((1, 0), (0, 1)),
        ]

    def test_matches_nested_loop_oracle_bound3(self):
        t = 2.0 * math.sqrt(2.0) * math.log(3.0)
        records, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", t))
        oracle = brute_force_sl2(3, 3.0**2 + 3.0**-2)
        assert sorted(r.matrix for r in records) == oracle

    def test_matches_oracle_bound5(self):
        t = 2.0 * math.sqrt(2.0) * math.log(5.0)
        records, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", t))
        oracle = brute_force_sl2(5, 5.0**2 + 5.0**-2)
        assert sorted(r.matrix for r in records) == oracle

    def test_counts_nondecreasing_in_t(self, census_t8):
        counts = []
        for t in (4.0, 5.5, 7.0, 8.0):
            records, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", t))
            counts.append(len(records))
        assert counts == sorted(counts)

    def test_box_domain_filter(self):
        records, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("box", 3.0, (1.0,)))
        rs = root_system(2)
        for rec in records:
            assert float(rs.simple_roots[0] @ rec.cartan) <= 3.0 + 1e-9

    def test_regular_margin_filter_is_subset(self, census_t8):
        records, _ = census_t8
        filtered, _ = lt.enumerate_elements(
            LatticeSpec("sl2"), Domain("ball", 8.0, regular_margin=1.0)
        )
        assert {r.matrix for r in filtered} <= {r.matrix for r in records}
        assert all(r.wall_margin > 1.0 for r in filtered)

    def test_slab_filter_partition(self, census_t8):
        records, _ = census_t8
        slab, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 8.0, slab=1.0))
        regular, _ = lt.enumerate_elements(
            LatticeSpec("sl2"), Domain("ball", 8.0, regular_margin=1.0)
        )
        assert len(slab) + len(regular) == len(records)

    def test_feasibility_error(self):
        with pytest.raises(FeasibilityError) as err:
            lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 40.0))
        assert err.value.estimated_candidates is not None

    def test_record_invariants(self, census_t8):
        records, _ = census_t8
        rs = root_system(2)
        sigma_bound = math.exp(Domain("ball", 8.0).max_top_weight(rs))
        for rec in records[:200]:
            g = np.array(rec.matrix, dtype=float)
            s = np.linalg.svd(g, compute_uv=False)
            assert np.allclose(np.log(s) - np.mean(np.log(s)), rec.cartan, atol=1e-9)
            assert s[0] <= sigma_bound * (1 + 1e-12)


def sphere_radius(mass: int):
    """Killing radius sqrt(2) arccosh(F / 2) of the sl2 matrices of mass F, at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.sqrt(2) * mpmath.acosh(mpmath.mpf(mass) / 2)


class TestExactSphere:
    """The census cap is floor(M^2 + M^-2) of the exact t: membership on a sphere is exact."""

    @pytest.mark.parametrize("rows, t, inside", [
        ((1, 2, 0, 1), 2.492900960560922, False),  # norm 2.3e-17 above t: a float cap kept it
        ((44, 1, 43, 1), 11.652171323187684, True),  # norm 1.7e-16 below t: a float cap lost it
    ])
    def test_float_cap_probes(self, rows, t, inside):
        census, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", t))
        assert (list(rows) in census.table.tolist()) == inside
        assert (mpmath.mpf(t) >= sphere_radius(sum(x * x for x in rows))) == inside

    def test_elements_on_their_own_sphere_and_one_ulp_either_side(self):
        rs = root_system(2)
        masses = sorted({sum(x * x for x in m) for n in range(2, 150) for m in (
            (n, 1, n - 1, 1), (1, n, 0, 1), (n, n + 1, n - 1, n))})
        decided = set()
        for mass in masses:
            radius = sphere_radius(mass)
            on = float(radius)  # the nearest float, on either side of the sphere
            for t in (on, math.nextafter(on, math.inf), math.nextafter(on, 0.0)):
                for domain in (Domain("ball", t), Domain("box", t / math.sqrt(2), (1.0,))):
                    cap = lt._sl2_mass_cap(domain, rs)
                    assert cap == ref.mass_cap(domain)
                    if domain.kind == "ball":
                        assert (cap >= mass) == (mpmath.mpf(t) >= radius)
                        decided.add((t == on, cap >= mass))
        assert decided == {(True, True), (True, False), (False, True), (False, False)}

    def test_slab_and_margin_on_each_sphere_and_one_ulp_either_side(self):
        # the float wall distance kept 32 of these masses in the slab of their own sphere at
        # t = 12, e.g. mass 6 in the slab 2.492900960560922, 2.3e-17 below its radius
        spec, census = LatticeSpec("sl2"), lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 12.0))[0]
        masses = np.vecdot(census.table, census.table)
        decided = set()
        for mass in range(3, 400):
            rows = census.table[masses == mass]
            on = float(sphere_radius(mass))
            for s in ([] if len(rows) == 0 else [on, math.nextafter(on, math.inf), math.nextafter(on, 0.0)]):
                for domain in (Domain("ball", 12.0, slab=s), Domain("ball", 12.0, regular_margin=s)):
                    kept = len(lt.restrict(rows, spec, domain)[0])
                    assert kept in (0, len(rows)) and (kept > 0) == ref.sl2_wall_kept(mass, domain), (mass, domain)
                    decided.add((domain.slab is None, s == on, kept > 0))
        assert len(decided) == 8
        # a margin past every int64 row's wall distance keeps none, with no cap of e^(m / sqrt 2)
        assert len(lt.enumerate_elements(spec, Domain("ball", 12.0, regular_margin=1e4))[0]) == 0

    def test_tiny_ball_holds_the_mass_two_elements(self):
        assert lt._sl2_mass_cap(Domain("ball", 1e-30), root_system(2)) == 2
        census, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 1e-30))
        assert sorted(census.table.tolist()) == [[-1, 0, 0, -1], [0, -1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1]]


class TestOutputSensitiveScan:
    @pytest.mark.parametrize("t", [0.5, 3.0, 5.0, 11.0, 13.0])
    def test_rows_of_every_shard_match_the_cube_scan(self, t):
        rs, domain = root_system(2), Domain("ball", t)
        cap, bound = lt._sl2_mass_cap(domain, rs), math.isqrt(ref.mass_cap(domain))
        cube = ref.cube_candidates(bound, -bound, bound, cap)  # its shards are ranges of a
        for shards in (1, 2, 4, 7):
            census, meta = lt.enumerate_elements(LatticeSpec("sl2"), domain, shards=shards)
            assert any(lo <= 0 <= hi for lo, hi in meta.shard_ranges) and meta.bound >= bound
            total = 0
            for lo, hi in meta.shard_ranges:
                rows, want = lt._sl2_candidates(lo, hi, cap), cube[(lo <= cube[:, 0]) & (cube[:, 0] <= hi)]
                assert np.array_equal(rows[np.lexsort(rows.T)], want[np.lexsort(want.T)])
                total += len(rows)
            assert meta.candidates == total == len(census)

    def test_candidate_cap_counts_estimated_rows(self, monkeypatch):
        monkeypatch.setattr(lt, "CANDIDATE_CAP", 6 * 400)
        lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 8.0))  # cap 286: ~1716 rows
        with pytest.raises(FeasibilityError) as err:
            lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 9.0))
        cap = ref.mass_cap(Domain("ball", 9.0))
        assert 6 * cap <= err.value.estimated_candidates <= 6 * (cap + 1)


class TestShardingAndCache:
    def test_shard_count_independence_byte_exact(self):
        r1, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 7.0), shards=1)
        r4, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 7.0), shards=4)
        r9, _ = lt.enumerate_elements(
            LatticeSpec("sl2"), Domain("ball", 7.0), shards=9
        )
        blob = lt.records_blob(r1)
        assert lt.records_blob(r4) == blob
        assert lt.records_blob(r9) == blob

    def test_cache_roundtrip_and_checksum(self, tmp_path, census_t8):
        records, meta = census_t8
        spec = LatticeSpec("sl2")
        lt.save_cache(tmp_path, spec, Domain("ball", 8.0), records, meta, shards=3)
        spec2, dom2, records2, manifest = lt.load_cache(tmp_path)
        assert lt.records_blob(records2) == lt.records_blob(records)
        assert manifest["complete"] and manifest["total"] == len(records)
        assert dom2.t == 8.0

    def test_manifest_deterministic(self, tmp_path, census_t8):
        records, meta = census_t8
        spec = LatticeSpec("sl2")
        lt.save_cache(tmp_path / "a", spec, Domain("ball", 8.0), records, meta, shards=2)
        lt.save_cache(tmp_path / "b", spec, Domain("ball", 8.0), records, meta, shards=2)
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_corrupted_shard_detected(self, tmp_path, census_t8):
        records, meta = census_t8
        lt.save_cache(tmp_path, LatticeSpec("sl2"), Domain("ball", 8.0), records, meta)
        shard = tmp_path / "shard_0000.bin"
        data = bytearray(shard.read_bytes())
        data[0] ^= 0xFF
        shard.write_bytes(bytes(data))
        with pytest.raises(Exception):
            lt.load_cache(tmp_path)


def write_census(directory, t=5.0, shards=1):
    records, meta = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", t))
    lt.save_cache(directory, LatticeSpec("sl2"), Domain("ball", t), records, meta, shards=shards)
    return records


def rewrite_shard(directory, rows):
    """Replace the single shard with `rows`, keeping checksum and count consistent."""
    blob = np.array(rows, dtype="<i8").tobytes()
    (directory / "shard_0000.bin").write_bytes(blob)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["checksums"] = [hashlib.sha256(blob).hexdigest()]
    manifest["counts"] = [len(rows)]
    (directory / "manifest.json").write_text(json.dumps(manifest))


class TestCacheVerification:
    def rows(self, directory):
        blob = (directory / "shard_0000.bin").read_bytes()
        return np.frombuffer(blob, dtype="<i8").reshape(-1, 4)

    def test_rewritten_rows_load_in_mass_entries_order(self, tmp_path):
        records = write_census(tmp_path)
        rewrite_shard(tmp_path, self.rows(tmp_path)[::-1])
        loaded = lt.load_cache(tmp_path)[2]
        assert lt.records_blob(loaded) == lt.records_blob(records)
        keys = [mass_entries_key(r.matrix) for r in loaded]
        assert keys == sorted(keys)

    def test_rejects_determinant_other_than_one(self, tmp_path):
        write_census(tmp_path)
        rows = self.rows(tmp_path).copy()
        rows[5] = (2, 1, 1, 2)
        rewrite_shard(tmp_path, rows)
        with pytest.raises(PreconditionError, match="det != 1"):
            lt.load_cache(tmp_path)

    def test_rejects_overflowing_entries(self, tmp_path):
        write_census(tmp_path)
        rows = self.rows(tmp_path).copy()
        # ad - bc = 2^64 + 1 wraps to 1 in int64
        rows[5] = (2**32, -1, 1, 2**32)
        rewrite_shard(tmp_path, rows)
        with pytest.raises(PreconditionError, match="entries beyond"):
            lt.load_cache(tmp_path)

    def test_rejects_duplicates(self, tmp_path):
        write_census(tmp_path)
        rows = self.rows(tmp_path).copy()
        rows[1] = rows[0]
        rewrite_shard(tmp_path, rows)
        with pytest.raises(PreconditionError, match="duplicate"):
            lt.load_cache(tmp_path)

    def test_rejects_duplicates_in_different_shards(self, tmp_path):
        write_census(tmp_path, shards=3)
        lt.load_cache(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        first, last = (tmp_path / manifest["shards"][i] for i in (0, -1))
        rows = np.frombuffer(last.read_bytes(), dtype="<i8").reshape(-1, 4).copy()
        rows[-1] = np.frombuffer(first.read_bytes(), dtype="<i8")[:4]  # the first row on disk
        blob = rows.tobytes()
        last.write_bytes(blob)
        manifest["checksums"][-1] = hashlib.sha256(blob).hexdigest()
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PreconditionError, match="duplicate"):
            lt.load_cache(tmp_path)

    def test_rejects_records_outside_the_domain(self, tmp_path):
        write_census(tmp_path)
        rows = self.rows(tmp_path).copy()
        rows[5] = (100, 1, 99, 1)
        rewrite_shard(tmp_path, rows)
        with pytest.raises(PreconditionError, match="off its domain"):
            lt.load_cache(tmp_path)

    def test_rejects_tampered_config(self, tmp_path):
        write_census(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["domain"]["t"] = 9.0
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PreconditionError, match="config_hash"):
            lt.load_cache(tmp_path)

    @pytest.mark.parametrize("part, key, value, message", [
        ("domain", "t", -1.0, "domain scale t must be positive"),
        ("domain", "kind", "disk", "domain kind must be"),
        ("domain", "edges", [1.0], "edges need a box domain"),
        ("spec", "group", "sl4", "group must be sl2 or sl3"),
    ])
    def test_rejects_a_refused_config_that_passes_its_hash(self, tmp_path, part, key, value, message):
        # the library's refusal was a ParameterError, and a ball with edges loaded
        write_census(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest[part][key] = value
        manifest["config_hash"] = lt._config_hash(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PreconditionError, match=message):
            lt.load_cache(tmp_path)

    def test_rejects_unlisted_shard(self, tmp_path):
        write_census(tmp_path)
        (tmp_path / "shard_0001.bin").write_bytes((tmp_path / "shard_0000.bin").read_bytes())
        with pytest.raises(PreconditionError, match="does not list"):
            lt.load_cache(tmp_path)

    def test_rewrite_with_fewer_shards_removes_stale_ones(self, tmp_path):
        write_census(tmp_path, shards=3)
        records = write_census(tmp_path, shards=1)
        assert sorted(p.name for p in tmp_path.glob("shard_*.bin")) == ["shard_0000.bin"]
        assert lt.records_blob(lt.load_cache(tmp_path)[2]) == lt.records_blob(records)


class TestAtomicCacheWrite:
    def test_failed_rewrite_keeps_the_previous_cache(self, tmp_path, monkeypatch):
        directory = tmp_path / "cache"
        records = write_census(directory, shards=3)
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        census, meta = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 6.0))
        write_bytes, calls = type(directory).write_bytes, []

        def second_write_fails(path, data):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(type(directory), "write_bytes", second_write_fails)
        with pytest.raises(OSError, match="disk full"):
            lt.save_cache(directory, LatticeSpec("sl2"), Domain("ball", 6.0), census, meta,
                          shards=3)
        monkeypatch.undo()
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
        assert lt.records_blob(lt.load_cache(directory)[2]) == lt.records_blob(records)
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]

    def test_rewrite_replaces_the_directory_and_leaves_no_sibling(self, tmp_path):
        directory = tmp_path / "cache"
        write_census(directory, shards=3)
        records = write_census(directory, t=6.0, shards=2)
        assert sorted(p.name for p in directory.iterdir()) == [
            "manifest.json", "shard_0000.bin", "shard_0001.bin"]
        assert lt.records_blob(lt.load_cache(directory)[2]) == lt.records_blob(records)
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]

    def test_rewrite_of_the_working_directory(self, tmp_path, monkeypatch):
        directory = tmp_path / "cache"
        write_census(directory)
        monkeypatch.chdir(directory)
        records = write_census(".", t=6.0)
        monkeypatch.chdir(tmp_path)
        assert lt.records_blob(lt.load_cache(directory)[2]) == lt.records_blob(records)
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]

    @pytest.mark.parametrize("foreign", ["notes.txt", "shard_0000.bin.orig", "sub/"])
    def test_refuses_a_directory_holding_other_files(self, tmp_path, foreign):
        directory = tmp_path / "cache"
        write_census(directory)
        if foreign.endswith("/"):
            (directory / foreign).mkdir()
        else:
            (directory / foreign).write_text("keep me")
        before = sorted(p.name for p in directory.iterdir())
        manifest = (directory / "manifest.json").read_bytes()
        with pytest.raises(PreconditionError, match="no cache writes"):
            write_census(directory, t=6.0)
        assert sorted(p.name for p in directory.iterdir()) == before
        assert (directory / "manifest.json").read_bytes() == manifest
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]


class TestBasePoint:
    def test_conjugation_translation_consistency(self):
        h = ((2, 1), (1, 1))
        based, _ = lt.enumerate_elements(LatticeSpec("sl2", base_point=h), Domain("ball", 6.0))
        plain, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 6.0))
        hm = np.array(h)
        hinv = np.array([[1, -1], [-1, 2]])
        expected = sorted(
            tuple(tuple(int(v) for v in row) for row in (hm @ np.array(r.matrix) @ hinv))
            for r in plain
        )
        assert expected == sorted(r.matrix for r in based)


    def test_cache_round_trip_keeps_columns_and_order(self, tmp_path):
        spec, domain = LatticeSpec("sl2", base_point=((2, 1), (1, 1))), Domain("ball", 5.0)
        records, meta = lt.enumerate_elements(spec, domain)
        lt.save_cache(tmp_path, spec, domain, records, meta, shards=2)
        loaded = lt.load_cache(tmp_path)[2]
        assert [r.matrix for r in loaded] == [r.matrix for r in records]
        for a, b in zip(loaded, records):
            assert np.array_equal(a.cartan, b.cartan)
            assert a.wall_margin == b.wall_margin
            assert a.loxodromic == b.loxodromic
            assert (a.jordan is None and b.jordan is None) or np.array_equal(a.jordan, b.jordan)

    def test_base_point_cache_rejects_records_outside_the_domain(self, tmp_path):
        h = ((2, 1), (1, 1))
        spec, domain = LatticeSpec("sl2", base_point=h), Domain("ball", 5.0)
        records, meta = lt.enumerate_elements(spec, domain)
        lt.save_cache(tmp_path, spec, domain, records, meta)
        rows = np.frombuffer((tmp_path / "shard_0000.bin").read_bytes(), dtype="<i8").reshape(-1, 4).copy()
        far = np.array(h) @ np.array([[100, 1], [99, 1]]) @ np.array([[1, -1], [-1, 2]])
        rows[5] = far.ravel()
        rewrite_shard(tmp_path, rows)
        with pytest.raises(PreconditionError, match="off its domain"):
            lt.load_cache(tmp_path)


MALFORMED_SL2 = {
    "wrong size": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "ragged": ((1, 1), (0,)),
    "non-integer": ((0.5, 0), (0, 2)),
    "determinant 2": ((2, 0), (0, 1)),
}


class TestSpecInputs:
    @pytest.mark.parametrize("m", MALFORMED_SL2.values(), ids=MALFORMED_SL2.keys())
    def test_malformed_base_point_is_refused_at_construction(self, m):
        with pytest.raises(ParameterError, match="base point must be 2 x 2 integer rows of determinant 1"):
            LatticeSpec("sl2", base_point=m)

    @pytest.mark.parametrize("m", MALFORMED_SL2.values(), ids=MALFORMED_SL2.keys())
    def test_malformed_generator_is_refused_at_construction(self, m):
        with pytest.raises(ParameterError, match="generator must be 2 x 2 integer rows of determinant 1"):
            LatticeSpec("sl2", "generated", (((1, 1), (0, 1)), m))

    @pytest.mark.parametrize("m", MALFORMED_SL2.values(), ids=MALFORMED_SL2.keys())
    def test_malformed_base_point_in_a_cache_is_refused_at_load(self, tmp_path, m):
        # the manifest passes its config_hash, so only the spec's own check refuses it
        write_census(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["spec"]["base_point"] = m
        manifest["config_hash"] = lt._config_hash(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PreconditionError, match="base point must be 2 x 2 integer rows"):
            lt.load_cache(tmp_path)

    def test_integer_rows_of_any_integer_type_are_accepted(self):
        spec = LatticeSpec("sl3", "generated", (np.eye(3, dtype=np.int64),), base_point=SL3_BASE)
        assert len(lt.enumerate_elements(spec, Domain("ball", 3.0), word_radius=1)[0]) > 0


class TestWordBall:
    def test_sl3_incomplete_flagged(self):
        records, meta = lt.enumerate_elements(
            LatticeSpec("sl3"), Domain("ball", 5.0), word_radius=2
        )
        assert not meta.complete
        assert meta.word_radius == 2
        assert any(r.loxodromic for r in records)

    def test_sl2_cache_round_trip_keeps_columns_and_order(self, tmp_path):
        gens = (((1, 1), (0, 1)), ((1, 0), (1, 1)))
        spec, domain = LatticeSpec("sl2", "generated", gens), Domain("ball", 4.0)
        records, meta = lt.enumerate_elements(spec, domain, word_radius=5)
        assert len(records) == 91
        lt.save_cache(tmp_path, spec, domain, records, meta)
        loaded = lt.load_cache(tmp_path)[2]
        assert [r.matrix for r in loaded] == [r.matrix for r in records]
        for a, b in zip(loaded, records):
            assert np.array_equal(a.cartan, b.cartan)
            assert a.wall_margin == b.wall_margin
            assert a.loxodromic == b.loxodromic
            assert (a.jordan is None and b.jordan is None) or np.array_equal(a.jordan, b.jordan)

    def test_census_counts_completeness_gate(self):
        records, meta = lt.enumerate_elements(
            LatticeSpec("sl3"), Domain("ball", 5.0), word_radius=2
        )
        with pytest.raises(CompletenessError):
            ref.census_counts(records, complete=meta.complete, require_complete=True)


class TestCensusCounts:
    def test_consistency_with_volume(self, census_t8):
        records, meta = census_t8
        rs = root_system(2)
        dom = Domain("ball", 8.0)
        vol = domain_volume(rs, dom)
        counts = ref.census_counts(
            records, slabs=[1.0], volume_log=vol.log_value, complete=meta.complete
        )
        assert counts["total"] == len(records)
        assert counts["regular"] == sum(1 for r in records if r.wall_margin > 0)
        assert counts["normalized"]["total"] == pytest.approx(
            len(records) / math.exp(vol.log_value)
        )

    def test_sweep_rows_match_per_t_enumeration(self):
        spec, rs = LatticeSpec("sl2", base_point=((2, 1), (1, 1))), root_system(2)
        report = ref.census_sweep(spec, [5, 7.0, 6.0], epsilons=[0.1])
        assert [r["t"] for r in report["rows"]] == [5.0, 7.0, 6.0]
        for row in report["rows"]:
            dom = Domain("ball", row["t"])
            records, meta = lt.enumerate_elements(spec, dom)
            want = ref.census_counts(records, slabs=[0.1 * row["t"]],
                                     volume_log=domain_volume(rs, dom).log_value,
                                     complete=meta.complete)
            assert {k: row[k] for k in want} == want

    @pytest.mark.parametrize("sweep", [ref.census_sweep, sv.angular_sweep])
    def test_sweep_builds_each_census_once(self, sweep, monkeypatch):
        calls, table_records = [], lt._table_records

        def counting(*args, **kwargs):
            calls.append(args[2])
            return table_records(*args, **kwargs)

        monkeypatch.setattr(lt, "_table_records", counting)
        sweep(LatticeSpec("sl2"), [5.0, 7.0, 6.0])
        assert [dom.t for dom in calls] == [7.0, 5.0, 6.0]

    def test_sweep_ratio_stabilizes(self):
        report = ref.census_sweep(LatticeSpec("sl2"), [9.0, 10.0, 11.0], epsilons=[0.1])
        rows = report["rows"]
        ratios = [r["normalized"]["total"] for r in rows]
        assert abs(ratios[-1] - ratios[-2]) / ratios[-2] < 0.1
        assert report["slab_decay"][0.1]["kappa_fit"] > 0.0


class TestJordanOfKeptRows:
    """``_table_records`` solves Jordan rows and loxodromy flags for the rows it keeps only;
    the stacked solves work row by row, so each is the value of the full scan's solve."""

    @pytest.mark.parametrize("spec, domain, radius", [
        (LatticeSpec("sl3"), Domain("ball", 3.0), 4),
        (LatticeSpec("sl3", base_point=((1, 1, 0), (0, 1, 0), (0, 1, 1))), Domain("ball", 3.0), 4),
        (LatticeSpec("sl3"), Domain("box", 2.0, (1.0, 0.5), regular_margin=0.2), 3),
        (LatticeSpec("sl2"), Domain("ball", 7.0, slab=1.0), 4),
    ])
    def test_only_kept_rows_reach_jordan_project(self, monkeypatch, spec, domain, radius):
        seen, solve = [], lt.jordan_project
        monkeypatch.setattr(lt, "jordan_project", lambda mats: seen.append(mats) or solve(mats))
        census, meta = lt.enumerate_elements(spec, domain, word_radius=radius)
        assert len(seen) == 1
        kept = lt._conjugate(census.table, spec.base_point) if spec.base_point else census.table
        assert np.array_equal(seen[0].reshape(len(kept), -1), kept)
        scanned = (lt._sl2_candidates(-meta.bound, meta.bound, lt._sl2_mass_cap(domain, root_system(2)))
                   if meta.complete else lt._word_ball(lt._default_sl3_generators(), radius))
        scanned = scanned.reshape(len(scanned), -1)  # the origin scan m = h^-1 g h
        assert 0 < len(census) < len(scanned)
        jordan, lox = solve(scanned.reshape(-1, spec.d, spec.d))  # every scanned row, as before
        index = {row.tobytes(): i for i, row in enumerate(scanned)}
        pick = [index[row.tobytes()] for row in kept]
        assert np.array_equal(census.jordan, jordan[pick]) and np.array_equal(census.loxodromic, lox[pick])


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)
SL3_BASE = ((1, 1, 0), (0, 1, 0), (0, 1, 1))
SL2_GENS = (((1, 1), (0, 1)), ((1, 0), (1, 1)))
SWEEP_SPECS = [
    (LatticeSpec("sl2"), 4),
    (LatticeSpec("sl2", base_point=((2, 1), (1, 1))), 4),
    (LatticeSpec("sl2", "generated", SL2_GENS), 5),
    (LatticeSpec("sl2", "generated", SL2_GENS, base_point=((2, 1), (1, 1))), 5),
    (LatticeSpec("sl3"), 3),
    (LatticeSpec("sl3", base_point=SL3_BASE), 3),
]


def assert_same_records(got, want):
    """Matrix, order and every column equal bit for bit."""
    assert [r.matrix for r in got] == [r.matrix for r in want]
    for a, b in zip(got, want):
        assert a.cartan.tobytes() == b.cartan.tobytes()
        assert struct.pack("<d", a.wall_margin) == struct.pack("<d", b.wall_margin)
        assert a.loxodromic is b.loxodromic
        assert (a.jordan is None and b.jordan is None) or a.jordan.tobytes() == b.jordan.tobytes()


def assert_matches_reference(directory, spec, domain, word_radius=4):
    """enumerate_elements and its cache round trip both match the per-record reference."""
    want = ref.reference_census(spec, domain, word_radius)
    records, meta = lt.enumerate_elements(spec, domain, word_radius=word_radius)
    assert_same_records(records, want)
    lt.save_cache(directory, spec, domain, records, meta, shards=2)
    assert_same_records(lt.load_cache(directory)[2], want)


def small_det_one(d):
    """Products of up to three elementary matrices with multipliers in [-2, 2]."""
    def build(steps):
        m = np.eye(d, dtype=np.int64)
        for i, j, k in steps:
            e = np.eye(d, dtype=np.int64)
            e[i, j] = k
            m = m @ e
        return tuple(tuple(int(x) for x in row) for row in m)
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    step = st.tuples(st.sampled_from(pairs), st.integers(-2, 2)).map(lambda p: (*p[0], p[1]))
    return st.lists(step, min_size=1, max_size=3).map(build)


class TestTableOracle:
    @pytest.mark.parametrize("t", [5.0, 8.0])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_sl3_word_balls(self, tmp_path, t, radius):
        assert_matches_reference(tmp_path, LatticeSpec("sl3"), Domain("ball", t), radius)

    @pytest.mark.parametrize("domain", [Domain("box", 4.0, (1.0, 1.5), regular_margin=0.3),
                                        Domain("ball", 5.0, slab=1.0)])
    def test_sl3_filtered_domains(self, tmp_path, domain):
        assert_matches_reference(tmp_path, LatticeSpec("sl3"), domain, 3)

    def test_sl2_generated_ball(self, tmp_path):
        gens = (((1, 1), (0, 1)), ((1, 0), (1, 1)))
        for t in (4.0, 6.5):
            assert_matches_reference(tmp_path / str(t), LatticeSpec("sl2", "generated", gens),
                                     Domain("ball", t), 5)

    def test_sl2_base_point(self, tmp_path):
        spec = LatticeSpec("sl2", base_point=((2, 1), (1, 1)))
        assert_matches_reference(tmp_path, spec, Domain("ball", 6.0))

    def test_sl3_base_point(self, tmp_path):
        spec = LatticeSpec("sl3", base_point=SL3_BASE)
        assert_matches_reference(tmp_path, spec, Domain("ball", 5.0), 3)

    def test_sl3_census_builds_no_group_element_per_record(self):
        profile = cProfile.Profile()
        profile.enable()
        records, _ = lt.enumerate_elements(LatticeSpec("sl3"), Domain("ball", 8.0), word_radius=4)
        profile.disable()
        inits = sum(stats[0] for (path, _, name), stats in pstats.Stats(profile).stats.items()
                    if name == "__init__" and path.endswith("projections.py"))
        assert len(records) > 1000
        assert inits <= 2

    @PROPERTY
    @given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(
        st.lists(small_det_one(d), min_size=1, max_size=3),
        st.integers(0, 3),
        st.one_of(st.none(), small_det_one(d)),
        st.floats(1.0, 8.0),
    )))
    def test_random_generators_and_base_points(self, case):
        gens, radius, base, t = case
        d = len(gens[0])
        assert np.array_equal(lt._word_ball(gens, radius),
                              np.array(ref.word_ball(gens, radius), dtype=np.int64))
        spec = LatticeSpec(f"sl{d}", "generated", tuple(gens), base_point=base)
        with tempfile.TemporaryDirectory() as directory:
            assert_matches_reference(directory, spec, Domain("ball", t), radius)

    @PROPERTY
    @given(st.integers(2, 50), st.floats(0.01, 0.99))
    def test_integer_census_matches_nested_loops_at_random_caps(self, int_cap, frac):
        records, _ = lt.enumerate_elements(LatticeSpec("sl2"),
                                           Domain("ball", t_of_cap(int_cap + frac)))
        assert sorted(r.matrix for r in records) == brute_force_sl2(math.isqrt(int_cap), int_cap)

    @PROPERTY
    @given(st.sampled_from(SWEEP_SPECS), st.floats(0.5, 7.0), st.floats(0.5, 7.0))
    def test_restriction_matches_enumeration_at_the_smaller_ball(self, case, t1, t2):
        spec, radius = case
        small, big = Domain("ball", min(t1, t2)), Domain("ball", max(t1, t2))
        census, _ = lt.enumerate_elements(spec, big, word_radius=radius)
        want, _ = lt.enumerate_elements(spec, small, word_radius=radius)
        got, outside = lt.restrict(census.table, spec, small)
        assert_same_records(got, want)
        assert outside == len(census) - len(want)

    def test_sort_key_rounds_as_python_round(self):
        # values at and one ulp either side of the half-way points of the 12th decimal
        k = np.random.default_rng(3).integers(1, 10**14, 3000)
        x = (k + 0.5) / 1e12
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
        assert lt._round12(x).tolist() == [round(v, 12) for v in x.tolist()]
        assert np.count_nonzero(np.round(x, 12) != lt._round12(x)) > 1000

    def test_word_ball_guards_int64(self):
        gens = (((1, 2**40), (0, 1)),)
        assert len(lt._word_ball(gens, 1)) == 3
        with pytest.raises(FeasibilityError, match="overflow"):
            lt._word_ball(gens, 2)


class TestConjugateOnce:
    """A census at a base point h conjugates each row once: the scan's displacements m
    go to g = h m h^-1 only where kept (they all went to g and back to m), and
    ``restrict`` (with it ``load_cache``) takes each g to m once."""

    @staticmethod
    def conjugated_rows(monkeypatch) -> list:
        rows, conjugate = [], lt._int_conjugate
        monkeypatch.setattr(lt, "_int_conjugate", lambda mats, h: rows.append(len(mats)) or conjugate(mats, h))
        return rows

    def test_rows_through_the_conjugation(self, monkeypatch, tmp_path):
        spec, domain = LatticeSpec("sl3", base_point=SL3_BASE), Domain("ball", 3.0)
        rows = self.conjugated_rows(monkeypatch)
        census, meta = lt.enumerate_elements(spec, domain, word_radius=5)
        scanned = len(lt._word_ball(lt._default_sl3_generators(), 5))
        assert (scanned, len(census)) == (30163, 895) and sum(rows) <= scanned + len(census)
        rows.clear()
        assert len(lt.restrict(census.table, spec, domain)[0]) == len(census) and rows == [len(census)]
        lt.save_cache(tmp_path, spec, domain, census, meta)
        rows.clear()
        lt.load_cache(tmp_path)
        assert rows == [len(census)]

    @pytest.mark.parametrize("spec, domain, radius, digest", [
        (LatticeSpec("sl3", base_point=SL3_BASE), Domain("ball", 3.0), 5, "08c804a33cbb52df"),
        (LatticeSpec("sl3", base_point=SL3_BASE), Domain("ball", 4.0, regular_margin=0.3), 4, "91e4c4551754837d"),
        (LatticeSpec("sl2", base_point=((2, 1), (1, 1))), Domain("ball", 6.0), 4, "b96bfa599bf7db6b"),
        (LatticeSpec("sl2", base_point=((2, 1), (1, 1))), Domain("ball", 7.0, slab=0.5), 4, "7c77d34363c1250d"),
    ])
    def test_census_columns_and_cache_are_as_they_were(self, tmp_path, spec, domain, radius, digest):
        # sha256 prefixes recorded from the census that conjugated every scanned row twice:
        # its table and columns, its cache files in three shards, and the columns loaded back
        h = hashlib.sha256()
        census, meta = lt.enumerate_elements(spec, domain, word_radius=radius)
        lt.save_cache(tmp_path / "c", spec, domain, census, meta, shards=3)
        loaded = lt.load_cache(tmp_path / "c")[2]
        for col in (census.table, census.cartan, census.wall_margin, census.loxodromic, census.jordan):
            h.update(np.ascontiguousarray(col).tobytes())
        for path in sorted((tmp_path / "c").iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        for col in (loaded.table, loaded.cartan, loaded.wall_margin, loaded.loxodromic, loaded.jordan):
            h.update(np.ascontiguousarray(col).tobytes())
        assert h.hexdigest()[:16] == digest


@pytest.fixture(scope="module")
def flip_cache(tmp_path_factory):
    directory = tmp_path_factory.mktemp("flip")
    spec, domain = LatticeSpec("sl3"), Domain("ball", 5.0)
    records, meta = lt.enumerate_elements(spec, domain, word_radius=2)
    lt.save_cache(directory, spec, domain, records, meta, shards=2)
    return directory, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestDamagedCaches:
    def test_unreadable_manifest_and_missing_shard(self, tmp_path):
        write_census(tmp_path, shards=2)
        manifest = tmp_path / "manifest.json"
        good = manifest.read_bytes()
        doc = json.loads(good)
        del doc["total"]
        for damaged in (good[:len(good) // 2], b"not json", json.dumps(doc).encode()):
            manifest.write_bytes(damaged)
            with pytest.raises(PreconditionError, match="unreadable"):
                lt.load_cache(tmp_path)
        manifest.write_bytes(good)
        (tmp_path / "shard_0001.bin").unlink()
        with pytest.raises(PreconditionError, match="unreadable"):
            lt.load_cache(tmp_path)

    def test_rejects_same_content_respelled(self, tmp_path):
        write_census(tmp_path)
        manifest = tmp_path / "manifest.json"
        good = manifest.read_bytes()
        assert b'"t":5.0' in good and good.endswith(b"}\n")
        for damaged in (good.replace(b'"t":5.0', b'"t":5e0'), good[:-1] + b" "):
            manifest.write_bytes(damaged)
            with pytest.raises(PreconditionError):
                lt.load_cache(tmp_path)

    def test_rejects_changed_word_radius(self, flip_cache):
        directory, files = flip_cache
        assert b'"word_radius":2' in files["manifest.json"]
        try:
            (directory / "manifest.json").write_bytes(
                files["manifest.json"].replace(b'"word_radius":2', b'"word_radius":3'))
            with pytest.raises(PreconditionError, match="config_hash"):
                lt.load_cache(directory)
        finally:
            (directory / "manifest.json").write_bytes(files["manifest.json"])

    def test_rejects_wrong_total(self, tmp_path):
        write_census(tmp_path)
        rows = np.frombuffer((tmp_path / "shard_0000.bin").read_bytes(), dtype="<i8").reshape(-1, 4)
        rewrite_shard(tmp_path, rows[:-1])
        with pytest.raises(PreconditionError, match="manifest says"):
            lt.load_cache(tmp_path)

    @PROPERTY
    @given(st.data())
    def test_single_byte_flip_is_rejected(self, flip_cache, data):
        directory, files = flip_cache
        name = data.draw(st.sampled_from(sorted(files)))
        blob = bytearray(files[name])
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        try:
            (directory / name).write_bytes(bytes(blob))
            with pytest.raises(WccError):
                lt.load_cache(directory)
        finally:
            (directory / name).write_bytes(files[name])
