import hashlib
import json
import math

import numpy as np
import pytest

from wcc import lattice as lt
from wcc.errors import CompletenessError, FeasibilityError, PreconditionError
from wcc.lattice import ElementRecord, LatticeSpec
from wcc.rootsys import root_system
from wcc.volume import Domain, domain_volume


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
                        rec = ElementRecord.from_rows([[a, b], [c, d]], rs)
                        if domain.contains_cartan(rs, rec.cartan):
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


class TestShardingAndCache:
    def test_shard_count_independence_byte_exact(self):
        r1, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 7.0), shards=1)
        r4, _ = lt.enumerate_elements(LatticeSpec("sl2"), Domain("ball", 7.0), shards=4)
        r9, _ = lt.enumerate_elements(
            LatticeSpec("sl2"), Domain("ball", 7.0), shards=9, threads=3
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
        rs = root_system(3)
        with pytest.raises(CompletenessError):
            lt.census_counts(records, rs, Domain("ball", 5.0), complete=meta.complete,
                             require_complete=True)


class TestCensusCounts:
    def test_consistency_with_volume(self, census_t8):
        records, meta = census_t8
        rs = root_system(2)
        dom = Domain("ball", 8.0)
        vol = domain_volume(rs, dom)
        counts = lt.census_counts(
            records, rs, dom, slabs=[1.0], volume_log=vol.log_value, complete=meta.complete
        )
        assert counts["total"] == len(records)
        assert counts["regular"] == sum(1 for r in records if r.wall_margin > 0)
        assert counts["normalized"]["total"] == pytest.approx(
            len(records) / math.exp(vol.log_value)
        )

    def test_sweep_ratio_stabilizes(self):
        report = lt.census_sweep(LatticeSpec("sl2"), [9.0, 10.0, 11.0], epsilons=[0.1])
        rows = report["rows"]
        ratios = [r["normalized"]["total"] for r in rows]
        assert abs(ratios[-1] - ratios[-2]) / ratios[-2] < 0.1
        assert report["slab_decay"][0.1]["kappa_fit"] > 0.0


def test_enumeration_cache_wrapper(tmp_path, census_t8):
    records, meta = census_t8
    cache = lt.EnumerationCache.write(
        tmp_path, LatticeSpec("sl2"), Domain("ball", 8.0), records, meta, shards=2
    )
    assert cache.complete
    assert lt.records_blob(cache.records) == lt.records_blob(records)
    assert cache.domain.t == 8.0
