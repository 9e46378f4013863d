"""Tests for the oracle substrate (lazy, table, patched, hash-backed)."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import Bits
from repro.hashes import HashOracle, sha256, toy_hash
from repro.oracle import (
    DomainError,
    LazyRandomOracle,
    PatchedOracle,
    TableOracle,
)


class TestOracleInterface:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            LazyRandomOracle(-1, 8)
        with pytest.raises(ValueError):
            LazyRandomOracle(8, 0)

    def test_query_length_checked(self):
        ro = LazyRandomOracle(8, 8)
        with pytest.raises(DomainError):
            ro.query(Bits.zeros(7))


class TestLazyRandomOracle:
    def test_deterministic_within_instance(self):
        ro = LazyRandomOracle(16, 16, seed=3)
        x = Bits(1234, 16)
        assert ro.query(x) == ro.query(x)

    def test_consistent_across_instances_and_order(self):
        a = LazyRandomOracle(16, 16, seed=7)
        b = LazyRandomOracle(16, 16, seed=7)
        xs = [Bits(i * 37 % 65536, 16) for i in range(50)]
        left = [a.query(x) for x in xs]
        right = [b.query(x) for x in reversed(xs)]
        assert left == list(reversed(right))

    def test_seed_selects_different_function(self):
        a = LazyRandomOracle(16, 16, seed=1)
        b = LazyRandomOracle(16, 16, seed=2)
        diffs = sum(a.query(Bits(i, 16)) != b.query(Bits(i, 16)) for i in range(64))
        assert diffs > 32

    def test_output_length_non_byte_aligned(self):
        ro = LazyRandomOracle(10, 13, seed=0)
        out = ro.query(Bits(5, 10))
        assert len(out) == 13

    def test_sha256_prf_variant(self):
        ro = LazyRandomOracle(16, 300, seed=0, prf="sha256")
        out = ro.query(Bits(99, 16))
        assert len(out) == 300

    def test_sha256_and_toy_differ(self):
        a = LazyRandomOracle(16, 16, seed=0, prf="toy")
        b = LazyRandomOracle(16, 16, seed=0, prf="sha256")
        assert any(a.query(Bits(i, 16)) != b.query(Bits(i, 16)) for i in range(16))

    def test_unknown_prf_rejected(self):
        with pytest.raises(ValueError):
            LazyRandomOracle(8, 8, prf="md5")

    def test_cache_size(self):
        ro = LazyRandomOracle(8, 8)
        ro.query(Bits(1, 8))
        ro.query(Bits(1, 8))
        ro.query(Bits(2, 8))
        assert ro.cache_size() == 2

    def test_zero_length_input_domain(self):
        ro = LazyRandomOracle(0, 8)
        assert len(ro.query(Bits(0, 0))) == 8

    def test_clear_cache(self):
        ro = LazyRandomOracle(8, 8, seed=3)
        before = ro.query(Bits(5, 8))
        assert ro.cache_size() == 1
        ro.clear_cache()
        assert ro.cache_size() == 0
        assert ro.query(Bits(5, 8)) == before

    def test_pickle_roundtrip_drops_cache(self):
        """Worker shipping: the PRF state travels, the memo cache does not."""
        import pickle

        ro = LazyRandomOracle(16, 16, seed=11)
        answers = {i: ro.query(Bits(i, 16)) for i in range(32)}
        assert ro.cache_size() == 32
        clone = pickle.loads(pickle.dumps(ro))
        assert clone.cache_size() == 0
        assert all(clone.query(Bits(i, 16)) == out for i, out in answers.items())
        # The original is untouched by the round-trip.
        assert ro.cache_size() == 32

    def test_output_looks_uniform(self):
        """Mean output over many queries should be near the middle."""
        ro = LazyRandomOracle(20, 16, seed=5)
        vals = [ro.query(Bits(i, 20)).value for i in range(2000)]
        mean = sum(vals) / len(vals)
        assert 0.45 * 65535 < mean < 0.55 * 65535


class TestTableOracle:
    def test_sample_shape(self):
        rng = np.random.default_rng(0)
        ro = TableOracle.sample(6, 9, rng)
        assert len(ro.table) == 64
        assert all(0 <= v < 512 for v in ro.table)

    def test_query_reads_table(self):
        ro = TableOracle(2, 4, [5, 9, 0, 15])
        assert ro.query(Bits(1, 2)) == Bits(9, 4)

    def test_table_length_validated(self):
        with pytest.raises(ValueError):
            TableOracle(3, 4, [0] * 7)

    def test_entry_range_validated(self):
        with pytest.raises(ValueError):
            TableOracle(1, 2, [0, 4])

    def test_huge_domain_rejected(self):
        with pytest.raises(ValueError):
            TableOracle(31, 4, [])

    def test_sample_validates_dimensions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="invalid oracle dimensions"):
            TableOracle.sample(4, 0, rng)
        with pytest.raises(ValueError, match="impractical"):
            TableOracle.sample(31, 4, rng)

    def test_entries_iteration(self):
        ro = TableOracle(2, 3, [1, 2, 3, 4])
        pairs = list(ro.entries())
        assert pairs[2] == (Bits(2, 2), Bits(3, 3))

    def test_with_overrides(self):
        ro = TableOracle(2, 3, [1, 2, 3, 4])
        patched = ro.with_overrides({Bits(0, 2): Bits(7, 3)})
        assert patched.query(Bits(0, 2)) == Bits(7, 3)
        assert patched.query(Bits(1, 2)) == Bits(2, 3)
        assert ro.query(Bits(0, 2)) == Bits(1, 3)  # original untouched

    def test_override_dimension_checked(self):
        ro = TableOracle(2, 3, [0, 0, 0, 0])
        with pytest.raises(ValueError):
            ro.with_overrides({Bits(0, 3): Bits(0, 3)})

    def test_serialize_roundtrip(self):
        rng = np.random.default_rng(1)
        ro = TableOracle.sample(5, 7, rng)
        blob = ro.serialize()
        assert len(blob) == 7 * 32
        assert TableOracle.deserialize(blob, 5, 7) == ro

    def test_deserialize_rejects_trailing(self):
        with pytest.raises(ValueError):
            TableOracle.deserialize(Bits.zeros(7 * 32 + 1), 5, 7)

    def test_log2_number_of_oracles(self):
        # n -> n oracle over {0,1}^n: 2^(n 2^n) functions.
        assert TableOracle.log2_number_of_oracles(3, 3) == 3 * 8

    def test_sample_wide_output(self):
        rng = np.random.default_rng(2)
        ro = TableOracle.sample(2, 70, rng)
        assert all(0 <= v < (1 << 70) for v in ro.table)

    def test_sampling_is_roughly_uniform(self):
        rng = np.random.default_rng(3)
        ro = TableOracle.sample(12, 1, rng)
        ones = sum(ro.table)
        assert 0.45 * 4096 < ones < 0.55 * 4096

    def test_equality_and_hash(self):
        a = TableOracle(1, 1, [0, 1])
        b = TableOracle(1, 1, [0, 1])
        c = TableOracle(1, 1, [1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c


#: sha256 of ``TableOracle.sample(n, n_out, default_rng(seed)).serialize()``
#: as a 0/1 string.  The draw must stay byte-identical across storage
#: changes so that every Monte-Carlo estimate does too.
SAMPLE_DIGESTS = {
    (4, 4, 0): "f58f500229fe43b5f459c483d61e788005d44e0c02a07197482b5f08144506a1",
    (8, 8, 1): "44d3850ac5f8263fe7cf157d7df644ed9bdec0fc0b3f9648fc93e5632703cb1e",
    (10, 62, 2): "94debd640460bcad5e39d58c80212e5c6d55747a302c41fc9e21041056ba72aa",
    (12, 12, 3): "57e03892c36237c787f6e3ae09e633570c1a6a571d2928339ff6abc16927bbb7",
    (5, 70, 5): "db32d8458035f3b4a12dd88a70f3d7b870da5c34df07487c892309e324dd3172",
}


class TestTableOracleStorage:
    """Storage contract: range checks, no aliasing, Python ints out."""

    @pytest.mark.parametrize("n, n_out, seed", sorted(SAMPLE_DIGESTS))
    def test_sample_stream_pinned(self, n, n_out, seed):
        blob = TableOracle.sample(n, n_out, np.random.default_rng(seed)).serialize()
        digest = hashlib.sha256(blob.to_str().encode()).hexdigest()
        assert digest == SAMPLE_DIGESTS[(n, n_out, seed)]

    def test_uint64_array_entry_out_of_range(self):
        ok = np.array([0, 1, 2, 7], dtype=np.uint64)
        assert TableOracle(2, 3, ok).table == (0, 1, 2, 7)
        with pytest.raises(ValueError, match="out of range"):
            TableOracle(2, 3, np.array([0, 1, 8, 2], dtype=np.uint64))

    @pytest.mark.parametrize("n_out", [2, 70])
    def test_list_entry_out_of_range(self, n_out):
        with pytest.raises(ValueError, match="out of range"):
            TableOracle(1, n_out, [0, -1])
        with pytest.raises(ValueError, match="out of range"):
            TableOracle(1, n_out, [1 << n_out, 0])

    def test_constructor_copies_caller_array(self):
        values = np.array([1, 2, 3, 4], dtype=np.uint64)
        ro = TableOracle(2, 3, values)
        values[0] = 7
        assert ro.table == (1, 2, 3, 4)

    @pytest.mark.parametrize("n_out", [8, 70])
    def test_with_overrides_leaves_base_unchanged(self, n_out):
        base = TableOracle.sample(6, n_out, np.random.default_rng(4))
        before, h = base.table, hash(base)
        patched = base.with_overrides(
            {Bits(q, 6): Bits((1 << n_out) - 1 - base.table[q], n_out)
             for q in (0, 17, 63)}
        )
        assert base.table == before and hash(base) == h
        assert base == TableOracle(6, n_out, before)
        assert patched != base
        assert [patched.table[q] != before[q] for q in range(64)].count(True) == 3

    @pytest.mark.parametrize("n_out", [8, 70])
    def test_pickle_roundtrip_equal_and_hash_equal(self, n_out):
        ro = TableOracle.sample(5, n_out, np.random.default_rng(6))
        clone = pickle.loads(pickle.dumps(ro))
        assert clone == ro and hash(clone) == hash(ro)
        assert clone.query(Bits(9, 5)) == ro.query(Bits(9, 5))

    @pytest.mark.parametrize("n_out", [8, 62, 63, 70])
    def test_sampled_and_list_built_equal(self, n_out):
        sampled = TableOracle.sample(4, n_out, np.random.default_rng(7))
        built = TableOracle(4, n_out, list(sampled.table))
        assert built == sampled and hash(built) == hash(sampled)
        other = sampled.with_overrides({Bits(0, 4): Bits(sampled.table[0] ^ 1, n_out)})
        assert other != sampled

    @pytest.mark.parametrize("n_out", [8, 70])
    def test_accessors_yield_python_ints(self, n_out):
        ro = TableOracle.sample(3, n_out, np.random.default_rng(8))
        assert all(type(v) is int for v in ro.table)
        assert all(type(a.value) is int for _, a in ro.entries())
        assert type(ro.query(Bits(5, 3)).value) is int
        answers = ro.query_batch([Bits(q, 3) for q in range(8)])
        assert all(type(a.value) is int for a in answers)
        assert [a.value for a in answers] == list(ro.table)


class TestPatchedOracle:
    def test_override_hit_and_passthrough(self):
        base = TableOracle(2, 3, [1, 2, 3, 4])
        patched = PatchedOracle(base, {Bits(2, 2): Bits(0, 3)})
        assert patched.query(Bits(2, 2)) == Bits(0, 3)
        assert patched.query(Bits(3, 2)) == Bits(4, 3)

    def test_dimension_validation(self):
        base = TableOracle(2, 3, [0, 0, 0, 0])
        with pytest.raises(ValueError):
            PatchedOracle(base, {Bits(0, 1): Bits(0, 3)})
        with pytest.raises(ValueError):
            PatchedOracle(base, {Bits(0, 2): Bits(0, 2)})

    def test_num_patches_and_accessors(self):
        base = TableOracle(1, 1, [0, 1])
        patched = PatchedOracle(base, {Bits(0, 1): Bits(1, 1)})
        assert patched.num_patches() == 1
        assert patched.base is base
        assert patched.overrides == {Bits(0, 1): Bits(1, 1)}

    def test_nested_patching(self):
        base = TableOracle(2, 2, [0, 1, 2, 3])
        once = PatchedOracle(base, {Bits(0, 2): Bits(3, 2)})
        twice = PatchedOracle(once, {Bits(1, 2): Bits(3, 2)})
        assert twice.query(Bits(0, 2)) == Bits(3, 2)
        assert twice.query(Bits(1, 2)) == Bits(3, 2)
        assert twice.query(Bits(2, 2)) == Bits(2, 2)


class TestHashOracle:
    def test_sha256_backed(self):
        ro = HashOracle(sha256, 16, 16)
        assert len(ro.query(Bits(7, 16))) == 16
        assert ro.query(Bits(7, 16)) == ro.query(Bits(7, 16))

    def test_counter_mode_expansion(self):
        ro = HashOracle(sha256, 8, 600)
        out = ro.query(Bits(1, 8))
        assert len(out) == 600
        assert ro.hash_calls >= 3  # 600 bits > 2 digests

    def test_label_separates_domains(self):
        a = HashOracle(sha256, 16, 16, label=b"A")
        b = HashOracle(sha256, 16, 16, label=b"B")
        assert a.query(Bits(5, 16)) != b.query(Bits(5, 16))

    def test_toy_hash_backed(self):
        ro = HashOracle(lambda m: toy_hash(m, digest_size=8), 16, 16)
        assert len(ro.query(Bits(3, 16))) == 16

    def test_work_accounting(self):
        ro = HashOracle(sha256, 16, 16)
        before = ro.bytes_hashed
        ro.query(Bits(3, 16))
        assert ro.bytes_hashed > before
        assert ro.hash_calls == 1

    @given(st.integers(0, 2**16 - 1))
    def test_matches_direct_hash_truncation(self, x):
        ro = HashOracle(sha256, 16, 16, label=b"t")
        material = b"t" + x.to_bytes(2, "big") + (0).to_bytes(4, "big")
        expected = int.from_bytes(sha256(material)[:2], "big")
        assert ro.query(Bits(x, 16)).value == expected
