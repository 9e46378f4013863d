"""Microbenchmarks of the substrates (throughput numbers for README)."""

import numpy as np
import pytest

from repro.bits import Bits
from repro.functions import LineParams, evaluate_line, sample_input
from repro.hashes import sha256, toy_hash
from repro.mpc import MPCParams, MPCSimulator
from repro.oracle import LazyRandomOracle, TableOracle
from repro.protocols import build_chain_protocol
from repro.ram import run_line_on_ram


def bench_bits_concat_slice(benchmark):
    a = Bits(12345, 64)
    b = Bits(54321, 64)

    def op():
        c = a + b
        return c[10:100]

    benchmark(op)


def bench_bits_concat_many(benchmark):
    parts = [Bits(i & 0xFFFF, 16) for i in range(256)]
    benchmark(Bits.concat, parts)


def bench_bits_slice_hot(benchmark):
    big = Bits((1 << 4096) - 1, 4096)

    def op():
        # The codec access pattern: many narrow slices off one record.
        return [big[i : i + 16] for i in range(0, 4096, 16)]

    benchmark(op)


def bench_bitreader_read_stream(benchmark):
    from repro.bits.codec import BitReader

    stream = Bits((1 << 4096) - 1, 4096)

    def op():
        reader = BitReader(stream)
        total = 0
        while not reader.at_end():
            total += reader.read(16)
        return total

    benchmark(op)


def bench_record_codec_unpack(benchmark):
    from repro.bits.codec import Field, RecordCodec

    codec = RecordCodec(
        [Field("l", 20), Field("r", 20), Field("z", 8), Field("pad", 16)]
    )
    record = codec.pack(l=7, r=9, z=3)
    benchmark(codec.unpack, record)


def bench_sha256_1kib(benchmark):
    data = bytes(range(256)) * 4
    benchmark(sha256, data)


def bench_toy_hash_1kib(benchmark):
    data = bytes(range(256)) * 4
    benchmark(toy_hash, data)


def bench_lazy_oracle_query(benchmark):
    ro = LazyRandomOracle(64, 64, seed=1)
    queries = [Bits(i, 64) for i in range(1000)]
    counter = {"i": 0}

    def op():
        counter["i"] = (counter["i"] + 1) % 1000
        return ro.query(queries[counter["i"]])

    benchmark(op)


# n=19 is the largest table the Lemma 3.3 / A.7 Monte-Carlo trials draw.
@pytest.mark.parametrize("n", [12, 19])
def bench_table_oracle_sample(benchmark, n):
    rng = np.random.default_rng(0)
    benchmark(TableOracle.sample, n, n, rng)


def bench_line_reference_eval(benchmark):
    params = LineParams(n=36, u=8, v=8, w=128)
    oracle = LazyRandomOracle(params.n, params.n, seed=2)
    x = sample_input(params, np.random.default_rng(2))
    benchmark(evaluate_line, params, x, oracle)


def bench_line_word_ram_eval(benchmark):
    params = LineParams(n=36, u=8, v=8, w=128)
    oracle = LazyRandomOracle(params.n, params.n, seed=3)
    x = sample_input(params, np.random.default_rng(3))
    benchmark(run_line_on_ram, params, x, oracle)


def bench_mpc_chain_protocol(benchmark):
    params = LineParams(n=36, u=8, v=8, w=64)
    x = sample_input(params, np.random.default_rng(4))

    def op():
        from repro.protocols import run_chain

        oracle = LazyRandomOracle(params.n, params.n, seed=4)
        setup = build_chain_protocol(params, x, num_machines=4)
        return run_chain(setup, oracle)

    benchmark(op)
