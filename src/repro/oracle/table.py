"""Explicit truth-table oracle over small domains.

A :class:`TableOracle` holds all ``2^n_in`` answers.  Sampling the table
uniformly *is* drawing ``RO`` from the paper's probability space, so
Monte-Carlo estimates computed over fresh tables are unbiased estimates of
the paper's probabilities at the same (scaled-down) parameters.  The class
also supports what the Section 3 proof does on paper: counting the number
of possible oracles (``2^{n_out * 2^n_in}``, the ``2^{n 2^n}`` term in
Claim 3.7's message count) and serializing the full table -- the "add the
entire RO to our encoding" step of the encoders.

The answers live in one numpy array: ``uint64`` for answers of at most
:data:`_NARROW_BITS` bits (the RNG's draw, kept as drawn), ``object``
holding Python ints for wider ones.  Every accessor hands out plain
Python ints.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.bits import BitReader, BitWriter, Bits
from repro.oracle.base import Oracle

#: Widest answers drawn in one ``rng.integers`` call and stored as
#: ``uint64``; wider answers are assembled from 32-bit limbs.
_NARROW_BITS = 62

__all__ = ["TableOracle"]


def _check_domain_size(n_in: int) -> None:
    if n_in > 30:
        raise ValueError(
            f"table oracle over 2^{n_in} entries is impractical; "
            "use LazyRandomOracle for large domains"
        )


class TableOracle(Oracle):
    """An oracle backed by an explicit table of ``2^n_in`` answers."""

    def __init__(self, n_in: int, n_out: int, table: Sequence[int]) -> None:
        super().__init__(n_in, n_out)
        _check_domain_size(n_in)
        expected = 1 << n_in
        if len(table) != expected:
            raise ValueError(
                f"table has {len(table)} entries, domain needs {expected}"
            )
        if (
            isinstance(table, np.ndarray)
            and table.dtype == np.uint64
            and table.ndim == 1
        ):
            low, top = 0, int(table.max())
        else:
            table = [int(v) for v in table]
            low, top = min(table), max(table)
        if low < 0 or top >> n_out:
            bad = low if low < 0 else top
            raise ValueError(f"table entry {bad} out of range for {n_out} bits")
        # A copy: the oracle is a fixed function, whatever the caller
        # does to its array afterwards.
        self._table = np.array(
            table, dtype=np.uint64 if n_out <= _NARROW_BITS else object
        )

    @classmethod
    def _of(cls, n_in: int, n_out: int, table: np.ndarray) -> "TableOracle":
        """Wrap an in-range array (dimensions checked; entries not; no copy)."""
        self = object.__new__(cls)
        Oracle.__init__(self, n_in, n_out)
        self._table = table
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls, n_in: int, n_out: int, rng: np.random.Generator
    ) -> "TableOracle":
        """Draw a uniformly random oracle (one sample of the paper's RO)."""
        _check_domain_size(n_in)
        size = 1 << n_in
        if n_out <= _NARROW_BITS:
            values = rng.integers(0, 1 << n_out, size=size, dtype=np.uint64)
            return cls._of(n_in, n_out, values)
        # Wide outputs: assemble from 32-bit limbs.
        limbs = (n_out + 31) // 32
        table = []
        for _ in range(size):
            acc = 0
            for _ in range(limbs):
                acc = (acc << 32) | int(rng.integers(0, 1 << 32, dtype=np.uint64))
            table.append(acc & ((1 << n_out) - 1))
        return cls._of(n_in, n_out, np.array(table, dtype=object))

    def _evaluate(self, x: Bits) -> Bits:
        return Bits._make(self._table.item(x.value), self._n_out)

    def _evaluate_batch(self, xs: Sequence[Bits]) -> list[Bits]:
        idx = np.fromiter((x.value for x in xs), dtype=np.int64, count=len(xs))
        n_out = self._n_out
        make = Bits._make  # entries validated against n_out at init
        return [make(v, n_out) for v in self._table[idx].tolist()]

    # ------------------------------------------------------------------
    # Proof-facing operations
    # ------------------------------------------------------------------
    @property
    def table(self) -> tuple[int, ...]:
        """The full answer table (index = query value)."""
        return tuple(self._table.tolist())

    def entries(self) -> Iterator[tuple[Bits, Bits]]:
        """Iterate over all ``(query, answer)`` pairs."""
        for i, v in enumerate(self._table.tolist()):
            yield Bits(i, self._n_in), Bits(v, self._n_out)

    def with_overrides(self, overrides: dict[Bits, Bits]) -> "TableOracle":
        """A new table oracle with the given entries rewired."""
        table = self._table.copy()
        for query, answer in overrides.items():
            if len(query) != self._n_in or len(answer) != self._n_out:
                raise ValueError("override dimensions do not match oracle")
            table[query.value] = answer.value
        return TableOracle._of(self._n_in, self._n_out, table)

    def serialize(self) -> Bits:
        """The table as one bit string of length ``n_out * 2^n_in``.

        This is the "add the entire RO to our encoding" step of the
        Claim 3.7 / A.4 encoders.
        """
        w = BitWriter()
        for v in self._table.tolist():
            w.write(v, self._n_out)
        return w.getvalue()

    @classmethod
    def deserialize(cls, bits: Bits, n_in: int, n_out: int) -> "TableOracle":
        """Inverse of :meth:`serialize`."""
        r = BitReader(bits)
        table = [r.read(n_out) for _ in range(1 << n_in)]
        if not r.at_end():
            raise ValueError("trailing bits after oracle table")
        return cls(n_in, n_out, table)

    @staticmethod
    def log2_number_of_oracles(n_in: int, n_out: int) -> int:
        """``log2`` of the number of functions -- the paper's ``n·2^n``."""
        return n_out * (1 << n_in)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableOracle):
            return NotImplemented
        return (
            self._n_in == other._n_in
            and self._n_out == other._n_out
            and np.array_equal(self._table, other._table)
        )

    def __hash__(self) -> int:
        return hash((self._n_in, self._n_out, tuple(self._table.tolist())))
