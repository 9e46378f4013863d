"""Per-layer attribution by wrapping each layer's public entry points.

A :class:`Ledger` records, for every layer, how often work entered the
layer from outside it (``calls``), the time spent in its outermost
frames (``cum_s``) and the time spent in it minus the time spent in any
wrapped callee (``self_s``).  Self times partition the measured time:
``sum(self_s) + unattributed = total``, where ``unattributed`` is the
time of the measured calls spent outside every wrapped function.

:func:`patched` installs the wrappers for the duration of a ``with``
block and restores the original objects on exit.  A module-level
function is replaced in *every* loaded module that holds it by name
(``repro.protocols.chain`` imports ``decode_records`` directly, so
patching only ``repro.protocols.wire`` would miss its calls); a method
is replaced on its class.  The wrappers record only while the ledger is
active (inside :meth:`Ledger.measure`), so checks run between measured
calls cost nothing and are attributed to nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.oracle.lazy import LazyRandomOracle

__all__ = ["LAYERS", "TARGETS", "Ledger", "patched"]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` charged to ``layer``.

    ``tally`` optionally maps the call's positional arguments to extra
    named counters, e.g. the number of trials handed to ``map_trials``.
    """

    layer: str
    module: str
    qualname: str
    tally: Callable[[tuple], dict[str, int]] | None = None


def _lazy_query(args: tuple) -> dict[str, int]:
    return {"oracle.lazy.queries": 1} if isinstance(args[0], LazyRandomOracle) else {}


def _lazy_query_batch(args: tuple) -> dict[str, int]:
    if isinstance(args[0], LazyRandomOracle):
        return {"oracle.lazy.queries": len(args[1])}
    return {}


def _trials(args: tuple) -> dict[str, int]:
    return {"parallel.trials": len(args[1])}


_BITS = "repro.bits.codec"
_WIRE = "repro.protocols.wire"

#: Every wrapped entry point, named for the repo module that defines it.
TARGETS: tuple[Target, ...] = (
    Target("oracle.table_build", "repro.oracle.table", "TableOracle.sample"),
    Target("oracle.table_override", "repro.oracle.table", "TableOracle.with_overrides"),
    Target("oracle.query", "repro.oracle.base", "Oracle.query", _lazy_query),
    Target("oracle.query", "repro.oracle.base", "Oracle.query_batch", _lazy_query_batch),
    Target("hashes.toy_hash", "repro.hashes.toy_md", "toy_hash"),
    Target("hashes.toy_hash", "repro.hashes.toy_md", "toy_hash_batch"),
    Target("functions.line", "repro.functions.line", "line_query"),
    Target("functions.line", "repro.functions.line", "trace_line"),
    Target("functions.line", "repro.functions.line", "evaluate_line"),
    Target("functions.line", "repro.functions.inputs", "sample_input"),
    Target("functions.simline", "repro.functions.simline", "simline_query"),
    Target("functions.simline", "repro.functions.simline", "trace_simline"),
    Target("functions.simline", "repro.functions.simline", "evaluate_simline"),
    Target("bits.codec", _BITS, "RecordCodec.pack"),
    Target("bits.codec", _BITS, "RecordCodec.unpack"),
    Target("bits.codec", _BITS, "RecordCodec.unpack_bits"),
    Target("bits.codec", _BITS, "BitWriter.__init__"),
    Target("bits.codec", _BITS, "BitWriter.write"),
    Target("bits.codec", _BITS, "BitWriter.write_bits"),
    Target("bits.codec", _BITS, "BitWriter.getvalue"),
    Target("bits.codec", _BITS, "BitReader.__init__"),
    Target("bits.codec", _BITS, "BitReader.read"),
    Target("bits.codec", _BITS, "BitReader.read_bits"),
    Target("bits.codec", _BITS, "BitReader.at_end"),
    Target("bits.codec", _BITS, "BitReader.remaining"),
    Target("protocols.wire", _WIRE, "encode_store"),
    Target("protocols.wire", _WIRE, "decode_store"),
    Target("protocols.wire", _WIRE, "encode_frontier"),
    Target("protocols.wire", _WIRE, "decode_frontier"),
    Target("protocols.wire", _WIRE, "encode_done"),
    Target("protocols.wire", _WIRE, "decode_records"),
    Target("protocols.wire", _WIRE, "read_kind"),
    Target("protocols.step", "repro.protocols.chain", "LineChainMachine.run_round"),
    Target("protocols.chain", "repro.protocols.chain", "build_chain_protocol"),
    Target("protocols.chain", "repro.protocols.chain", "run_chain"),
    Target("protocols.guessing", "repro.protocols.guessing", "estimate_line_skip_probability"),
    Target("protocols.guessing", "repro.protocols.guessing", "estimate_simline_skip_probability"),
    Target("protocols.guessing", "repro.protocols.guessing", "line_skip_trial"),
    Target("protocols.guessing", "repro.protocols.guessing", "simline_skip_trial"),
    Target("mpc.run", "repro.mpc.simulator", "MPCSimulator.run"),
    Target("ram.run", "repro.ram.machine", "RamMachine.run"),
    Target("ram.adapter", "repro.ram.programs", "LineRamAdapter.call"),
    Target("ram.programs", "repro.ram.programs", "run_line_on_ram"),
    Target("ram.programs", "repro.ram.programs", "build_line_program"),
    Target("parallel.map_trials", "repro.parallel.pool", "map_trials", _trials),
)

#: Layer names in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


class Ledger:
    """Per-layer counts and times for the calls measured through it."""

    def __init__(self) -> None:
        # Per layer: [self_s, cum_s, calls, depth], mutated in place by
        # the wrappers (a list index is cheaper than a keyed update).
        self._acc = {layer: [0.0, 0.0, 0, 0] for layer in LAYERS}
        self.counters: dict[str, int] = {}
        self.total_s = 0.0
        self.active = False
        # Time covered by wrapped callees of each open frame; slot 0 is
        # the measured call itself.
        self._covered = [0.0]

    @property
    def self_s(self) -> dict[str, float]:
        """Per layer: time in its frames minus time in wrapped callees."""
        return {layer: acc[0] for layer, acc in self._acc.items()}

    @property
    def cum_s(self) -> dict[str, float]:
        """Per layer: time in its outermost frames."""
        return {layer: acc[1] for layer, acc in self._acc.items()}

    @property
    def calls(self) -> dict[str, int]:
        """Per layer: entries from outside the layer."""
        return {layer: acc[2] for layer, acc in self._acc.items()}

    @property
    def unattributed_s(self) -> float:
        """Measured time spent outside every wrapped function."""
        return self.total_s - sum(self.self_s.values())

    def measure(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` with the ledger recording; its wall time adds to
        :attr:`total_s`."""
        self._covered[:] = [0.0]
        self.active = True
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.total_s += time.perf_counter() - start
            self.active = False

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """``fn`` with its time and calls charged to ``target.layer``.

        The wrapper's own cost (about a microsecond a call) is charged
        partly to the layer and partly to its caller; the traced pass
        reports it as a whole through ``bench.wrapper_overhead_ratio``.
        """
        acc = self._acc[target.layer]
        tally = target.tally
        clock = time.perf_counter
        covered = self._covered
        counters = self.counters
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            start = clock()
            depth = acc[3]
            acc[3] = depth + 1
            covered.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += elapsed - covered.pop()
                covered[-1] += elapsed
                acc[3] = depth
                if not depth:
                    acc[1] += elapsed
                    acc[2] += 1
                if tally is not None:
                    for name, n in tally(args).items():
                        counters[name] = counters.get(name, 0) + n

        return wrapper


def _resolve(target: Target) -> tuple[object, str, object]:
    """``(owner, attribute, raw object)`` for a target."""
    owner: object = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    raw = vars(owner)[attr]
    return owner, attr, raw


@contextmanager
def patched(ledger: Ledger) -> Iterator[list[tuple[object, str, object]]]:
    """Install the ledger's wrappers on every target; restore on exit.

    Yields the list of ``(owner, attribute, original)`` replacements
    made, so a caller can check that each one was undone.
    """
    replaced: list[tuple[object, str, object]] = []
    by_id: dict[int, tuple[object, Callable]] = {}
    try:
        for target in TARGETS:
            owner, attr, raw = _resolve(target)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(ledger.wrap(target, raw.__func__))
                else:
                    new = ledger.wrap(target, raw)
                setattr(owner, attr, new)
                replaced.append((owner, attr, raw))
            else:
                by_id[id(raw)] = (raw, ledger.wrap(target, raw))
        # Module-level functions: replace every by-name binding in every
        # loaded module, not just the defining one.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for name, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    replaced.append((module, name, value))
        yield replaced
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
