"""The ``fast`` backend: a compiled word-RAM core.

The reference word-RAM interpreter -- the ``if/elif`` dispatch in
:class:`repro.ram.RamMachine` -- is deliberately straight-line and
auditable.  This package provides its ``fast`` alternative, a
closure/codegen-compiled RAM core (:mod:`repro.engine.fastram`),
selected via ``--backend fast`` or ``REPRO_BACKEND=fast``.  The MPC
round engine has no second implementation: its steady-state memo is
part of the one :class:`repro.mpc.MPCSimulator`.

The contract is *observable equivalence*: a fast run produces the same
results, the same ``ExecutionStats``, the same faults, and -- when
tracing -- the byte-identical deterministic record stream as the
python backend (only wall-clock attrs differ, and those are excluded
from the determinism fingerprint).  ``repro cost check --strict`` and
the RAM equivalence tests hold the contract down in CI.
"""

from __future__ import annotations

from repro.engine.backend import (
    BACKENDS,
    default_backend,
    resolve_backend,
    use_backend,
)

__all__ = [
    "BACKENDS",
    "default_backend",
    "resolve_backend",
    "use_backend",
]
