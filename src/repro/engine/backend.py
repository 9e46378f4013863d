"""Execution-backend selection.

Two backends exist for the word-RAM interpreter:

* ``"python"`` -- the reference implementation, the straight-line and
  auditable ``if/elif`` dispatch in :class:`repro.ram.RamMachine`;
* ``"fast"`` -- the closure/codegen-compiled RAM core in
  :mod:`repro.engine.fastram`, proven observably identical by the RAM
  equivalence tests and the cost-check gate.

The MPC round engine is not switched: :class:`repro.mpc.MPCSimulator`
is the only one, and its steady-state memo runs under either backend.

Selection mirrors :func:`repro.parallel.use_jobs`: explicit argument
beats the ambient :func:`use_backend` scope (the CLI's ``--backend``),
which beats the ``REPRO_BACKEND`` environment variable, which beats the
default ``"python"``.  :func:`use_backend` also exports its choice into
``REPRO_BACKEND`` so process-pool workers spawned inside the scope
(:mod:`repro.parallel`) inherit the backend, exactly as they inherit
seeds and telemetry switches.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = ["BACKENDS", "default_backend", "resolve_backend", "use_backend"]

#: The recognized backend names.
BACKENDS = ("python", "fast")

_ambient_backend: str | None = None


def _validate(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {'/'.join(BACKENDS)}"
        )
    return backend


def default_backend() -> str:
    """The ambient backend (no explicit ``backend=`` given).

    An enclosing :func:`use_backend` scope wins; otherwise the
    ``REPRO_BACKEND`` environment variable (ignored if unrecognized);
    otherwise ``"python"``.
    """
    if _ambient_backend is not None:
        return _ambient_backend
    env = os.environ.get("REPRO_BACKEND")
    if env in BACKENDS:
        return env
    return "python"


def resolve_backend(backend: str | None) -> str:
    """Normalize a ``backend`` argument: ``None`` means ambient."""
    if backend is None:
        return default_backend()
    return _validate(backend)


@contextmanager
def use_backend(backend: str | None) -> Iterator[str]:
    """Set the ambient execution backend for a scope.

    ``None`` leaves the ambient value untouched (so callers can write
    ``with use_backend(args.backend):`` unconditionally).  The choice is
    mirrored into ``REPRO_BACKEND`` for the duration of the scope so
    forked/spawned pool workers resolve the same backend.
    """
    global _ambient_backend
    if backend is None:
        yield default_backend()
        return
    chosen = _validate(backend)
    previous = _ambient_backend
    previous_env = os.environ.get("REPRO_BACKEND")
    _ambient_backend = chosen
    os.environ["REPRO_BACKEND"] = chosen
    try:
        yield chosen
    finally:
        _ambient_backend = previous
        if previous_env is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = previous_env
