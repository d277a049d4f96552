"""Accelerated (compiled) engine backend: selection, self-check, fallback.

The compiled backend runs the whole per-cycle pipeline in C
(:mod:`~repro.engine.accel.loader` builds it, :mod:`~repro.engine.accel.compiled`
drives it) and is the **default**:

* ``ProcessorConfig.engine`` — ``"python"`` / ``"compiled"`` pins a
  backend for that configuration; the default ``"auto"`` defers to
* ``$REPRO_ENGINE`` — process-wide request (the ``--engine`` CLI flag
  sets it); ``python`` pins the Python engine, anything else (unset
  included) means the compiled core.

The Python engine stays the readable reference and the fallback.
Requesting the compiled backend never changes results and never fails a
run: before the first compiled run in a process, a **self-check** runs
one small point under each release policy on both backends and compares
the full ``SimStats`` field-for-field.  A missing/broken toolchain or any
divergence logs one warning on the ``repro.engine.accel`` logger and
pins the process to the Python engine.  Individual runs the C core cannot model (or that hit its
deadlock/internal escapes) quietly fall back per-run.
"""

from __future__ import annotations

import contextlib
import logging
import os
import threading
from typing import Iterator, Optional

from repro.engine.accel.loader import ToolchainError, reset_loader_cache

__all__ = ["ENGINE_ENV", "ENGINE_CHOICES", "requested_backend",
           "resolve_engine_backend", "run_compiled", "ToolchainError",
           "reset_backend_cache", "backend_fallback_reason",
           "suppressed_backend_warnings"]

logger = logging.getLogger("repro.engine.accel")

#: Environment variable selecting the process-wide default backend.
ENGINE_ENV = "REPRO_ENGINE"

#: Valid values of ``ProcessorConfig.engine`` / ``--engine``.
ENGINE_CHOICES = ("auto", "python", "compiled")

#: Cached verdict of the per-process availability probe (None = not yet
#: probed; True = compiled backend loads and passes the self-check).
_COMPILED_OK: Optional[bool] = None

#: Why the probe pinned this process to the Python engine (None when the
#: probe passed or has not run).  Sweep workers report this back to the
#: parent so a pool emits one summary instead of N per-worker warnings.
_FALLBACK_REASON: Optional[str] = None

#: ``active`` is True on a thread whose probe fallback warnings are
#: withheld (the caller — the sweep layer — takes responsibility for
#: surfacing one summary).  Per thread: concurrent sweeps in one process
#: enter and leave the suppression independently.
_SUPPRESSION = threading.local()


def backend_fallback_reason() -> Optional[str]:
    """Why this process fell back to the Python engine (None = it didn't)."""
    return _FALLBACK_REASON


@contextlib.contextmanager
def suppressed_backend_warnings() -> Iterator[None]:
    """Withhold the probe's per-process fallback warnings inside the block
    (on the calling thread).

    The sweep layer wraps worker execution in this so a process pool does
    not log one identical toolchain warning per worker; the reason stays
    available via :func:`backend_fallback_reason` and the sweep driver
    emits a single summary instead.
    """
    previous = getattr(_SUPPRESSION, "active", False)
    _SUPPRESSION.active = True
    try:
        yield
    finally:
        _SUPPRESSION.active = previous


def _warn_fallback(message: str, *args) -> None:
    global _FALLBACK_REASON
    _FALLBACK_REASON = message % args if args else message
    if not getattr(_SUPPRESSION, "active", False):
        logger.warning(message, *args)


def requested_backend(config=None) -> str:
    """The backend the user asked for: config field, else ``$REPRO_ENGINE``.

    Returns ``"python"`` or ``"compiled"`` (never ``"auto"``): only an
    explicit ``python`` request selects the Python engine.
    """
    if config is not None:
        field = getattr(config, "engine", "auto")
        if field != "auto":
            return field
    env = os.environ.get(ENGINE_ENV, "").strip().lower()
    return "python" if env == "python" else "compiled"


def resolve_engine_backend(config=None) -> str:
    """The backend that will actually run: the request gated by the probe."""
    if requested_backend(config) != "compiled":
        return "python"
    return "compiled" if _compiled_available() else "python"


def reset_backend_cache() -> None:
    """Forget the availability verdict and the loaded core (test hook)."""
    global _COMPILED_OK, _FALLBACK_REASON
    _COMPILED_OK = None
    _FALLBACK_REASON = None
    reset_loader_cache()


def _compiled_available() -> bool:
    global _COMPILED_OK
    if _COMPILED_OK is None:
        _COMPILED_OK = _probe_backend()
    return _COMPILED_OK


def _probe_backend() -> bool:
    """Build the core and verify it against the Python engine, once."""
    from repro.engine.accel import loader

    try:
        loader.load_core()
    except ToolchainError as exc:
        _warn_fallback(
            "compiled engine requested but unavailable (%s); "
            "using the Python engine", exc)
        return False
    try:
        if not _self_check():
            _warn_fallback(
                "compiled engine failed the statistics self-check; "
                "using the Python engine")
            return False
    except Exception as exc:  # any probe crash must degrade, not propagate
        _warn_fallback(
            "compiled engine self-check crashed (%s); using the Python "
            "engine", exc)
        return False
    return True


def _self_check() -> bool:
    """One small point per release policy must agree field-for-field."""
    import dataclasses

    from repro.engine.accel.compiled import run_compiled
    from repro.engine.engine import SimulationEngine
    from repro.pipeline.config import ProcessorConfig
    from repro.trace.workloads import get_workload

    # Small but representative: integer workload, tight file (register
    # stalls), exceptions taken, warm structures exported, and wrong-path
    # fetches (the in-C draw cascade) in every run.  compress rather than
    # gcc: gcc's branches are dense enough that basic never reaches an
    # early release, whereas here basic and extended both release early
    # (and reuse registers), so each policy's own release path is
    # compared.  300 instructions keep all of that (4-5 exceptions per
    # run) at about 15 ms per Python run: the check is part of every
    # process's set-up.
    trace = get_workload("compress", 300, seed=0)
    for policy in ("conv", "basic", "extended"):
        config = ProcessorConfig(release_policy=policy, engine="python",
                                 num_physical_int=48, num_physical_fp=48,
                                 exception_rate=0.01, warmup=True)
        compiled = run_compiled(SimulationEngine(trace, config).state)
        if compiled is None:
            return False
        reference = SimulationEngine(trace, config).run()
        # The point must exercise what it claims to cover.
        if reference.fetched_wrong_path <= 0 or reference.exceptions_taken <= 0:
            return False
        if policy != "conv" and reference.int_registers.early_releases <= 0:
            return False
        if dataclasses.asdict(compiled.stats) != dataclasses.asdict(reference):
            return False
        # Same point again with warm-up deferred into the C core (the
        # engine="compiled" state skips the Python warm pass), so the
        # in-C warm-up path gets the same per-process divergence gate.
        deferred = run_compiled(SimulationEngine(
            trace, dataclasses.replace(config, engine="compiled")).state)
        if deferred is None or (dataclasses.asdict(deferred.stats)
                                != dataclasses.asdict(reference)):
            return False
    return True


def run_compiled(state, *, max_instructions=None, max_cycles=None,
                 deadlock_threshold: int = 50_000):
    """Run ``state`` on the compiled core (see :mod:`.compiled`).

    Thin re-export that keeps the heavy imports (numpy views, cffi) out
    of backend *resolution*; returns ``None`` on any per-run fallback.
    """
    from repro.engine.accel.compiled import run_compiled as _run

    return _run(state, max_instructions=max_instructions,
                max_cycles=max_cycles,
                deadlock_threshold=deadlock_threshold)
