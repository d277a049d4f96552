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
one small point under each release policy on the C core (from a cold
start and from a machine warmed in Python) and compares the full
``SimStats`` field-for-field with the Python engine's.  The Python
reference runs are deterministic, so their ``asdict``s are memoised as
JSON beside the built core, named by a digest of the ``repro`` sources,
numpy, Python and the machine; the six compiled runs and the coverage
checks run in every process, and a missing or unreadable memo means the
full check.  A missing/broken toolchain or any divergence logs one
warning on the ``repro.engine.accel`` logger and pins the process to
the Python engine.  Individual runs the C core cannot model (or that
hit its deadlock/internal escapes) quietly fall back per-run.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

from repro.engine.accel.loader import ToolchainError, reset_loader_cache

__all__ = ["ENGINE_ENV", "ENGINE_CHOICES", "requested_backend",
           "resolve_engine_backend", "run_compiled", "ToolchainError",
           "reset_backend_cache", "backend_fallback_reason",
           "probe_verdict"]

logger = logging.getLogger("repro.engine.accel")

#: Environment variable selecting the process-wide default backend.
ENGINE_ENV = "REPRO_ENGINE"

#: Valid values of ``ProcessorConfig.engine`` / ``--engine``.
ENGINE_CHOICES = ("auto", "python", "compiled")

#: Cached verdict of the per-process availability probe (None = not yet
#: probed; True = compiled backend loads and passes the self-check).
_COMPILED_OK: Optional[bool] = None

#: Why the probe pinned this process to the Python engine (None when the
#: probe passed or has not run).  The probe logs it once; sweeps and
#: served misses that asked for the compiled backend record it too.
_FALLBACK_REASON: Optional[str] = None

#: Release policies the self-check compares, one small point each.
_SELF_CHECK_POLICIES = ("conv", "basic", "extended")


def backend_fallback_reason() -> Optional[str]:
    """Why this process fell back to the Python engine (None = it didn't)."""
    return _FALLBACK_REASON


def probe_verdict() -> Optional[str]:
    """The engine a default request runs on, as far as it is known without
    probing: None while a compiled request awaits this process's probe."""
    if requested_backend() != "compiled":
        return "python"
    if _COMPILED_OK is None:
        return None
    return "compiled" if _COMPILED_OK else "python"


def _warn_fallback(message: str, *args) -> None:
    global _FALLBACK_REASON
    _FALLBACK_REASON = message % args if args else message
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

    from repro.engine.accel.compiled import ColdStart, run_compiled
    from repro.engine.engine import SimulationEngine
    from repro.engine.state import MachineState
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
    configs = {policy: ProcessorConfig(
        release_policy=policy, engine="python", num_physical_int=48,
        num_physical_fp=48, exception_rate=0.01, warmup=True)
        for policy in _SELF_CHECK_POLICIES}
    # The Python reference runs are deterministic, so they are memoised
    # on disk per source tree and host; the compiled runs below and the
    # coverage predicates run in every process.
    memo_path = _reference_memo_path()
    references = _read_reference_memo(memo_path)
    fresh = references is None
    if fresh:
        references = {policy: dataclasses.asdict(
            SimulationEngine(trace, config).run())
            for policy, config in configs.items()}
    for policy, config in configs.items():
        reference = references[policy]
        # The point must exercise what it claims to cover.
        if reference["fetched_wrong_path"] <= 0 \
                or reference["exceptions_taken"] <= 0:
            return False
        if policy != "conv" \
                and reference["int_registers"]["early_releases"] <= 0:
            return False
        # A cold start (the core warms itself up, as every compiled run
        # from reset does), then a machine warmed in Python and exported
        # as it stands, so both paths get the same per-process
        # divergence gate.
        for start in (ColdStart(trace, config), MachineState(trace, config)):
            compiled = run_compiled(start)
            if compiled is None \
                    or dataclasses.asdict(compiled.stats) != reference:
                return False
    if fresh:
        _write_reference_memo(memo_path, references)
    return True


def _reference_memo_path():
    """Where this source tree's self-check reference lives on this host:
    beside the built core, named by everything the Python runs depend
    on (every ``repro`` source file, numpy, Python, the machine)."""
    import hashlib
    import platform
    import sys

    import numpy

    from repro.analysis.cache import code_digest
    from repro.engine.accel.loader import build_cache_dir

    digest = hashlib.sha256(repr((
        code_digest(), numpy.__version__, sys.version,
        platform.machine())).encode()).hexdigest()
    return build_cache_dir() / f"self_check_{digest[:16]}.json"


def _read_reference_memo(path) -> Optional[dict]:
    """The memoised reference ``asdict``s per policy, or None (missing,
    unreadable or malformed: the caller runs the full check)."""
    import dataclasses
    import json

    from repro.pipeline.stats import SimStats

    try:
        references = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    fields = {field.name for field in dataclasses.fields(SimStats)}
    if not isinstance(references, dict) \
            or set(references) != set(_SELF_CHECK_POLICIES) \
            or not all(isinstance(stats, dict) and set(stats) == fields
                       for stats in references.values()):
        return None
    return references


def _write_reference_memo(path, references: dict) -> None:
    """Store the references atomically; best effort (an unwritable cache
    only means the next process runs the full check again)."""
    import json

    from repro.engine.accel.loader import _replacing

    text = json.dumps(references, sort_keys=True)
    if json.loads(text) != references:  # not JSON-exact: never memoise
        return
    try:
        with _replacing(path, ".json.tmp") as tmp_name:
            with open(tmp_name, "w") as handle:
                handle.write(text)
    except ToolchainError:
        pass


def run_compiled(start, *, max_instructions=None, max_cycles=None,
                 deadlock_threshold: int = 50_000):
    """Run ``start`` (a cold start or a machine) on the compiled core
    (see :mod:`.compiled`).

    Thin re-export that keeps the heavy imports (numpy views, cffi) out
    of backend *resolution*; returns ``None`` on any per-run fallback.
    """
    from repro.engine.accel.compiled import run_compiled as _run

    return _run(start, max_instructions=max_instructions,
                max_cycles=max_cycles,
                deadlock_threshold=deadlock_threshold)
