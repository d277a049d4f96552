"""Persistent on-disk cache of sweep simulation results.

Every sweep point is one deterministic cycle-level simulation, fully
determined by ``(workload, processor configuration, trace length, seed)``.
The cache keys each point by a SHA-256 digest of exactly those inputs and
stores the pickled :class:`~repro.pipeline.stats.SimStats`, so regenerating
a figure after a partial sweep — or re-running a sweep with a finer
register-size grid — only simulates the missing points.

Layout: ``<cache_dir>/<key[:2]>/<key>.pkl`` (the two-character fan-out
keeps directories small for big sweeps).  Writes are atomic
(tmp file + ``os.replace``) so concurrent sweeps, server threads and
separate processes never observe torn entries; readers treat any unreadable entry
as a miss.

Keys also fold in a digest of the ``repro`` package's own source code
(:func:`code_digest`), so any change to the simulator invalidates the
cache automatically — cached results can never silently survive a
behaviour change.  The default cache directory is ``$REPRO_SWEEP_CACHE``
when set, else ``~/.cache/repro/sweeps``.  Bump
:data:`CACHE_SCHEMA_VERSION` whenever the pickled payload or the key
inputs change meaning.

Storage is pluggable (:mod:`repro.analysis.backends`): the default
:class:`~repro.analysis.backends.LocalDirBackend` keeps today's on-disk
layout byte-identically, while an HTTP remote (optionally tiered with
local write-through) shares the same content-addressed entries across
machines.  The key derivation and payload format in this module are
backend-independent.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple, Union

from repro.analysis.backends import CacheBackend, LocalDirBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sweep import SweepConfig, SweepPoint
    from repro.pipeline.config import ProcessorConfig
    from repro.pipeline.stats import SimStats

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE"

#: Bump when the key derivation or the pickled payload changes shape.
#: v2: payloads additionally record the producing code digest and a
#: creation timestamp, so ``repro-experiments cache`` can report and prune
#: entries by age and by stale source code.
#: v3: keys additionally fold in the *workload content digest*
#: (``repro.trace.workloads.workload_digest``), so a user-defined scenario
#: re-registered with different content under the same name can never be
#: served a stale entry.
#: v4: keys additionally fold in the *requested engine backend*
#: (``repro.engine.accel.requested_backend``) and :func:`code_digest`
#: covers the C core sources, so results produced by the compiled and
#: Python engines — equivalent by contract, but separately validated —
#: occupy distinct entries and a core change invalidates compiled results.
#: v5: payloads additionally record their own point key, verified on
#: read — a remote-synced entry that lands under the wrong key (buggy
#: proxy, hand-copied store) is a miss, never a silently wrong result.
#: v6: the pickled ``SimStats`` / ``RegisterFileStats`` /
#: ``OccupancyAverages`` are slotted dataclasses, whose pickled state
#: differs from (and cannot be restored from) the v5 ``__dict__`` form.
CACHE_SCHEMA_VERSION = 6


def default_cache_dir() -> Path:
    """Resolve the cache directory (env override, else ``~/.cache``)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweeps"


#: Exact types ``_canonical`` returns unchanged (subclasses such as
#: ``IntEnum`` members take the generic path).
_SCALAR_TYPES = frozenset({int, float, str, bool, type(None)})

#: type -> its dataclass field names, sorted, or False for a type that
#: is no dataclass: each type is inspected once per process.
_FIELD_NAMES: Dict[type, Union[bool, Tuple[str, ...]]] = {}


def _canonical(value) -> object:
    """Recursively convert ``value`` into a deterministic representation.

    Dataclasses become sorted ``(field, value)`` tuples, mappings are
    sorted by stringified key, enums collapse to their names — so the
    digest is stable across processes and insertion orders.
    """
    cls = type(value)
    if cls in _SCALAR_TYPES:
        return value
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = dataclasses.is_dataclass(cls) and tuple(
            sorted(f.name for f in dataclasses.fields(cls)))
    if names is not False:
        return ("dataclass", cls.__name__,
                tuple((name, _canonical(getattr(value, name)))
                      for name in names))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(((str(k), _canonical(v))
                                      for k, v in value.items()))))
    if hasattr(value, "items"):  # non-dict Mappings (FUConfig counts)
        return ("map", tuple(sorted(((str(k), _canonical(v))
                                     for k, v in value.items()))))
    if isinstance(value, (frozenset, set)):
        return ("set", tuple(sorted(str(_canonical(v)) for v in value)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in value))
    if hasattr(value, "name") and hasattr(value, "value"):  # enums
        return ("enum", cls.__name__, value.name)
    return value


def config_digest(config: "ProcessorConfig") -> str:
    """Stable hex digest of a processor configuration."""
    payload = repr(_canonical(config)).encode()
    return hashlib.sha256(payload).hexdigest()


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """Digest of the ``repro`` package's source files.

    Simulation results are a pure function of (inputs, simulator code);
    hashing the code makes every source change invalidate the cache, so a
    behaviour fix can never be masked by stale entries.  Computed once per
    process (~100 small files).
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    sources = [path for pattern in ("*.py", "*.c")
               for path in package_root.rglob(pattern)]
    for path in sorted(sources):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def point_key(sweep_config: "SweepConfig", point: "SweepPoint") -> str:
    """Cache key of one sweep point:
    (workload name + content, config hash, trace length, seed, simulator
    code, engine backend).  The workload *content* digest means a
    registered scenario and its later re-registration with different
    parameters occupy different keys even though they share a name.  The
    *requested* backend (not the resolved one) is folded in so a
    toolchain-driven fallback still hits the entries it asked for, while
    compiled and Python results never share an entry."""
    from repro.engine.accel import requested_backend
    from repro.trace.workloads import workload_digest

    # The config digest is a pure function of the (frozen) sweep config
    # and the point, so it is memoised on the instance: a request's get
    # and put, or a sweep's, build the point's config and digest it once.
    # The other ingredients read process state ($REPRO_ENGINE, the
    # scenario registry, the source tree) and are derived on every call;
    # the engine field they read is the base config's, which config_for
    # keeps.  Only the digest is kept: a SweepResult holds its sweep
    # config, and a config per point would outlive the sweep with it.
    digests = vars(sweep_config).setdefault("_config_digests", {})
    digest = digests.get(point)
    if digest is None:
        digest = digests[point] = config_digest(
            sweep_config.config_for(point))
    payload = repr((
        "repro-sweep-point", CACHE_SCHEMA_VERSION, code_digest(),
        point.benchmark,
        workload_digest(point.benchmark,
                        getattr(sweep_config, "scenario_profiles", ())),
        sweep_config.trace_length, sweep_config.seed,
        digest,
        requested_backend(sweep_config.base_config),
    )).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Aggregate report of one cache directory (``repro-experiments cache``)."""

    total_entries: int = 0
    total_bytes: int = 0
    unreadable_entries: int = 0
    unreadable_bytes: int = 0
    stale_code_entries: int = 0
    oldest: Optional[float] = None
    #: workload name -> (entry count, bytes on disk).
    workloads: Dict[str, Tuple[int, int]] = dataclasses.field(default_factory=dict)

    def format(self) -> str:
        """Human-readable report.

        Corrupt/foreign/outdated-schema entries are a *distinct* bucket
        with their own byte count: a remote-synced partial write (or any
        file the cache cannot serve again) shows up as dead weight, never
        blended into a workload's live-result totals.
        """
        live_bytes = self.total_bytes - self.unreadable_bytes
        lines = [f"entries: {self.total_entries} "
                 f"({self.total_bytes / 1024:.1f} KiB)"]
        if self.oldest is not None:
            age_days = (time.time() - self.oldest) / 86400.0
            lines.append(f"oldest entry: {age_days:.1f} days")
        lines.append(f"stale (old source code): {self.stale_code_entries}")
        if self.unreadable_entries:
            lines.append(
                f"unreadable (corrupt/foreign/outdated schema): "
                f"{self.unreadable_entries} entries  "
                f"{self.unreadable_bytes / 1024:.1f} KiB "
                f"(dead weight — excluded from the live "
                f"{live_bytes / 1024:.1f} KiB below)")
        if self.workloads:
            lines.append("per workload:")
            for workload in sorted(self.workloads):
                count, nbytes = self.workloads[workload]
                lines.append(f"  {workload:<12} {count:5d} entries  "
                             f"{nbytes / 1024:8.1f} KiB")
        return "\n".join(lines)


@dataclasses.dataclass
class SizePruneReport:
    """Result of a :meth:`SweepCache.prune_to_size` eviction pass."""

    removed: int = 0
    bytes_freed: int = 0
    bytes_remaining: int = 0
    #: workload name -> entries evicted (``<unreadable>`` for entries
    #: that could not be attributed).
    per_workload: Dict[str, int] = dataclasses.field(default_factory=dict)

    def format(self) -> str:
        """Human-readable eviction summary (the CLI's output)."""
        lines = [f"evicted {self.removed} entries "
                 f"({self.bytes_freed / 1024:.1f} KiB freed, "
                 f"{self.bytes_remaining / 1024:.1f} KiB remain)"]
        for workload in sorted(self.per_workload):
            lines.append(f"  {workload:<16} {self.per_workload[workload]:5d} evicted")
        return "\n".join(lines)


class SweepCache:
    """Store of simulated sweep points over a pluggable backend.

    The default backend is the directory-backed
    :class:`~repro.analysis.backends.LocalDirBackend` (today's layout);
    pass ``backend=`` to share entries through a remote store — see
    :mod:`repro.analysis.backends`.  Key derivation, payload format and
    the read-side validation are identical for every backend.
    """

    def __init__(self, cache_dir: Union[None, str, Path] = None,
                 backend: Optional[CacheBackend] = None) -> None:
        if backend is None:
            backend = LocalDirBackend(
                Path(cache_dir) if cache_dir else default_cache_dir())
        self.backend = backend
        #: Directory of the local layer (None for purely remote backends;
        #: the maintenance surface below requires one).
        self.cache_dir = backend.local_dir
        # run-time counters (telemetry for run_sweep reporting / tests)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0

    # ------------------------------------------------------------------
    def degradation_reason(self) -> Optional[str]:
        """Why the backend is degraded (e.g. remote unreachable), or None.

        Surfaced by ``run_sweep`` as ``SweepResult.cache_degradation_reason``
        — the cache equivalent of the compiled engine's fallback reason.
        """
        return self.backend.degradation_reason()

    def path_for(self, sweep_config: "SweepConfig", point: "SweepPoint") -> Path:
        """Filesystem path of one point's entry (local layer)."""
        key = point_key(sweep_config, point)
        return self._require_local_dir() / key[:2] / f"{key}.pkl"

    def _require_local_dir(self) -> Path:
        if self.cache_dir is None:
            raise ValueError(
                f"backend {self.backend.name!r} has no local directory; "
                f"path-based maintenance needs a local or tiered backend")
        return self.cache_dir

    @staticmethod
    def _decode(blob: Optional[bytes], key: str) -> Optional["SimStats"]:
        """Validate one payload blob; None for anything unservable.

        Rejects foreign pickles, outdated schemas and
        entries whose recorded point key differs from the requested one
        (a misfiled remote sync must be a miss, not a wrong result).
        Blobs framed in the remote-wire integrity envelope (a purely
        remote backend hands them over as received) are verified and
        unwrapped first.
        """
        if blob is None:
            return None
        if blob.startswith(b"RSB1"):
            from repro.analysis.backends import unwrap_envelope

            blob = unwrap_envelope(key, blob)
            if blob is None:
                return None
        try:
            payload = pickle.loads(blob)
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                raise EOFError("schema mismatch")
            if payload.get("key", key) != key:
                raise EOFError("key mismatch")
            return payload["stats"]
        except (pickle.PickleError, EOFError, AttributeError,
                KeyError, TypeError, ImportError):
            return None

    def get(self, sweep_config: "SweepConfig",
            point: "SweepPoint") -> Optional["SimStats"]:
        """Cached statistics of ``point``, or None on a miss."""
        key = point_key(sweep_config, point)
        stats = self._decode(self.backend.get_blob(key), key)
        if stats is None:
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(self, sweep_config: "SweepConfig", point: "SweepPoint",
            stats: "SimStats") -> None:
        """Store the statistics of one simulated point (atomic write).

        Storage failures (full disk, read-only mount, unreachable remote)
        degrade to an uncached run instead of crashing a sweep whose
        simulation work is already done; they are tallied in
        :attr:`store_errors`.
        """
        key = point_key(sweep_config, point)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "point": (point.benchmark, point.policy, point.num_registers),
            "trace_length": sweep_config.trace_length,
            "seed": sweep_config.seed,
            "code": code_digest(),
            "created": time.time(),
            "stats": stats,
        }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if self.backend.put_blob(key, blob):
            self.stores += 1
        else:
            self.store_errors += 1

    # ------------------------------------------------------------------
    # Maintenance (the ``repro-experiments cache`` subcommand).  Operates
    # on the *local* layer of the backend — the directory this process
    # owns; a shared remote store is maintained by its own server.
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[Tuple[Path, Optional[dict]]]:
        """Yield ``(path, payload)`` for every entry file on disk.

        ``payload`` is None for entries that cannot be read or that carry
        an outdated schema — those are unconditionally stale.
        """
        cache_dir = self._require_local_dir()
        if not cache_dir.exists():
            return
        for path in sorted(self.cache_dir.rglob("*.pkl")):
            payload: Optional[dict] = None
            try:
                with open(path, "rb") as handle:
                    loaded = pickle.load(handle)
                if isinstance(loaded, dict) and \
                        loaded.get("schema") == CACHE_SCHEMA_VERSION:
                    payload = loaded
            except (OSError, pickle.PickleError, EOFError, AttributeError,
                    KeyError, TypeError, ImportError):
                # ImportError: an old entry pickled a class the simulator
                # has since moved or renamed — unconditionally stale.
                payload = None
            yield path, payload

    def stats(self) -> "CacheStats":
        """Aggregate entry counts and sizes, grouped per workload."""
        result = CacheStats()
        for path, payload in self.iter_entries():
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
            result.total_entries += 1
            result.total_bytes += size
            if payload is None:
                result.unreadable_entries += 1
                result.unreadable_bytes += size
                continue
            workload = payload["point"][0]
            count, nbytes = result.workloads.get(workload, (0, 0))
            result.workloads[workload] = (count + 1, nbytes + size)
            created = payload.get("created")
            if created is not None:
                if result.oldest is None or created < result.oldest:
                    result.oldest = created
            if payload.get("code") != code_digest():
                result.stale_code_entries += 1
        return result

    def prune(self, max_age_days: Optional[float] = None,
              stale_code: bool = False,
              now: Optional[float] = None) -> int:
        """Delete entries older than ``max_age_days`` and/or produced by a
        different version of the simulator source; returns the count removed.

        Unreadable and outdated-schema entries are removed by either
        criterion — they can never be served again.  At least one criterion
        must be given (an unconditional wipe is :meth:`clear`).
        """
        if max_age_days is None and not stale_code:
            raise ValueError("prune needs max_age_days and/or stale_code "
                             "(use clear() to wipe the cache)")
        now = time.time() if now is None else now
        removed = 0
        for path, payload in self.iter_entries():
            if payload is None:
                drop = True
            else:
                drop = False
                if max_age_days is not None:
                    created = payload.get("created", 0.0)
                    drop = now - created > max_age_days * 86400.0
                if not drop and stale_code:
                    drop = payload.get("code") != code_digest()
            if drop:
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        return removed

    def prune_to_size(self, max_size_mb: float) -> "SizePruneReport":
        """Evict oldest entries first until the cache fits ``max_size_mb``.

        The auto-prune policy for long-lived developer caches: entries
        are ranked by creation time (unreadable/outdated-schema entries
        first — they can never be served again and carry no timestamp)
        and deleted oldest-first until the remaining entries total at
        most ``max_size_mb`` megabytes.  Returns a
        :class:`SizePruneReport` with the per-workload eviction counts.
        """
        if max_size_mb < 0:
            raise ValueError("max_size_mb must be non-negative")
        budget = int(max_size_mb * 1024 * 1024)
        entries = []
        total = 0
        for path, payload in self.iter_entries():
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
            if payload is None:
                created, workload = float("-inf"), "<unreadable>"
            else:
                created = payload.get("created", 0.0)
                workload = payload["point"][0]
            entries.append((created, path, size, workload))
            total += size
        entries.sort(key=lambda entry: entry[0])
        report = SizePruneReport(bytes_remaining=total)
        for _created, path, size, workload in entries:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
            total -= size
            report.removed += 1
            report.bytes_freed += size
            report.bytes_remaining = total
            report.per_workload[workload] = \
                report.per_workload.get(workload, 0) + 1
        return report

    # ------------------------------------------------------------------
    def __contains__(self, item) -> bool:
        sweep_config, point = item
        if self.cache_dir is not None:
            return self.path_for(sweep_config, point).exists()
        return self.backend.get_blob(point_key(sweep_config, point)) is not None

    def clear(self) -> int:
        """Delete every entry below the cache directory; returns the count."""
        removed = 0
        cache_dir = self._require_local_dir()
        if not cache_dir.exists():
            return removed
        for path in cache_dir.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SweepCache({self.backend!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores})")


def resolve_cache(cache: Union[None, bool, str, Path, SweepCache],
                  ) -> Optional[SweepCache]:
    """Normalise the ``cache`` argument accepted by ``run_sweep``.

    ``None`` / ``False`` → no caching; ``True`` → default directory;
    a path → local cache rooted there; a backend spec string
    (``"local"``, ``"http://…"``, ``"remote:http://…"`` — see
    :func:`repro.analysis.backends.resolve_backend`) → cache over that
    backend; a :class:`SweepCache` → itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return SweepCache()
    if isinstance(cache, SweepCache):
        return cache
    if isinstance(cache, str) and (cache == "local"
                                   or cache.startswith(("http://", "https://",
                                                        "remote:"))):
        from repro.analysis.backends import resolve_backend

        return SweepCache(backend=resolve_backend(cache))
    return SweepCache(cache)
