"""Build & load the compiled simulation core (cffi out-of-line ABI mode).

The container the simulator targets ships no ahead-of-time Python
compiler (no numba, no Cython, no mypyc), but it does ship a system C
compiler and :mod:`cffi`.  The accelerated backend therefore compiles
``core.c`` — a whole-machine C port of the per-cycle engine — into a
shared library with the system compiler and talks to it through cffi's
ABI mode (``ffi.dlopen``), which needs no ``Python.h`` and no build-time
extension machinery.

cffi parses the CDEF block of ``core.c`` once per build, into a
generated module beside the library (cffi's *out-of-line* ABI mode);
later processes import that module, which needs only ``_cffi_backend``,
not ``cffi``'s C parser.  Both products are cached by content digest in
``$REPRO_ACCEL_CACHE`` (default ``~/.cache/repro/accel``) as
``repro_core_<digest>.so`` and ``_repro_core_<digest>_abi.py``; a
source, compiler or cffi change produces new file names, so stale
products can never be loaded, and a missing one is rebuilt.
``$REPRO_ACCEL_CC`` overrides the compiler invocation (the
toolchain-failure tests point it at a nonexistent binary) and
``$REPRO_ACCEL_CFLAGS`` appends extra flags after the defaults (the
sanitizer CI job builds with ``-O1 -fsanitize=address,undefined``).

Every failure mode — missing cffi, missing/broken compiler, dlopen
failure, ABI mismatch — raises :class:`ToolchainError`; the backend
resolution in :mod:`repro.engine.accel` turns that into a logged
fallback to the pure-Python engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple

__all__ = ["ToolchainError", "load_core", "reset_loader_cache",
           "CFG", "SC", "F", "A", "ST", "RF", "NCFG", "ST_N", "RQ_LEVELS_MAX",
           "ABI_MAGIC", "RUN_FINISHED", "RUN_NEED_WRONGPATH",
           "RUN_NEED_EXC", "RUN_DEADLOCK", "RUN_INTERNAL"]


class ToolchainError(RuntimeError):
    """The compiled backend cannot be built or loaded on this machine."""


_SOURCE_PATH = Path(__file__).with_name("core.c")

#: Environment variable overriding the build cache directory.
CACHE_DIR_ENV = "REPRO_ACCEL_CACHE"

#: Environment variable overriding the compiler command line (shlex-split;
#: ``-O2 -shared -fPIC -o <out> <src>`` is appended).
CC_ENV = "REPRO_ACCEL_CC"

#: Environment variable appending extra compiler flags (shlex-split) after
#: the defaults, so e.g. ``-O1 -fsanitize=address,undefined`` overrides
#: ``-O2`` — the sanitizer CI job uses this.  Folded into the build
#: digest: flipping the flags produces a different cached ``.so``.
CFLAGS_ENV = "REPRO_ACCEL_CFLAGS"

_DEFAULT_CC = "cc"
_CC_FALLBACKS = ("cc", "gcc", "clang")


# ----------------------------------------------------------------------
# Constant mirrors of the enums in core.c.  Kept as simple namespaces so
# the exporter reads like the C it drives; the ABI magic check below
# guards against the two sides drifting apart.
# ----------------------------------------------------------------------
class _Namespace:
    def __init__(self, **values: int) -> None:
        self.__dict__.update(values)


#: Config vector layout (enum ``CFG_*`` in core.c).
CFG = _Namespace(
    TRACE_LEN=0, FETCH_W=1, RENAME_W=2, ISSUE_W=3, COMMIT_W=4,
    MAX_TAKEN=5, FRONTEND=6, ROS=7, LSQ=8, CK_CAP=9,
    NPHYS_INT=10, NPHYS_FP=11, NLOG_INT=12, NLOG_FP=13,
    GSHARE_BITS=14, BTB_SETS=15, BTB_ASSOC=16,
    POLICY=17, REUSE=18, WP_ENABLED=19, EXC_ENABLED=20,
    L1I_SETS=21, L1I_ASSOC=22, L1I_SHIFT=23, L1I_LAT=24,
    L1D_SETS=25, L1D_ASSOC=26, L1D_SHIFT=27, L1D_LAT=28,
    L2_SETS=29, L2_ASSOC=30, L2_SHIFT=31, L2_LAT=32,
    MEM_LAT=33, FU=34, OP_LAT=46, WP_CAP=57, EXC_CAP=58, WARM_LEN=59,
    TRACE_ROWS=60, WARM_ROWS=61,
)
NCFG = 62

#: Scalar ids (enum ``SC_*``).
SC = _Namespace(
    STATUS=0, ERROR=1, CYCLE=2, MAX_CYCLES=3, COMMIT_LIMIT=4,
    DEADLOCK=5, WP_COUNT=6, WP_HEAD=7, EXC_COUNT=8, EXC_HEAD=9,
    GS_HISTORY=10, SEQ=11, ABI_MAGIC=12,
    WP_HALF=13, WP_DATA_BASE=14, WP_INT_BASE=15, WP_INT_N=16,
    WP_INT_CURSOR=17, WP_FP_BASE=18, WP_FP_N=19, WP_FP_CURSOR=20,
)

#: Double ids for ``sim_setf`` (enum ``F_*``).
F = _Namespace(
    EXC_RATE=0, WP_BRANCH=1, WP_LOAD=2, WP_STORE=3, WP_FP=4,
    WP_FP_SHARE=5,
)

#: Array ids (enum ``A_*``): ``T_OP``..``T_TARGET`` are the trace's row
#: table, ``T_ROWS``/``T_ADDR`` one value per instruction; ``WU_*`` the
#: same for the warm-up trace.
A = _Namespace(
    T_OP=0, T_PC=1, T_DC=2, T_DEST=3, T_NSRC=4, T_SRC_CLASS=5,
    T_SRC_LOG=6, T_TAKEN=7, T_TARGET=8, T_ROWS=9, T_ADDR=10,
    W_RAW=11,
    B_TAG=12, B_TARGET=13, B_NWAY=14,
    L1I_TAG=15, L1I_DIRTY=16, L1I_NWAY=17,
    L1D_TAG=18, L1D_DIRTY=19, L1D_NWAY=20,
    L2_TAG=21, L2_DIRTY=22, L2_NWAY=23,
    STATS=24,
    WU_OP=25, WU_PC=26, WU_TAKEN=27, WU_TARGET=28, WU_ROWS=29, WU_ADDR=30,
)

#: STATS slots (enum ``ST_*``).
ST = _Namespace(
    COMMITTED=0, BY_CLASS=1,
    FETCHED=12, FETCHED_WP=13, RENAMED=14, SQUASHED=15, EXCEPTIONS=16,
    BR_RESOLVED=17, BR_MISPRED=18, BTB_HITS=19, BTB_MISSES=20,
    L1I_HITS=21, L1I_MISSES=22, L1D_HITS=23, L1D_MISSES=24,
    L2_HITS=25, L2_MISSES=26, FORWARDED=27,
    STALL_ROS=28, STALL_LSQ=29, STALL_CK=30, STALL_INT=31, STALL_FP=32,
    STRUCTURAL=33, RF_INT=34, RF_FP=45,
)
ST_N = 56

#: Per-register-class block offsets inside STATS (enum ``RF_*``).
RF = _Namespace(
    ALLOCS=0, RELEASES=1, EARLY=2, REUSES=3, IMMEDIATE=4,
    SCHED_EARLY=5, CONVENTIONAL=6, CONDITIONAL=7,
    OCC_EMPTY=8, OCC_READY=9, OCC_IDLE=10,
)

#: ``sim_run`` statuses.
RUN_FINISHED = 0
RUN_NEED_WRONGPATH = 1
RUN_NEED_EXC = 2
RUN_DEADLOCK = 3
RUN_INTERNAL = 4

#: Deepest Release Queue the compiled core accepts; the depth itself is
#: config-derived (``ProcessorConfig.max_pending_branches``).
RQ_LEVELS_MAX = 256

ABI_MAGIC = 0x52503803


# ----------------------------------------------------------------------
def _cdef_block(source: str) -> str:
    """The ABI declarations between the CDEF markers of ``core.c``."""
    start = source.index("/* CDEF_START */")
    end = source.index("/* CDEF_END */")
    block = source[start + len("/* CDEF_START */"):end]
    if not block.strip():
        raise ToolchainError("core.c carries an empty CDEF block")
    return block


def build_cache_dir() -> Path:
    """Resolve the build cache directory (env override, else ``~/.cache``)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "accel"


def _compiler_command() -> Tuple[str, ...]:
    """The compiler argv prefix (``$REPRO_ACCEL_CC`` or the system cc)."""
    override = os.environ.get(CC_ENV)
    if override:
        parts = tuple(shlex.split(override))
        if not parts:
            raise ToolchainError(f"${CC_ENV} is set but empty")
        return parts
    import shutil

    for candidate in _CC_FALLBACKS:
        if shutil.which(candidate):
            return (candidate,)
    return (_DEFAULT_CC,)


def _extra_cflags() -> Tuple[str, ...]:
    """Extra compiler flags from ``$REPRO_ACCEL_CFLAGS`` (may be empty)."""
    return tuple(shlex.split(os.environ.get(CFLAGS_ENV, "")))


@contextlib.contextmanager
def _replacing(out_path: Path, suffix: str) -> Iterator[str]:
    """Yield a temp file name beside ``out_path``; move that file into
    place if the block succeeds, so no reader sees a partial product."""
    tmp_name = None
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=out_path.parent, suffix=suffix)
        os.close(fd)
        yield tmp_name
        os.replace(tmp_name, out_path)
    except OSError as exc:
        raise ToolchainError(f"cannot write {out_path}: {exc}") from exc
    finally:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)


def _compile(source_path: Path, out_path: Path, cc: Tuple[str, ...],
             extra_flags: Tuple[str, ...] = ()) -> None:
    """Compile ``core.c`` into ``out_path``."""
    with _replacing(out_path, ".so.tmp") as tmp_name:
        command = list(cc) + ["-O2", "-shared", "-fPIC", *extra_flags,
                              "-o", tmp_name, str(source_path)]
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            raise ToolchainError(
                f"cannot run compiler {cc[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-1000:]
            raise ToolchainError(
                f"compiling the accelerated core failed ({cc[0]}, "
                f"exit {proc.returncode}):\n{tail}")


def _write_abi_module(source: str, out_path: Path) -> None:
    """Parse the CDEF block into cffi's out-of-line ABI module, silently
    (cffi's verbose mode would print ahead of a server's banner)."""
    block = _cdef_block(source)
    with _replacing(out_path, ".py.tmp") as tmp_name:
        try:
            import cffi
            from cffi import recompiler

            ffi = cffi.FFI()
            ffi.cdef(block)
            with open(tmp_name, "w") as handle:
                recompiler.make_py_source(ffi, out_path.stem, handle,
                                          verbose=False)
        except Exception as exc:  # ImportError, pycparser and cffi errors
            raise ToolchainError(f"cannot generate {out_path}: {exc}") from exc


#: per-process cache: (ffi, lib) once loaded, or the ToolchainError that
#: prevented loading (so repeated resolution attempts stay cheap).
_LOADED: Optional[Tuple[object, object]] = None
_LOAD_ERROR: Optional[ToolchainError] = None


def reset_loader_cache() -> None:
    """Forget the per-process load result (tests flip ``$REPRO_ACCEL_CC``)."""
    global _LOADED, _LOAD_ERROR
    _LOADED = None
    _LOAD_ERROR = None


def load_core() -> Tuple[object, object]:
    """Return ``(ffi, lib)`` for the compiled core, building it if needed.

    Raises :class:`ToolchainError` on any failure; the result (success or
    failure) is cached per process.
    """
    global _LOADED, _LOAD_ERROR
    if _LOADED is not None:
        return _LOADED
    if _LOAD_ERROR is not None:
        raise _LOAD_ERROR
    try:
        _LOADED = _load_core_uncached()
        return _LOADED
    except ToolchainError as exc:
        _LOAD_ERROR = exc
        raise


def _load_core_uncached() -> Tuple[object, object]:
    try:
        import _cffi_backend
    except ImportError as exc:  # pragma: no cover - cffi is baked in here
        raise ToolchainError(f"cffi is not installed: {exc}") from exc

    try:
        source = _SOURCE_PATH.read_text()
    except OSError as exc:
        raise ToolchainError(f"cannot read {_SOURCE_PATH}: {exc}") from exc

    cc = _compiler_command()
    extra_flags = _extra_cflags()
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update(repr(cc).encode())
    digest.update(repr(extra_flags).encode())
    digest.update(getattr(_cffi_backend, "__version__", "?").encode())
    stem = f"repro_core_{digest.hexdigest()[:16]}"
    so_path = build_cache_dir() / f"{stem}.so"
    abi_path = so_path.with_name(f"_{stem}_abi.py")
    if not so_path.exists():
        _compile(_SOURCE_PATH, so_path, cc, extra_flags)
    if not abi_path.exists():
        _write_abi_module(source, abi_path)

    try:
        spec = importlib.util.spec_from_file_location(abi_path.stem, abi_path)
        abi_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(abi_module)
        ffi = abi_module.ffi
        lib = ffi.dlopen(str(so_path))
    except Exception as exc:  # cffi raises several exception families here
        raise ToolchainError(f"cannot load {so_path}: {exc}") from exc

    magic = lib.sim_get(ffi.NULL, SC.ABI_MAGIC)
    if magic != ABI_MAGIC:
        raise ToolchainError(
            f"ABI magic mismatch: compiled core reports {magic:#x}, "
            f"loader expects {ABI_MAGIC:#x}")
    return ffi, lib
