"""The compiled core's loader: build products and the out-of-line ABI module.

The first load in a build cache compiles ``core.c`` and parses its CDEF
block into a generated ``_repro_core_<digest>_abi.py`` beside the shared
library.  Later processes import that module and need neither ``cffi``'s
C parser nor any compile.  Each load here runs in a fresh subprocess, as
a server or a sweep worker would, over a private build cache built
unoptimised (``-O0``): a real compile at a fraction of the default
``-O2`` cost.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import accel
from repro.pipeline.config import ProcessorConfig

SRC = Path(__file__).resolve().parents[2] / "src"

#: Loads the core, then reports on stderr which parser modules it pulled in.
PROBE = """
import json, sys
from repro.engine.accel import loader
loader.load_core()
sys.stderr.write(json.dumps({name: name in sys.modules
                             for name in ("cffi", "pycparser")}))
"""

pytestmark = pytest.mark.skipif(
    accel.resolve_engine_backend(ProcessorConfig(engine="compiled"))
    != "compiled",
    reason="no C toolchain for the compiled engine backend")


def load_in_subprocess(cache_dir: Path):
    """Run one load in a fresh interpreter; return (stdout, modules seen)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["REPRO_ACCEL_CACHE"] = str(cache_dir)
    env["REPRO_ACCEL_CFLAGS"] = "-O0"
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.strip().splitlines()[-1])


def abi_modules(cache_dir: Path):
    return sorted(cache_dir.glob("_repro_core_*_abi.py"))


@pytest.fixture(scope="module")
def built_cache(tmp_path_factory):
    """A build cache after its first load, and that load's stdout."""
    cache_dir = tmp_path_factory.mktemp("accel")
    stdout, _ = load_in_subprocess(cache_dir)
    return cache_dir, stdout


def test_fresh_build_cache_load_is_silent(built_cache):
    # A server's first stdout line is its listening banner: the build
    # must not print ahead of it.
    cache_dir, stdout = built_cache
    assert stdout == ""
    shared = sorted(cache_dir.glob("repro_core_*.so"))
    assert len(shared) == 1
    assert [path.name for path in abi_modules(cache_dir)] == \
        [f"_{shared[0].stem}_abi.py"]
    assert not list(cache_dir.glob("*.tmp"))


def test_second_load_skips_the_c_parser(built_cache):
    cache_dir, _ = built_cache
    stdout, modules = load_in_subprocess(cache_dir)
    assert stdout == ""
    assert modules == {"cffi": False, "pycparser": False}


def test_deleted_abi_module_is_regenerated(built_cache):
    cache_dir, _ = built_cache
    (module,) = abi_modules(cache_dir)
    expected = module.read_text()
    module.unlink()
    stdout, _ = load_in_subprocess(cache_dir)
    assert stdout == ""
    assert module.read_text() == expected


def test_unwritable_build_cache_is_a_toolchain_error(tmp_path, monkeypatch):
    # A build cache that cannot be created must degrade like a missing
    # compiler (one logged fallback), not escape as a raw OSError.
    from repro.engine.accel import loader

    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_ACCEL_CACHE", str(blocker / "accel"))
    loader.reset_loader_cache()
    try:
        with pytest.raises(loader.ToolchainError, match="cannot write"):
            loader.load_core()
    finally:
        loader.reset_loader_cache()
