"""The C core's loader: what names a cached build, and what a cold and a
warm start each need from the host."""

import os
import subprocess
import sys
import sysconfig

import pytest

from repro.sim import native_build
from repro.sim.backend import native_available
from tests.core.test_sampling import _run_in_fresh_interpreter

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain, or REPRO_NATIVE_DISABLE"
)

REPORT = (
    "import sys\n"
    "from repro.sim import native_build\n"
    "from repro.sim.backend import resolve_backend\n"
    "print(resolve_backend(), 'subprocess' in sys.modules, native_build.build_error)\n"
)


class TestCacheKey:
    def test_source_edit_changes_the_key(self, tmp_path, monkeypatch):
        key = native_build._cache_key()
        source = bytearray(open(native_build._SOURCE, "rb").read())
        source[0] ^= 1  # same length: the checksum has to see it
        edited = tmp_path / "_nativecore.c"
        edited.write_bytes(source)
        monkeypatch.setattr(native_build, "_SOURCE", str(edited))
        assert native_build._cache_key() != key

    def test_interpreter_changes_the_key(self, monkeypatch):
        key = native_build._cache_key()
        monkeypatch.setattr(sys, "version", sys.version + " (another build)")
        assert native_build._cache_key() != key


@needs_native
def test_cold_start_builds_and_warm_start_only_loads(tmp_path):
    cache, no_path = tmp_path / "cache", tmp_path / "empty"
    no_path.mkdir()
    run = _run_in_fresh_interpreter
    # cold: the first process compiles (and needed subprocess to do it)
    assert run(REPORT, REPRO_NATIVE_CACHE=str(cache)).split() == ["native", "True", "None"]
    (built,) = cache.iterdir()
    assert built.name == f"_nativecore-{native_build._cache_key()}.so"
    stamp = built.stat().st_mtime_ns
    # warm: the second loads that file, with no compiler driver imported
    assert run(REPORT, REPRO_NATIVE_CACHE=str(cache)).split() == ["native", "False", "None"]
    assert [p.stat().st_mtime_ns for p in cache.iterdir()] == [stamp]
    # warm, on a host that has lost its compiler: still native
    warm = run(REPORT, REPRO_NATIVE_CACHE=str(cache), PATH=str(no_path), CC="")
    assert warm.split() == ["native", "False", "None"]
    # cold without a compiler: the heap core, the reason kept, nothing to run
    cold = run(REPORT, REPRO_NATIVE_CACHE=str(tmp_path / "other"), PATH=str(no_path), CC="")
    assert cold.startswith("heap False RuntimeError: no C compiler")


@needs_native
def test_unloadable_cached_file_falls_back_softly(tmp_path):
    """A cached file that does not load is a soft failure like any other."""
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"_nativecore-{native_build._cache_key()}.so").write_bytes(b"not an ELF")
    out = _run_in_fresh_interpreter(REPORT, REPRO_NATIVE_CACHE=str(cache))
    assert out.startswith("heap False ImportError")


def test_the_core_compiles_warning_free(tmp_path):
    """``-Wall -Werror`` on top of the loader's flags: an undeclared
    function or an unused variable fails here, not as a warning in some
    later cold build.  The loader's own flags stay as they are."""
    cc = native_build._find_cc()
    include = sysconfig.get_path("include")
    if cc is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or Python headers")
    cmd = [cc, "-Wall", "-Werror", "-O2", "-shared", "-fPIC", f"-I{include}",
           native_build._SOURCE, "-o", str(tmp_path / "_nativecore.so")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
