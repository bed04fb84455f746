"""Build-on-demand loader for the native C event core.

``_nativecore.c`` ships as source; this module compiles it with the host
C toolchain the first time the native backend is requested and caches the
shared object under ``~/.cache/repro-native/`` (override with
``$REPRO_NATIVE_CACHE``) keyed by the source and the interpreter version
— a source edit or interpreter upgrade triggers a transparent rebuild,
and concurrent builders (``--jobs`` workers) race benignly via atomic
``os.replace``.  The cached file is looked for first: a warm load is a
key, a ``stat`` and a ``dlopen``; only a build looks for a compiler and
imports ``subprocess``, ``tempfile`` and ``sysconfig``.

Everything degrades softly: no compiler, no Python headers, a failed
compile or a failed import all make :func:`load_native_core` return
``None`` (cached for the process), and backend auto-selection falls back
to the pure-Python heap core.  Set ``$REPRO_NATIVE_DISABLE=1`` to skip
the native core entirely (used by tests and the CI leg that must
exercise the pure-Python core).
"""

from __future__ import annotations

import os
import sys
import zlib
from importlib.machinery import ExtensionFileLoader, ModuleSpec
from typing import Optional

__all__ = ["load_native_core", "native_cache_dir", "build_error"]

ENV_DISABLE = "REPRO_NATIVE_DISABLE"
ENV_CACHE = "REPRO_NATIVE_CACHE"

_SOURCE = os.path.join(os.path.dirname(__file__), "_nativecore.c")

# Process-level memo: module object, or False after a failed attempt.
_loaded: object = None
#: last build failure (compiler stderr / exception text) for diagnostics.
build_error: Optional[str] = None


def native_cache_dir() -> str:
    return os.environ.get(ENV_CACHE) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-native"
    )


def _cache_key() -> str:
    # the extension's ABI is the interpreter's: which compiler built it is
    # not part of its identity, so a warm start does not look for one
    with open(_SOURCE, "rb") as f:
        source = f.read()
    return f"{zlib.crc32(source + sys.version.encode()):08x}{len(source):08x}"


def _load_from(path: str):
    # the name must match the extension's PyInit__nativecore export
    loader = ExtensionFileLoader("_nativecore", path)
    mod = loader.create_module(ModuleSpec("_nativecore", loader, origin=path))
    loader.exec_module(mod)
    return mod


def _find_cc() -> Optional[str]:
    import shutil

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build(out: str) -> None:
    cc = _find_cc()
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    import subprocess
    import sysconfig
    import tempfile

    include = sysconfig.get_path("include")
    if not include or not os.path.exists(os.path.join(include, "Python.h")):
        raise RuntimeError(f"Python.h not found under {include!r}")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out), suffix=".so")
    os.close(fd)
    try:
        cmd = [
            cc,
            "-O2",
            "-shared",
            "-fPIC",
            f"-I{include}",
            _SOURCE,
            "-o",
            tmp,
        ]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(cmd)} failed:\n{proc.stderr.strip()[:2000]}"
            )
        os.replace(tmp, out)  # atomic: concurrent builders race benignly
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_native_core():
    """The compiled ``_nativecore`` module, or ``None`` if unavailable.

    Never raises; the failure reason is kept in :data:`build_error`.
    """
    global _loaded, build_error
    if _loaded is not None:
        return _loaded or None
    if os.environ.get(ENV_DISABLE, "") not in ("", "0"):
        build_error = f"disabled via ${ENV_DISABLE}"
        _loaded = False
        return None
    try:
        so = os.path.join(native_cache_dir(), f"_nativecore-{_cache_key()}.so")
        if not os.path.exists(so):
            _build(so)
        mod = _load_from(so)
        from .engine import ScheduleInPastError, SimulationError
        from .process import Timeout

        mod._set_classes(SimulationError, ScheduleInPastError, Timeout)
        _loaded = mod
        return mod
    except Exception as exc:  # noqa: BLE001 - soft-fail to pure Python
        build_error = f"{type(exc).__name__}: {exc}"
        _loaded = False
        return None
