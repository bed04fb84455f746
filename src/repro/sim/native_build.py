"""Build-on-demand loader for the native C event core.

``_nativecore.c`` ships as source; this module compiles it with the host
C toolchain the first time the native backend is requested and caches the
shared object under ``~/.cache/repro-native/`` (override with
``$REPRO_NATIVE_CACHE``) keyed by a hash of the source, the interpreter
version and the compiler — a source edit or interpreter upgrade triggers
a transparent rebuild, and concurrent builders (``--jobs`` workers) race
benignly via atomic ``os.replace``.

Everything degrades softly: no compiler, no Python headers, a failed
compile or a failed import all make :func:`load_native_core` return
``None`` (cached for the process), and backend auto-selection falls back
to the pure-Python heap core.  Set ``$REPRO_NATIVE_DISABLE=1`` to skip
the toolchain probe entirely (used by tests and the CI leg that must
exercise the pure-Python core).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["load_native_core", "native_cache_dir", "build_error"]

ENV_DISABLE = "REPRO_NATIVE_DISABLE"
ENV_CACHE = "REPRO_NATIVE_CACHE"

_SOURCE = Path(__file__).with_name("_nativecore.c")

# Process-level memo: module object, or False after a failed attempt.
_loaded: object = None
#: last build failure (compiler stderr / exception text) for diagnostics.
build_error: Optional[str] = None


def native_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def _find_cc() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_key(cc: str) -> str:
    h = hashlib.sha256()
    h.update(_SOURCE.read_bytes())
    h.update(sys.version.encode())
    h.update(cc.encode())
    return h.hexdigest()[:16]


def _load_from(path: Path):
    # the name must match the extension's PyInit__nativecore export
    spec = importlib.util.spec_from_file_location("_nativecore", path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load {path}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _build(cc: str, out: Path) -> None:
    include = sysconfig.get_path("include")
    if not include or not (Path(include) / "Python.h").exists():
        raise RuntimeError(f"Python.h not found under {include!r}")
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(out.parent), suffix=".so")
    os.close(fd)
    try:
        cmd = [
            cc,
            "-O2",
            "-shared",
            "-fPIC",
            f"-I{include}",
            str(_SOURCE),
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
        if not _SOURCE.exists():
            raise RuntimeError(f"{_SOURCE} missing")
        cc = _find_cc()
        if cc is None:
            raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
        so = native_cache_dir() / f"_nativecore-{_cache_key(cc)}.so"
        if not so.exists():
            _build(cc, so)
        mod = _load_from(so)
        from .engine import ScheduleInPastError, SimulationError

        mod._set_error_classes(SimulationError, ScheduleInPastError)
        _loaded = mod
        return mod
    except Exception as exc:  # noqa: BLE001 - soft-fail to pure Python
        build_error = f"{type(exc).__name__}: {exc}"
        _loaded = False
        return None
