"""Size/time unit helpers and sweep generation.

Conventions (identical to DESIGN.md §2):

* time — microseconds (float);
* size — bytes (int);
* bandwidth — MB/s with 1 MB = 1e6 bytes, i.e. numerically equal to B/µs.

The paper's figures use binary size labels (4K, 32K, 1M, ...) on the x axis;
:func:`format_size` and :func:`parse_size` follow that convention (K = 1024).
"""

from __future__ import annotations

import re
from typing import List

from .errors import ConfigError

__all__ = [
    "KB",
    "MB",
    "parse_size",
    "format_size",
    "bandwidth_MBps",
    "geometric_sizes",
    "PAPER_LATENCY_SIZES",
    "PAPER_BANDWIDTH_SIZES",
]

#: Binary kilobyte / megabyte, as used for the paper's x-axis labels.
KB = 1024
MB = 1024 * 1024

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([KMG]?)B?\s*$", re.IGNORECASE)
_SUFFIX = {"": 1, "K": KB, "M": MB, "G": 1024 * MB}


def parse_size(text: str | int) -> int:
    """Parse ``"4K"``, ``"8M"``, ``"512"`` (optionally with a ``B``) to bytes.

    Integers pass through unchanged.  Suffixes are binary (K = 1024).

    >>> parse_size("32K")
    32768
    >>> parse_size(17)
    17
    """
    if isinstance(text, int):
        if text < 0:
            raise ConfigError(f"negative size {text}")
        return text
    m = _SIZE_RE.match(str(text))
    if not m:
        raise ConfigError(f"unparsable size {text!r}")
    value = float(m.group(1)) * _SUFFIX[m.group(2).upper()]
    if value != int(value):
        raise ConfigError(f"size {text!r} is not a whole number of bytes")
    return int(value)


def format_size(nbytes: int) -> str:
    """Render a byte count the way the paper labels its axes.

    >>> format_size(32768)
    '32K'
    >>> format_size(8 * 1024 * 1024)
    '8M'
    >>> format_size(12)
    '12'
    """
    if nbytes < 0:
        raise ConfigError(f"negative size {nbytes}")
    for suffix, factor in (("G", 1024 * MB), ("M", MB), ("K", KB)):
        if nbytes >= factor and nbytes % factor == 0:
            return f"{nbytes // factor}{suffix}"
    return str(nbytes)


def bandwidth_MBps(nbytes: int, elapsed_us: float) -> float:
    """Achieved bandwidth in MB/s (1 MB = 1e6 B) for ``nbytes`` in ``elapsed_us``."""
    if elapsed_us <= 0:
        raise ConfigError(f"non-positive elapsed time {elapsed_us}")
    return nbytes / elapsed_us


def geometric_sizes(start: int | str, stop: int | str, factor: int = 2) -> List[int]:
    """Inclusive geometric sweep of sizes, e.g. 4, 8, ..., 32768.

    >>> geometric_sizes(4, 32)
    [4, 8, 16, 32]
    """
    lo, hi = parse_size(start), parse_size(stop)
    if lo <= 0 or hi < lo:
        raise ConfigError(f"bad sweep bounds [{lo}, {hi}]")
    if factor < 2:
        raise ConfigError(f"sweep factor must be >= 2, got {factor}")
    out = []
    s = lo
    while s <= hi:
        out.append(s)
        s *= factor
    return out


#: x-axis of the paper's latency plots (Figs 2a-6): 4 B .. 32 KB.
PAPER_LATENCY_SIZES: List[int] = geometric_sizes(4, 32 * KB)

#: x-axis of the paper's bandwidth plots (Figs 2b-7): 32 KB .. 8 MB.
PAPER_BANDWIDTH_SIZES: List[int] = geometric_sizes(32 * KB, 8 * MB)
