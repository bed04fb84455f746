"""Unit tests for size/time helpers."""

import pytest

from repro.util.errors import ConfigError
from repro.util.units import (
    KB,
    MB,
    PAPER_BANDWIDTH_SIZES,
    PAPER_LATENCY_SIZES,
    bandwidth_MBps,
    format_size,
    geometric_sizes,
    parse_size,
)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("512", 512),
            ("4K", 4096),
            ("4k", 4096),
            ("32KB", 32768),
            ("8M", 8 * MB),
            ("1G", 1024 * MB),
            ("2.5K", 2560),
            (17, 17),
            ("  64 K ", 65536),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "4X", "-5", "1.0001K"])
    def test_invalid(self, text):
        with pytest.raises(ConfigError):
            parse_size(text)

    def test_negative_int(self):
        with pytest.raises(ConfigError):
            parse_size(-1)


class TestFormatSize:
    @pytest.mark.parametrize(
        "n,expected",
        [(4, "4"), (1024, "1K"), (32768, "32K"), (8 * MB, "8M"), (1536, "1536")],
    )
    def test_paper_style_labels(self, n, expected):
        assert format_size(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            format_size(-1)

    def test_roundtrip(self):
        for n in [1, 4, 100, 4096, 32 * KB, 8 * MB]:
            assert parse_size(format_size(n)) == n


class TestBandwidth:
    def test_mb_per_s_equals_bytes_per_us(self):
        assert bandwidth_MBps(1200, 1.0) == pytest.approx(1200.0)

    def test_non_positive_time_rejected(self):
        with pytest.raises(ConfigError):
            bandwidth_MBps(100, 0.0)


class TestGeometricSizes:
    def test_basic(self):
        assert geometric_sizes(4, 32) == [4, 8, 16, 32]

    def test_string_bounds(self):
        assert geometric_sizes("1K", "8K") == [1024, 2048, 4096, 8192]

    def test_factor(self):
        assert geometric_sizes(1, 100, factor=10) == [1, 10, 100]

    def test_invalid(self):
        with pytest.raises(ConfigError):
            geometric_sizes(0, 10)
        with pytest.raises(ConfigError):
            geometric_sizes(10, 5)
        with pytest.raises(ConfigError):
            geometric_sizes(1, 10, factor=1)


def test_paper_sweeps_match_figure_axes():
    assert PAPER_LATENCY_SIZES[0] == 4 and PAPER_LATENCY_SIZES[-1] == 32 * KB
    assert PAPER_BANDWIDTH_SIZES[0] == 32 * KB and PAPER_BANDWIDTH_SIZES[-1] == 8 * MB
