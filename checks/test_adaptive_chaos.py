"""The adaptive chaos grid is bit-identical serial and on 4 workers, at
6 seeds: the law of ``tests/property/test_adaptive.py`` on a larger grid."""

from tests.property.test_adaptive import _assert_serial_is_parallel


def test_adaptive_chaos_digests_identical_at_6_seeds_on_4_workers():
    _assert_serial_is_parallel(seeds=6, jobs=4)
