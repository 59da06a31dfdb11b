"""Per-socket LLC model for page-table lines."""

from repro.cache.llc import SocketLlc
from repro.units import KIB


class TestLlc:
    def test_miss_then_hit(self):
        llc = SocketLlc(KIB)
        assert not llc.access(0)
        assert llc.access(0)
        assert llc.stats.hits == 1
        assert llc.stats.misses == 1

    def test_capacity_in_lines(self):
        llc = SocketLlc(KIB)  # 16 lines
        assert llc.capacity_lines == 16

    def test_lru_eviction(self):
        llc = SocketLlc(128)  # 2 lines
        llc.access(0)
        llc.access(64)
        llc.access(0)  # promote
        llc.access(128)  # evicts 64
        assert llc.access(0)
        assert not llc.access(64)

    def test_minimum_one_line(self):
        assert SocketLlc(1).capacity_lines == 1

    def test_invalidate_all(self):
        llc = SocketLlc(KIB)
        llc.access(0)
        llc.invalidate_all()
        assert not llc.access(0)
        assert llc.occupancy() == 1

    def test_working_set_behaviour(self):
        """A working set within capacity hits ~100% after warmup; one far
        beyond capacity keeps missing — the §8.2 GUPS dichotomy."""
        llc = SocketLlc(4 * KIB)  # 64 lines
        small = [i * 64 for i in range(32)]
        for line in small:
            llc.access(line)
        assert all(llc.access(line) for line in small)
        big = [i * 64 for i in range(1000)]
        misses = 0
        for _ in range(3):
            for line in big:
                misses += not llc.access(line)
        assert misses > 2500  # virtually no reuse survives
