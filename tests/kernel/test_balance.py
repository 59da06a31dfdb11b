"""Load balancer: migration decisions, with and without Mitosis."""

import pytest

from repro.kernel.balance import LoadBalancer
from repro.units import MIB


def spawn(kernel, socket, name="p", size=MIB):
    process = kernel.create_process(name, socket=socket)
    kernel.sys_mmap(process, size, populate=True)
    return process


class TestRebalance:
    def test_evens_skewed_load(self, kernel4):
        for i in range(4):
            spawn(kernel4, 0, f"p{i}")
        balancer = LoadBalancer(kernel4)
        moves = balancer.rebalance()
        assert len(moves) == 3
        assert balancer.imbalance() <= 1
        assert set(balancer.socket_load().values()) == {1}

    def test_balanced_system_untouched(self, kernel4):
        for socket in range(4):
            spawn(kernel4, socket, f"p{socket}")
        assert LoadBalancer(kernel4).rebalance() == []

    def test_moves_smallest_process_first(self, kernel4):
        big = spawn(kernel4, 0, "big", size=4 * MIB)
        small = spawn(kernel4, 0, "small", size=MIB)
        moves = LoadBalancer(kernel4).rebalance()
        moved_pids = {m.pid for m in moves}
        assert small.pid in moved_pids
        assert big.pid not in moved_pids

    def test_multisocket_processes_not_moved(self, kernel4):
        process = spawn(kernel4, 0, "mt")
        process.add_thread(1)  # genuinely spans two sockets
        spawn(kernel4, 0, "single")
        moves = LoadBalancer(kernel4).rebalance()
        assert all(m.pid != process.pid for m in moves)

    def test_heavy_process_never_ping_pongs(self, kernel4):
        """A 2-thread single-socket process whose move cannot improve a
        diff-2 imbalance must be left alone — and rebalance must
        terminate."""
        process = spawn(kernel4, 0, "fat")
        process.threads[0].socket = 0
        process.add_thread(0)  # 2 threads, both socket 0
        balancer = LoadBalancer(kernel4)
        moves = balancer.rebalance()
        assert moves == []
        assert process.sockets_in_use() == {0}

    def test_commodity_migration_strands_pagetables(self, kernel4):
        for i in range(2):
            spawn(kernel4, 0, f"p{i}")
        balancer = LoadBalancer(kernel4, migrate_pagetables=False)
        moves = balancer.rebalance()
        moved = kernel4.processes[moves[0].pid]
        # Data followed the process, page-tables did not: the §3.2 state.
        assert all(m.node == moves[0].to_socket for m in moved.mm.frames.values())
        assert all(p.node == 0 for p in moved.mm.tree.iter_tables())

    def test_mitosis_migration_moves_pagetables(self, kernel4):
        for i in range(2):
            spawn(kernel4, 0, f"p{i}")
        balancer = LoadBalancer(kernel4, migrate_pagetables=True)
        moves = balancer.rebalance()
        moved = kernel4.processes[moves[0].pid]
        target = moves[0].to_socket
        assert all(m.node == target for m in moved.mm.frames.values())
        assert all(p.node == target for p in moved.mm.tree.iter_tables())

    def test_move_log_accumulates(self, kernel4):
        for i in range(3):
            spawn(kernel4, 0, f"p{i}")
        balancer = LoadBalancer(kernel4)
        first = balancer.rebalance()
        spawn(kernel4, 0, "late")
        second = balancer.rebalance()
        assert balancer.moves == first + second
