"""Placement policies."""

import pytest

from repro.kernel.policy import FirstTouchPolicy, FixedNodePolicy, InterleavePolicy


class TestFirstTouch:
    def test_follows_hint(self):
        policy = FirstTouchPolicy()
        assert policy.choose_node(0) == 0
        assert policy.choose_node(3) == 3


class TestInterleave:
    def test_round_robin_ignores_hint(self):
        policy = InterleavePolicy(nodes=(0, 1, 2))
        picks = [policy.choose_node(hint=9) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_subset_of_nodes(self):
        policy = InterleavePolicy(nodes=(1, 3))
        assert [policy.choose_node(0) for _ in range(4)] == [1, 3, 1, 3]

    def test_reset_restarts_cycle(self):
        policy = InterleavePolicy(nodes=(0, 1))
        policy.choose_node(0)
        policy.reset()
        assert policy.choose_node(0) == 0

    def test_empty_nodeset_rejected(self):
        with pytest.raises(ValueError):
            InterleavePolicy(nodes=())


class TestFixed:
    def test_always_same_node(self):
        policy = FixedNodePolicy(node=2)
        assert all(policy.choose_node(h) == 2 for h in range(4))


class TestRunPlacement:
    @pytest.mark.parametrize(
        "make",
        [FirstTouchPolicy, lambda: InterleavePolicy(nodes=(1, 3, 0)), lambda: FixedNodePolicy(2)],
        ids=["first-touch", "interleave", "fixed"],
    )
    def test_run_is_the_nodes_of_single_choices(self, make):
        for count in (0, 1, 2, 5, 7):
            single, run = make(), make()
            single.choose_node(1)
            run.choose_node(1)
            expected = [single.choose_node(1) for _ in range(count)]
            rotation = run.choose_run(1, count)
            assert [rotation[i % len(rotation)] for i in range(count)] == expected
            assert run.choose_node(1) == single.choose_node(1)

    def test_rewind_takes_back_placements(self):
        policy = InterleavePolicy(nodes=(0, 1, 2))
        policy.choose_run(0, 5)
        policy.rewind(3)
        assert policy.choose_node(0) == 2
