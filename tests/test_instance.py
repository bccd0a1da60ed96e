import numpy as np
import pytest

from swaproute.graph import build_grid
from swaproute.instance import (InstanceError, MqpfInstance, load_instance,
                                merge_teams, random_instance, save_instance,
                                validate)


def test_shared_source_violation():
    g = build_grid(1, 3)
    inst = MqpfInstance(sources=((0,), (0,)), destinations=((1,), (2,)))
    assert any("shared source" in v for v in validate(g, inst))


def test_strict_cardinality_violation():
    g = build_grid(1, 3)
    inst = MqpfInstance(sources=((0,),), destinations=((1, 2),))
    assert any("cardinality" in v for v in validate(g, inst))


def test_flexible_overlapping_destinations_ok():
    g = build_grid(2, 2)
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((2, 3), (2, 3)),
                        flexible=True)
    assert validate(g, inst) == []


def test_flexible_requires_enough_destinations():
    g = build_grid(2, 2)
    inst = MqpfInstance(sources=((0, 1),), destinations=((2,),), flexible=True)
    assert any("sources but only" in v for v in validate(g, inst))


def test_out_of_range_nodes():
    g = build_grid(1, 2)
    inst = MqpfInstance(sources=((5,),), destinations=((1,),))
    assert any("out of range" in v for v in validate(g, inst))


def test_random_full_single_team():
    g = build_grid(2, 2)
    inst = random_instance(g, 4, "single", 0)
    assert inst.sources == ((0, 1, 2, 3),)
    assert inst.destinations == ((0, 1, 2, 3),)


def test_random_deterministic():
    g = build_grid(2, 3)
    assert random_instance(g, 3, "mixed", 11) == random_instance(g, 3, "mixed", 11)


def test_random_independent_teams():
    g = build_grid(2, 3)
    inst = random_instance(g, 3, "independent", 4)
    assert inst.team_count == 3
    assert all(len(s) == 1 for s in inst.sources)


def test_random_instances_always_valid():
    g = build_grid(2, 3)
    for seed in range(200):
        mode = ("independent", "mixed", "single")[seed % 3]
        inst = random_instance(g, 1 + seed % g.node_count, mode, seed)
        assert validate(g, inst) == []


def test_random_rejects_bad_count():
    g = build_grid(1, 2)
    with pytest.raises(InstanceError):
        random_instance(g, 3, "single", 0)
    with pytest.raises(InstanceError):
        random_instance(g, 0, "single", 0)


def test_mixed_mean_team_count():
    # scheme: team count uniform in [1, n], i.i.d. assignment, empties dropped.
    # For n = 16 the simulated mean is ~7.4; assert the n/2-ish window.
    g = build_grid(4, 4)
    counts = [random_instance(g, 16, "mixed", s).team_count for s in range(10**4)]
    assert 6.0 <= np.mean(counts) <= 10.0


def test_serialization_round_trip():
    inst = MqpfInstance(sources=((0,), (2, 3)), destinations=((3,), (0, 1)),
                        flexible=False)
    assert load_instance(save_instance(inst)) == inst
    flex = MqpfInstance(sources=((0,),), destinations=((1, 2),), flexible=True)
    assert load_instance(save_instance(flex)) == flex


def test_load_rejects_garbage():
    with pytest.raises(InstanceError):
        load_instance("teams 1\nbogus line\n")
    with pytest.raises(InstanceError):
        load_instance("team 0 sources 0 dests 1\n")  # missing header


@pytest.mark.parametrize("text, lineno", [
    ("teams x\n", 1),
    ("teams 1\nteam 0 sources a dests 1\n", 2),
    ("teams 1\nteam 0 sources 0 dests 1.5\n", 2),
])
def test_load_rejects_malformed_numbers_with_line(text, lineno):
    with pytest.raises(InstanceError, match=f"^line {lineno}: "):
        load_instance(text)


@pytest.mark.parametrize("text, lineno", [
    ("teams 1\nteam 0 sources 0 dests 1\nteam 0 sources 1 dests 0\n", 3),
    ("teams 1\nteams 2\nteam 0 sources 0 dests 1\nteam 1 sources 1 dests 0\n", 2),
])
def test_load_rejects_repeated_lines_with_line(text, lineno):
    with pytest.raises(InstanceError, match=f"^line {lineno}: repeated"):
        load_instance(text)


def test_merge_teams():
    inst = MqpfInstance(sources=((0,), (2, 3)), destinations=((3,), (0, 1)))
    merged = merge_teams(inst)
    assert merged.team_count == 1
    assert merged.sources == ((0, 2, 3),)
    assert merged.destinations == ((0, 1, 3),)
    assert not merged.flexible


def test_merge_teams_shrinking_dest_union_goes_flexible():
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((2, 3), (2, 3)),
                        flexible=True)
    merged = merge_teams(inst)
    assert merged.flexible
    assert merged.destinations == ((2, 3),)
