import hashlib
import math

import numpy as np
import pytest

from swaproute import noise, texpand
from swaproute.graph import build_grid, build_layout
from swaproute.noise import (ErrorMap, NoiseError, NoiseParams, accumulated_error,
                             idle_error, load_error_map, movement_costs,
                             sample_error_map, save_error_map, split_cnot_error)

from conftest import uniform_error_map


def test_sigma_zero_degenerate():
    g = build_grid(2, 2)
    params = NoiseParams(cnot_mean=0.004, cnot_log10_sigma=0.0,
                         cnot_bounds=(0.001, 0.01))
    emap = sample_error_map(g, params, 0)
    assert all(e == 0.004 for e in emap.cnot_error.values())


def test_heron_preset_parameters():
    p = noise.HERON
    assert p.cnot_mean == 0.007
    assert p.cnot_log10_sigma == 0.3115
    assert p.cnot_bounds == (0.0018, 0.0876)
    assert (p.t1_mean, p.t1_sigma, p.t1_bounds) == (176.0, 69.0, (3.0, 310.0))
    assert (p.t2_mean, p.t2_sigma, p.t2_bounds) == (140.0, 71.0, (6.0, 321.0))


def test_melbourne_style_preset():
    p = noise.MELBOURNE_STYLE
    assert p.cnot_mean == 0.001
    assert p.cnot_log10_sigma == 0.5


def test_sampling_deterministic():
    g = build_layout("melbourne15")
    a = sample_error_map(g, noise.HERON, 42)
    b = sample_error_map(g, noise.HERON, 42)
    assert a == b
    c = sample_error_map(g, noise.HERON, 43)
    assert a != c


# sha256 of save_error_map(sample_error_map(g, params, seed)) for seeds 0, 1 and 2;
# a change to the sampler's draw order or arithmetic changes them
SAMPLER_PINS = {
    ("rochester53", "heron"): (
        "304b98a46d24329790f11c92c3d2ffb32cbd36b3f005c83bf48f99bb3b74ef3d",
        "ea801e3f83df8a0cc078cdea89feff08945821b344eb1c8173a8580593511cc7",
        "eb5c66a77286ad9b1bb2bf9ea490926a948cdd07d33c81780753e76b5e0c8058"),
    ("rochester53", "melbourne-style"): (
        "b64bf6a436213f5a9df0127a7e168a028417b39c8d5e510109fca9e79d414d2e",
        "0975d55383b94a14fbaa517fd80670e2983d4c73c68476e17da73f13a3a05cfa",
        "92e20696e89cf24b82cd7dda6ace35e7e25c9345251661c3a93b1b3785b1474b"),
    ("rochester53", "flat"): (
        "1ddeb52754727b0e8b9bcc3a7a33efed2cf62a524fbfa93742a80018b6b6f402",) * 3,
    ("grid:3x3", "heron"): (
        "24f5987a21cfd3ac27303205454dee80972c834013f05fa586b022b0262c40df",
        "54a1a9da7e3a5d3056355d6ef9bc73e369ae3cedd36e3e1d1d5b4627edde2af3",
        "b1484521be0cf3eb766684a2f6385686df56ddf4ba305da895acc2335d1eecdb"),
    ("grid:3x3", "melbourne-style"): (
        "a19a2098200d9eb0b9bfabbd7f1499418ef0a87293f9458c38e58f16322a6483",
        "35a83091a5a70040ba594fefd3cc812d2e2dd6402e4eff134a18cbf3f885d5ce",
        "00cc983ee1466ee40520be79f2604057380638e74f38e139f688b6f1bd477be2"),
    ("grid:3x3", "flat"): (
        "b308c2093a01b5d4bdb2d789792d5f9629380151bf696f047fe1b9f9670e2d03",) * 3,
}


@pytest.mark.parametrize("layout, preset", sorted(SAMPLER_PINS))
def test_sampled_error_map_bytes_pinned(layout, preset):
    """``flat`` has every sigma at 0, so each draw is its mean whatever the seed."""
    params = noise.PRESETS.get(preset) or NoiseParams(cnot_log10_sigma=0.0, t1_sigma=0.0,
                                                      t2_sigma=0.0)
    g = build_layout(layout)
    digests = tuple(hashlib.sha256(save_error_map(sample_error_map(g, params, seed))
                                   .encode()).hexdigest() for seed in range(3))
    assert digests == SAMPLER_PINS[layout, preset]


def test_sampled_values_within_bounds():
    g = build_grid(3, 3)
    emap = sample_error_map(g, noise.HERON, 7)
    for e in emap.cnot_error.values():
        assert 0.0018 <= e <= 0.0876
    for v in emap.t1:
        assert 3.0 <= v <= 310.0
    for v in emap.t2:
        assert 6.0 <= v <= 321.0


def test_impossible_bounds_hit_resample_cap():
    g = build_grid(1, 2)
    params = NoiseParams(cnot_mean=0.9, cnot_log10_sigma=0.0, cnot_bounds=(0.001, 0.01))
    with pytest.raises(NoiseError):
        sample_error_map(g, params, 0)


def test_idle_error_zero_time():
    assert idle_error(176.0, 140.0, 0.0) == 0.0


def test_idle_error_equal_t1_t2():
    for t in (1e-9, 79e-9, 1e-6):
        expect = 1.0 - math.exp(-t / 150e-6)
        assert idle_error(150.0, 150.0, t) == pytest.approx(expect, abs=1e-12)


def test_idle_error_reference_value():
    # frozen from 50-digit decimal evaluation of the formula
    assert idle_error(176.0, 140.0, 79e-9) == pytest.approx(
        0.00050644472359847990769865849924532, rel=1e-13)


def test_idle_error_monotone_in_t():
    ts = np.linspace(0.0, 1e-6, 50)
    vals = [idle_error(176.0, 140.0, t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_split_cnot_error_examples():
    assert split_cnot_error(0.0) == 0.0
    out = split_cnot_error(0.0876)
    assert (1.0 - out) ** 2 == pytest.approx(0.9124, abs=1e-12)
    assert split_cnot_error(0.007) == pytest.approx(1.0 - math.sqrt(0.993), abs=1e-15)
    with pytest.raises(NoiseError):
        split_cnot_error(1.0)


try:
    from hypothesis import given, strategies as st

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_split_identity_hypothesis(e):
        out = split_cnot_error(e)
        assert abs((1.0 - out) ** 2 - (1.0 - e)) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=5.0))
    def test_accumulated_error_inverse_hypothesis(c):
        err, fid = accumulated_error(c)
        assert err + fid == pytest.approx(1.0, abs=1e-12)
        assert abs(-math.log(1.0 - err) - c) <= 1e-9 * max(1.0, c)
except ImportError:  # hypothesis is an optional test dependency
    pass


def test_split_identity_property():
    rng = np.random.default_rng(0)
    for e in rng.uniform(0.0, 0.999, size=10**4):
        out = split_cnot_error(e)
        assert abs((1.0 - out) ** 2 - (1.0 - e)) <= 1e-12


def test_movement_costs_simple():
    g = build_grid(1, 2)
    emap = uniform_error_map(g, eps=0.001)
    costs = movement_costs(g, emap, "simple")
    # full SWAP cost on one direction per edge, idle free
    pair = costs.movement_cost(0, 1) + costs.movement_cost(1, 0)
    assert pair == pytest.approx(-3.0 * math.log(0.999), abs=1e-15)
    assert costs.movement_cost(0, 0) == 0.0
    assert costs.movement_cost(1, 1) == 0.0


def test_movement_costs_extended_direction_sum():
    g = build_grid(2, 3)
    emap = sample_error_map(g, noise.HERON, 5)
    costs = movement_costs(g, emap, "extended")
    for i, j in g.edges:
        total = costs.movement_cost(i, j) + costs.movement_cost(j, i)
        expect = -3.0 * math.log(1.0 - emap.cnot_error[(i, j)])
        assert total == pytest.approx(expect, abs=1e-12)


def test_movement_costs_extended_idle():
    g = build_grid(1, 2)
    emap = uniform_error_map(g, t1=176.0, t2=140.0)
    costs = movement_costs(g, emap, "extended")
    expect = -3.0 * math.log(1.0 - idle_error(176.0, 140.0, emap.cnot_duration))
    assert costs.movement_cost(0, 0) == pytest.approx(expect, abs=1e-15)


# sha256 of the repr of [movement_cost(i, j) for (i, j) in graph_tables(g).moves]
# on HERON error maps of seeds 0 and 1; a change to any cost's arithmetic changes them
COST_PINS = {
    ("rochester53", "simple"): (
        "ae59ea814d89298bfafef4e9f1e2219b95ee84d4ef1675571147ffd0bbf9f643",
        "65327788a53c5a083a0825d4f8e65f2f943dc6feb3c05a13e0e7ccb9dd9b8c78"),
    ("rochester53", "extended"): (
        "c257dc9aaaccb61e09798d47b8f943ab1f8378f54517940ed36534f6baa2ec7d",
        "f0c17fdb84bb6d75d6173f1abcb8c7821ce7dd93d07f9cdb174b4ff9db9e5c2e"),
    ("grid:3x3", "simple"): (
        "f3f9d3eb4dd5a04e7a51411e59a2aee8d797e75163e2a264bcfa1df71f8c088c",
        "8d2a32313a1ce7d6cdeb03b6556c95d5c9f5a336dd0032f66ae65ded58c13415"),
    ("grid:3x3", "extended"): (
        "5bf37758aeecfd4e9c6412743553f6ae161aa2eef854d433c847555a2b5aa00a",
        "79def3744d2936d8c923d1ab3b91e271e402768ba40a48a8ff6eb7acabc1ef08"),
}


@pytest.mark.parametrize("layout, model", sorted(COST_PINS))
def test_movement_costs_pinned(layout, model):
    g = build_layout(layout)
    moves = texpand.graph_tables(g).moves
    digests = []
    for seed in range(2):
        costs = movement_costs(g, sample_error_map(g, noise.HERON, seed), model)
        text = repr([costs.movement_cost(i, j) for i, j in moves])
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(digests) == COST_PINS[layout, model]


def test_accumulated_error():
    assert accumulated_error(0.0) == (0.0, 1.0)
    err, fid = accumulated_error(-3.0 * math.log(0.999))
    assert err == pytest.approx(1.0 - 0.999**3, abs=1e-15)
    assert fid == pytest.approx(0.999**3, abs=1e-15)


def test_accumulated_error_round_trip():
    rng = np.random.default_rng(1)
    for e in rng.uniform(1e-6, 0.9, size=1000):
        cost = -math.log(1.0 - e)
        back, _ = accumulated_error(cost)
        assert abs(back - e) <= 1e-12


def test_cost_product_form():
    # exp(-sum of costs) equals the product of per-movement success rates
    g = build_grid(2, 3)
    emap = sample_error_map(g, noise.HERON, 9)
    costs = movement_costs(g, emap, "extended")
    rng = np.random.default_rng(2)
    movements = []
    for _ in range(40):
        i, j = g.edges[int(rng.integers(0, g.edge_count))]
        movements += [(i, j), (j, i)]
    total = sum(costs.movement_cost(i, j) for i, j in movements)
    product = 1.0
    for i, j in movements:
        product *= 1.0 - split_cnot_error(emap.cnot_error[min(i, j), max(i, j)])
    assert math.exp(-total) == pytest.approx(product**3, rel=1e-10)


def test_error_map_round_trip():
    g = build_grid(2, 2)
    emap = sample_error_map(g, noise.HERON, 3)
    assert load_error_map(save_error_map(emap), g) == emap


def test_error_map_validation():
    with pytest.raises(NoiseError):
        ErrorMap(cnot_error={(0, 1): 1.5}, t1=(100.0, 100.0), t2=(100.0, 100.0))
    with pytest.raises(NoiseError):
        ErrorMap(cnot_error={(0, 1): 0.01}, t1=(0.0, 100.0), t2=(100.0, 100.0))
    for bad in (math.nan, -5e-9):
        with pytest.raises(NoiseError, match="cnot duration must be >= 0 seconds"):
            ErrorMap(cnot_error={(0, 1): 0.01}, t1=(100.0, 100.0), t2=(100.0, 100.0),
                     cnot_duration=bad)


def test_load_error_map_keeps_infinite_decoherence_and_zero_duration():
    emap = load_error_map("cnot_duration_ns 0\ncnot 0 1 0.01\n"
                          "decoherence 0 inf inf\ndecoherence 1 100 100\n")
    assert emap.cnot_duration == 0.0 and emap.t1[0] == emap.t2[0] == math.inf


@pytest.mark.parametrize("line", ["cnot 0 1 abc", "cnot a 1 0.01", "decoherence 0 x 100",
                                  "cnot_duration_ns fast"])
def test_load_error_map_rejects_malformed_numbers_with_line(line):
    text = save_error_map(uniform_error_map(build_grid(1, 2))) + line + "\n"
    lineno = text.count("\n")
    with pytest.raises(NoiseError, match=f"^line {lineno}: "):
        load_error_map(text)


@pytest.mark.parametrize("line, what", [("cnot 1 0 0.02", "cnot 0 1"),
                                        ("decoherence 0 50 60", "decoherence 0"),
                                        ("cnot_duration_ns 60", "cnot_duration_ns")])
def test_load_error_map_rejects_repeated_lines_with_line(line, what):
    text = save_error_map(uniform_error_map(build_grid(1, 2))) + line + "\n"
    lineno = text.count("\n")
    with pytest.raises(NoiseError, match=f"^line {lineno}: repeated {what}$"):
        load_error_map(text)


@pytest.mark.parametrize("line, on_graph, what", [
    ("cnot 1 1 0.03", False, "cnot on the self-pair 1 1"),
    ("cnot 1 1 0.03", True, "cnot on the self-pair 1 1"),
    ("cnot 7 0 0.02", True, "cnot 0 7 is not a graph edge"),
    ("cnot 0 7 0.02", False, r"cnot 0 7 is not among the decoherence nodes 0\.\.1"),
    ("cnot -1 0 0.02", False, r"cnot -1 0 is not among the decoherence nodes 0\.\.1")])
def test_load_error_map_rejects_cnot_off_the_graph_with_line(line, on_graph, what):
    g = build_grid(1, 2)
    text = save_error_map(uniform_error_map(g)) + line + "\n"
    lineno = text.count("\n")
    with pytest.raises(NoiseError, match=f"^line {lineno}: {what}$"):
        load_error_map(text, g if on_graph else None)


@pytest.mark.parametrize("on_graph", [False, True])
@pytest.mark.parametrize("text, lineno, what", [
    ("cnot 0 1 1.5\ndecoherence 0 100 100\ndecoherence 1 100 100\n", 1,
     r"cnot error on edge \(0, 1\) must be in \(0, 1\), got 1\.5"),
    ("cnot 0 1 0.01\ndecoherence 0 -5 100\ndecoherence 1 100 100\n", 2,
     r"t1 values must be > 0, got -5\.0"),
    ("cnot 0 1 0.01\ndecoherence 0 100 100\n\ndecoherence 1 100 0\n", 4,
     r"t2 values must be > 0, got 0\.0"),
    ("cnot 0 1 0.01\ndecoherence 0 nan 100\ndecoherence 1 100 100\n", 2,
     r"t1 values must be > 0, got nan"),
    ("cnot 0 1 0.01\ndecoherence 0 100 100\ndecoherence 1 100 nan\n", 3,
     r"t2 values must be > 0, got nan"),
    ("cnot_duration_ns nan\ncnot 0 1 0.01\ndecoherence 0 100 100\ndecoherence 1 100 100\n", 1,
     r"cnot duration must be >= 0 seconds, got nan"),
    ("cnot 0 1 0.01\ndecoherence 0 100 100\ndecoherence 1 100 100\ncnot_duration_ns -5\n", 4,
     r"cnot duration must be >= 0 seconds, got -5e-09")])
def test_load_error_map_rejects_bad_values_with_line(text, lineno, what, on_graph):
    with pytest.raises(NoiseError, match=f"^line {lineno}: {what}$"):
        load_error_map(text, build_grid(1, 2) if on_graph else None)


def test_load_error_map_rejects_mismatched_graph():
    g = build_grid(1, 3)
    emap = uniform_error_map(build_grid(1, 2))
    with pytest.raises(NoiseError):
        load_error_map(save_error_map(emap), g)
