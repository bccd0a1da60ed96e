import csv
import io
import json
import math

import pytest

from swaproute import cli, oracle, solver
from swaproute.graph import build_grid
from swaproute.instance import MqpfInstance, save_instance
from swaproute.noise import save_error_map

from conftest import uniform_error_map


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_random_tiny(capsys):
    code, out, _ = run_cli(["solve", "--layout", "grid:1x2", "--random", "2",
                            "--team-mode", "independent", "--seed", "1",
                            "--mode", "optimal"], capsys)
    assert code == 0
    assert "status=optimal" in out
    assert "depth=0" in out or "depth=1" in out


def test_solve_instance_file(tmp_path, capsys):
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((1,), (0,)))
    f = tmp_path / "inst.txt"
    f.write_text(save_instance(inst))
    out_file = tmp_path / "sol.json"
    code, out, _ = run_cli(["solve", "--layout", "grid:1x2", "--instance", str(f),
                            "--noise", "heron", "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["depth"] == 1
    assert doc["fidelity"] == pytest.approx(math.exp(-doc["cost"]))


def test_solve_noise_file(tmp_path, capsys):
    g = build_grid(1, 2)
    f = tmp_path / "noise.txt"
    f.write_text(save_error_map(uniform_error_map(g, eps=0.001)))
    code, out, _ = run_cli(["solve", "--layout", "grid:1x2", "--random", "2",
                            "--seed", "3", "--noise", str(f),
                            "--error-model", "simple"], capsys)
    assert code == 0


@pytest.mark.parametrize("line", ["cnot 0 7 0.02", "cnot 1 1 0.03"])
def test_noise_file_cnot_off_the_graph_is_usage_error(line, tmp_path, capsys):
    f = tmp_path / "noise.txt"
    text = save_error_map(uniform_error_map(build_grid(1, 2))) + line + "\n"
    f.write_text(text)
    lineno = text.count("\n")
    code, _, err = run_cli(["solve", "--layout", "grid:1x2", "--random", "1",
                            "--noise", str(f)], capsys)
    assert code == 2
    assert f"line {lineno}: " in err


def test_noise_file_bad_cnot_error_is_usage_error(tmp_path, capsys):
    f = tmp_path / "noise.txt"
    f.write_text("cnot 0 1 1.5\ndecoherence 0 100 100\ndecoherence 1 100 100\n")
    code, _, err = run_cli(["solve", "--layout", "grid:1x2", "--random", "1",
                            "--noise", str(f)], capsys)
    assert code == 2
    assert "error: line 1: cnot error on edge (0, 1) must be in (0, 1), got 1.5" in err


def test_noise_file_nan_duration_is_usage_error(tmp_path, capsys):
    f = tmp_path / "noise.txt"
    f.write_text("cnot 0 1 0.01\ndecoherence 0 100 100\ndecoherence 1 100 100\n"
                 "cnot_duration_ns nan\n")
    code, _, err = run_cli(["solve", "--layout", "grid:1x2", "--random", "1",
                            "--error-model", "extended", "--noise", str(f)], capsys)
    assert code == 2
    assert "error: line 4: cnot duration must be >= 0 seconds, got nan" in err


@pytest.mark.parametrize("content", [None, b"\x89\xff"])  # missing, not UTF-8
def test_unreadable_instance_is_usage_error(content, tmp_path, capsys):
    path = tmp_path / "inst.txt"
    if content is not None:
        path.write_bytes(content)
    code, _, err = run_cli(["solve", "--layout", "grid:1x2", "--instance", str(path)],
                           capsys)
    assert code == 2
    assert f"cannot read {path}" in err


def test_invalid_instance_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("teams 2\nteam 0 sources 0 dests 1\nteam 1 sources 0 dests 2\n")
    code, _, err = run_cli(["solve", "--layout", "grid:1x3", "--instance", str(path)],
                           capsys)
    assert code == 2
    assert "error: invalid instance: teams 0 and 1: shared source node 0" in err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out_file = tmp_path / "no_such_dir" / "sol.json"
    code, _, err = run_cli(["solve", "--layout", "grid:1x2", "--random", "1",
                            "--out", str(out_file)], capsys)
    assert code == 2
    assert f"cannot write {out_file}" in err


def test_malformed_noise_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "noise.txt"
    f.write_text("cnot 0 1 abc\n")
    code, _, err = run_cli(["solve", "--layout", "grid:1x2", "--random", "1",
                            "--noise", str(f)], capsys)
    assert code == 2
    assert "line 1: " in err


def test_export_lp_no_solve(tmp_path, capsys):
    path = tmp_path / "m.lp"
    code, out, _ = run_cli(["solve", "--layout", "grid:1x2", "--random", "2",
                            "--seed", "1", "--export-lp", str(path)], capsys)
    assert code == 0
    text = path.read_text()
    assert text.startswith("Minimize")
    assert "Binary" in text


def test_unknown_layout_usage_error(capsys):
    code, _, err = run_cli(["solve", "--layout", "nope99", "--random", "1"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("layout, node, message", [
    ("grid:1x3", "1", "graph is disconnected; unreachable nodes [1]"),
    ("grid:3x3", "9", "node 9 out of range [0, 9)"),
])
def test_drop_node_graph_error_is_usage_error(layout, node, message, capsys):
    code, out, err = run_cli(["solve", "--layout", layout, "--drop-node", node,
                              "--random", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bench_unknown_layout_fails_before_header(capsys):
    code, out, err = run_cli(["bench", "--layout", "nope", "--qubits", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown layout 'nope'; known: melbourne15")


def test_solve_timeout_exit_code(capsys):
    code, _, err = run_cli(["solve", "--layout", "grid:4x4", "--random", "6",
                            "--seed", "0", "--timeout", "1e-9"], capsys)
    assert code == 3
    assert "timed_out" in err


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "abc"])
@pytest.mark.parametrize("command", [
    ["solve", "--layout", "grid:1x2", "--random", "2"],
    ["bench", "--layout", "grid:1x2", "--qubits", "1", "--instances", "1"]])
def test_timeout_not_positive_is_usage_error(command, timeout, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--timeout", timeout])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_infinite_timeout_allowed(capsys):
    code, out, _ = run_cli(["solve", "--layout", "grid:1x2", "--random", "2",
                            "--timeout", "inf"], capsys)
    assert code == 0
    assert "status=optimal" in out


def test_solve_infeasible_exit_code(tmp_path, capsys):
    # two one-qubit teams with the same only destination: no depth can serve both
    inst = MqpfInstance(sources=((0,), (1,)), destinations=((15,), (15,)), flexible=True)
    f = tmp_path / "inst.txt"
    f.write_text(save_instance(inst))
    for presolve in ("dijkstra", "single_team"):
        code, _, err = run_cli(["solve", "--layout", "grid:4x4", "--instance", str(f),
                                "--presolve", presolve, "--timeout", "60"], capsys)
        assert code == 4
        assert "infeasible_up_to_cap" in err


def test_bench_row_counts(capsys):
    code, out, _ = run_cli(["bench", "--layout", "grid:1x3", "--qubits", "1..3",
                            "--instances", "2", "--modes", "optimal",
                            "--timeout", "60", "--seed", "5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert list(rows[0].keys()) == cli.BENCH_COLUMNS


@pytest.mark.parametrize("qubits", ["x", "1..y", "1..2..3", "5..2"])
def test_bench_bad_qubits_is_usage_error(qubits, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--layout", "grid:1x2", "--qubits", qubits])
    assert exc.value.code == 2
    assert "--qubits" in capsys.readouterr().err


def test_bench_qubits_past_node_count_fails_before_any_row(capsys):
    code, out, err = run_cli(["bench", "--layout", "grid:3x3", "--qubits", "2..20",
                              "--instances", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "--qubits 20 exceeds the 9 nodes" in err


def test_bench_no_instances_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--layout", "grid:1x2", "--qubits", "1", "--instances", "0"])
    assert exc.value.code == 2
    assert "--instances" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_jobs_below_one_is_usage_error(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--layout", "grid:1x2", "--qubits", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--layout", "grid:1x2", "--random", "2", "--seed", "-1"],
    ["solve", "--layout", "grid:1x2", "--random", "2", "--noise-seed", "-1"],
    ["bench", "--layout", "grid:1x2", "--qubits", "1", "--seed", "-1"],
    ["oracle-check", "--samples", "1", "--seed", "-1"],
    ["solve", "--layout", "grid:1x2", "--random", "2", "--export-lp", "m.lp",
     "--depth-slack", "-1"]])
def test_negative_integer_option_is_usage_error(argv, capsys):
    # numpy's default_rng takes no negative seed, and no depth is negative
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"{argv[-2]}: must be >= 0, got -1" in capsys.readouterr().err


def test_bench_parallel_rows_match_serial(capsys, monkeypatch):
    """The serial run leaves an idle HiGHS object in the parent, and the
    forked workers inherit it."""
    pool = []
    monkeypatch.setattr(solver, "_IDLE_HIGHS", pool)
    argv = ["bench", "--layout", "grid:3x3", "--qubits", "2..3", "--instances", "2",
            "--modes", "optimal,feasible"]
    runs = []
    for jobs in ("1", "2"):
        assert bool(pool) == (jobs == "2")
        code, out, _ = run_cli(argv + ["--jobs", jobs], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for r in rows:
            r.pop("runtime_ms")
        runs.append(rows)
    assert len(runs[0]) == 8
    assert runs[0] == runs[1]


def test_bench_fidelity_definition(capsys):
    code, out, _ = run_cli(["bench", "--layout", "grid:2x2", "--qubits", "2,3",
                            "--instances", "2", "--error-model", "extended",
                            "--seed", "1"], capsys)
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        assert row["status"] == "optimal"
        assert float(row["fidelity"]) == pytest.approx(
            math.exp(-float(row["cost"])), abs=1e-9)


def test_bench_mode_dominance_per_instance(capsys):
    code, out, _ = run_cli(["bench", "--layout", "grid:2x2", "--qubits", "2",
                            "--instances", "5",
                            "--modes", "optimal,near-optimal,feasible",
                            "--seed", "2"], capsys)
    assert code == 0
    by_instance = {}
    for row in csv.DictReader(io.StringIO(out)):
        by_instance.setdefault(row["instance_seed"], {})[row["solver_mode"]] = \
            float(row["cost"])
    for costs in by_instance.values():
        assert costs["optimal"] <= costs["near-optimal"] + 1e-9
        assert costs["near-optimal"] <= costs["feasible"] + 1e-9


def test_bench_deterministic_rows(capsys):
    argv = ["bench", "--layout", "grid:1x3", "--qubits", "2", "--instances", "3",
            "--seed", "9"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0

    def strip_runtime(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        for r in rows:
            r.pop("runtime_ms")
        return rows

    assert strip_runtime(out1) == strip_runtime(out2)


def test_oracle_check_zero_mismatches(capsys):
    code, out, _ = run_cli(["oracle-check", "--nodes-max", "5", "--samples", "10",
                            "--seed", "3"], capsys)
    assert code == 0
    assert "0 mismatches / 10 samples" in out


def test_oracle_check_zero_samples(capsys):
    code, out, _ = run_cli(["oracle-check", "--samples", "0"], capsys)
    assert code == 0
    assert "0 mismatches / 0 samples" in out


@pytest.mark.parametrize("argv", [["--nodes-max", "1"], ["--nodes-max", "0"],
                                  ["--samples", "-1"], ["--samples", "many"]])
def test_oracle_check_bad_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-check"] + argv)
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err


def test_oracle_check_nodes_max_above_the_oracle_cap_is_usage_error(capsys):
    cap = oracle._BFS_NODE_CAP
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-check", "--nodes-max", str(cap + 1), "--samples", "1"])
    assert exc.value.code == 2
    assert f"--nodes-max: must be <= {cap}, the oracle's node cap" in capsys.readouterr().err
    code, out, _ = run_cli(["oracle-check", "--nodes-max", str(cap), "--samples", "0"], capsys)
    assert code == 0 and "0 mismatches / 0 samples" in out


def test_oracle_check_smallest_graphs(capsys):
    code, out, _ = run_cli(["oracle-check", "--nodes-max", "2", "--samples", "3"], capsys)
    assert code == 0
    assert "0 mismatches / 3 samples" in out


def test_oracle_check_reproducible(capsys):
    argv = ["oracle-check", "--nodes-max", "5", "--samples", "6", "--seed", "4"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_oracle_check_mismatch_exit_code(capsys, monkeypatch):
    true_depth = oracle.bfs_optimal_depth
    monkeypatch.setattr(oracle, "bfs_optimal_depth", lambda g, inst: true_depth(g, inst) + 1)
    code, out, err = run_cli(["oracle-check", "--nodes-max", "5", "--samples", "3",
                              "--seed", "4"], capsys)
    assert code == 5
    assert "MISMATCH sample 0" in err
    assert "3 mismatches / 3 samples" in out


def test_presolve_out_of_budget_exit_code(capsys):
    # the single-team presolve itself runs out of time
    code, _, err = run_cli(["solve", "--layout", "grid:3x3", "--random", "3",
                            "--presolve", "single_team", "--timeout", "1e-9"], capsys)
    assert code == 3
    assert "status=timed_out" in err


def test_presolve_timeout_exit_code(capsys):
    code, _, err = run_cli(["solve", "--layout", "grid:8x8", "--random", "8",
                            "--seed", "2", "--noise-seed", "1002",
                            "--presolve", "single_team", "--timeout", "0.01"], capsys)
    assert code == 3
    assert "timed_out" in err


def test_solver_failure_exit_code(capsys, monkeypatch):
    class FailingLp:
        def __init__(self, model, basis=None):
            pass

        def bound(self, values, time_left=None):
            raise solver.SolverError("LP relaxation failed: Iteration limit reached")
    monkeypatch.setattr(solver, "_LpRelaxation", FailingLp)
    code, _, err = run_cli(["solve", "--layout", "grid:4x4", "--random", "4",
                            "--seed", "0"], capsys)
    assert code == 6
    assert "LP relaxation failed" in err
