import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmlkit import cli, rlmaze
from qmlkit.maze import deserialize

from oracles import classical_populations

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "qmlkit.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def read_csv(path):
    rows = []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


TWO_NODE_MAZE = (
    '{"width": 2, "height": 1, "entrance": 0, "exit": 1, "seed": 0, "edges": [[0, 1]]}'
)


UNSTABLE_RL_FLAGS = (
    "--p", 0.0, "--dt", 0.1, "--t-final", 100.0, "--action-period", 10.0, "--max-actions", 8,
)


@pytest.fixture
def two_node_maze(tmp_path):
    path = tmp_path / "maze2.json"
    path.write_text(TWO_NODE_MAZE)
    return path


@pytest.fixture
def small_maze(tmp_path):
    path = tmp_path / "maze3.json"
    result = run_cli("maze-gen", "--width", 3, "--height", 3, "--seed", 2, "-o", path)
    assert result.returncode == 0
    return path


class TestMazeGen:
    def test_writes_valid_spanning_tree(self, tmp_path):
        out = tmp_path / "maze.json"
        result = run_cli("maze-gen", "--width", 6, "--height", 6, "--seed", 1, "-o", out)
        assert result.returncode == 0
        maze = deserialize(out.read_text())
        assert len(maze.edges()) == 35

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("maze-gen", "--width", 4, "--height", 5, "--seed", 9, "-o", a)
        run_cli("maze-gen", "--width", 4, "--height", 5, "--seed", 9, "-o", b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_flag_exits_2_with_usage(self, tmp_path):
        result = run_cli("maze-gen", "--width", 6, "-o", tmp_path / "m.json")
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()

    def test_bad_dimensions_exit_2(self, tmp_path):
        result = run_cli("maze-gen", "--width", 1, "--height", 5, "--seed", 0, "-o", tmp_path / "m.json")
        assert result.returncode == 2
        assert "error" in result.stderr


class TestQswRun:
    def test_classical_run_matches_oracle(self, tmp_path, two_node_maze):
        out = tmp_path / "traj.csv"
        result = run_cli(
            "qsw-run", "--maze", two_node_maze, "--p", 1.0, "--dt", 0.005,
            "--t-final", 5.0, "--sample-every", 50, "-o", out,
        )
        assert result.returncode == 0
        header, rows = read_csv(out)
        assert header == ["t", "p_sink", "pop_0", "pop_1", "pop_2"]
        adjacency = np.array([[0, 1], [1, 0]])
        expected = classical_populations(adjacency, 1.0, 1, 0, rows[:, 0])
        np.testing.assert_allclose(rows[:, 2:], expected, atol=1e-6)

    def test_p_sink_column_monotone(self, tmp_path, small_maze):
        out = tmp_path / "traj.csv"
        run_cli("qsw-run", "--maze", small_maze, "--p", 0.8, "--dt", 0.01, "--t-final", 4.0, "-o", out)
        _, rows = read_csv(out)
        assert np.all(np.diff(rows[:, 1]) >= -1e-9)

    def test_out_of_range_p_exits_2(self, tmp_path, small_maze):
        result = run_cli("qsw-run", "--maze", small_maze, "--p", 1.5, "-o", tmp_path / "t.csv")
        assert result.returncode == 2

    def test_missing_maze_exits_2(self, tmp_path):
        result = run_cli("qsw-run", "--maze", tmp_path / "nope.json", "--p", 0.5, "-o", tmp_path / "t.csv")
        assert result.returncode == 2

    def test_unstable_step_exits_3(self, tmp_path, small_maze):
        for args, step in (
            (("qsw-run", "--p", 0.0, "--dt", 1.5, "--t-final", 30.0, "-o", "t.csv"), None),
            # pass the per-step trace check and fail positivity at the first step,
            # whether a span is 10 steps (qsw-run snapshots) or 100 (an action interval)
            (("qsw-run", *UNSTABLE_RL_FLAGS[:6], "-o", "t.csv"), 1),
            (("rl-train", *UNSTABLE_RL_FLAGS, "--episodes", 2, "--seed", 0, "-o", "c.csv"), 1),
            (("rl-eval", *UNSTABLE_RL_FLAGS), 1),
        ):
            result = run_cli(args[0], "--maze", small_maze, *args[1:], cwd=tmp_path)
            assert result.returncode == 3, args[0]
            assert "integration failure" in result.stderr, args[0]
            if step is not None:
                assert f"invalid state at step {step}:" in result.stderr, args[0]

    def test_states_json_export(self, tmp_path, two_node_maze):
        out, states = tmp_path / "t.csv", tmp_path / "states.json"
        run_cli(
            "qsw-run", "--maze", two_node_maze, "--p", 0.5, "--dt", 0.01, "--t-final", 1.0,
            "--sample-every", 50, "-o", out, "--states-out", states,
        )
        doc = json.loads(states.read_text())
        assert len(doc["states"]) == len(doc["times"])
        first = np.array(doc["states"][0])
        assert first.shape == (3, 3, 2)
        assert first[0, 0, 0] == 1.0


RL_FLAGS = (
    "--p", 0.8, "--gamma", 1.0, "--dt", 0.05, "--t-final", 2.0,
    "--action-period", 0.5, "--max-actions", 2,
)


class TestRlCommands:
    def test_train_deterministic(self, tmp_path, small_maze):
        curves, policies = [], []
        for name in ("a", "b"):
            curve = tmp_path / f"curve_{name}.csv"
            policy = tmp_path / f"policy_{name}.json"
            result = run_cli(
                "rl-train", "--maze", small_maze, *RL_FLAGS,
                "--episodes", 5, "--seed", 3, "-o", curve, "--policy-out", policy,
            )
            assert result.returncode == 0
            curves.append(curve.read_bytes())
            policies.append(policy.read_bytes())
        assert curves[0] == curves[1]
        assert policies[0] == policies[1]

    def test_curve_header(self, tmp_path, small_maze):
        curve = tmp_path / "curve.csv"
        run_cli("rl-train", "--maze", small_maze, *RL_FLAGS, "--episodes", 3, "--seed", 0, "-o", curve)
        header, rows = read_csv(curve)
        assert header == ["episode", "reward", "running_avg_100"]
        assert rows.shape == (3, 3)

    def test_eval_noop_matches_qsw_run(self, tmp_path, small_maze):
        traj = tmp_path / "traj.csv"
        run_cli(
            "qsw-run", "--maze", small_maze, "--p", 0.8, "--gamma", 1.0,
            "--dt", 0.05, "--t-final", 2.0, "-o", traj,
        )
        _, rows = read_csv(traj)
        final_p_sink = rows[-1, 1]
        result = run_cli("rl-eval", "--maze", small_maze, *RL_FLAGS)
        assert result.returncode == 0
        values = dict(line.split("=") for line in result.stdout.strip().splitlines())
        assert float(values["baseline_p_sink"]) == pytest.approx(final_p_sink, abs=1e-12)
        assert float(values["policy_p_sink"]) == pytest.approx(final_p_sink, abs=1e-12)

    def test_eval_without_policy_integrates_one_episode(self, small_maze, monkeypatch, capsys):
        propagate, evaluate = rlmaze.propagate, rlmaze.evaluate
        steps, per_rollout = [0], []

        def counting_propagate(rho, model, n_steps, *args, **kwargs):
            steps[0] += n_steps
            return propagate(rho, model, n_steps, *args, **kwargs)

        def counting_evaluate(env, policy):
            before = steps[0]
            value = evaluate(env, policy)
            per_rollout.append(steps[0] - before)
            return value

        monkeypatch.setattr(rlmaze, "propagate", counting_propagate)
        monkeypatch.setattr(rlmaze, "evaluate", counting_evaluate)
        assert cli.main(["rl-eval", "--maze", str(small_maze), *map(str, RL_FLAGS)]) == 0
        assert per_rollout == [40, 0]  # t_final / dt, then all memo hits
        values = dict(line.split("=") for line in capsys.readouterr().out.split())
        assert values["baseline_p_sink"] == values["policy_p_sink"]

    def test_eval_report_deterministic(self, tmp_path, small_maze):
        reports = []
        for name in ("a", "b"):
            report = tmp_path / f"report_{name}.txt"
            run_cli("rl-eval", "--maze", small_maze, *RL_FLAGS, "-o", report)
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_trained_policy_loads_for_eval(self, tmp_path, small_maze):
        curve, policy = tmp_path / "curve.csv", tmp_path / "policy.json"
        run_cli(
            "rl-train", "--maze", small_maze, *RL_FLAGS,
            "--episodes", 5, "--seed", 3, "-o", curve, "--policy-out", policy,
        )
        result = run_cli("rl-eval", "--maze", small_maze, *RL_FLAGS, "--policy", policy)
        assert result.returncode == 0
        assert "policy_p_sink=" in result.stdout


class TestEmbedCommands:
    def test_train_log_and_model(self, tmp_path):
        log, model = tmp_path / "log.csv", tmp_path / "model.json"
        result = run_cli(
            "embed-train", "--n-per-class", 4, "--data-seed", 1, "--epochs", 5,
            "--seed", 2, "-o", log, "--model-out", model,
        )
        assert result.returncode == 0
        header, rows = read_csv(log)
        assert header == ["epoch", "loss", "theta1", "theta2", "theta3"]
        assert rows.shape == (5, 5)
        doc = json.loads(model.read_text())
        assert len(doc["thetas"]) == 3

    def test_train_deterministic(self, tmp_path):
        logs = []
        for name in ("a", "b"):
            log = tmp_path / f"log_{name}.csv"
            run_cli("embed-train", "--n-per-class", 4, "--data-seed", 1, "--epochs", 5, "--seed", 2, "-o", log)
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    def test_gram_exact_diagonal(self, tmp_path):
        out = tmp_path / "gram.csv"
        result = run_cli("embed-gram", "--n-per-class", 5, "--data-seed", 3, "-o", out)
        assert result.returncode == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert matrix.shape == (10, 10)
        np.testing.assert_array_equal(np.diag(matrix), np.ones(10))

    def test_gram_sampled_quantized_and_deterministic(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"gram_{name}.csv"
            result = run_cli(
                "embed-gram", "--n-per-class", 5, "--data-seed", 3,
                "--mode", "sampled", "--shots", 100, "--seed", 11, "-o", out,
            )
            assert result.returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        lines = [l for l in outputs[0].decode().splitlines() if not l.startswith("#")]
        matrix = np.array([[float(v) for v in line.split(",")] for line in lines])
        np.testing.assert_allclose(np.round(matrix * 50) / 50, matrix, atol=1e-12)

    def test_gram_sampled_without_seed_exits_2(self, tmp_path):
        result = run_cli(
            "embed-gram", "--n-per-class", 3, "--data-seed", 0,
            "--mode", "sampled", "-o", tmp_path / "g.csv",
        )
        assert result.returncode == 2

    def test_gram_sampled_zero_shots_exits_2(self, tmp_path):
        out = tmp_path / "g.csv"
        result = run_cli(
            "embed-gram", "--n-per-class", 3, "--data-seed", 0,
            "--mode", "sampled", "--shots", 0, "--seed", 1, "-o", out,
        )
        assert result.returncode == 2
        assert "shots" in result.stderr
        assert not out.exists()

    def test_dataset_file_round_trip(self, tmp_path):
        data = tmp_path / "data.json"
        log = tmp_path / "log.csv"
        run_cli(
            "embed-train", "--n-per-class", 3, "--data-seed", 5, "--epochs", 2,
            "--seed", 0, "-o", log, "--dataset-out", data,
        )
        log2 = tmp_path / "log2.csv"
        result = run_cli("embed-train", "--dataset", data, "--epochs", 2, "--seed", 0, "-o", log2)
        assert result.returncode == 0
        strip = lambda b: b"\n".join(l for l in b.splitlines() if not l.startswith(b"#"))
        assert strip(log.read_bytes()) == strip(log2.read_bytes())


class TestMalformedInputFiles:
    def check_exit_2(self, result, field):
        assert result.returncode == 2
        assert field in result.stderr
        assert "Traceback" not in result.stderr

    def test_policy_without_policy_field(self, tmp_path, small_maze):
        bad = tmp_path / "policy.json"
        bad.write_text('{"config": {}}')
        result = run_cli("rl-eval", "--maze", small_maze, *RL_FLAGS, "--policy", bad)
        self.check_exit_2(result, "policy:")

    def test_policy_from_another_run(self, tmp_path, small_maze):
        policy = tmp_path / "policy.json"
        result = run_cli(
            "rl-train", "--maze", small_maze, *RL_FLAGS,
            "--episodes", 2, "--seed", 0, "-o", tmp_path / "curve.csv", "--policy-out", policy,
        )
        assert result.returncode == 0
        big_maze = tmp_path / "maze4.json"
        assert run_cli("maze-gen", "--width", 4, "--height", 4, "--seed", 2, "-o", big_maze).returncode == 0
        result = run_cli("rl-eval", "--maze", big_maze, *RL_FLAGS, "--policy", policy)
        self.check_exit_2(result, "policy['0|")
        assert result.stdout == ""
        result = run_cli("rl-eval", "--maze", small_maze, "--p", 0.7, *RL_FLAGS[2:], "--policy", policy)
        self.check_exit_2(result, "config.p: policy was trained with 0.8, this run uses 0.7")

    def test_policy_without_run_config(self, tmp_path, small_maze):
        policy = tmp_path / "policy.json"
        result = run_cli(
            "rl-train", "--maze", small_maze, *RL_FLAGS,
            "--episodes", 2, "--seed", 0, "-o", tmp_path / "curve.csv", "--policy-out", policy,
        )
        assert result.returncode == 0
        doc = json.loads(policy.read_text())
        partial = {k: v for k, v in doc["config"].items() if k != "max_actions"}
        for config, field in (({}, "config.p: missing"), (partial, "config.max_actions: missing")):
            policy.write_text(json.dumps(doc | {"config": config}))
            result = run_cli("rl-eval", "--maze", small_maze, *RL_FLAGS, "--policy", policy)
            self.check_exit_2(result, field)
            assert result.stdout == ""

    def test_model_without_thetas(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text('{"config": {}}')
        result = run_cli("embed-gram", "--n-per-class", 3, "--model", bad, "-o", tmp_path / "g.csv")
        self.check_exit_2(result, "thetas:")

    def test_dataset_entry_with_null_x(self, tmp_path):
        bad = tmp_path / "data.json"
        bad.write_text('[{"x": null, "label": "A"}, {"x": 0.5, "label": "B"}]')
        result = run_cli("embed-gram", "--dataset", bad, "-o", tmp_path / "g.csv")
        self.check_exit_2(result, "entry 0: x")

    def test_dataset_entry_with_x_too_large_for_a_float(self, tmp_path):
        bad = tmp_path / "data.json"
        bad.write_text('[{"x": 0.5, "label": "A"}, {"x": 1' + "0" * 400 + ', "label": "B"}]')
        result = run_cli("embed-gram", "--dataset", bad, "-o", tmp_path / "g.csv")
        self.check_exit_2(result, "entry 1: x is too large for a float")

    def test_model_with_angle_too_large_for_a_float(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text('{"thetas": [0.1, 1' + "0" * 400 + ', 0.3]}')
        result = run_cli("embed-gram", "--n-per-class", 3, "--model", bad, "-o", tmp_path / "g.csv")
        self.check_exit_2(result, "thetas: angle 1 is too large for a float")


class TestTopLevel:
    def test_no_command_exits_2(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_command_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2
