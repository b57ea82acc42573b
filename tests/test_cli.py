import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmlkit import cli, dynamics, embedding, rlmaze
from qmlkit.maze import deserialize, generate_perfect_maze, serialize

from oracles import classical_populations

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None):
    """``cli.main`` on ``args``, in-process and in ``cwd``: its exit code (an argparse exit's too) and captured output."""
    out, err = io.StringIO(), io.StringIO()
    start = os.getcwd()
    try:
        os.chdir(cwd or start)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in args])
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(start)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args, module="qmlkit"):
    """``python -m <module>`` on ``args`` in a fresh interpreter: for checks on the process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", module, *map(str, args)], capture_output=True, text=True, env=env)


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
        assert len(maze.edges) == 35

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

    def test_gamma_whose_sink_rate_overflows_exits_2(self, tmp_path, small_maze):
        # 2 * 1e308 is inf: the run is refused before any work, not failed as an integration
        out = tmp_path / "t.csv"
        result = run_cli("qsw-run", "--maze", small_maze, "--p", 0.8, "--gamma", "1e308", "--dt", 0.1, "--t-final", 1.0, "-o", out)
        assert result.returncode == 2
        assert result.stderr == "error: gamma=1e+308 is too large: its sink rate 2 * gamma is not finite\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv",
        [["qsw-run", "-o", "t.csv"], ["rl-eval", "--action-period=1e200", "--max-actions", "1"]],
        ids=["qsw-run", "rl-eval"],
    )
    def test_step_that_overflows_exits_3_without_warnings(self, argv, tmp_path, small_maze):
        # dt times the norm bound is finite, but the first RK4 step overflows
        flags = ["--maze", small_maze, "--p", 0.8, "--dt=1e200", "--t-final=1e200"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(*argv, *flags, cwd=tmp_path)
        assert result.returncode == 3
        assert result.stderr == "integration failure: non-finite state at step 1, t=1e+200, dt=1e+200; try a smaller --dt\n"
        assert [str(w.message) for w in caught] == []

    def test_failure_reports_same_step_time_and_dt(self, tmp_path, small_maze):
        # seed-2 3x3 maze, p = 0, dt = 0.1: the state after step 1 fails positivity
        line = re.compile(r"invalid state at step (\d+): .*, t=(\S+), dt=(\S+); try a smaller --dt$")
        reports = {}
        for args in (
            ("qsw-run", *UNSTABLE_RL_FLAGS[:6], "-o", "t.csv"),
            ("rl-train", *UNSTABLE_RL_FLAGS, "--episodes", 2, "--seed", 0, "-o", "c.csv"),
            ("rl-eval", *UNSTABLE_RL_FLAGS),
        ):
            result = run_cli(args[0], "--maze", small_maze, *args[1:], cwd=tmp_path)
            assert result.returncode == 3, args[0]
            match = line.search(result.stderr.strip())
            assert match, result.stderr
            reports[args[0]] = match.groups()
        assert set(reports.values()) == {("1", "0.1", "0.1")}, reports

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--discount", "nan", "discount must be finite"),
            ("--discount", "1.5", "discount must lie in [0, 1], got 1.5"),
            ("--epsilon-start", "2", "epsilon_start must lie in [0, 1], got 2.0"),
            ("--learning-rate", "-1", "learning_rate must lie in (0, 1], got -1.0"),
            ("--learning-rate", "inf", "learning_rate must be finite"),
        ],
    )
    def test_train_bad_config_names_the_field(self, flag, value, message, tmp_path, small_maze, capsys):
        curve, policy = tmp_path / "curve.csv", tmp_path / "policy.json"
        argv = ["rl-train", "--maze", str(small_maze), *map(str, RL_FLAGS), "--episodes", "2", "--seed", "0"]
        assert cli.main([*argv, flag, value, "-o", str(curve), "--policy-out", str(policy)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not curve.exists() and not policy.exists()

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

    @pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--shots", "7")])
    def test_gram_exact_rejects_sampling_flag(self, flag, value, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert cli.main(["embed-gram", "--n-per-class", "2", flag, value, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} applies only to --mode sampled\n"
        assert not out.exists()

    def test_gram_sampled_defaults_to_100_shots(self, tmp_path):
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        argv = ["embed-gram", "--n-per-class", "3", "--mode", "sampled", "--seed", "4"]
        assert cli.main([*argv, "-o", str(default)]) == 0
        assert cli.main([*argv, "--shots", "100", "-o", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()
        assert " shots=100 " in default.read_text().splitlines()[0]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lr", "nan"], "learning_rate must be finite"),
            (["--lr", "inf"], "learning_rate must be finite"),
            (["--epochs", "0"], "epochs must be >= 1, got 0"),
        ],
    )
    def test_train_bad_config_names_the_field(self, flags, message, tmp_path, capsys):
        log = tmp_path / "log.csv"
        assert cli.main(["embed-train", "--n-per-class", "2", "--seed", "0", *flags, "-o", str(log)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not log.exists()

    def test_parser_reuse_carries_no_value_over(self, tmp_path, capsys):
        sampled, exact = tmp_path / "sampled.csv", tmp_path / "exact.csv"
        assert cli.main(["embed-gram", "--n-per-class", "2", "--seed", "5", "--mode", "sampled", "-o", str(sampled)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["embed-gram", "--mode", "neither", "-o", str(exact)])
        assert exc.value.code == 2
        assert cli.main(["embed-gram", "--n-per-class", "2", "-o", str(exact)]) == 0
        assert cli.build_parser() is cli.build_parser()
        assert "seed=5 shots=100" in sampled.read_text().splitlines()[0]
        assert "mode=exact" in exact.read_text().splitlines()[0]
        assert "seed=n/a shots=n/a" in exact.read_text().splitlines()[0]
        cli.build_parser.cache_clear()  # the parser a new process would build
        result = run_cli("embed-gram", "--n-per-class", 2, "-o", tmp_path / "fresh.csv")
        assert result.returncode == 0
        assert exact.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("embed-gram --dataset data.json --n-per-class 50 --data-seed 9", "--n-per-class does not apply with --dataset"),
            ("embed-gram --dataset data.json --data-seed 9", "--data-seed does not apply with --dataset"),
            ("embed-gram --model model.json --thetas 1 2 3", "--thetas does not apply with --model"),
            ("embed-train --seed 0 --dataset data.json --n-per-class 50", "--n-per-class does not apply with --dataset"),
        ],
        ids=["gram-n-per-class", "gram-data-seed", "gram-thetas", "train-n-per-class"],
    )
    def test_flags_a_file_overrides_are_refused(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main([
            "embed-train", "--n-per-class", "2", "--epochs", "1", "--seed", "0", "-o", "log.csv",
            "--model-out", "model.json", "--dataset-out", "data.json",
        ]) == 0
        assert cli.main([*argv.split(), "-o", "out.csv"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

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

    @pytest.mark.parametrize(
        "argv",
        [["qsw-run", "-o", "t.csv"], ["rl-train", "--episodes", "1", "--seed", "0", "-o", "c.csv"], ["rl-eval"]],
        ids=["qsw-run", "rl-train", "rl-eval"],
    )
    def test_grid_too_large_to_model_names_its_size(self, argv, tmp_path, monkeypatch, capsys):
        # 10**10 cells: numpy refuses the (N+1)^2 generator outright, nothing is overcommitted
        monkeypatch.chdir(tmp_path)
        Path("huge.json").write_text(
            '{"width": 100000, "height": 100000, "entrance": 0, "exit": 1, "seed": 0, "edges": [[0, 1]]}'
        )
        assert cli.main([*argv, "--maze", "huge.json", "--p", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: maze 100000x100000 is too large: its generator needs ")
        assert err.endswith(" bytes\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "huge.json"]

    @pytest.mark.parametrize(
        "argv",
        [["qsw-run", "-o", "t.csv"], ["rl-train", "--episodes", "1", "--seed", "0", "-o", "c.csv"], ["rl-eval"]],
        ids=["qsw-run", "rl-train", "rl-eval"],
    )
    def test_horizon_too_long_to_record_names_t_final_dt_and_bytes(self, argv, tmp_path, small_maze, monkeypatch, capsys):
        # 10**15 steps: no 64-bit address space holds their 8 PB per-step record
        monkeypatch.chdir(tmp_path)
        flags = ["--maze", str(small_maze), "--p", "0.8", "--dt", "0.1", "--t-final", "1e14"]
        assert cli.main([*argv, *flags]) == 2
        err = capsys.readouterr().err
        assert err == "error: t_final=100000000000000.0 is too long for dt=0.1: its per-step record needs 8000000000000008 bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [small_maze.name]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "rl-train --maze {maze} --p 0.8 --dt 0.1 --t-final 1 --action-period 0.5 --max-actions 2 --seed 0 --episodes 100000000000000",
                "episodes=100000000000000 is too many: their per-episode record needs 800000000000000 bytes",
            ),
            ("embed-train --seed 0 --epochs 10000000000000", "epochs=10000000000000 is too many: their record needs 320000000000000 bytes"),
            ("embed-train --seed 0 --n-per-class 100000000000000", "n_per_class=100000000000000 is too many: its points need 1600000000000000 bytes"),
            ("maze-gen --width 100000 --height 100000 --seed 0", "maze 100000x100000 is too large: its generator needs 1600000000320000000016 bytes"),
        ],
        ids=["rl-train-episodes", "embed-train-epochs", "embed-train-n-per-class", "maze-gen"],
    )
    def test_count_too_large_to_record_is_refused_before_any_work(self, argv, message, tmp_path, small_maze, monkeypatch, capsys):
        # each record is larger than a 64-bit address space, so none can be mapped and then filled
        monkeypatch.chdir(tmp_path)
        for owner, name in ((rlmaze.MazeEnv, "step"), (embedding, "_loss_and_gradient"), (cli, "generate_perfect_maze")):
            monkeypatch.setattr(owner, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        assert cli.main([*argv.format(maze=small_maze).split(), "-o", "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [small_maze.name]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("qsw-run --p 0.8 --maze {bad}", "--maze"),
            ("rl-eval --p 0.8 --dt 0.1 --t-final 1 --action-period 0.5 --max-actions 2 --maze {maze} --policy {bad}", "--policy"),
            ("embed-gram --model {bad}", "--model"),
            ("embed-train --seed 0 --dataset {bad}", "--dataset"),
        ],
        ids=["maze", "policy", "model", "dataset"],
    )
    def test_file_that_is_not_json_names_its_flag_and_path(self, argv, flag, tmp_path, small_maze, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{\n'width': 3}")
        assert cli.main([*argv.format(maze=small_maze, bad=bad).split(), "-o", "out"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} {str(bad)!r} is not valid JSON: Expecting property name enclosed in double quotes: line 2 column 1 (char 2)\n"

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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["maze-gen", "--width", "3", "--height", "3", "--seed", "-1"], "--seed"),
            (["rl-train", "--maze", "m.json", "--p", "0.5", "--episodes", "1", "--seed", "-1"], "--seed"),
            (["embed-train", "--seed", "-1"], "--seed"),
            (["embed-train", "--seed", "0", "--data-seed", "-1"], "--data-seed"),
            (["embed-gram", "--mode", "sampled", "--seed", "-1"], "--seed"),
            (["embed-gram", "--data-seed", "x"], "--data-seed"),
        ],
        ids=["maze-gen", "rl-train", "embed-train", "embed-train-data", "embed-gram", "embed-gram-data"],
    )
    def test_bad_seed_rejected_at_parse_time(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "-o", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_shots_above_int64_exits_2(self, tmp_path, capsys):
        argv = ["embed-gram", "--mode", "sampled", "--shots", str(10**20), "--seed", "1", "-o", str(tmp_path / "g.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: shots must lie in [1, ")

    def test_directory_as_input_path_exits_2(self, tmp_path, capsys):
        argv = ["embed-gram", "--dataset", str(tmp_path), "-o", str(tmp_path / "g.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --dataset {str(tmp_path)!r}: Is a directory\n"

    @pytest.mark.parametrize(
        "argv",
        [["maze-gen", "--width", "3", "--height", "3", "--seed", "2"], ["embed-gram", "--n-per-class", "3"]],
        ids=["maze-gen", "embed-gram"],
    )
    def test_directory_as_output_path_exits_2(self, argv, tmp_path, capsys):
        assert cli.main([*argv, "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --output {str(tmp_path)!r}: Is a directory\n"

    def test_missing_input_file_names_its_flag(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert cli.main(["qsw-run", "--maze", missing, "--p", "0.5", "-o", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: --maze {missing!r}: No such file or directory\n"


DEV_FULL = "/dev/full"  # a device whose writes fail with ENOSPC
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason=f"no {DEV_FULL} on this system")
RL_WALK = ("--maze", "maze3.json", *RL_FLAGS)  # the small_maze fixture's file, run from tmp_path
RL_WALK_TEXT = " ".join(map(str, RL_WALK))


class TestFiles:
    """The files the CLI reads and writes: the line that opens each text output, and a file that fails."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ("qsw-run", "--maze", "maze3.json", "--p", 0.5, "--t-final", 1, "-o", "out"),
                "# config: dt=0.005 gamma=1.0 maze=maze3.json p=0.5 sample_every=10 t_final=1.0",
            ),
            (
                ("rl-train", *RL_WALK, "--episodes", 2, "--seed", 3, "-o", "out"),
                "# config: action_period=0.5 discount=1.0 dt=0.05 episodes=2 epsilon_end=0.05 epsilon_start=1.0"
                " gamma=1.0 learning_rate=0.1 max_actions=2 maze=maze3.json p=0.8 seed=3 t_final=2.0",
            ),
            (
                ("rl-eval", *RL_WALK, "-o", "out"),
                "# config: action_period=0.5 dt=0.05 gamma=1.0 max_actions=2 maze=maze3.json p=0.8 policy= t_final=2.0",
            ),
            (
                ("embed-train", "--n-per-class", 2, "--epochs", 2, "--seed", 0, "-o", "out"),
                "# config: dataset=synthetic(n_per_class=2, data_seed=0) epochs=2 lr=0.1 seed=0",
            ),
            (
                ("embed-gram", "--n-per-class", 2, "-o", "out"),
                "# config: dataset=synthetic(n_per_class=2, data_seed=0) mode=exact seed=n/a shots=n/a thetas=0.0,0.0,0.0",
            ),
            (
                ("embed-gram", "--data-seed", 4, "--thetas", 0.5, -1.25, 0, "--mode", "sampled", "--shots", 7, "--seed", 1, "-o", "out"),
                "# config: dataset=synthetic(n_per_class=5, data_seed=4) mode=sampled seed=1 shots=7 thetas=0.5,-1.25,0.0",
            ),
        ],
        ids=["qsw-run", "rl-train", "rl-eval", "embed-train", "embed-gram-exact", "embed-gram-sampled"],
    )
    def test_text_output_opens_with_its_config_line(self, argv, line, tmp_path, small_maze):
        result = run_cli(*argv, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out").read_bytes().startswith(line.encode("utf-8") + b"\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("rl-eval {rl} --policy {path}", "--policy"),
            ("embed-gram --dataset {path} -o out", "--dataset"),
            ("embed-gram --model {path} -o out", "--model"),
        ],
        ids=["policy", "dataset", "model"],
    )
    def test_missing_input_names_its_flag(self, argv, flag, tmp_path, small_maze, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = str(tmp_path / "missing.json")
        assert cli.main(argv.format(path=path, rl=RL_WALK_TEXT).split()) == 2
        assert capsys.readouterr().err == f"error: {flag} {path!r}: No such file or directory\n"

    @needs_dev_full
    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("maze-gen --width 3 --height 3 --seed 2 -o {full}", "--output"),
            ("qsw-run --maze maze3.json --p 0.5 --t-final 1 -o {full}", "--output"),
            ("qsw-run --maze maze3.json --p 0.5 --t-final 1 -o out --states-out {full}", "--states-out"),
            ("rl-train {rl} --episodes 2 --seed 3 -o {full}", "--output"),
            ("rl-train {rl} --episodes 2 --seed 3 -o out --policy-out {full}", "--policy-out"),
            ("rl-eval {rl} -o {full}", "--output"),
            ("embed-train --n-per-class 2 --epochs 2 --seed 0 -o {full}", "--output"),
            ("embed-train --n-per-class 2 --epochs 2 --seed 0 -o out --model-out {full}", "--model-out"),
            ("embed-train --n-per-class 2 --epochs 2 --seed 0 -o out --dataset-out {full}", "--dataset-out"),
            ("embed-gram --n-per-class 2 -o {full}", "--output"),
        ],
        ids=[
            "maze-gen", "qsw-run", "states-out", "rl-train", "policy-out", "rl-eval",
            "embed-train", "model-out", "dataset-out", "embed-gram",
        ],
    )
    def test_output_that_cannot_be_written_names_its_flag(self, argv, flag, tmp_path, small_maze, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv.format(full=DEV_FULL, rl=RL_WALK_TEXT).split()) == 2
        assert capsys.readouterr().err == f"error: {flag} {DEV_FULL!r}: No space left on device\n"


def record_defaults(record) -> dict:
    """The fields of a dataclass record that have a default, with that default."""
    return {f.name: f.default for f in dataclasses.fields(record) if f.default is not dataclasses.MISSING}


class TestDefaults:
    WALK = ["--maze", "m.json", "--p", "0.5"]

    @pytest.mark.parametrize(
        "argv",
        [["qsw-run", *WALK, "-o", "t.csv"], ["rl-train", *WALK, "--episodes", "1", "--seed", "0", "-o", "c.csv"], ["rl-eval", *WALK]],
        ids=["qsw-run", "rl-train", "rl-eval"],
    )
    def test_walk_flags_default_to_qswparams(self, argv):
        args = cli.build_parser().parse_args(argv)
        defaults = record_defaults(dynamics.QSWParams)
        assert {name: getattr(args, name) for name in defaults} == defaults
        assert list(defaults) == ["gamma", "dt", "t_final"]

    def test_sample_every_defaults_to_evolves(self):
        args = cli.build_parser().parse_args(["qsw-run", *self.WALK, "-o", "t.csv"])
        assert args.sample_every == dynamics.SAMPLE_EVERY == inspect.signature(dynamics.evolve).parameters["sample_every"].default

    def test_learning_flags_default_to_qlearningconfig(self):
        args = cli.build_parser().parse_args(["rl-train", *self.WALK, "--episodes", "1", "--seed", "0", "-o", "c.csv"])
        defaults = record_defaults(rlmaze.QLearningConfig)
        assert {name: getattr(args, name) for name in defaults} == defaults
        assert list(defaults) == ["learning_rate", "discount", "epsilon_start", "epsilon_end"]

    def test_embed_train_flags_default_to_trainconfig(self):
        args = cli.build_parser().parse_args(["embed-train", "--seed", "3", "-o", "log.csv"])
        defaults = record_defaults(embedding.TrainConfig)
        assert (args.lr, args.epochs) == (defaults["learning_rate"], defaults["epochs"])

    def test_shots_default_to_sampled_shots(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert cli.main(["embed-gram", "--n-per-class", "2", "--mode", "sampled", "--seed", "1", "-o", str(out)]) == 0
        assert f" shots={embedding.SAMPLED_SHOTS} " in out.read_text().splitlines()[0]
        with pytest.raises(SystemExit):
            cli.main(["embed-gram", "--help"])
        assert f"(default {embedding.SAMPLED_SHOTS})" in " ".join(capsys.readouterr().out.split())

    def test_help_prints_the_records_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["qsw-run", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())  # as if argparse wrapped no line
        params = dynamics.QSWParams
        for text in (f"sink rate (default {params.gamma})", f"step (default {params.dt})", f"horizon (default {params.t_final})"):
            assert text in help_text


class TestProcess:
    """The process itself: the module entry points, exit codes and what reaches stderr."""

    @pytest.mark.parametrize("module", ["qmlkit", "qmlkit.cli"])
    def test_module_entry_point_runs_main(self, module, tmp_path):
        out = tmp_path / "maze.json"
        result = run_process("maze-gen", "--width", 3, "--height", 3, "--seed", 2, "-o", out, module=module)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert out.read_text() == serialize(generate_perfect_maze(3, 3, seed=2))

    def test_refusals_exit_with_one_line_and_no_traceback(self, tmp_path, small_maze):
        bad = tmp_path / "bad.json"
        bad.write_text('{"width": [3], "height": 1, "entrance": 0, "exit": 2, "seed": 0, "edges": []}')
        cases = (
            (("qsw-run", "--maze", bad, "--p", 0.5, "-o", tmp_path / "t.csv"), 2, "error: width: expected an integer"),
            (("qsw-run", "--maze", small_maze, *UNSTABLE_RL_FLAGS[:6], "-o", tmp_path / "t.csv"), 3, "integration failure: invalid state at step 1: "),
        )
        if os.path.exists(DEV_FULL):
            cases += ((("qsw-run", "--maze", small_maze, "--p", 0.5, "--t-final", 1, "-o", DEV_FULL), 2, f"error: --output {DEV_FULL!r}: No space left on device\n"),)
        for args, code, start in cases:
            result = run_process(*args)
            assert result.returncode == code, result.stderr
            assert result.stderr.startswith(start) and result.stderr.count("\n") == 1, result.stderr
            assert "Traceback" not in result.stderr
