"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The physics criteria are property- and oracle-based: invariant
conservation on random problems, agreement with independently coded
classical rate equations, consistency of the two escape-probability
definitions, demonstrated improvement of the trained agent over the
no-action baseline, and statistical calibration of the sampled
overlaps.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import qmlkit as q

from oracles import classical_populations

SRC = Path(__file__).resolve().parents[1] / "src"


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# --- shared physical-invariant sweep (criteria 1 and 3) ---------------------

SWEEP_P_VALUES = (0.0, 0.5, 0.8, 1.0)


@pytest.fixture(scope="module")
def invariant_sweep():
    """20 random mazes (2x2..6x6), random p, evolved to t = 10."""
    rng = np.random.default_rng(20260808)
    runs = []
    started = time.perf_counter()
    for k in range(20):
        width = int(rng.integers(2, 7))
        height = int(rng.integers(2, 7))
        maze = q.generate_perfect_maze(width, height, seed=int(rng.integers(1 << 16)))
        p = SWEEP_P_VALUES[int(rng.integers(len(SWEEP_P_VALUES)))]
        params = q.QSWParams(p=p, gamma=1.0, dt=0.005, t_final=10.0)
        model = q.build_model(maze, params)
        traj = q.evolve(q.initial_state(model), model, sample_every=10)
        runs.append((maze, model, traj))
    return runs, time.perf_counter() - started


def test_criterion_01_physical_invariants(invariant_sweep):
    runs, elapsed = invariant_sweep
    worst_trace = worst_herm = 0.0
    worst_eig = np.inf
    monotone = True
    for _, _, traj in runs:
        for state in traj.states:
            m = state.matrix
            worst_trace = max(worst_trace, abs(m.trace().real - 1.0))
            worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(m)[0]))
        monotone &= bool(np.all(np.diff(traj.p_sink_series) >= -1e-9))
    ok = (
        worst_trace <= 1e-6
        and worst_herm <= 1e-8
        and worst_eig >= -1e-6
        and monotone
        and elapsed <= 120.0
    )
    report(
        1,
        ok,
        f"20 mazes to t=10: |trace-1|<={worst_trace:.2e}, herm<={worst_herm:.2e}, "
        f"min_eig>={worst_eig:.2e}, monotone={monotone}, {elapsed:.1f}s",
    )


def test_criterion_02_classical_limit_oracle():
    worst = 0.0
    for width, height in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for seed in (0, 1):
            maze = q.generate_perfect_maze(width, height, seed=seed)
            params = q.QSWParams(p=1.0, gamma=1.0, dt=0.005, t_final=10.0)
            model = q.build_model(maze, params)
            traj = q.evolve(q.initial_state(model), model, sample_every=20)
            expected = classical_populations(
                maze.adjacency, params.gamma, maze.exit, maze.entrance, traj.times
            )
            actual = np.array([s.populations for s in traj.states])
            worst = max(worst, float(np.max(np.abs(actual - expected))))
    ok = worst <= 1e-6
    report(2, ok, f"p=1 diagonals vs independent rate-equation ODE: max dev {worst:.2e}")


def test_criterion_03_escape_definition_consistency(invariant_sweep):
    runs, _ = invariant_sweep
    worst = 0.0
    for _, model, traj in runs:
        integral = q.p_sink_from_integral(traj, model)
        worst = max(worst, float(np.max(np.abs(integral - traj.p_sink_series))))
    ok = worst <= 1e-4
    report(3, ok, f"time-integral vs sink read-out on all 20 trajectories: max dev {worst:.2e}")


def test_criterion_04_closed_system_checks():
    maze = q.generate_perfect_maze(3, 3, seed=4)
    # coherent limit with the sink disabled: purity must be conserved
    params = q.QSWParams(p=0.0, gamma=1.0, dt=0.002, t_final=5.0)
    model = q.build_model(maze, params).without_sink()
    traj = q.evolve(q.initial_state(model), model, sample_every=100)
    purities = [s.purity() for s in traj.states]
    purity_drift = max(purities) - min(purities)
    # no sink transfer at any p: trace conserved tightly
    params = q.QSWParams(p=0.7, gamma=1.0, dt=0.005, t_final=5.0)
    model = q.build_model(maze, params).without_sink()
    traj = q.evolve(q.initial_state(model), model, sample_every=100)
    trace_drift = max(abs(s.matrix.trace().real - 1.0) for s in traj.states)
    ok = purity_drift <= 1e-8 and trace_drift <= 1e-8
    report(4, ok, f"purity drift {purity_drift:.2e} (p=0), trace drift {trace_drift:.2e} (no sink)")


# --- reinforcement-learning improvement (criteria 5 and 6) ------------------

RL_MAZE_SEED = 1
RL_PARAMS = q.QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0)
RL_ACTION_PERIOD = 10.0
RL_MAX_ACTIONS = 8
RL_EPISODES = 400
RL_TRAIN_SEED = 7


def _rl_env() -> q.MazeEnv:
    maze = q.generate_perfect_maze(6, 6, seed=RL_MAZE_SEED)
    return q.MazeEnv(maze, RL_PARAMS, RL_ACTION_PERIOD, RL_MAX_ACTIONS)


def test_criterion_05_trained_agent_beats_baseline():
    started = time.perf_counter()
    env = _rl_env()
    baseline = q.evaluate(env, q.Policy.noop())
    policy, curve = q.train(env, q.QLearningConfig(), RL_EPISODES, seed=RL_TRAIN_SEED)
    trained = q.evaluate(env, policy)
    elapsed = time.perf_counter() - started
    assert RL_EPISODES <= 20_000
    assert len(curve.rewards) == RL_EPISODES and curve.window == 100
    ok = trained >= 1.05 * baseline and elapsed <= 1800.0
    report(
        5,
        ok,
        f"6x6 maze, p=0.8, K=8, {RL_EPISODES} episodes: trained {trained:.6f} "
        f"vs baseline {baseline:.6f} ({trained / baseline:.2f}x), {elapsed:.0f}s",
    )


def test_criterion_06_noop_policy_is_the_baseline():
    env = _rl_env()
    record = q.run_episode(env, q.Policy.noop())
    model = q.build_model(env.base_maze, RL_PARAMS)
    traj = q.evolve(q.initial_state(model), model, sample_every=100)
    dev = abs(record.final_p_sink - traj.final_p_sink())
    ok = dev <= 1e-9
    report(6, ok, f"no-op episode vs standalone run: |diff| = {dev:.2e}")


# --- embedding classifier (criteria 7, 8, 9) ---------------------------------


def test_criterion_07_parameter_shift_gradients():
    from test_embedding import fd_gradient

    started = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        model = q.EmbeddingModel(tuple(rng.uniform(-np.pi, np.pi, 3)))
        labels = list(rng.choice(["A", "B"], size=6))
        labels[0], labels[1] = "A", "B"
        dataset = q.LabeledDataset1D(rng.uniform(-3, 3, 6), tuple(labels))
        dev = float(np.max(np.abs(q.gradient(model, dataset) - fd_gradient(model, dataset))))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(7, ok, f"parameter shift vs finite differences on 100 configs: max dev {worst:.2e}, {elapsed:.1f}s")


EMBED_DATA_SEED = 11
EMBED_VAL_SEED = 99
EMBED_TRAIN_SEED = 0


def test_criterion_08_embedding_separates_classes():
    started = time.perf_counter()
    train_ds = q.synth_dataset(20, seed=EMBED_DATA_SEED)
    val_ds = q.synth_dataset(5, seed=EMBED_VAL_SEED)  # 10 validation points
    config = q.TrainConfig(learning_rate=0.1, epochs=300, seed=EMBED_TRAIN_SEED)
    model, curve, _ = q.train_embedding(train_ds, config)
    final_loss = q.loss(model, train_ds)
    g = q.gram(val_ds, model).matrix
    labels = np.asarray(val_ds.labels)
    iu, ju = np.triu_indices(len(labels), k=1)
    same = labels[iu] == labels[ju]
    separation = float(g[iu[same], ju[same]].mean() - g[iu[~same], ju[~same]].mean())
    predictions = q.classify(val_ds.points, model, train_ds)
    accuracy = float(np.mean([p == t for p, t in zip(predictions, val_ds.labels)]))
    elapsed = time.perf_counter() - started
    ok = (
        separation >= 0.5
        and accuracy == 1.0
        and final_loss <= curve[0]
        and elapsed <= 120.0
    )
    report(
        8,
        ok,
        f"validation Gram separation {separation:.3f} (>=0.5), accuracy {accuracy:.0%}, "
        f"loss {curve[0]:.3f}->{final_loss:.3f}, {elapsed:.1f}s",
    )


def test_criterion_09_shot_noise_calibration():
    points = q.synth_dataset(5, seed=EMBED_VAL_SEED)
    model = q.EmbeddingModel((0.7, -1.1, 0.4))
    exact = q.gram(points, model).matrix
    shots = 100
    n = exact.shape[0]
    inside = total = 0
    for seed in range(50):
        sampled = q.gram(points, model, mode="sampled", shots=shots, seed=seed).matrix
        for i in range(n):
            for j in range(i, n):
                p0 = 0.5 * (1.0 + exact[i, j])
                lo = binom.ppf(0.005, shots, p0)
                hi = binom.ppf(0.995, shots, p0)
                est_lo = max(0.0, 2.0 * lo / shots - 1.0)
                est_hi = 2.0 * hi / shots - 1.0
                inside += est_lo <= sampled[i, j] <= est_hi
                total += 1
    fraction = inside / total
    ok = fraction >= 0.97
    report(9, ok, f"sampled entries inside exact 99% binomial intervals: {fraction:.1%} of {total}")


# --- CLI determinism (criterion 10) ------------------------------------------


def _run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "qmlkit.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_criterion_10_cli_determinism(tmp_path):
    maze6 = tmp_path / "maze6.json"
    maze3 = tmp_path / "maze3.json"
    first = _run_cli("maze-gen", "--width", 6, "--height", 6, "--seed", 1, "-o", maze6, cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    _run_cli("maze-gen", "--width", 3, "--height", 3, "--seed", 2, "-o", maze3, cwd=tmp_path)

    rl_flags = (
        "--p", 0.8, "--dt", 0.05, "--t-final", 2.0,
        "--action-period", 0.5, "--max-actions", 2,
    )
    commands = {
        "maze-gen": ("maze-gen", "--width", 6, "--height", 6, "--seed", 1, "-o", "OUT.json"),
        "qsw-run": ("qsw-run", "--maze", maze6, "--p", 0.8, "--dt", 0.05, "--t-final", 2.0, "-o", "OUT.csv"),
        "rl-train": (
            "rl-train", "--maze", maze3, *rl_flags,
            "--episodes", 5, "--seed", 3, "-o", "OUT.csv", "--policy-out", "OUT.policy.json",
        ),
        "rl-eval": ("rl-eval", "--maze", maze3, *rl_flags, "-o", "OUT.txt"),
        "embed-train": (
            "embed-train", "--n-per-class", 4, "--data-seed", 1, "--epochs", 5,
            "--seed", 2, "-o", "OUT.csv", "--model-out", "OUT.model.json",
        ),
        "embed-gram": (
            "embed-gram", "--n-per-class", 5, "--data-seed", 3,
            "--mode", "sampled", "--shots", 100, "--seed", 11, "-o", "OUT.csv",
        ),
    }
    all_identical = True
    details = []
    for name, template in commands.items():
        outputs = []
        for attempt in ("first", "second"):
            token = f"{name}.{attempt}"
            args = [str(a).replace("OUT", token) for a in template]
            result = _run_cli(*args, cwd=tmp_path)
            assert result.returncode == 0, f"{name}: {result.stderr}"
            blob = b"".join(
                path.read_bytes() for path in sorted(tmp_path.glob(f"{token}*"))
            )
            outputs.append(blob)
        identical = outputs[0] == outputs[1] and len(outputs[0]) > 0
        all_identical &= identical
        details.append(f"{name}:{'ok' if identical else 'DIFFERS'}")
    report(10, all_identical, "byte-identical reruns - " + ", ".join(details))
