import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit import rlmaze
from qmlkit.dynamics import IntegrationError, QSWParams, build_model, evolve, initial_state
from qmlkit.maze import degrees, generate_perfect_maze
from qmlkit.rlmaze import (
    Action,
    LearningCurve,
    MazeEnv,
    Policy,
    QLearningConfig,
    evaluate,
    run_episode,
    train,
    _running_average,
)
from qmlkit.states import DensityMatrix

PARAMS = QSWParams(p=0.5, gamma=1.0, dt=0.02, t_final=6.0)


@pytest.fixture
def env():
    maze = generate_perfect_maze(3, 3, seed=2)
    return MazeEnv(maze, PARAMS, action_period=1.0, max_actions=4)


class TestAction:
    def test_labels_round_trip(self):
        for action in (Action.noop(), Action.toggle(3, 4), Action.toggle(7, 4)):
            assert Action.from_label(action.label) == action

    def test_toggle_orders_pair(self):
        assert Action.toggle(5, 2).link == (2, 5)

    def test_self_toggle_rejected(self):
        with pytest.raises(ValueError):
            Action.toggle(3, 3)

    @pytest.mark.parametrize(
        "i, j, message",
        [(True, 2, "i: expected an integer"), (0, 1.0, "j: expected an integer"), ("0", 1, "i: expected an integer")],
        ids=["bool", "float", "str"],
    )
    def test_cells_that_are_not_integers_rejected(self, i, j, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Action.toggle(i, j)

    def test_numpy_cells_are_stored_as_int(self):
        link = Action.toggle(np.int64(5), np.uint8(2)).link
        assert link == (2, 5) and all(type(cell) is int for cell in link)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            Action.from_label("jump:1-2")


class TestEnvSetup:
    def test_action_space(self, env):
        assert env.action_space[0].is_noop
        assert len(env.action_space) == 1 + 12  # 3x3 grid has 12 adjacent pairs
        for action in env.action_space[1:]:
            i, j = action.link
            assert i < j

    def test_horizon_must_cover_actions(self):
        maze = generate_perfect_maze(3, 3, seed=0)
        with pytest.raises(ValueError):
            MazeEnv(maze, PARAMS, action_period=2.0, max_actions=4)  # 8 > 6

    def test_period_must_cover_a_step(self):
        maze = generate_perfect_maze(3, 3, seed=0)
        with pytest.raises(ValueError):
            MazeEnv(maze, PARAMS, action_period=0.001, max_actions=1)

    def test_period_must_be_whole_multiple_of_dt(self):
        maze = generate_perfect_maze(3, 3, seed=0)
        with pytest.raises(ValueError, match="action_period"):
            MazeEnv(maze, PARAMS, action_period=0.99, max_actions=4)  # dt = 0.02

    @pytest.mark.parametrize("max_actions", [2.5, True, 2.0], ids=["fraction", "bool", "whole-float"])
    def test_max_actions_must_be_an_int(self, max_actions):
        # refused before any episode: a fractional count would never end one
        maze = generate_perfect_maze(3, 3, seed=0)
        with pytest.raises(ValueError, match="^max_actions: expected an integer$"):
            MazeEnv(maze, PARAMS, action_period=1.0, max_actions=max_actions)


class TestReset:
    def test_populations_one_hot_at_entrance(self, env):
        state = env.reset()
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(state.matrix, expected)
        assert env.state_key()[0] == 0

    def test_adjacency_bits_match_base_maze(self, env):
        env.reset()
        assert env.state_key()[1] == env.base_maze.edges

    def test_same_seed_same_observation(self, env):
        a = env.reset()
        key = env.state_key()
        env.step(Action.toggle(*env.base_maze.edges[0]))
        b = env.reset()
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert env.state_key() == key


class TestStep:
    def test_noop_episode_equals_standalone_run(self, env):
        record = run_episode(env, Policy.noop())
        model = build_model(env.base_maze, PARAMS)
        traj = evolve(initial_state(model), model, sample_every=50)
        assert abs(record.final_p_sink - traj.final_p_sink()) <= 1e-9

    def test_rewards_telescope_to_final(self, env):
        record = run_episode(env, Policy.noop())
        assert abs(record.rewards.sum() - record.final_p_sink) <= 1e-9
        assert len(record.actions) == env.max_actions
        assert len(record.rewards) == env.max_actions

    def test_disconnecting_entrance_hurts(self, env):
        entrance_edges = [e for e in env.base_maze.edges if 0 in e]
        assert len(entrance_edges) == 1  # this maze's entrance is a leaf
        baseline = run_episode(env, Policy.noop()).final_p_sink
        env.reset()
        done = False
        first = True
        while not done:
            action = Action.toggle(*entrance_edges[0]) if first else Action.noop()
            first = False
            _, _, done = env.step(action)
        assert baseline > 0.0
        assert env.current_p_sink() < baseline

    def test_illegal_action_leaves_episode_unchanged(self, env):
        env.reset()
        key_before = env.state_key()
        with pytest.raises(ValueError):
            env.step(Action((0, 8)))  # not grid-adjacent
        assert env.state_key() == key_before
        _, _, done = env.step(Action.noop())  # episode still usable
        assert env.state_key() == (1, key_before[1]) and not done

    def test_done_after_max_actions(self, env):
        env.reset()
        for k in range(env.max_actions):
            _, _, done = env.step(Action.noop())
        assert done
        with pytest.raises(ValueError):
            env.step(Action.noop())

    def test_toggle_updates_state_key(self, env):
        env.reset()
        edge = env.base_maze.edges[0]
        env.step(Action.toggle(*edge))
        step_index, edges = env.state_key()
        assert step_index == 1
        assert edge not in edges

    def test_episode_determinism(self, env):
        policy, _ = train(env, QLearningConfig(), episodes=3, seed=6)
        first = run_episode(env, policy)
        # a fresh environment has an empty memo, so this episode is integrated again
        fresh = MazeEnv(env.base_maze, PARAMS, env.action_period, env.max_actions)
        second = run_episode(fresh, policy)
        assert first.actions == second.actions
        np.testing.assert_array_equal(first.rewards, second.rewards)
        assert first.final_p_sink == second.final_p_sink

    def test_observations_stay_physical_across_topology_changes(self, env):
        rng = np.random.default_rng(0)
        env.reset()
        done = False
        while not done:
            action = env.action_space[rng.integers(len(env.action_space))]
            state, _, done = env.step(action)
            assert state.populations.min() >= -1e-8
            assert state.populations.sum() <= 1.0 + 1e-6


class TestStateContract:
    """reset() and step() return the state ``propagate`` validated, not a copy."""

    def test_returns_validated_state(self, env):
        state = env.reset()
        assert isinstance(state, DensityMatrix)
        assert state.populations[-1] == env.current_p_sink()
        action = Action.toggle(*env.base_maze.edges[0])
        first, _, _ = env.step(action)
        assert isinstance(first, DensityMatrix) and first is env._memo[(action.link,)]
        with pytest.raises(ValueError):
            first.populations[0] = 0.5
        env.reset()
        hit, _, done = env.step(action)  # memo hit: the memo's own object
        assert hit is first
        while not done:
            state, _, done = env.step(Action.noop())
            assert isinstance(state, DensityMatrix)
            assert state.populations[-1] == env.current_p_sink()


def _rollout(env, actions):
    """Rewards, per-step density matrices and state keys, and final p_sink of one episode."""
    rewards, matrices, keys = [], [env.reset().matrix], [env.state_key()]
    for action in actions:
        state, reward, _ = env.step(action)
        rewards.append(reward)
        matrices.append(state.matrix)
        keys.append(env.state_key())
    assert env.done
    return np.array(rewards), np.array(matrices), keys, env.current_p_sink()


def _assert_same_rollout(a, b):
    np.testing.assert_allclose(a[0], b[0], rtol=0, atol=0)
    np.testing.assert_allclose(a[1], b[1], rtol=0, atol=0)
    assert a[2] == b[2]
    assert a[3] == b[3]


MEMO_PARAMS = QSWParams(p=0.5, gamma=1.0, dt=0.05, t_final=2.0)


@st.composite
def maze_and_episodes(draw):
    """A 2x2-4x4 perfect maze and episodes over a small action alphabet.

    The alphabet holds the no-op, the toggle that cuts off a leaf of the
    tree, and two more grid links, so episodes share prefixes often and
    some isolate a node.
    """
    maze = generate_perfect_maze(draw(st.integers(2, 4)), draw(st.integers(2, 4)), seed=draw(st.integers(0, 2**16)))
    env = MazeEnv(maze, MEMO_PARAMS, action_period=0.5, max_actions=3)
    leaf = int(np.flatnonzero(degrees(maze) == 1)[0])
    leaf_edge = next(e for e in maze.edges if leaf in e)
    others = draw(st.lists(st.sampled_from(env.action_space[1:]), min_size=2, max_size=2))
    alphabet = [Action.noop(), Action.toggle(*leaf_edge), *others]
    episode = st.lists(st.sampled_from(alphabet), min_size=env.max_actions, max_size=env.max_actions)
    return env, draw(st.lists(episode, min_size=2, max_size=6))


class TestMemo:
    @settings(max_examples=40, deadline=None)
    @given(case=maze_and_episodes())
    def test_reused_env_matches_fresh_env(self, case):
        env, episodes = case
        for actions in episodes:
            fresh = MazeEnv(env.base_maze, env.params, env.action_period, env.max_actions)
            _assert_same_rollout(_rollout(env, actions), _rollout(fresh, actions))

    def test_train_unchanged_when_memo_cleared_every_episode(self, env, monkeypatch):
        policy, curve = train(env, QLearningConfig(), episodes=12, seed=4)
        monkeypatch.setattr(rlmaze, "MEMO_BUDGET_BYTES", 0)
        fresh = MazeEnv(env.base_maze, PARAMS, env.action_period, env.max_actions)
        policy_0, curve_0 = train(fresh, QLearningConfig(), episodes=12, seed=4)
        assert len(fresh._memo) <= fresh.max_actions  # emptied at each reset
        assert policy_0.table == policy.table
        np.testing.assert_array_equal(curve_0.rewards, curve.rewards)
        np.testing.assert_array_equal(curve_0.running_avg, curve.running_avg)

    def test_failed_step_commits_nothing(self, env, monkeypatch):
        actions = [Action.noop(), Action.toggle(*env.base_maze.edges[0]), Action.noop(), Action.noop()]
        expected = _rollout(MazeEnv(env.base_maze, PARAMS, env.action_period, env.max_actions), actions)
        propagate = rlmaze.propagate
        armed = []

        def flaky_propagate(*args, **kwargs):
            if armed:
                armed.pop()
                raise IntegrationError("injected failure")
            return propagate(*args, **kwargs)

        monkeypatch.setattr(rlmaze, "propagate", flaky_propagate)
        env.reset()
        rewards = [env.step(actions[0])[1]]
        for failing_call, error in (
            (lambda: env.step(Action((0, 8))), ValueError),  # not grid-adjacent
            (lambda: (armed.append(True), env.step(actions[1])), IntegrationError),
        ):
            prefix, memo, key, state = env._prefix, dict(env._memo), env.state_key(), env._state
            with pytest.raises(error):
                failing_call()
            assert env._prefix == prefix and env.state_key() == key and env._state is state
            assert env._memo.keys() == memo.keys()
            assert all(env._memo[k] is v for k, v in memo.items())
        assert not armed
        rewards += [env.step(action)[1] for action in actions[1:]]
        np.testing.assert_allclose(rewards, expected[0], rtol=0, atol=0)
        assert env.current_p_sink() == expected[3]
        _assert_same_rollout(_rollout(env, actions), expected)

    def test_invalid_state_raises_before_commit(self):
        # passes the per-step trace check over the 100-step interval; the
        # first state that fails positivity is the one after step 1
        params = QSWParams(p=0.0, gamma=1.0, dt=0.1, t_final=100.0)
        env = MazeEnv(generate_perfect_maze(3, 3, seed=2), params, action_period=10.0, max_actions=8)
        env.reset()
        key = env.state_key()
        with pytest.raises(IntegrationError) as err:
            env.step(Action.noop())
        assert err.value.step == 1
        assert env._prefix == () and env.state_key() == key and not env._memo

    def test_invalid_state_error_carries_context(self):
        params = QSWParams(p=0.0, gamma=1.0, dt=0.1, t_final=100.0)
        env = MazeEnv(generate_perfect_maze(3, 3, seed=2), params, action_period=10.0, max_actions=8)
        env.reset()
        with pytest.raises(IntegrationError) as err:
            env.step(Action.noop())
        exc = err.value
        assert (exc.step, exc.t, exc.dt, exc.last_good_step) == (1, 0.1, 0.1, 0)
        assert 0.0 <= exc.drift <= 1e-6  # the trace held; positivity failed
        assert str(exc).startswith("invalid state at step 1: not positive semidefinite")
        assert str(exc).endswith(", t=0.1, dt=0.1")


class TestTrain:
    def test_greedy_zero_table_reproduces_baseline(self, env):
        config = QLearningConfig(epsilon_start=0.0, epsilon_end=0.0)
        policy, curve = train(env, config, episodes=1, seed=0)
        assert all(action.is_noop for action in policy.table.values())
        baseline = run_episode(env, Policy.noop()).final_p_sink
        assert abs(curve.rewards[0] - baseline) <= 1e-9

    def test_curve_lengths_and_window(self, env):
        _, curve = train(env, QLearningConfig(), episodes=7, seed=1)
        assert len(curve.rewards) == 7
        assert len(curve.running_avg) == 7
        assert curve.window == 7  # min(100, episodes)

    def test_running_average_definition(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            _running_average(values, 2), [1.0, 1.5, 2.5, 3.5]
        )
        curve = LearningCurve(values, _running_average(values, 4), 4)
        assert curve.running_avg[-1] == pytest.approx(values.mean())

    def test_deterministic_given_seed(self, env):
        _, curve_a = train(env, QLearningConfig(), episodes=5, seed=9)
        _, curve_b = train(env, QLearningConfig(), episodes=5, seed=9)
        np.testing.assert_array_equal(curve_a.rewards, curve_b.rewards)

    def test_rejects_zero_episodes(self, env):
        with pytest.raises(ValueError):
            train(env, QLearningConfig(), episodes=0, seed=0)

    @pytest.mark.parametrize("seed, message", [(2.5, "seed: expected an integer"), (-1, "seed must be >= 0, got -1")])
    def test_rejects_a_seed_numpy_cannot_take(self, env, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(env, QLearningConfig(), episodes=1, seed=seed)

    @pytest.mark.parametrize("episodes", [2.5, True], ids=["fraction", "bool"])
    def test_rejects_episodes_that_are_not_an_int(self, env, episodes):
        with pytest.raises(ValueError, match="^episodes: expected an integer$"):
            train(env, QLearningConfig(), episodes=episodes, seed=0)


class TestQLearningConfig:
    @pytest.mark.parametrize(
        "field, value, interval",
        [
            ("learning_rate", 0.0, "(0, 1]"),
            ("learning_rate", -1.0, "(0, 1]"),
            ("learning_rate", 1.5, "(0, 1]"),
            ("learning_rate", np.inf, "(0, 1]"),
            ("discount", np.nan, "[0, 1]"),
            ("discount", 1.5, "[0, 1]"),
            ("discount", -0.1, "[0, 1]"),
            ("epsilon_start", 2.0, "[0, 1]"),
            ("epsilon_start", np.nan, "[0, 1]"),
            ("epsilon_end", -np.inf, "[0, 1]"),
        ],
    )
    def test_rejects_values_outside_the_field_range(self, field, value, interval):
        with pytest.raises(ValueError) as exc:
            QLearningConfig(**{field: value})
        if np.isfinite(value):
            assert str(exc.value) == f"{field} must lie in {interval}, got {value!r}"
        else:
            assert str(exc.value) == f"{field} must be finite"

    def test_accepts_the_range_ends(self):
        QLearningConfig(learning_rate=1.0, discount=0.0, epsilon_start=0.0, epsilon_end=1.0)


class TestEvaluate:
    def test_noop_policy_equals_baseline(self, env):
        model = build_model(env.base_maze, PARAMS)
        traj = evolve(initial_state(model), model, sample_every=50)
        assert abs(evaluate(env, Policy.noop()) - traj.final_p_sink()) <= 1e-9


class TestPolicyJson:
    def test_round_trip(self, env):
        policy, _ = train(env, QLearningConfig(), episodes=3, seed=5)
        policy.config = {"note": "test"}
        restored = Policy.from_json(policy.to_json())
        assert restored.table == policy.table
        assert restored.config == {"note": "test"}

    def test_check_policy_rejects_unreachable_keys(self, env):
        policy, _ = train(env, QLearningConfig(), episodes=3, seed=5)
        env.check_policy(policy)
        edges = env.base_maze.edges
        for key, action, message in (
            ((4, edges), Action.noop(), "step 4"),
            ((1, edges + ((0, 8),)), Action.noop(), "0-8 is not a grid link"),
            ((1, edges), Action.toggle(0, 4), "0-4 is not a grid link"),
            ((0, edges[1:]), Action.noop(), "step-0 edge set"),
        ):
            with pytest.raises(ValueError, match=r"policy\['%d\|" % key[0]) as exc:
                env.check_policy(Policy({key: action}))
            assert message in str(exc.value)

    def test_malformed_key_names_the_key(self):
        with pytest.raises(ValueError, match=r"policy\['0\|0-1-2'\]: edges must be i-j pairs"):
            Policy.from_json('{"policy": {"0|0-1-2": "noop"}}')

    def test_non_finite_config_is_not_written(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            Policy(config={"learning_rate": float("inf")}).to_json()

    def test_default_is_noop(self):
        policy = Policy.noop()
        assert policy.action_for((0, ((0, 1),))).is_noop
