"""Per-layer microbenchmarks of the maze-edit path at 3x3, 6x6 and 10x10.

Outside the tier-1 suite (``testpaths`` lists only ``tests``). Run from
the repository root with one BLAS thread, so numbers compare across
commits on a shared host:

    OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/test_maze_bench.py --benchmark-only

The walk uses the criterion-5 settings (p = 0.8, dt = 0.1, 100 steps per
action interval). Both ``MazeEnv.step`` cases toggle the maze's first
link: on a memo hit the step is the toggle, the new edge set and a memo
lookup; on a miss it also rebuilds the model and integrates the interval.
"""

import pytest

from qmlkit.dynamics import QSWParams
from qmlkit.maze import generate_perfect_maze, toggle_link
from qmlkit.rlmaze import Action, MazeEnv

PARAMS = QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0)
ACTION_PERIOD, MAX_ACTIONS = 10.0, 8


@pytest.fixture(scope="module", params=[3, 6, 10], ids=lambda size: f"{size}x{size}")
def maze(request):
    return generate_perfect_maze(request.param, request.param, seed=1)


def _env(maze):
    return MazeEnv(maze, PARAMS, ACTION_PERIOD, MAX_ACTIONS)


def test_toggle_link(benchmark, maze):
    i, j = maze.edges()[0]
    flipped = benchmark(toggle_link, maze, i, j)
    assert (i, j) not in flipped.edges()


def test_step_memo_hit(benchmark, maze):
    env = _env(maze)
    action = Action.toggle(*maze.edges()[0])
    env.reset()
    env.step(action)

    def setup():
        env.reset()
        return (action,), {}

    benchmark.pedantic(env.step, setup=setup, rounds=2000)
    assert env.state_key() == (1, tuple(toggle_link(maze, *action.link).edges()))


def test_step_memo_miss(benchmark, maze):
    action = Action.toggle(*maze.edges()[0])

    def setup():
        env = _env(maze)  # a fresh environment has an empty memo
        env.reset()
        return (env, action), {}

    benchmark.pedantic(MazeEnv.step, setup=setup, rounds=20)
