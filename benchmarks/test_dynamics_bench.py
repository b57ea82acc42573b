"""Per-layer microbenchmarks of the Lindblad walk at 3x3, 6x6 and 10x10.

Outside the tier-1 suite (``testpaths`` lists only ``tests``). Run from
the repository root with one BLAS thread, so numbers compare across
commits on a shared host:

    OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/test_dynamics_bench.py --benchmark-only

Each layer runs at p = 0.8 (the criterion-5 mixing) and p = 1 (the
classical limit, no coherent part) with the criterion-5 timing: dt = 0.1
and 100 steps per action interval. The state fed to ``_rhs``,
``_rk4_step`` and ``DensityMatrix`` is the walker after one interval,
spread over the maze, not the entrance projector.
"""

import pytest

from qmlkit.dynamics import QSWParams, _rhs, _rk4_step, build_model, initial_state, propagate
from qmlkit.maze import generate_perfect_maze
from qmlkit.states import DensityMatrix

DT, STEPS = 0.1, 100
CASES = [(size, p) for size in (3, 6, 10) for p in (0.8, 1.0)]


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}x{case[0]}-p{case[1]}")
def case(request):
    size, p = request.param
    maze = generate_perfect_maze(size, size, seed=1)
    params = QSWParams(p=p, gamma=1.0, dt=DT, t_final=100.0)
    model = build_model(maze, params)
    spread = propagate(initial_state(model), model, STEPS)
    return maze, params, model, spread


def test_rhs(benchmark, case):
    _, _, model, spread = case
    out = benchmark(_rhs, spread.matrix, model)
    assert out.shape == (model.dim, model.dim)


def test_rk4_step(benchmark, case):
    _, _, model, spread = case
    out = benchmark(_rk4_step, spread.matrix, DT, model)
    assert out.shape == (model.dim, model.dim)


def test_propagate_interval(benchmark, case):
    _, _, model, _ = case
    start = initial_state(model)
    out = benchmark.pedantic(propagate, args=(start, model, STEPS), rounds=20)
    assert out.dim == model.dim


def test_build_model(benchmark, case):
    maze, params, _, _ = case
    model = benchmark(build_model, maze, params)
    assert model.dim == maze.n_nodes + 1


def test_density_matrix_validation(benchmark, case):
    _, _, _, spread = case
    rho = benchmark(DensityMatrix, spread.matrix)
    assert rho.dim == spread.dim
