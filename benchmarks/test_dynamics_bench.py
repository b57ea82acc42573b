"""Per-layer microbenchmarks of the Lindblad walk at 3x3, 6x6 and 10x10.

Outside the tier-1 suite (``testpaths`` lists only ``tests``). Run from
the repository root with one BLAS thread, so numbers compare across
commits on a shared host:

    OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/test_dynamics_bench.py --benchmark-only

Each layer runs at p = 0.05 (nearly coherent), p = 0.3, p = 0.8 (the
criterion-5 mixing) and p = 1 (the classical limit, no coherent part)
with the criterion-5 timing: dt = 0.1 and 100 steps per action interval. The state fed to ``_rhs``,
``_rk4_step`` and ``DensityMatrix`` is the walker after one interval,
spread over the maze, not the entrance projector. ``_rhs`` and
``_rk4_step`` run on its real form R = Re rho + Im rho with the output
buffer built once, as the stepping path of ``propagate`` runs them; each timed
RK4 step starts from a fresh copy of R, since the step works in place.

``propagate`` evaluates every span, however few its steps, in Krylov
subspaces of the generator where its stability guard allows, which is
every case here. On the 3x3 maze, whose 100-entry state space one basis
can close, each new basis vector is orthogonalised against all earlier
ones; on 6x6 and 10x10 against the last 8 only, so that a vector costs
about one application of the generator however large the basis grows.
A basis holds at most 60 vectors, and a span that needs more (every
p = 0.05 span here at 6x6 and 10x10) is split, the next basis aiming at
the steps the last one resolved.
``test_propagate_interval`` times the first interval of an episode (100
steps from the entrance) and ``test_propagate_tail`` the last one, 300
steps from the state after 700, where the walker has spread and partly
escaped. ``test_evolve_long_horizon`` times ``evolve`` over 10 000 steps
at 6x6 and p = 0.8, sampled every 100: a run of capped bases, each
restarted where the last one stopped resolving. All three record in
``extra_info`` what one untimed call does: ``rhs_calls`` in all, and per
Krylov span the basis size, the ``_t4`` calls (the span's convergence
checks, and its states' T4 unless the last check hands it on) and the
``_powers`` calls (the rows of the states before the end, which a call
without ``exit_trace`` does not ask for); the per-span entries are None
on a stepped call, which has no span. ``stepped`` says whether any span
was stepped again after its Krylov state failed validation.
``test_propagate_short`` times spans of 4 and 12 steps from the state
after one interval: no workload makes spans this short, and there a
basis can cost more than the RK4 steps it replaces.

``test_propagate_cut_off_exit`` times the spans after an edit cuts the
exit off (6x6, p = 0.8, the exit's one link removed after the first
interval): the interval from step 600 and the 300-step tail from step
700. The exit's population then lies far below the basis's resolution
and comes out negative; its component, the exit and the sink, is
recomputed in a Krylov span of its own, so no span is stepped.
"""

from unittest import mock

import pytest

from qmlkit import dynamics
from qmlkit.dynamics import (
    QSWParams,
    _krylov_span,
    _powers,
    _RealForm,
    _rhs,
    _rk4_step,
    _t4,
    _to_real,
    build_model,
    evolve,
    initial_state,
    propagate,
)
from qmlkit.maze import generate_perfect_maze, toggle_link
from qmlkit.states import DensityMatrix

DT, STEPS = 0.1, 100
CASES = [(size, p) for size in (3, 6, 10) for p in (0.05, 0.3, 0.8, 1.0)]


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
    out = benchmark(_rhs, _RealForm(model), _to_real(spread.matrix))
    assert out.shape == (model.dim, model.dim)


def test_rk4_step(benchmark, case):
    _, _, model, spread = case
    form = _RealForm(model)
    r = _to_real(spread.matrix)
    benchmark.pedantic(_rk4_step, setup=lambda: ((r.copy(), DT, form), {}), rounds=2000)


def span_counts(call):
    """Work counts of one call: _rhs calls, basis vectors, _t4 and _powers calls per Krylov span, and whether it stepped a span."""
    bases = []

    def span(*args, **kwargs):
        out = _krylov_span(*args, **kwargs)
        bases.append(len(out[0]))
        return out

    with (
        mock.patch.object(dynamics, "_rhs", wraps=_rhs) as rhs,
        mock.patch.object(dynamics, "_t4", wraps=_t4) as t4,
        mock.patch.object(dynamics, "_powers", wraps=_powers) as powers,
        mock.patch.object(dynamics, "_krylov_span", span),
        mock.patch.object(dynamics, "_stepped", wraps=dynamics._stepped) as stepped,
    ):
        call()
    spans = len(bases)
    return {
        "rhs_calls": rhs.call_count,
        "stepped": stepped.called,
        "krylov_spans": spans,
        "basis_per_span": sum(bases) / spans if spans else None,
        "t4_per_span": t4.call_count / spans if spans else None,
        "powers_per_span": powers.call_count / spans if spans else None,
    }


def test_propagate_interval(benchmark, case):
    _, _, model, _ = case
    start = initial_state(model)
    out = benchmark.pedantic(propagate, args=(start, model, STEPS), rounds=20)
    assert out.dim == model.dim
    benchmark.extra_info.update(span_counts(lambda: propagate(start, model, STEPS)))


def test_propagate_tail(benchmark, case):
    _, _, model, _ = case
    start = propagate(initial_state(model), model, 700)
    out = benchmark.pedantic(propagate, args=(start, model, 300), kwargs={"first_step": 700}, rounds=20)
    assert out.dim == model.dim
    benchmark.extra_info.update(span_counts(lambda: propagate(start, model, 300, first_step=700)))


@pytest.mark.parametrize("n_steps", [4, 12])
def test_propagate_short(benchmark, case, n_steps):
    _, _, model, spread = case
    out = benchmark.pedantic(propagate, args=(spread, model, n_steps), kwargs={"first_step": STEPS}, rounds=200)
    assert out.dim == model.dim
    benchmark.extra_info.update(span_counts(lambda: propagate(spread, model, n_steps, first_step=STEPS)))


@pytest.fixture(scope="module")
def cut_off_exit():
    """The 6x6 p = 0.8 model with the exit's links removed, and the state after 600 steps, the cut made at step 100."""
    maze = generate_perfect_maze(6, 6, seed=1)
    params = QSWParams(p=0.8, gamma=1.0, dt=DT, t_final=100.0)
    whole = build_model(maze, params)
    for link in [link for link in maze.edges if maze.exit in link]:
        maze = toggle_link(maze, *link)
    model = build_model(maze, params)
    early = propagate(initial_state(whole), whole, STEPS)
    return model, propagate(early, model, 500, first_step=STEPS)


@pytest.mark.parametrize("n_steps", [STEPS, 300], ids=["interval", "tail"])
def test_propagate_cut_off_exit(benchmark, cut_off_exit, n_steps):
    model, start = cut_off_exit
    first = 600
    if n_steps == 300:
        start, first = propagate(start, model, STEPS, first_step=600), 700
    out = benchmark.pedantic(propagate, args=(start, model, n_steps), kwargs={"first_step": first}, rounds=20)
    assert out.populations.min() >= 0.0
    benchmark.extra_info.update(span_counts(lambda: propagate(start, model, n_steps, first_step=first)))


def test_evolve_long_horizon(benchmark):
    model = build_model(generate_perfect_maze(6, 6, seed=1), QSWParams(p=0.8, gamma=1.0, dt=DT, t_final=1000.0))
    start = initial_state(model)
    traj = benchmark.pedantic(evolve, args=(start, model, 100), rounds=5)
    assert traj.sample_steps[-1] == 10_000
    benchmark.extra_info.update(span_counts(lambda: evolve(start, model, 100)))


def test_build_model(benchmark, case):
    maze, params, _, _ = case
    model = benchmark(build_model, maze, params)
    assert model.dim == maze.n_nodes + 1


def test_density_matrix_validation(benchmark, case):
    _, _, _, spread = case
    rho = benchmark(DensityMatrix, spread.matrix)
    assert rho.dim == spread.dim
