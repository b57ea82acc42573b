import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit import dynamics, rlmaze
from qmlkit.dynamics import (
    KRYLOV_MAX_BASIS,
    KRYLOV_RADIUS,
    KRYLOV_WINDOW,
    IntegrationError,
    LindbladModel,
    QSWParams,
    Trajectory,
    build_model,
    evolve,
    initial_state,
    lindblad_rhs,
    p_sink_from_integral,
    propagate,
    _krylov_span,
    _norm_bound,
    _RealForm,
    _rhs,
    _t4,
    _to_real,
)
from qmlkit.maze import MazeGraph, generate_perfect_maze, grid_links, toggle_link
from qmlkit.rlmaze import Action, MazeEnv
from qmlkit.states import DensityMatrix

from oracles import classical_populations, literal_rhs, literal_rk4, random_density_matrix, smallest_resolving_size
from test_maze import path_maze


class TestQSWParams:
    def test_defaults(self):
        params = QSWParams(p=0.5)
        assert params.gamma == 1.0
        assert params.n_steps == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": -0.1},
            {"p": 1.1},
            {"p": 0.5, "gamma": 0.0},
            {"p": 0.5, "gamma": -1.0},
            {"p": 0.5, "dt": 0.0},
            {"p": 0.5, "dt": 2.0, "t_final": 1.0},
            {"p": 0.5, "dt": 0.3, "t_final": 1.0},
            {"p": np.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QSWParams(**kwargs)

    @pytest.mark.parametrize("t_final", [1e14, 1e300], ids=["unallocatable", "uncountable"])
    def test_horizon_too_long_to_record_names_t_final_and_dt(self, t_final):
        # 10**15 steps need 8 PB for the per-step record, more than a 64-bit
        # address space holds; 10**301 steps do not fit an array
        prefix = re.escape(f"t_final={t_final} is too long for dt=0.1")
        with pytest.raises(ValueError, match=rf"^{prefix}: its per-step record needs \d+ bytes$"):
            QSWParams(p=0.5, dt=0.1, t_final=t_final)

    def test_gamma_whose_sink_rate_overflows_names_gamma(self):
        with pytest.raises(ValueError, match=r"^gamma=1e\+308 is too large: its sink rate 2 \* gamma is not finite$"):
            QSWParams(p=0.5, gamma=1e308)
        assert QSWParams(p=0.5, gamma=8e307).gamma == 8e307  # 2 * gamma is still finite

    def test_horizon_of_too_many_steps_to_count_is_refused(self):
        with pytest.raises(ValueError, match=r"^t_final=1e\+300 spans too many steps of dt=1e-10$"):
            QSWParams(p=0.5, dt=1e-10, t_final=1e300)


class TestBuildModel:
    # G[i, j] = p * (squared coefficient of the jump j -> i) on the maze

    def test_two_node_path(self):
        model = build_model(path_maze(2), QSWParams(p=1.0))
        assert model.dim == 3
        # both nodes have degree 1, so both jump coefficients are 1
        np.testing.assert_array_equal(model.G[:2, :2], [[0.0, 1.0], [1.0, 0.0]])

    def test_middle_node_coefficients(self):
        model = build_model(path_maze(3), QSWParams(p=1.0))
        out_of_middle = model.G[[0, 2], 1]
        np.testing.assert_array_equal(out_of_middle, [0.5**2, 0.5**2])
        into_middle = model.G[1, [0, 2]]
        np.testing.assert_array_equal(into_middle, [1.0, 1.0])

    def test_6x6_has_70_jump_operators(self):
        maze = generate_perfect_maze(6, 6, seed=1)
        model = build_model(maze, QSWParams(p=0.5))
        assert np.count_nonzero(model.G[:36, :36]) == 70  # two ordered pairs per tree edge

    def test_hamiltonian_structure(self):
        # H is the coherent part (1-p) H_maze, zero-padded for the sink
        maze = generate_perfect_maze(3, 3, seed=0)
        model = build_model(maze, QSWParams(p=0.5))
        padded = np.zeros((10, 10))
        padded[:9, :9] = maze.adjacency
        np.testing.assert_array_equal(model.H, 0.5 * padded)

    @pytest.mark.parametrize("width", [2**31, 10**30], ids=["2^31", "10^30"])
    def test_grid_too_large_names_size_and_bytes(self, width):
        # numpy refuses both allocations outright ("array is too big", "maximum dimension")
        maze = MazeGraph(width, 1, [(0, 1)], entrance=0, exit=1, seed=0)
        needed = 16 * (width + 1) ** 2
        with pytest.raises(ValueError, match=rf"^maze {width}x1 is too large: its generator needs {needed} bytes$"):
            build_model(maze, QSWParams(p=0.5))

    def test_isolated_node_contributes_no_jumps(self):
        maze = path_maze(3)
        maze = toggle_link(maze, 0, 1)  # node 0 now isolated
        model = build_model(maze, QSWParams(p=1.0))
        assert not model.G[0, :].any() and not model.G[:3, 0].any()
        # degrees recomputed: node 1 now has degree 1, not 2
        assert model.G[1, 2] == 1.0 and model.G[2, 1] == 1.0

    def test_effective_generator_entries(self):
        # K = -i(1-p) H - (p/2) diag(loss) - Gamma |n><n|, loss_j = 1/d_j,
        # which the model holds as H and G: K = -i H - diag(column sums of G)/2
        maze = path_maze(3)  # degrees 1, 2, 1; exit is node 2
        model = build_model(maze, QSWParams(p=0.3, gamma=0.7))
        ham = np.zeros((4, 4))
        ham[:3, :3] = maze.adjacency
        damping = 0.15 * np.array([1.0, 0.5, 1.0, 0.0])
        damping[2] += 0.7

        def k_of(m):
            return -1j * m.H - np.diag(0.5 * m.G.sum(axis=0))

        np.testing.assert_allclose(k_of(model), -0.7j * ham - np.diag(damping), atol=1e-15)
        assert model.G[3, 2] == 2 * 0.7
        plain = model.without_sink()
        damping[2] -= 0.7
        np.testing.assert_allclose(k_of(plain), -0.7j * ham - np.diag(damping), atol=1e-15)
        np.testing.assert_array_equal(plain.H, model.H)
        assert not plain.G[3].any()
        np.testing.assert_array_equal(plain.G[:3, :3], model.G[:3, :3])

    def test_generator_is_read_only(self):
        model = build_model(path_maze(3), QSWParams(p=0.3, gamma=0.7))
        for m in (model, model.without_sink()):
            for name in ("H", "G"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(m, name)[0, 1] = 1.0
        assert model.G[3, 2] == 2 * 0.7  # without_sink left the original's G alone

    def test_rejects_asymmetric_imaginary_part(self):
        # K's imaginary part is -H
        model = build_model(path_maze(3), QSWParams(p=0.3))
        h = model.H.copy()
        h[0, 1] += 1e-3
        with pytest.raises(ValueError, match="^H must be symmetric$"):
            LindbladModel(h, model.G, model.sink_exit, model.entrance, model.params)


class TestLindbladRhs:
    def test_traceless_on_random_states(self):
        maze = generate_perfect_maze(3, 3, seed=2)
        model = build_model(maze, QSWParams(p=0.4, gamma=1.7))
        rng = np.random.default_rng(0)
        for _ in range(5):
            rho = random_density_matrix(model.dim, rng)
            assert abs(lindblad_rhs(rho, model).trace()) <= 1e-12

    def test_hermitian_output(self):
        maze = generate_perfect_maze(3, 3, seed=2)
        model = build_model(maze, QSWParams(p=0.4))
        rho = random_density_matrix(model.dim, np.random.default_rng(1))
        out = lindblad_rhs(rho, model)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-14

    def test_classical_limit_keeps_diagonal_states_diagonal(self):
        maze = generate_perfect_maze(2, 3, seed=0)
        model = build_model(maze, QSWParams(p=1.0))
        rng = np.random.default_rng(3)
        pops = rng.random(model.dim)
        rho = np.diag(pops / pops.sum()).astype(complex)
        out = lindblad_rhs(rho, model)
        off_diag = out - np.diag(out.diagonal())
        assert np.max(np.abs(off_diag)) == 0.0

    def test_sink_state_is_stationary(self):
        maze = generate_perfect_maze(2, 2, seed=0)
        model = build_model(maze, QSWParams(p=0.6))
        rho = DensityMatrix.basis_state(model.dim, model.sink)
        np.testing.assert_array_equal(lindblad_rhs(rho, model), np.zeros((5, 5)))

    def test_matches_literal_operator_sum(self):
        rng = np.random.default_rng(4)
        for p in (0.0, 0.31, 1.0):
            maze = generate_perfect_maze(3, 3, seed=5)
            maze = toggle_link(maze, *maze.edges[2])  # exercise edited topology
            model = build_model(maze, QSWParams(p=p, gamma=0.8))
            rho = random_density_matrix(model.dim, rng)
            np.testing.assert_allclose(
                lindblad_rhs(rho, model), literal_rhs(rho, maze.adjacency, p, 0.8, maze.exit), atol=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        model = build_model(path_maze(2), QSWParams(p=0.5))
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(7) / 7.0, model)

    def test_non_hermitian_state_rejected(self):
        model = build_model(path_maze(2), QSWParams(p=0.5))
        rho = np.eye(3, dtype=complex) / 3.0
        rho[0, 1] = 0.1j  # rho[1, 0] stays 0
        with pytest.raises(ValueError, match="not Hermitian"):
            lindblad_rhs(rho, model)

    def test_initial_leak_reaches_only_entrance_neighbors(self):
        # with rho0 = |entrance><entrance| the only nonzero derivative
        # entries couple the entrance to its grid neighbors (H = A has
        # no longer-range matrix elements) plus the entrance diagonal
        maze = generate_perfect_maze(3, 3, seed=1)
        model = build_model(maze, QSWParams(p=0.5))
        rho0 = initial_state(model)
        out = lindblad_rhs(rho0, model)
        neighbors = {int(v) for v in np.nonzero(maze.adjacency[0])[0]}
        allowed = {(0, 0)} | {(0, m) for m in neighbors} | {(m, 0) for m in neighbors}
        allowed |= {(m, m) for m in neighbors}
        nonzero = set(zip(*np.nonzero(np.abs(out) > 1e-15)))
        assert nonzero <= allowed
        assert any((0, m) in nonzero for m in neighbors)


@st.composite
def edited_mazes(draw, min_side=1, max_side=4):
    """A random perfect maze from 1x2 (or min_side^2) to max_side^2, then random agent toggles."""
    width = draw(st.integers(min_side, max_side))
    height = draw(st.integers(2 if width == 1 else min_side, max_side))
    seed = draw(st.integers(0, 2**16))
    if min(width, height) >= 2:
        maze = generate_perfect_maze(width, height, seed=seed)
    else:  # a one-cell-wide grid has a single spanning tree: all its links
        n = width * height
        maze = MazeGraph(width, height, grid_links(width, height), entrance=0, exit=n - 1, seed=seed)
    links = grid_links(width, height)
    for k in draw(st.lists(st.integers(0, len(links) - 1), max_size=6)):
        maze = toggle_link(maze, *links[k])
    if draw(st.booleans()):  # cut one node off completely
        node = draw(st.integers(0, maze.n_nodes - 1))
        for i, j in maze.edges:
            if node in (i, j):
                maze = toggle_link(maze, i, j)
    return maze


class TestRhsProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        maze=edited_mazes(),
        p=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 3.0, exclude_min=True),
        state_seed=st.integers(0, 2**32 - 1),
        sink=st.booleans(),
    )
    def test_matches_literal_rhs(self, maze, p, gamma, state_seed, sink):
        model = build_model(maze, QSWParams(p=p, gamma=gamma))
        if not sink:
            model = model.without_sink()
        rho = random_density_matrix(model.dim, np.random.default_rng(state_seed))
        out = lindblad_rhs(rho, model)
        expected = literal_rhs(rho, maze.adjacency, p, gamma if sink else 0.0, maze.exit)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-15
        assert abs(out.trace()) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        maze=edited_mazes(),
        p=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 3.0, exclude_min=True),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_reads_its_input_from_a_basis_row_or_a_copy(self, maze, p, gamma, state_seed):
        model = build_model(maze, QSWParams(p=p, gamma=gamma))
        d = model.dim
        rho = random_density_matrix(d, np.random.default_rng(state_seed))
        expected = _to_real(literal_rhs(rho, maze.adjacency, p, gamma, maze.exit))
        r = _to_real(rho)
        basis = np.stack([np.zeros(d * d), r.reshape(-1)])  # R as a Krylov basis row
        form = _RealForm(model)
        from_row = _rhs(form, basis[1].reshape(d, d)).copy()
        from_copy = _rhs(form, r.copy()).copy()
        np.testing.assert_array_equal(basis[1], r.reshape(-1))
        np.testing.assert_array_equal(r, _to_real(rho))
        np.testing.assert_allclose(from_row, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(from_copy, expected, rtol=0, atol=1e-12)


class TestPropagateProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        maze=edited_mazes(),
        p=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 10.0, exclude_min=True),
        state_seed=st.integers(0, 2**32 - 1),
        sink=st.booleans(),
        n_steps=st.integers(1, 30),
    )
    def test_matches_complex_rk4_oracle(self, maze, p, gamma, state_seed, sink, n_steps):
        dt = 0.02
        model = build_model(maze, QSWParams(p=p, gamma=gamma, dt=dt, t_final=1.0))
        if not sink:
            model = model.without_sink()
        rho = random_density_matrix(model.dim, np.random.default_rng(state_seed))
        exit_trace = np.empty(n_steps)
        out = propagate(DensityMatrix(rho), model, n_steps, exit_trace=exit_trace).matrix
        expected = literal_rk4(rho, maze.adjacency, p, gamma if sink else 0.0, maze.exit, dt, n_steps)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(out, out.conj().T)
        assert not out.diagonal().imag.any()
        assert exit_trace[-1] == out[maze.exit, maze.exit].real


def stepping_only():
    """Close the Krylov guard, so that :func:`propagate` steps every span: the reference path."""
    return mock.patch.object(dynamics, "KRYLOV_RADIUS", -1.0)


def recorded_episode(maze_seed, links):
    """The propagate calls of a criterion-5 episode on a 6x6 maze, none of which may step.

    Each is (start, model, n_steps, end state, whether a cut-off block was recomputed).
    """
    params = QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0)
    env = MazeEnv(generate_perfect_maze(6, 6, seed=maze_seed), params, 10.0, 8)
    calls = []

    def recorded(state, model, n_steps, **kwargs):
        with mock.patch.object(dynamics, "_recompute_cut_off", wraps=dynamics._recompute_cut_off) as recomputed:
            out = propagate(state, model, n_steps, **kwargs)
        calls.append((state, model, n_steps, out, recomputed.called))
        return out

    env.reset()
    with (
        mock.patch.object(rlmaze, "propagate", recorded),
        mock.patch.object(dynamics, "_stepped", wraps=dynamics._stepped) as stepped,
    ):
        for link in links:
            env.step(Action(link))
    assert stepped.call_count == 0
    return calls


def assert_recomputed_like_stepping(out, start, model, n_steps):
    """Every population is non-negative, and the sink's and exit's agree with stepping to a relative 1e-12."""
    assert out.populations.min() >= 0.0
    expected = stepped_outcome(start, model, n_steps).populations
    nodes = [model.sink_exit, model.sink]
    np.testing.assert_allclose(out.populations[nodes], expected[nodes], rtol=1e-12, atol=0)


def generator_image(form):
    """The map from a basis vector v to vec(L(v)), through the package's real-form generator."""
    d = form.rate.shape[0]

    def apply(v):
        return _rhs(form, v.reshape(d, d)).ravel().copy()

    return apply


def outcome(call):
    """The state a call returns, or its IntegrationError's message and fields."""
    try:
        return call()
    except IntegrationError as exc:
        return (str(exc), exc.step, exc.t, exc.dt, exc.drift, exc.last_good_step)


def stepped_outcome(state, model, n_steps, exit_trace=None):
    with stepping_only():
        return outcome(lambda: propagate(state, model, n_steps, exit_trace=exit_trace))


class TestKrylovSpan:
    @settings(max_examples=80, deadline=None)
    @given(
        maze=edited_mazes(min_side=2, max_side=6),
        p=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 10.0, exclude_min=True),
        state_seed=st.none() | st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 300),
    )
    def test_long_span_matches_stepping(self, maze, p, gamma, state_seed, n_steps):
        # state_seed None starts at the entrance, as every episode does
        model = build_model(maze, QSWParams(p=p, gamma=gamma, dt=0.1, t_final=30.0))
        if state_seed is None:
            start = initial_state(model)
        else:
            start = DensityMatrix(random_density_matrix(model.dim, np.random.default_rng(state_seed)))
        trace, stepped_trace = np.empty(n_steps), np.empty(n_steps)
        got = outcome(lambda: propagate(start, model, n_steps, exit_trace=trace))
        expected = stepped_outcome(start, model, n_steps, stepped_trace)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert isinstance(got, DensityMatrix)
        np.testing.assert_allclose(got.matrix, expected.matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace, stepped_trace, rtol=0, atol=1e-13)
        assert trace[-1] == got.matrix[maze.exit, maze.exit].real

    def test_windowed_basis_stops_where_its_space_closes(self):
        # The walker starts in the 3-node component {0, 4, 8}, cut off from
        # the exit, whose Krylov space from the start has 6 dimensions. One
        # orthogonalisation pass leaves the 6th residual at 1.3e-14, above
        # roundoff times the norm bound; a basis built on from it cancelled
        # by a factor 370 and missed stepping by 1.4e-13.
        edges = ((0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (4, 8), (6, 10), (7, 11))
        maze = MazeGraph(width=4, height=3, edges=edges, entrance=0, exit=11, seed=0)
        model = build_model(maze, QSWParams(p=0.8671875, gamma=1.0, dt=0.1, t_final=30.0))
        form = _RealForm(model)
        assert model.dim**2 > dynamics.KRYLOV_FULL_SPACE  # the windowed path
        r0 = _to_real(initial_state(model).matrix)
        basis, ys = _krylov_span(r0, 277, 0.1, form, _norm_bound(form))
        assert len(basis) == 6
        trace, stepped_trace = np.empty(277), np.empty(277)
        got = propagate(initial_state(model), model, 277, exit_trace=trace)
        expected = stepped_outcome(initial_state(model), model, 277, stepped_trace)
        np.testing.assert_allclose(got.matrix, expected.matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace, stepped_trace, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "size, n_steps, message",
        [(6, 300, r"trace drifted to \S+ at step 79 "), (10, 100, r"invalid state at step 93: ")],
        ids=["6x6", "10x10"],
    )
    def test_guard_leaves_blow_ups_to_stepping(self, size, n_steps, message):
        # gamma = 20 takes dt times the norm bound to about 8. There RK4
        # amplifies components that a converged Krylov basis drops: on the
        # 10x10 maze an unguarded Krylov span returns a valid state. On the
        # 6x6 maze the blow-up grows from roundoff, so its first bad step
        # follows the rounding of the generator's kernel.
        maze = generate_perfect_maze(size, size, seed=7)
        model = build_model(maze, QSWParams(p=0.8, gamma=20.0, dt=0.1, t_final=30.0))
        assert 0.1 * _norm_bound(_RealForm(model)) > KRYLOV_RADIUS
        got = outcome(lambda: propagate(initial_state(model), model, n_steps))
        assert isinstance(got, tuple) and re.match(message, got[0])
        assert got == stepped_outcome(initial_state(model), model, n_steps)

    def test_escape_probability_below_basis_resolution_is_recomputed(self):
        # The 3rd interval of this episode starts with p_sink near 1e-18,
        # below the Krylov basis's resolution. At its end the basis gives the
        # exit population as -4.9e-19; propagate recomputes the exit's
        # component from a start vector of its own instead of stepping.
        params = QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0)
        maze = generate_perfect_maze(6, 6, seed=8)
        env = MazeEnv(maze, params, 10.0, 8)
        env.reset()
        for link in [(2, 3), (29, 35)]:
            start = env.step(Action(link))[0]
            maze = toggle_link(maze, *link)
        model = build_model(toggle_link(maze, 26, 32), params)
        form = _RealForm(model)
        basis, y = _krylov_span(_to_real(start.matrix), 100, 0.1, form, _norm_bound(form), rows=False)
        assert (y @ basis).reshape(model.dim, model.dim)[maze.exit, maze.exit] < 0.0
        with mock.patch.object(dynamics, "_stepped", wraps=dynamics._stepped) as stepped:
            out = propagate(start, model, 100, first_step=200)
        assert stepped.call_count == 0
        assert 0.0 <= out.matrix[-1, -1].real < 1e-18
        assert_recomputed_like_stepping(out, start, model, 100)

    def test_exit_population_below_basis_resolution_is_recomputed(self):
        # These edits cut the exit off early, so its population stays near
        # 1e-22, below the basis's resolution. A basis once gave -3.8e-21
        # for it after the sixth interval; stepping on from there took the
        # escape probability to -6.2e-22 in the seventh.
        episode = recorded_episode(564027548, [(15, 16), (29, 35), (22, 23), (19, 25), (15, 21), (9, 10), (34, 35), None])
        assert [call[-1] for call in episode] == [False, True, False, True, False, False, False, True]
        for start, model, n_steps, out, recomputed in episode:
            assert out.populations.min() >= 0.0
            if recomputed:
                assert_recomputed_like_stepping(out, start, model, n_steps)

    def test_isolated_exit_is_recomputed_over_a_300_step_tail(self):
        # Edit (34, 35) leaves exit 35 linked to the sink alone, with the
        # escape probability at 3e-3. At the end of the last, 300-step
        # interval a basis gives the exit population as -9.9e-22.
        links = [(28, 29), None, (12, 18), (18, 19), (33, 34), (33, 34), (34, 35), (7, 13)]
        start, model, n_steps, out, recomputed = recorded_episode(591539794, links)[-1]
        assert recomputed and n_steps == 300 and 2e-3 < start.matrix[-1, -1].real < 4e-3
        assert dynamics._components(model, [35]) == {(35, 36)}
        assert_recomputed_like_stepping(out, start, model, n_steps)

    @pytest.mark.parametrize(
        "seed, n_steps, cuts, components",
        [
            (131995, 20, [(34, 41), (31, 38), (38, 39), (10, 11)], [(11, 12), (7, 8, 14, 15, 21, 22, 23, 28, 29, 30, 31, 32, 35, 36, 37, 42, 43, 44, 45, 46, 47, 48, 49)]),
            (849216, 100, [(3, 4), (9, 10)], [(2, 9), (3, 10)]),
        ],
        ids=["exit-and-pair", "two-pairs"],
    )
    def test_several_cut_off_components_are_recomputed(self, seed, n_steps, cuts, components):
        # Edits to a 7x7 maze after n_steps cut off parts that hold
        # populations of 1e-18 or less. At the end of the next 300 steps a
        # basis gives negative populations in two of them: the exit's part
        # and the pair (11, 12), or the pairs (2, 9) and (3, 10), which hold
        # no sink. Each is recomputed in a span of its own.
        params = QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0)
        maze = generate_perfect_maze(7, 7, seed=seed)
        model = build_model(maze, params)
        start = propagate(initial_state(model), model, n_steps)
        for link in cuts:
            maze = toggle_link(maze, *link)
        model = build_model(maze, params)
        found = []
        components_of = dynamics._components

        def recorded(model, nodes):
            found.append(components_of(model, nodes))
            return found[-1]

        with (
            mock.patch.object(dynamics, "_components", recorded),
            mock.patch.object(dynamics, "_stepped", wraps=dynamics._stepped) as stepped,
        ):
            out = propagate(start, model, 300, first_step=n_steps)
        assert stepped.call_count == 0 and found == [set(components)]
        assert out.populations.min() >= 0.0
        expected = stepped_outcome(start, model, 300).populations
        nodes = [node for component in components for node in component]
        np.testing.assert_allclose(out.populations[nodes], expected[nodes], rtol=1e-12, atol=0)

    def test_split_maze_at_p_1_takes_a_basis_that_matches_stepping(self):
        # Four edits split this maze at p = 1 into several components. A
        # windowed basis once gave populations down to -5.2e14 in four of
        # them and a huge positive one in a fifth, so the span was stepped.
        params = QSWParams(p=1.0, gamma=1.0, dt=0.1, t_final=100.0)
        maze = generate_perfect_maze(4, 4, seed=702241)
        model = build_model(maze, params)
        start = propagate(initial_state(model), model, 50)
        for link in [(2, 6), (9, 13), (14, 15), (1, 5)]:
            assert link in maze.edges
            maze = toggle_link(maze, *link)
        model = build_model(maze, params)
        with mock.patch.object(dynamics, "_stepped", wraps=dynamics._stepped) as stepped:
            out = propagate(start, model, 300, first_step=50)
        assert stepped.call_count == 0
        np.testing.assert_allclose(out.matrix, stepped_outcome(start, model, 300).matrix, rtol=0, atol=1e-13)

    def test_t4_contracts_on_the_guarded_half_disk_only(self):
        def largest_t4(radius):
            # by the maximum modulus principle |T4| peaks on the half-disk's boundary
            arc = radius * np.exp(1j * np.linspace(np.pi / 2, 3 * np.pi / 2, 20001))
            z = np.concatenate([arc, 1j * np.linspace(-radius, radius, 20001)])
            return np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24).max()

        assert largest_t4(KRYLOV_RADIUS) <= 1.0 + 1e-15  # |T4(z)| = 1 + O(|z|^6) near z = 0
        assert largest_t4(2.7) > 1.1
        z = np.linspace(-2.6, 0.0, 7) + 1j * np.linspace(0.0, 2.0, 7)
        np.testing.assert_allclose(np.diag(_t4(np.diag(z))), 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24, atol=1e-15)

    @pytest.mark.parametrize("p, gamma", [(0.0, 1.0), (0.31, 0.7), (0.8, 1.0), (1.0, 10.0)])
    def test_norm_bound_exceeds_spectral_radius(self, p, gamma):
        model = build_model(generate_perfect_maze(3, 3, seed=2), QSWParams(p=p, gamma=gamma))
        form = _RealForm(model)
        d = model.dim
        columns = []
        for unit in np.eye(d * d):
            columns.append(_rhs(form, unit.reshape(d, d)).ravel().copy())
        spectrum = np.linalg.eigvals(np.array(columns).T)
        assert np.abs(spectrum).max() < _norm_bound(form)
        assert spectrum.real.max() <= 1e-12  # a Lindblad spectrum lies in Re z <= 0

    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("dt", [0.02, 0.1])
    def test_single_step_matches_complex_rk4_oracle(self, size, dt):
        # one step is a degree-4 polynomial of L, exact only with 4 + 1 basis vectors
        maze = generate_perfect_maze(size, size, seed=3)
        for p in (0.31, 1.0):
            model = build_model(maze, QSWParams(p=p, gamma=0.7, dt=dt, t_final=1.0))
            rho = random_density_matrix(model.dim, np.random.default_rng(size))
            out = propagate(DensityMatrix(rho), model, 1).matrix
            expected = literal_rk4(rho, maze.adjacency, p, 0.7, maze.exit, dt, 1)
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13)

    def test_interval_applies_the_generator_far_fewer_times_than_stepping(self):
        # stepping applies L 4 times a step: 400 times on a 100-step action interval
        maze = generate_perfect_maze(6, 6, seed=1)
        model = build_model(maze, QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        with mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted:
            propagate(initial_state(model), model, 100)
        assert counted.call_count <= 60

    def test_exit_trace_of_300_step_span_matches_stepping(self):
        # the last action interval of a criterion-5 episode: steps 700..1000
        maze = generate_perfect_maze(6, 6, seed=1)
        model = build_model(maze, QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        start = propagate(initial_state(model), model, 700)
        trace, stepped_trace = np.empty(300), np.empty(300)
        out = propagate(start, model, 300, first_step=700, exit_trace=trace)
        stepped = stepped_outcome(start, model, 300, stepped_trace)
        np.testing.assert_allclose(out.matrix, stepped.matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace, stepped_trace, rtol=0, atol=1e-13)
        assert trace[-1] == out.matrix[maze.exit, maze.exit].real

    def test_integral_definition_agrees_over_one_300_step_span(self):
        maze = generate_perfect_maze(3, 3, seed=1)
        model = build_model(maze, QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=30.0))
        traj = evolve(initial_state(model), model, sample_every=300)
        integral = p_sink_from_integral(traj, model)
        assert traj.final_p_sink() > 0.4
        assert np.max(np.abs(integral - traj.p_sink_series)) <= 1e-5
        with stepping_only():
            stepped = evolve(initial_state(model), model, sample_every=300)
        np.testing.assert_allclose(integral, p_sink_from_integral(stepped, model), rtol=0, atol=1e-13)


    @pytest.mark.parametrize("p", [0.0, 0.3, 0.8])
    def test_gram_schmidt_keeps_the_basis_orthonormal(self, p):
        # a single Gram-Schmidt pass leaves these 36-55 vectors orthogonal
        # only to 1e-6..1e-10
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=p, gamma=1.0, dt=0.1, t_final=30.0))
        form = _RealForm(model)
        basis, ys = _krylov_span(_to_real(initial_state(model).matrix), 100, 0.1, form, _norm_bound(form))
        assert len(ys) == 100
        np.testing.assert_allclose(basis @ basis.T, np.eye(len(basis)), rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "first_step, n_steps, extra", [(0, 100, 2), (700, 300, 16)], ids=["interval", "tail"]
    )
    def test_checks_stop_the_basis_near_the_smallest_resolving_size(self, first_step, n_steps, extra):
        # criterion-5 spans: the first action interval and the last one. The
        # interval stops at the size a full Gram-Schmidt basis needs (35). On
        # the tail that basis needs 40; the windowed one resolves at 50, and
        # its check that passes comes at 53.
        model = build_model(generate_perfect_maze(6, 6, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        start = initial_state(model)
        if first_step:
            start = propagate(start, model, first_step)
        form = _RealForm(model)
        r0 = _to_real(start.matrix)
        with mock.patch.object(dynamics, "_t4", wraps=_t4) as checks:
            basis, ys = _krylov_span(r0, n_steps, 0.1, form, _norm_bound(form))
        assert len(ys) == n_steps and checks.call_count <= 6
        size = smallest_resolving_size(generator_image(form), r0, _t4, 0.1, n_steps, KRYLOV_MAX_BASIS)
        if size is None:
            pytest.fail("the reference basis does not resolve the end state")
        assert size <= len(basis) <= size + extra

    def test_near_stationary_span_stops_near_the_smallest_resolving_size(self):
        # After 20 000 steps 93 % of the population is in the sink, where L
        # vanishes: a 100-step interval resolves at 5 vectors, well before
        # the Hochbruck-Lubich bound's first check at 14.
        model = build_model(generate_perfect_maze(6, 6, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        start = propagate(initial_state(model), model, 20_000)
        assert start.matrix[-1, -1].real > 0.9
        form = _RealForm(model)
        r0 = _to_real(start.matrix)
        basis, ys = _krylov_span(r0, 100, 0.1, form, _norm_bound(form))
        assert len(ys) == 100
        size = smallest_resolving_size(generator_image(form), r0, _t4, 0.1, 100, KRYLOV_MAX_BASIS)
        if size is None:
            pytest.fail("the reference basis does not resolve the end state")
        assert len(basis) <= size + 2

    @pytest.mark.parametrize("size, p", [(6, 0.3), (10, 0.3), (6, 0.8), (10, 0.05)])
    def test_windowed_basis_satisfies_the_arnoldi_relation(self, size, p):
        # L v_j = sum of h_ij v_i over the window and v_{j+1}, to roundoff,
        # though the basis is orthogonal only within each window
        model = build_model(generate_perfect_maze(size, size, seed=1), QSWParams(p=p, gamma=1.0, dt=0.1, t_final=100.0))
        form = _RealForm(model)
        start = propagate(initial_state(model), model, 100)
        basis, _ = _krylov_span(_to_real(start.matrix), 300, 0.1, form, _norm_bound(form))
        assert len(basis) > KRYLOV_WINDOW + 1
        apply = generator_image(form)
        worst = 0.0
        for j in range(len(basis) - 1):
            image = apply(basis[j])
            window = basis[max(0, j - KRYLOV_WINDOW + 1) : j + 2].T
            coefficients = np.linalg.lstsq(window, image, rcond=None)[0]
            worst = max(worst, np.linalg.norm(window @ coefficients - image) / np.linalg.norm(image))
        assert worst <= 1e-14
        assert np.linalg.cond(basis[:KRYLOV_WINDOW]) <= 1.0 + 1e-12

    @pytest.mark.parametrize("p", [0.05, 0.3])
    def test_windowed_span_never_stops_at_the_state_space_dimension(self, p):
        # A windowed basis of d^2 vectors need not span the state space, so
        # m = d^2 is no stopping point for it. Here the 100-dimensional 3x3
        # space is windowed and the cap raised past it: a span must run on
        # until its end state resolves, and land on stepping.
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=p, gamma=1.0, dt=0.1, t_final=100.0))
        sizes = []

        def span(*args, **kwargs):
            out = _krylov_span(*args, **kwargs)
            sizes.append(len(out[0]))
            return out

        trace, stepped_trace = np.empty(300), np.empty(300)
        with (
            mock.patch.object(dynamics, "KRYLOV_FULL_SPACE", 0),
            mock.patch.object(dynamics, "KRYLOV_MAX_BASIS", 200),
            mock.patch.object(dynamics, "_krylov_span", span),
            mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted,
        ):
            out = propagate(initial_state(model), model, 300, exit_trace=trace)
        assert max(sizes) > model.dim**2 and counted.call_count < 4 * 300  # not stepped again
        stepped = stepped_outcome(initial_state(model), model, 300, stepped_trace)
        np.testing.assert_allclose(out.matrix, stepped.matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace, stepped_trace, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "first_step, n_steps",
        [(0, 100), (700, 300), (300, 1), (300, 4), (300, 15)],
        ids=["interval", "tail", "1-step", "4-step", "15-step"],
    )
    def test_end_state_alone_skips_the_rows(self, first_step, n_steps):
        # without exit_trace a propagate call wants the end state only, as
        # every MazeEnv.step does: it comes from the check that passed
        model = build_model(generate_perfect_maze(6, 6, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        start = initial_state(model)
        if first_step:
            start = propagate(start, model, first_step)
        with (
            mock.patch.object(dynamics, "_powers", wraps=dynamics._powers) as powers,
            mock.patch.object(dynamics, "_t4", wraps=_t4) as t4,
        ):
            out = propagate(start, model, n_steps, first_step=first_step)
        assert powers.call_count == 0 and t4.call_count <= 3
        np.testing.assert_allclose(out.matrix, stepped_outcome(start, model, n_steps).matrix, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_steps", [1, 4, 15])
    def test_short_span_takes_a_basis(self, n_steps):
        # inside the guard a span of any length is evaluated in a basis: no RK4 step is taken
        maze = generate_perfect_maze(6, 6, seed=1)
        model = build_model(maze, QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        start = propagate(initial_state(model), model, 300)
        trace, stepped_trace = np.empty(n_steps), np.empty(n_steps)
        with mock.patch.object(dynamics, "_rk4_step", wraps=dynamics._rk4_step) as steps:
            out = propagate(start, model, n_steps, first_step=300, exit_trace=trace)
        assert steps.call_count == 0
        stepped = stepped_outcome(start, model, n_steps, stepped_trace)
        np.testing.assert_allclose(out.matrix, stepped.matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace, stepped_trace, rtol=0, atol=1e-13)
        assert trace[-1] == out.matrix[maze.exit, maze.exit].real

    def test_near_coherent_interval_takes_a_basis(self):
        # at p = 0.05 a 100-step interval needs about 80 windowed basis
        # vectors, each about one application of L, where stepping makes 400
        model = build_model(generate_perfect_maze(6, 6, seed=1), QSWParams(p=0.05, gamma=1.0, dt=0.1, t_final=100.0))
        with (
            mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted,
            mock.patch.object(dynamics, "_krylov_span", wraps=_krylov_span) as spans,
        ):
            out = propagate(initial_state(model), model, 100)
        assert spans.call_count >= 1 and counted.call_count < 400
        stepped = stepped_outcome(initial_state(model), model, 100)
        np.testing.assert_allclose(out.matrix, stepped.matrix, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("size, p, n_steps", [(6, 0.3, 100), (4, 0.2, 300)], ids=["6x6-p0.3", "4x4-p0.2"])
    def test_span_whose_basis_fits_the_budget_takes_it(self, size, p, n_steps):
        # these spans take a basis, which applies L fewer times than
        # stepping's 4 per step
        maze = generate_perfect_maze(size, size, seed=1)
        model = build_model(maze, QSWParams(p=p, gamma=1.0, dt=0.1, t_final=100.0))
        trace, stepped_trace = np.empty(n_steps), np.empty(n_steps)
        with mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted:
            out = propagate(initial_state(model), model, n_steps, exit_trace=trace)
        assert counted.call_count < 4 * n_steps
        stepped = stepped_outcome(initial_state(model), model, n_steps, stepped_trace)
        np.testing.assert_allclose(out.matrix, stepped.matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace, stepped_trace, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("length", [99, 101])
    @pytest.mark.parametrize("p", [0.8, 0.05], ids=["krylov", "stepped"])
    def test_exit_trace_of_wrong_length_is_refused(self, p, length):
        # before any work, on a span that gets a basis and on one that is stepped
        model = build_model(generate_perfect_maze(6, 6, seed=1), QSWParams(p=p, gamma=1.0, dt=0.1, t_final=100.0))
        with (
            mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted,
            pytest.raises(ValueError, match=rf"^exit_trace has shape \({length},\), expected \(100,\)$"),
        ):
            propagate(initial_state(model), model, 100, exit_trace=np.empty(length))
        assert counted.call_count == 0

    @pytest.mark.parametrize("n_steps", [0, 10])
    @pytest.mark.parametrize("p", [0.8, 0.05], ids=["krylov", "stepped"])
    def test_state_of_another_dimension_is_refused(self, p, n_steps):
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=p, gamma=1.0, dt=0.1, t_final=100.0))
        with (
            mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted,
            pytest.raises(ValueError, match=r"^initial state dimension 5 does not match model 10$"),
        ):
            propagate(DensityMatrix.basis_state(5, 0), model, n_steps)
        assert counted.call_count == 0

    def test_negative_n_steps_is_refused(self):
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        with pytest.raises(ValueError, match=r"^n_steps must be >= 0, got -3$"):
            propagate(initial_state(model), model, -3)

    def test_zero_steps_return_the_start_state(self):
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        start = propagate(initial_state(model), model, 7)
        with mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted:
            out = propagate(start, model, 0, first_step=7, exit_trace=np.empty(0))
        assert counted.call_count == 0
        np.testing.assert_array_equal(out.matrix, start.matrix)

    def test_step_that_writes_a_nan_fails_as_a_non_finite_state(self):
        # a NaN stored into the state raises no floating-point flag: the trace check catches it
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        rk4_step = dynamics._rk4_step

        def nan_step(r, dt, form):
            rk4_step(r, dt, form)
            r[0, 0] = np.nan

        with stepping_only(), mock.patch.object(dynamics, "_rk4_step", nan_step):
            message, step, t, dt, drift, last_good = outcome(lambda: propagate(initial_state(model), model, 5, first_step=7))
        assert (message, step, dt, last_good) == ("non-finite state at step 8, t=0.8, dt=0.1", 8, 0.1, 7)
        assert t == pytest.approx(0.8) and np.isnan(drift)

    def test_step_whose_product_with_the_norm_bound_overflows_is_refused(self):
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=0.8, gamma=1.0, dt=1e308, t_final=1e308))
        with pytest.raises(ValueError, match=r"^dt=1e\+308 is too large for this model: dt times its generator's norm bound \S+ is not finite$"):
            propagate(initial_state(model), model, 1)

    @pytest.mark.parametrize("n_steps", [2**50, 10**30], ids=["memory", "size"])
    def test_n_steps_that_cannot_be_allocated_is_refused(self, n_steps):
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        message = rf"^n_steps={n_steps} is too many: their exit-node record needs {8 * n_steps} bytes$"
        with mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted, pytest.raises(ValueError, match=message):
            propagate(initial_state(model), model, n_steps)
        assert counted.call_count == 0

    @pytest.mark.parametrize("p", [0.8, 0.05], ids=["krylov", "stepped"])
    @pytest.mark.parametrize("first_step, message", [(2.5, "first_step: expected an integer"), (-1, "first_step must be >= 0, got -1")])
    def test_bad_first_step_is_refused(self, p, first_step, message):
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=p, gamma=1.0, dt=0.1, t_final=100.0))
        with mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted, pytest.raises(ValueError, match=f"^{message}$"):
            propagate(initial_state(model), model, 3, first_step=first_step)
        assert counted.call_count == 0

    def test_numpy_integer_n_steps_is_taken(self):
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        start = initial_state(model)
        np.testing.assert_array_equal(propagate(start, model, np.int64(7)).matrix, propagate(start, model, 7).matrix)

    @pytest.mark.parametrize("n_steps", [2.5, 100.0, True], ids=["fraction", "whole-float", "bool"])
    def test_n_steps_that_is_not_an_int_is_refused(self, n_steps):
        model = build_model(generate_perfect_maze(3, 3, seed=1), QSWParams(p=0.8, gamma=1.0, dt=0.1, t_final=100.0))
        with (
            mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted,
            pytest.raises(ValueError, match=r"^n_steps: expected an integer$"),
        ):
            propagate(initial_state(model), model, n_steps)
        assert counted.call_count == 0

    @pytest.mark.parametrize("cut", ["basis cap"])
    def test_spans_cut_short_match_stepping(self, cut):
        # Every basis here aims at the whole rest of the span. One capped at
        # 24 vectors is restarted from its last resolved step.
        maze = generate_perfect_maze(4, 4, seed=2)
        for p in (0.05, 0.5):
            model = build_model(maze, QSWParams(p=p, gamma=0.7, dt=0.1, t_final=30.0))
            trace, stepped_trace = np.empty(300), np.empty(300)
            with (
                mock.patch.object(dynamics, "KRYLOV_MAX_BASIS", 24),
                mock.patch.object(dynamics, "_krylov_span", wraps=_krylov_span) as spans,
                mock.patch.object(dynamics, "_rk4_step", wraps=dynamics._rk4_step) as steps,
            ):
                out = propagate(initial_state(model), model, 300, exit_trace=trace)
            assert spans.call_count >= 3 and steps.call_count == 0
            stepped = stepped_outcome(initial_state(model), model, 300, stepped_trace)
            np.testing.assert_allclose(out.matrix, stepped.matrix, rtol=0, atol=1e-13)
            np.testing.assert_allclose(trace, stepped_trace, rtol=0, atol=1e-13)
            assert trace[-1] == out.matrix[maze.exit, maze.exit].real

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.8, 1.0])
    def test_evolve_snapshots_match_stepping(self, p):
        # evolve takes every snapshot of the horizon from as few bases as pay;
        # 500 steps sampled every 7 leave a last chunk of 3
        maze = generate_perfect_maze(4, 4, seed=5)
        model = build_model(maze, QSWParams(p=p, gamma=1.0, dt=0.1, t_final=50.0))
        traj = evolve(initial_state(model), model, sample_every=7)
        with stepping_only():
            stepped = evolve(initial_state(model), model, sample_every=7)
        np.testing.assert_array_equal(traj.sample_steps, stepped.sample_steps)
        assert traj.sample_steps[-1] - traj.sample_steps[-2] == 3
        for got, expected in zip(traj.states, stepped.states, strict=True):
            np.testing.assert_allclose(got.matrix, expected.matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(traj.exit_occupation, stepped.exit_occupation, rtol=0, atol=1e-13)
        at_samples = [state.matrix[maze.exit, maze.exit].real for state in traj.states]
        np.testing.assert_array_equal(traj.exit_occupation[traj.sample_steps], at_samples)

    def test_evolve_reports_the_stepped_failure(self):
        # RK4 at dt = 0.1 breaks the positivity of a coherent walk in its first step
        model = build_model(generate_perfect_maze(6, 6, seed=1), QSWParams(p=0.0, gamma=1.0, dt=0.1, t_final=10.0))
        got = outcome(lambda: evolve(initial_state(model), model))
        assert isinstance(got, tuple) and got[0].startswith("invalid state at step 1: ")
        with stepping_only():
            assert got == outcome(lambda: evolve(initial_state(model), model))

class TestInitialState:
    def test_is_entrance_projector(self):
        maze = generate_perfect_maze(2, 2, seed=0)
        model = build_model(maze, QSWParams(p=0.5))
        rho0 = initial_state(model)
        assert rho0.matrix[0, 0] == 1.0
        assert np.count_nonzero(rho0.matrix) == 1
        assert rho0.purity() == pytest.approx(1.0)


class TestEvolve:
    def test_far_population_keeps_sink_empty(self):
        # short horizon, walker starts many hops from the exit
        maze = path_maze(6)
        model = build_model(maze, QSWParams(p=0.5, dt=0.001, t_final=0.05))
        traj = evolve(initial_state(model), model, sample_every=10)
        assert traj.final_p_sink() <= 1e-10

    def test_unitary_limit_conserves_purity(self):
        maze = generate_perfect_maze(3, 3, seed=4)
        model = build_model(maze, QSWParams(p=0.0, dt=0.002, t_final=3.0)).without_sink()
        traj = evolve(initial_state(model), model, sample_every=100)
        purities = [s.purity() for s in traj.states]
        assert max(purities) - min(purities) <= 1e-8

    def test_no_sink_conserves_trace(self):
        maze = generate_perfect_maze(3, 3, seed=4)
        model = build_model(maze, QSWParams(p=0.7, dt=0.005, t_final=5.0)).without_sink()
        traj = evolve(initial_state(model), model, sample_every=100)
        for state in traj.states:
            assert abs(state.matrix.trace().real - 1.0) <= 1e-8
        assert traj.final_p_sink() == 0.0

    def test_classical_limit_matches_rate_equation(self):
        # 2-node maze, p = 1, Gamma = 1: diagonal populations obey the
        # classical rate system dp0 = p1/d1^2 - p0/d0, etc., integrated
        # here by an independent scipy solver
        maze = path_maze(2)
        model = build_model(maze, QSWParams(p=1.0, gamma=1.0, dt=0.005, t_final=10.0))
        traj = evolve(initial_state(model), model, sample_every=40)
        expected = classical_populations(maze.adjacency, 1.0, maze.exit, maze.entrance, traj.times)
        actual = np.array([s.populations for s in traj.states])
        np.testing.assert_allclose(actual, expected, atol=1e-6)

    def test_integral_definition_agrees_with_sink_population(self):
        maze = path_maze(2)
        model = build_model(maze, QSWParams(p=1.0, gamma=1.0, dt=0.005, t_final=10.0))
        traj = evolve(initial_state(model), model, sample_every=40)
        integral = p_sink_from_integral(traj, model)
        assert np.max(np.abs(integral - traj.p_sink_series)) <= 1e-4

    def test_integral_monotone(self):
        maze = generate_perfect_maze(2, 2, seed=1)
        model = build_model(maze, QSWParams(p=0.5, dt=0.01, t_final=5.0))
        traj = evolve(initial_state(model), model, sample_every=25)
        integral = p_sink_from_integral(traj, model)
        assert np.all(np.diff(integral) >= 0.0)

    def test_sink_population_monotone(self):
        maze = generate_perfect_maze(3, 3, seed=6)
        model = build_model(maze, QSWParams(p=0.8, dt=0.01, t_final=8.0))
        traj = evolve(initial_state(model), model, sample_every=20)
        assert np.all(np.diff(traj.p_sink_series) >= -1e-9)

    def test_numpy_integer_sample_every_is_taken(self):
        model = build_model(generate_perfect_maze(3, 3, seed=6), QSWParams(p=0.8, dt=0.1, t_final=8.0))
        a, b = (evolve(initial_state(model), model, sample_every=every) for every in (np.uint8(20), 20))
        np.testing.assert_array_equal(a.p_sink_series, b.p_sink_series)
        np.testing.assert_array_equal(a.sample_steps, b.sample_steps)

    @pytest.mark.parametrize("every", [2.5, 10.0, True], ids=["fraction", "whole-float", "bool"])
    def test_sample_every_that_is_not_an_int_is_refused(self, every):
        model = build_model(generate_perfect_maze(3, 3, seed=6), QSWParams(p=0.8, dt=0.1, t_final=8.0))
        with (
            mock.patch.object(dynamics, "_rhs", wraps=_rhs) as counted,
            pytest.raises(ValueError, match=r"^sample_every: expected an integer$"),
        ):
            evolve(initial_state(model), model, sample_every=every)
        assert counted.call_count == 0

    def test_snapshots_are_valid_density_matrices(self):
        maze = generate_perfect_maze(3, 3, seed=6)
        model = build_model(maze, QSWParams(p=0.3, dt=0.01, t_final=4.0))
        traj = evolve(initial_state(model), model, sample_every=50)
        # construction of DensityMatrix already enforced the invariants;
        # re-check the headline numbers explicitly
        for state in traj.states:
            assert abs(state.matrix.trace().real - 1.0) <= 1e-6
            assert np.max(np.abs(state.matrix - state.matrix.conj().T)) <= 1e-8
            assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-6

    def test_final_time_always_sampled(self):
        maze = generate_perfect_maze(2, 2, seed=0)
        model = build_model(maze, QSWParams(p=0.5, dt=0.01, t_final=1.0))
        traj = evolve(initial_state(model), model, sample_every=7)
        assert traj.sample_steps[-1] == 100
        assert traj.times[-1] == pytest.approx(1.0)

    def test_oversized_step_reports_failure_with_index(self):
        maze = generate_perfect_maze(4, 4, seed=0)
        model = build_model(maze, QSWParams(p=0.0, gamma=1.0, dt=1.5, t_final=30.0))
        with pytest.raises(IntegrationError) as err:
            evolve(initial_state(model), model, sample_every=1)
        assert err.value.step is not None

    def test_failure_carries_time_step_size_and_drift(self):
        maze = generate_perfect_maze(4, 4, seed=0)
        model = build_model(maze, QSWParams(p=0.0, gamma=1.0, dt=1.5, t_final=30.0))
        with pytest.raises(IntegrationError) as err:
            evolve(initial_state(model), model, sample_every=1)
        exc = err.value
        assert exc.dt == 1.5 and exc.t == exc.step * 1.5
        assert exc.last_good_step == exc.step - 1  # one-step spans: the start of the span is validated
        assert 0.0 <= exc.drift <= 1e-6  # the trace held; positivity failed
        assert str(exc).startswith(f"invalid state at step {exc.step}: not positive semidefinite")
        assert str(exc).endswith(f", t={exc.t:g}, dt=1.5")

    def test_dimension_mismatch_rejected(self):
        model = build_model(path_maze(2), QSWParams(p=0.5))
        with pytest.raises(ValueError, match=r"^initial state dimension 5 does not match model 3$"):
            evolve(DensityMatrix.basis_state(5, 0), model)


class TestPSinkFromIntegral:
    def test_zero_exit_occupation_gives_zero(self):
        # cut the exit off completely: rho_nn stays 0, so the integral is 0
        maze = generate_perfect_maze(2, 2, seed=0)
        for i, j in maze.edges:
            if maze.exit in (i, j):
                maze = toggle_link(maze, i, j)
        model = build_model(maze, QSWParams(p=0.5, dt=0.01, t_final=2.0))
        traj = evolve(initial_state(model), model, sample_every=20)
        integral = p_sink_from_integral(traj, model)
        np.testing.assert_array_equal(integral, np.zeros_like(integral))

    def test_empty_trajectory_rejected(self):
        maze = path_maze(2)
        model = build_model(maze, QSWParams(p=0.5))
        empty = Trajectory(
            times=np.array([]),
            states=(),
            p_sink_series=np.array([]),
            step_times=np.array([]),
            exit_occupation=np.array([]),
            sample_steps=np.array([], dtype=int),
        )
        with pytest.raises(ValueError):
            p_sink_from_integral(empty, model)
