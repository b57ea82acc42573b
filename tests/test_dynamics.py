import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit.dynamics import (
    IntegrationError,
    QSWParams,
    Trajectory,
    build_model,
    evolve,
    initial_state,
    lindblad_rhs,
    p_sink_from_integral,
)
from qmlkit.maze import MazeGraph, generate_perfect_maze, grid_links, toggle_link
from qmlkit.states import DensityMatrix

from oracles import classical_populations, literal_rhs, random_density_matrix
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
        # the coherent part -i(1-p)H is K's whole imaginary part
        maze = generate_perfect_maze(3, 3, seed=0)
        model = build_model(maze, QSWParams(p=0.5))
        padded = np.zeros((10, 10))
        padded[:9, :9] = maze.adjacency
        np.testing.assert_array_equal(model.K.imag, -0.5 * padded)

    def test_isolated_node_contributes_no_jumps(self):
        maze = path_maze(3)
        maze = toggle_link(maze, 0, 1)  # node 0 now isolated
        model = build_model(maze, QSWParams(p=1.0))
        assert not model.G[0, :].any() and not model.G[:3, 0].any()
        # degrees recomputed: node 1 now has degree 1, not 2
        assert model.G[1, 2] == 1.0 and model.G[2, 1] == 1.0

    def test_effective_generator_entries(self):
        # K = -i(1-p) H - (p/2) diag(loss) - Gamma |n><n|, loss_j = 1/d_j
        maze = path_maze(3)  # degrees 1, 2, 1; exit is node 2
        model = build_model(maze, QSWParams(p=0.3, gamma=0.7))
        ham = np.zeros((4, 4))
        ham[:3, :3] = maze.adjacency
        damping = 0.15 * np.array([1.0, 0.5, 1.0, 0.0])
        damping[2] += 0.7
        np.testing.assert_allclose(model.K, -0.7j * ham - np.diag(damping), atol=1e-15)
        assert model.G[3, 2] == 2 * 0.7
        plain = model.without_sink()
        damping[2] -= 0.7
        np.testing.assert_allclose(plain.K, -0.7j * ham - np.diag(damping), atol=1e-15)
        assert not plain.G[3].any()
        np.testing.assert_array_equal(plain.G[:3, :3], model.G[:3, :3])


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
            maze = toggle_link(maze, *maze.edges()[2])  # exercise edited topology
            model = build_model(maze, QSWParams(p=p, gamma=0.8))
            rho = random_density_matrix(model.dim, rng)
            np.testing.assert_allclose(
                lindblad_rhs(rho, model), literal_rhs(rho, maze.adjacency, p, 0.8, maze.exit), atol=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        model = build_model(path_maze(2), QSWParams(p=0.5))
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(7) / 7.0, model)

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
def edited_mazes(draw):
    """A random perfect maze from 1x2 to 4x4, then random agent toggles."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(2 if width == 1 else 1, 4))
    seed = draw(st.integers(0, 2**16))
    if min(width, height) >= 2:
        maze = generate_perfect_maze(width, height, seed=seed)
    else:  # a one-cell-wide grid has a single spanning tree: all its links
        n = width * height
        adj = np.zeros((n, n), dtype=np.int8)
        for i, j in grid_links(width, height):
            adj[i, j] = adj[j, i] = 1
        maze = MazeGraph(width, height, adj, entrance=0, exit=n - 1, seed=seed)
    links = grid_links(width, height)
    for k in draw(st.lists(st.integers(0, len(links) - 1), max_size=6)):
        maze = toggle_link(maze, *links[k])
    if draw(st.booleans()):  # cut one node off completely
        node = draw(st.integers(0, maze.n_nodes - 1))
        for i, j in maze.edges():
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

    def test_dimension_mismatch_rejected(self):
        model = build_model(path_maze(2), QSWParams(p=0.5))
        with pytest.raises(ValueError):
            evolve(DensityMatrix.basis_state(5, 0), model)


class TestPSinkFromIntegral:
    def test_zero_exit_occupation_gives_zero(self):
        # cut the exit off completely: rho_nn stays 0, so the integral is 0
        maze = generate_perfect_maze(2, 2, seed=0)
        for i, j in list(maze.edges()):
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
