"""Lindblad dynamics of a stochastic walker on a maze with an absorbing sink.

The walker's state is a density matrix over the maze cells plus one
extra basis state, the sink. The generator interpolates between a
coherent quantum walk (mixing parameter p = 0) and a classical random
walk (p = 1):

    drho/dt = -(1-p) i [H, rho] + p * D_walk(rho) + D_sink(rho)

with H the maze adjacency matrix (zero-padded for the sink), one jump
operator (A_ij / d_j) |i><j| per ordered linked pair for the classical
part, and an irreversible transfer from the exit node n into the sink S
at rate Gamma:

    D_sink(rho) = Gamma (2 |S><n| rho |n><S| - {|n><n|, rho}).

Every jump operator has a single entry, so the whole generator folds
into an effective non-Hermitian matrix K and a real gain matrix G:

    drho/dt = K rho + rho K^dag + diag(G diag(rho))
    G[i, j] = p A_ij / d_j^2 on the maze,   G[S, n] = 2 Gamma,
    K       = -i(1-p) H - (1/2) diag(column sums of G)
            = -i(1-p) H - (p/2) diag(loss) - Gamma |n><n|,

where loss_j = sum_i A_ij / d_j^2 is the total hopping rate out of j.
G moves population, K damps what G removes and carries the coherent
part, and the output is Hermitian by construction.

Because the sink is part of the state space the generator conserves
trace, and the escape probability is simply rho_SS(t). The equivalent
time-integral definition 2 Gamma * integral of rho_nn is kept as a
cross-check, see :func:`p_sink_from_integral`.

Integration is fixed-step RK4 for determinism; a step that drifts the
trace or produces non-finite values raises :class:`IntegrationError`
instead of renormalizing.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .header import config_header
from .maze import MazeGraph, degrees
from .states import DensityMatrix


class IntegrationError(RuntimeError):
    """Integration produced an invalid state (step size too large)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


TRACE_DRIFT_LIMIT = 1e-6


def whole_steps(span: float, dt: float, name: str) -> int:
    """Number of dt steps in ``span``; raises ValueError unless it is a whole number."""
    steps = round(span / dt)
    if not math.isclose(steps * dt, span, rel_tol=1e-9):
        raise ValueError(f"{name}={span} is not a whole multiple of dt={dt}")
    return steps


@dataclass(frozen=True)
class QSWParams:
    """Walk and integration parameters.

    p:       classical/quantum mixing in [0, 1] (0 = coherent, 1 = classical)
    gamma:   sink transfer rate, > 0
    dt:      RK4 step
    t_final: integration horizon
    """

    p: float
    gamma: float = 1.0
    dt: float = 0.005
    t_final: float = 10.0

    def __post_init__(self):
        for name in ("p", "gamma", "dt", "t_final"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 < self.dt <= self.t_final:
            raise ValueError("dt must satisfy 0 < dt <= t_final")
        whole_steps(self.t_final, self.dt, "t_final")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Generator of one maze topology in the (K, G) form above.

    ``K`` (complex) and ``G`` (real) are read-only and span the maze
    cells plus the sink, which is the last basis state. The validation
    variant from :meth:`without_sink` has Gamma left out of both.
    """

    K: np.ndarray
    G: np.ndarray
    sink_exit: int
    entrance: int
    params: QSWParams

    @property
    def dim(self) -> int:
        return self.K.shape[0]

    @property
    def sink(self) -> int:
        """Basis index of the sink state (last index)."""
        return self.dim - 1

    def without_sink(self) -> "LindbladModel":
        """The same model with Gamma left out of K and G (validation mode)."""
        coherent = self.K + np.diag(0.5 * self.G.sum(axis=0))
        gain = self.G.copy()
        gain[self.sink, self.sink_exit] = 0.0
        k, g = _generator(coherent, gain)
        return replace(self, K=k, G=g)


def _generator(coherent: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (K, G) with K = coherent - diag(column sums of G) / 2."""
    k = coherent - np.diag(0.5 * gain.sum(axis=0))
    k.flags.writeable = False
    gain.flags.writeable = False
    return k, gain


def build_model(maze: MazeGraph, params: QSWParams) -> LindbladModel:
    """Assemble the Lindblad model for the current maze topology.

    Degrees are recomputed from the adjacency as given, so the same call
    works for pristine perfect mazes and for topologies already edited
    by an agent; an isolated node has an all-zero adjacency column and
    so no hopping rates.
    """
    n = maze.n_nodes
    p = params.p
    ham = np.zeros((n + 1, n + 1), dtype=complex)
    ham[:n, :n] = maze.adjacency
    gain = np.zeros((n + 1, n + 1))
    gain[:n, :n] = p * (maze.adjacency / np.maximum(degrees(maze), 1) ** 2)
    gain[n, maze.exit] = 2.0 * params.gamma
    k, g = _generator((-1j * (1.0 - p)) * ham, gain)
    return LindbladModel(K=k, G=g, sink_exit=maze.exit, entrance=maze.entrance, params=params)


def initial_state(model: LindbladModel) -> DensityMatrix:
    """All population at the entrance node: |entrance><entrance|."""
    return DensityMatrix.basis_state(model.dim, model.entrance)


def _rhs(rho: np.ndarray, model: LindbladModel) -> np.ndarray:
    """K rho + rho K^dag + diag(G diag(rho)) for a Hermitian matrix rho."""
    a = model.K @ rho
    out = a + a.conj().T
    out.flat[:: model.dim + 1] += model.G @ rho.diagonal()
    return out


def lindblad_rhs(rho, model: LindbladModel) -> np.ndarray:
    """drho/dt for a state of the model's dimension.

    Accepts a :class:`DensityMatrix` or a plain Hermitian array. The
    output is Hermitian and traceless: total population only moves
    between maze and sink, never leaves the state space.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape != (model.dim, model.dim):
        raise ValueError(f"state shape {mat.shape} does not match model dimension {model.dim}")
    return _rhs(mat, model)


def _rk4_step(rho: np.ndarray, dt: float, model: LindbladModel) -> np.ndarray:
    k1 = _rhs(rho, model)
    k2 = _rhs(rho + (0.5 * dt) * k1, model)
    k3 = _rhs(rho + (0.5 * dt) * k2, model)
    k4 = _rhs(rho + dt * k3, model)
    # rho + dt/6 * (k1 + 2 k2 + 2 k3 + k4), reusing the stage buffers
    k2 += k3
    k1 += k4
    k1 += 2.0 * k2
    k1 *= dt / 6.0
    k1 += rho
    return k1


def propagate(
    state: DensityMatrix,
    model: LindbladModel,
    n_steps: int,
    first_step: int = 0,
    exit_trace: np.ndarray | None = None,
) -> DensityMatrix:
    """Advance a state by n_steps RK4 steps and validate the result.

    Checks trace conservation after every step and validates the final
    state as a :class:`DensityMatrix`; any failure raises
    :class:`IntegrationError` with the step index, which ``first_step``
    offsets. When ``exit_trace`` is given (length n_steps) it receives
    the exit-node occupation after each step.
    """
    dt = model.params.dt
    n = model.sink_exit
    rho = state.matrix
    for k in range(n_steps):
        rho = _rk4_step(rho, dt, model)
        tr = rho.trace().real
        if not np.isfinite(tr):
            raise IntegrationError(
                f"non-finite state at step {first_step + k + 1}", step=first_step + k + 1
            )
        if abs(tr - 1.0) > TRACE_DRIFT_LIMIT:
            raise IntegrationError(
                f"trace drifted to {tr} at step {first_step + k + 1} (dt too large?)",
                step=first_step + k + 1,
            )
        if exit_trace is not None:
            exit_trace[k] = rho[n, n].real
    last = first_step + n_steps
    try:
        return DensityMatrix(rho)
    except ValueError as exc:
        raise IntegrationError(f"invalid state at step {last}: {exc}", step=last) from exc


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time evolution record.

    ``states`` holds validated snapshots at ``times``; ``sample_steps``
    maps each snapshot to its index on the dense per-step grid
    ``step_times``, where the exit-node occupation rho_nn is recorded at
    full resolution for the escape-probability integral.
    """

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    p_sink_series: np.ndarray
    step_times: np.ndarray
    exit_occupation: np.ndarray
    sample_steps: np.ndarray

    def final_p_sink(self) -> float:
        return float(self.p_sink_series[-1])


def evolve(rho0: DensityMatrix, model: LindbladModel, sample_every: int = 10) -> Trajectory:
    """Integrate from t = 0 to t_final, sampling every ``sample_every`` steps.

    Snapshots (including the final state) are the density matrices
    :func:`propagate` validated, so a failed invariant surfaces as an
    :class:`IntegrationError`. The sink population series must come out
    non-decreasing, anything else is likewise an integration failure.
    """
    if rho0.dim != model.dim:
        raise ValueError(f"initial state dimension {rho0.dim} does not match model {model.dim}")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    params = model.params
    n_steps = params.n_steps
    sink = model.sink
    n = model.sink_exit

    exit_occ = np.empty(n_steps + 1)
    exit_occ[0] = rho0.matrix[n, n].real
    snapshots = [rho0]
    sample_steps = [0]

    done = 0
    while done < n_steps:
        chunk = min(sample_every, n_steps - done)
        exit_trace = exit_occ[done + 1 : done + chunk + 1]
        snapshots.append(propagate(snapshots[-1], model, chunk, first_step=done, exit_trace=exit_trace))
        done += chunk
        sample_steps.append(done)

    dt = params.dt
    sample_steps = np.array(sample_steps)
    p_sink = np.array([s.matrix[sink, sink].real for s in snapshots])
    if np.any(np.diff(p_sink) < -1e-9):
        raise IntegrationError("sink population series is not monotone (dt too large?)")
    if p_sink.min() < -1e-9 or p_sink.max() > 1.0 + 1e-8:
        raise IntegrationError(f"sink population outside [0, 1]: {p_sink.min()}..{p_sink.max()}")
    return Trajectory(
        times=sample_steps * dt,
        states=tuple(snapshots),
        p_sink_series=p_sink,
        step_times=np.arange(n_steps + 1) * dt,
        exit_occupation=exit_occ,
        sample_steps=sample_steps,
    )


def p_sink_from_integral(traj: Trajectory, model: LindbladModel) -> np.ndarray:
    """Escape probability as 2*Gamma * integral of rho_nn dt', with 2*Gamma = G[S, n].

    Trapezoidal rule on the dense per-step record, evaluated at the
    snapshot times of ``traj``. Agrees with the direct sink read-out
    ``p_sink_series`` up to quadrature error.
    """
    if traj.exit_occupation.size == 0:
        raise ValueError("trajectory has no stored exit-node samples")
    steps = np.diff(traj.step_times)
    increments = 0.5 * steps * (traj.exit_occupation[1:] + traj.exit_occupation[:-1])
    cumulative = np.concatenate([[0.0], np.cumsum(increments)])
    return model.G[model.sink, model.sink_exit] * cumulative[traj.sample_steps]


def write_trajectory_csv(traj: Trajectory, path, config: dict | None = None) -> None:
    """Write `t,p_sink,pop_0..pop_N` rows, one per snapshot."""
    n_pop = traj.states[0].dim
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_header(config))
        fh.write("t,p_sink," + ",".join(f"pop_{i}" for i in range(n_pop)) + "\n")
        for t, p_sink, state in zip(traj.times, traj.p_sink_series, traj.states):
            pops = ",".join(repr(float(v)) for v in state.populations())
            fh.write(f"{float(t)!r},{float(p_sink)!r},{pops}\n")


def write_states_json(traj: Trajectory, path, config: dict | None = None) -> None:
    """Full snapshots as nested arrays of [re, im] pairs."""
    doc = {
        "config": {} if config is None else config,
        "times": [float(t) for t in traj.times],
        "states": [
            [[[z.real, z.imag] for z in row] for row in state.matrix]
            for state in traj.states
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")

