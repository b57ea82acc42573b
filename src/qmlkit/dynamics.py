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

Integration runs on one real matrix. K has the form -i H_c - diag(delta)
with H_c = (1-p) H real symmetric and delta real, and a Hermitian
rho = X + iY (X symmetric, Y antisymmetric) is held exactly by
R = X + Y, with X = (R + R^T)/2 and Y = (R - R^T)/2. The generator in
that form is

    L(R) = (H_c R - R H_c)^T - (delta_i + delta_j) R_ij + diag(G diag(R)),

whose commutator is the single real product [H_c | R] @ [[R], [-H_c]].
L is linear and time-invariant, so one RK4 step is exactly its Horner
form R + dt L(R + dt/2 L(R + dt/3 L(R + dt/4 L(R)))).

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
from .states import HERMITIAN_ATOL, DensityMatrix


class IntegrationError(RuntimeError):
    """Integration produced an invalid state (step size too large).

    ``step`` is the first bad step and ``t`` its time, both counted from
    the start of the integration; ``dt`` is the step size, ``drift`` the
    bad state's |trace - 1|, and ``last_good_step`` the step of the last
    state validated as a :class:`DensityMatrix`. Each is None when not
    known. Given ``t`` and ``dt``, the message ends with both.
    """

    def __init__(
        self,
        message: str,
        step: int | None = None,
        *,
        t: float | None = None,
        dt: float | None = None,
        drift: float | None = None,
        last_good_step: int | None = None,
    ):
        if t is not None and dt is not None:
            message = f"{message}, t={t:g}, dt={dt:g}"
        super().__init__(message)
        self.step = step
        self.t = t
        self.dt = dt
        self.drift = drift
        self.last_good_step = last_good_step


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

    def __post_init__(self):
        if np.count_nonzero(self.K.real) > np.count_nonzero(self.K.real.diagonal()):
            raise ValueError("K: real part must be diagonal")
        if not np.array_equal(self.K.imag, self.K.imag.T):
            raise ValueError("K: imaginary part must be symmetric")

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

    The dense matrices are built here from the maze's edge list, with
    degrees recomputed from the links as given, so the same call works
    for pristine perfect mazes and for topologies already edited by an
    agent; an isolated node has no links and so no hopping rates. A maze
    too large for its (N+1) x (N+1) generator raises ValueError naming
    its size and the bytes required.
    """
    n = maze.n_nodes
    p = params.p
    try:
        ham = np.zeros((n + 1, n + 1), dtype=complex)
    except (MemoryError, ValueError) as exc:
        size = 16 * (n + 1) ** 2
        raise ValueError(f"maze {maze.width}x{maze.height} is too large: its generator needs {size} bytes") from exc
    adjacency = maze.adjacency
    ham[:n, :n] = adjacency
    gain = np.zeros((n + 1, n + 1))
    gain[:n, :n] = p * (adjacency / np.maximum(degrees(maze), 1) ** 2)
    gain[n, maze.exit] = 2.0 * params.gamma
    k, g = _generator((-1j * (1.0 - p)) * ham, gain)
    return LindbladModel(K=k, G=g, sink_exit=maze.exit, entrance=maze.entrance, params=params)


def initial_state(model: LindbladModel) -> DensityMatrix:
    """All population at the entrance node: |entrance><entrance|."""
    return DensityMatrix.basis_state(model.dim, model.entrance)


class _RealForm:
    """H_c, delta and the work buffers of L for one model, built once per call.

    The stage input Z is ``right[:d]``, the top block of
    ``right = [[Z], [-H_c]]``; :func:`_rhs` mirrors it into the right
    block of ``left = [H_c | Z]``, so ``left @ right = H_c Z - Z H_c``.
    """

    def __init__(self, model: LindbladModel):
        d = model.dim
        h = -model.K.imag
        delta = -model.K.real.diagonal()
        self.left = np.empty((d, 2 * d))
        self.left[:, :d] = h
        self.right = np.empty((2 * d, d))
        self.right[d:] = -h
        self.z = self.right[:d]
        self.z_mirror = self.left[:, d:]
        self.rate = delta[:, None] + delta  # delta_i + delta_j
        self.gain = model.G
        self.comm = np.empty((d, d))
        self.out = np.empty((d, d))
        self.out_diagonal = self.out.reshape(-1)[:: d + 1]


def _to_real(rho: np.ndarray) -> np.ndarray:
    """R = Re rho + Im rho, which holds a Hermitian rho exactly."""
    return rho.real + rho.imag


def _to_complex(r: np.ndarray) -> np.ndarray:
    """The Hermitian rho = (R + R^T)/2 + i (R - R^T)/2 that R holds."""
    return 0.5 * (r + r.T) + 0.5j * (r - r.T)


def _rhs(form: _RealForm) -> np.ndarray:
    """L(Z) for the stage input Z = ``form.z``, into ``form.out``."""
    z = form.z
    form.z_mirror[...] = z
    np.matmul(form.left, form.right, out=form.comm)
    out = form.out
    np.multiply(form.rate, z, out=out)
    np.subtract(form.comm.T, out, out=out)
    form.out_diagonal += form.gain @ z.diagonal()
    return out


def _rk4_step(r: np.ndarray, dt: float, form: _RealForm) -> None:
    """Advance R by one RK4 step in place, in Horner form."""
    z = form.z
    z[...] = r
    for c in (dt / 4.0, dt / 3.0, dt / 2.0):
        np.multiply(_rhs(form), c, out=z)
        z += r
    out = _rhs(form)
    out *= dt
    r += out


def lindblad_rhs(rho, model: LindbladModel) -> np.ndarray:
    """drho/dt for a state of the model's dimension.

    Accepts a :class:`DensityMatrix` or a plain Hermitian array; a
    non-Hermitian array raises ValueError. The output is Hermitian and
    traceless: total population only moves between maze and sink, never
    leaves the state space.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape != (model.dim, model.dim):
        raise ValueError(f"state shape {mat.shape} does not match model dimension {model.dim}")
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    if not herm_dev <= HERMITIAN_ATOL:
        raise ValueError(f"state is not Hermitian: max |M - M^dag| = {herm_dev}")
    form = _RealForm(model)
    form.z[...] = _to_real(mat)
    return _to_complex(_rhs(form))


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
    :class:`IntegrationError` with the index of the first bad step,
    offset by ``first_step``. When ``exit_trace`` is given (length
    n_steps) it receives the exit-node occupation after each step.
    """
    dt = model.params.dt
    n = model.sink_exit
    form = _RealForm(model)
    r = _to_real(state.matrix)
    for k in range(n_steps):
        _rk4_step(r, dt, form)
        tr = np.trace(r)
        if not abs(tr - 1.0) <= TRACE_DRIFT_LIMIT:
            step = first_step + k + 1
            problem = f"trace drifted to {tr} at step {step} (dt too large?)"
            if not np.isfinite(tr):
                problem = f"non-finite state at step {step}"
            raise IntegrationError(
                problem, step, t=step * dt, dt=dt, drift=float(abs(tr - 1.0)), last_good_step=first_step
            )
        if exit_trace is not None:
            exit_trace[k] = r[n, n]
    try:
        return DensityMatrix(_to_complex(r))
    except ValueError as exc:
        failure = exc
    # failure path: replay the span, validating every step, to find the first bad one
    r = _to_real(state.matrix)
    for step in range(first_step + 1, first_step + n_steps + 1):
        _rk4_step(r, dt, form)
        try:
            DensityMatrix(_to_complex(r))
        except ValueError as exc:
            failure = exc
            break
    raise IntegrationError(
        f"invalid state at step {step}: {failure}",
        step,
        t=step * dt,
        dt=dt,
        drift=float(abs(np.trace(r) - 1.0)),
        last_good_step=step - 1,
    ) from failure


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
        raise IntegrationError("sink population series is not monotone (dt too large?)", dt=dt)
    if p_sink.min() < -1e-9 or p_sink.max() > 1.0 + 1e-8:
        raise IntegrationError(f"sink population outside [0, 1]: {p_sink.min()}..{p_sink.max()}", dt=dt)
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
            pops = ",".join(map(repr, state.populations.tolist()))
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

