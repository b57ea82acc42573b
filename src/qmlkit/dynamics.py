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
with H_c = (1-p) H real symmetric and delta = (column sums of G)/2. A
Hermitian rho = X + iY (X symmetric, Y antisymmetric) is held exactly
by R = X + Y, with X = (R + R^T)/2 and Y = (R - R^T)/2. The generator
in that form is

    L(R) = R^T H_c - H_c R^T - (delta_i + delta_j) R_ij + diag(G diag(R)),

two real d x d products and elementwise terms. L is linear and
time-invariant, so one RK4 step is exactly its Horner form
R + dt L(R + dt/2 L(R + dt/3 L(R + dt/4 L(R)))), the polynomial
T4(dt L) R with T4(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

Integration is fixed-step RK4 for determinism. A span of n steps is the
polynomial T4(dt L)^n R, which :func:`propagate` evaluates in Krylov
subspaces of L (Saad 1992; Hochbruck & Lubich 1997) however small n is.
Beyond 3x3 mazes each basis vector is orthogonalised against the last
KRYLOV_WINDOW only, as in the KIOPS solver (Gaudreault, Rainwater &
Tokman 2018), so it costs about one application of L however large the
basis grows. The basis stops when its newest coefficients fall to
roundoff, so the result agrees with stepping to about 1e-14. The Krylov
path is taken only when dt times a norm bound of L is at most 2.6: the
spectrum of L lies in Re z <= 0, and |T4| <= 1 on the left half-disk of
radius 2.6, so stepping is stable there and has no growing component
that the Krylov subspace would drop.

A basis resolves the state only relative to the norm of its start
vector. A population far below that, such as that of an exit that wall
edits cut off, can come out negative. L couples no two connected
components of the link graph (the nonzeros of H_c and G; the sink joins
the exit's) and the sink's population is a fixed point of L, so each
component's diagonal block of R evolves by L restricted to it. Such a
block is recomputed from the start of the call in Krylov spans of that
restriction, with the sink's starting population set aside, which
resolves it relative to its own norm. Outside the disk, or when a state
still fails validation, the span is stepped: a step that drifts the
trace or produces non-finite values raises :class:`IntegrationError`
instead of renormalizing, and so does an invalid end state, naming the
first bad step.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import integer, real
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
SAMPLE_EVERY = 10  # evolve's steps between snapshots when the caller leaves them out
# |T4(z)| <= 1 on the left half-disk |z| <= 2.6 (not on |z| <= 2.7), so RK4
# is stable there; propagate takes the Krylov path only inside it.
KRYLOV_RADIUS = 2.6
# The largest Arnoldi basis and the fewest vectors at which its convergence is checked.
KRYLOV_MAX_BASIS = 60
KRYLOV_MIN_CHECK = 4
# A basis is orthogonalised in full on a state space of at most
# KRYLOV_FULL_SPACE dimensions (2x2 and 3x3 mazes), else against the last
# KRYLOV_WINDOW vectors only.
KRYLOV_FULL_SPACE = 100
KRYLOV_WINDOW = 8
ROUNDOFF = np.finfo(float).eps
LOG_ROUNDOFF = math.log(ROUNDOFF)


def whole_steps(span: float, dt: float, name: str) -> int:
    """Number of dt steps in ``span``; raises ValueError unless it is a whole number."""
    if not math.isfinite(span / dt):
        raise ValueError(f"{name}={span} spans too many steps of dt={dt}")
    steps = round(span / dt)
    if not math.isclose(steps * dt, span, rel_tol=1e-9):
        raise ValueError(f"{name}={span} is not a whole multiple of dt={dt}")
    return steps


@dataclass(frozen=True)
class QSWParams:
    """Walk and integration parameters.

    p:       classical/quantum mixing in [0, 1] (0 = coherent, 1 = classical)
    gamma:   sink transfer rate, > 0, with a finite sink rate 2 gamma
    dt:      RK4 step
    t_final: integration horizon, a whole number of steps whose per-step
             record (8 bytes a step) can be allocated

    Each field is a real number as :func:`fields.real` takes it, stored
    as a float; a bad one raises ValueError naming it.
    """

    p: float
    gamma: float = 1.0
    dt: float = 0.005
    t_final: float = 10.0

    def __post_init__(self):
        for name in ("p", "gamma", "dt", "t_final"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not math.isfinite(2.0 * self.gamma):
            raise ValueError(f"gamma={self.gamma} is too large: its sink rate 2 * gamma is not finite")
        if not 0.0 < self.dt <= self.t_final:
            raise ValueError("dt must satisfy 0 < dt <= t_final")
        steps = whole_steps(self.t_final, self.dt, "t_final")
        try:
            np.empty(steps + 1)  # the per-step record of evolve
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"t_final={self.t_final} is too long for dt={self.dt}: its per-step record needs {8 * (steps + 1)} bytes") from exc

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Generator of one maze topology, held as the real pair (H_c, G) of the form above.

    ``H`` is the real symmetric H_c = (1-p) H, so K = -i H - diag(column
    sums of G)/2, and ``G`` the gain; both are read-only and span the maze
    cells plus the sink, which is the last basis state. The validation
    variant from :meth:`without_sink` has Gamma left out of G, and so of K.
    """

    H: np.ndarray
    G: np.ndarray
    sink_exit: int
    entrance: int
    params: QSWParams

    def __post_init__(self):
        if not np.array_equal(self.H, self.H.T):
            raise ValueError("H must be symmetric")

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def sink(self) -> int:
        """Basis index of the sink state (last index)."""
        return self.dim - 1

    def without_sink(self) -> "LindbladModel":
        """The same model with Gamma left out of G, and so of K (validation mode)."""
        gain = self.G.copy()
        gain[self.sink, self.sink_exit] = 0.0
        gain.flags.writeable = False
        return replace(self, G=gain)


def generator_matrices(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """A maze's zeroed (N+1) x (N+1) pair (H, G); ValueError naming its size and the bytes if it cannot be allocated."""
    n = width * height
    try:
        return np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"maze {width}x{height} is too large: its generator needs {16 * (n + 1) ** 2} bytes") from exc


def build_model(maze: MazeGraph, params: QSWParams) -> LindbladModel:
    """Assemble the Lindblad model for the current maze topology.

    The dense matrices are built here from the maze's edge list, with
    degrees recomputed from the links as given, so the same call works
    for pristine perfect mazes and for topologies already edited by an
    agent; an isolated node has no links and so no hopping rates. A maze
    too large for its generator is refused by :func:`generator_matrices`.
    """
    n = maze.n_nodes
    p = params.p
    ham, gain = generator_matrices(maze.width, maze.height)
    adjacency = maze.adjacency
    ham[:n, :n] = (1.0 - p) * adjacency
    gain[:n, :n] = p * (adjacency / np.maximum(degrees(maze), 1) ** 2)
    gain[n, maze.exit] = 2.0 * params.gamma
    ham.flags.writeable = gain.flags.writeable = False
    return LindbladModel(H=ham, G=gain, sink_exit=maze.exit, entrance=maze.entrance, params=params)


def initial_state(model: LindbladModel) -> DensityMatrix:
    """All population at the entrance node: |entrance><entrance|."""
    return DensityMatrix.basis_state(model.dim, model.entrance)


class _RealForm:
    """H_c (the model's ``H``), delta (derived from G here alone) and the output buffer of L, built once per call.

    Given ``nodes``, a union of connected components of the model's link
    graph, L is restricted to them: their diagonal block of R evolves by
    it alone, since L couples no two components and G moves no population
    out of one.
    """

    def __init__(self, model: LindbladModel, nodes: np.ndarray | None = None):
        h, gain = model.H, model.G
        if nodes is not None:
            h, gain = h[np.ix_(nodes, nodes)], gain[np.ix_(nodes, nodes)]
        d = len(h)
        delta = 0.5 * gain.sum(axis=0)
        self.h = h
        self.rate = delta[:, None] + delta  # delta_i + delta_j
        self.gain = gain
        self.out = np.empty((d, d))
        self.out_diagonal = self.out.reshape(-1)[:: d + 1]


def _to_real(rho: np.ndarray) -> np.ndarray:
    """R = Re rho + Im rho, which holds a Hermitian rho exactly."""
    return rho.real + rho.imag


def _to_complex(r: np.ndarray) -> np.ndarray:
    """The Hermitian rho = (R + R^T)/2 + i (R - R^T)/2 that R holds."""
    return 0.5 * (r + r.T) + 0.5j * (r - r.T)


def _rhs(form: _RealForm, z: np.ndarray) -> np.ndarray:
    """L(Z) = Z^T H_c - H_c Z^T - (delta_i + delta_j) Z_ij + diag(G diag(Z)), into ``form.out``, which Z must not be."""
    out = form.out
    np.matmul(z.T, form.h, out=out)
    out -= form.h @ z.T
    out -= form.rate * z
    form.out_diagonal += form.gain @ z.diagonal()
    return out


def _rk4_step(r: np.ndarray, dt: float, form: _RealForm) -> None:
    """Advance R by one RK4 step in place, in Horner form."""
    z = r
    for c in (dt / 4.0, dt / 3.0, dt / 2.0):
        z = r + c * _rhs(form, z)
    r += dt * _rhs(form, z)


def _norm_bound(form: _RealForm) -> float:
    """An upper bound on L's spectral radius: its norm induced by the largest |R_ij|.

    The commutator contributes at most twice the largest row sum of |H_c|,
    the damping at most max(delta_i + delta_j) and the gain at most the
    largest row sum of G.
    """
    return float(2.0 * np.abs(form.h).sum(axis=1).max() + form.rate.max() + form.gain.sum(axis=1).max())


def _t4(a: np.ndarray) -> np.ndarray:
    """The RK4 polynomial 1 + a + a^2/2 + a^3/6 + a^4/24 of a square matrix, in Horner form."""
    eye = np.eye(a.shape[0])
    t = eye + a / 4.0
    for c in (1.0 / 3.0, 1.0 / 2.0, 1.0):
        t = eye + c * (a @ t)
    return t


def _unresolved(ys: np.ndarray) -> np.ndarray:
    """Whether each row's last two coefficients exceed ROUNDOFF times its norm."""
    return np.linalg.norm(ys[..., -2:], axis=-1) > ROUNDOFF * np.linalg.norm(ys, axis=-1)


def _powers(t: np.ndarray, scale: float, n: int, least: int | None = None) -> np.ndarray:
    """Rows T^k (scale e1) for k = 1..n: the recurrence y <- T y, evaluated by doubling.

    Given ``least``, it stops once that many rows are known and the last is :func:`_unresolved`.
    """
    ys = np.empty((n, len(t)))
    ys[0] = scale * t[:, 0]
    power, k = t, 1  # power = T^k while k rows are known
    while k < n:
        step = min(k, n - k)
        ys[k : k + step] = ys[:step] @ power.T
        k += step
        if least is not None and k >= least and _unresolved(ys[k - 1]):
            break
        power = power @ power
    return ys[:k]


def _krylov_span(r0: np.ndarray, n_steps: int, dt: float, form: _RealForm, bound: float, rows: bool = True):
    """Coefficients of T4(dt L)^k R0 for k = 1, 2, ..., in an Arnoldi basis of L at R0.

    Builds the basis v_1 = vec(R0)/||R0||, v_2, ... of the Krylov space of
    L and its Hessenberg matrix, with L V_m = V_{m+1} H̄_m. Each new vector
    is orthogonalised against all earlier ones (classical Gram-Schmidt,
    applied twice) on a state space of at most KRYLOV_FULL_SPACE
    dimensions, else against the last KRYLOV_WINDOW only, which leaves the
    relation intact, and twice only where the first pass leaves under
    sqrt(ROUNDOFF) bound, whose error would hide a closing space. The
    k-th state T4(dt L)^k R0 is V T4(dt H_m)^k e1 ||R0||: exact once m
    reaches 4k + 1 or the space
    closes (||L v_m - V h|| at roundoff, or m = d^2 for a full basis), and
    resolved before that when its last two coefficients fall below
    machine epsilon times its norm.

    The end state is checked where the log of its tail (those two
    coefficients relative to its norm) is predicted to reach
    log(ROUNDOFF). Saad (1992) puts the error of m vectors at the product
    of the subdiagonals h_{k+1,k} times (n_steps dt)^m / m!; the larger of
    the two coefficients is that of v_{m-1}, so the tail at m + 1 vectors
    is predicted as the tail at m plus log(h_{m,m-1} n_steps dt / (m - 1)),
    uncalibrated from 0 at one vector. A check comes once the prediction is
    within a factor 100 of ROUNDOFF (at KRYLOV_MIN_CHECK vectors or more),
    and in any case where Hochbruck & Lubich's bound for a Hermitian L of
    spectral radius ``bound`` falls below 1 (at least KRYLOV_MIN_CHECK
    vectors). A failed check resets the prediction to the tail it
    measured; once a check that the prediction placed has failed, the
    next waits for the prediction to reach ROUNDOFF itself. The basis
    stops when the end state is resolved, at the latest where it is exact,
    or unresolved at KRYLOV_MAX_BASIS.

    Returns the basis, one flattened matrix per row, and the coefficients
    of the leading states it resolves, one state per row: all n_steps, or
    after an unresolved stop at least the (m - 1) // 4 of degree m - 1 or
    less in L. With ``rows`` false, a basis that resolves the end state
    returns that state's coefficients alone, as one vector, taken from the
    check that passed if one did.
    """
    d = r0.shape[0]
    windowed = d * d > KRYLOV_FULL_SPACE
    exact = 4 * n_steps + 1 if windowed else min(4 * n_steps + 1, d * d)  # d^2 vectors span the space only if independent
    cap = min(exact, KRYLOV_MAX_BASIS)
    window = KRYLOV_WINDOW if windowed else cap
    beta = np.linalg.norm(r0)
    basis = np.empty((cap, d * d))
    hess = np.zeros((cap + 1, cap))
    basis[0] = r0.reshape(-1) / beta
    w = form.out.reshape(-1)  # a view: _rhs maps the newest vector to w, orthogonalized in place
    tau = n_steps * dt
    # 10 exp(-m^2 / (5 x)) = 1 with x = tau bound / 4 (Hochbruck & Lubich, Theorem 2)
    first = max(KRYLOV_MIN_CHECK, math.ceil(math.sqrt(1.25 * math.log(10) * tau * bound)))
    predicted, target = 0.0, LOG_ROUNDOFF + math.log(100)  # predicted log tail at m vectors, and where to check
    t4 = y = None
    resolved = True
    for m in range(1, cap + 1):
        _rhs(form, basis[m - 1].reshape(d, d))
        low = max(0, m - window)
        v = basis[low:m]
        h = np.dot(v, w)
        w -= np.dot(h, v)
        norm = math.sqrt(w.dot(w))
        if not windowed or norm <= math.sqrt(ROUNDOFF) * bound:  # a second pass, see above
            correction = np.dot(v, w)
            w -= np.dot(correction, v)
            h += correction
            norm = math.sqrt(w.dot(w))
        hess[low:m, m - 1], hess[m, m - 1] = h, norm
        if m == exact or norm <= ROUNDOFF * bound:
            break
        if m == first or (m >= KRYLOV_MIN_CHECK and predicted <= target):
            t4 = _t4(dt * hess[:m, :m])
            y = np.linalg.matrix_power(t4, n_steps)[:, 0]
            size = math.sqrt(y @ y)
            tail = math.hypot(*y[-2:])
            if tail <= ROUNDOFF * size:
                break
            if predicted <= target:  # the prediction placed this check: place the next at roundoff
                target = LOG_ROUNDOFF
            predicted = math.log(tail / size)
        if m > 1:
            predicted += math.log(hess[m - 1, m - 2] * tau / (m - 1))
        if m < cap:
            np.divide(w, norm, out=basis[m])
    else:
        resolved = False
    if resolved and not rows:
        if y is None or len(y) != m:
            y = np.linalg.matrix_power(_t4(dt * hess[:m, :m]), n_steps)[:, 0]
        return basis[:m], beta * y
    if t4 is None or len(t4) != m:
        t4 = _t4(dt * hess[:m, :m])
    exact_rows = (m - 1) // 4  # the states of degree m - 1 or less in L
    ys = _powers(t4, beta, n_steps, None if resolved else exact_rows)
    if not resolved:  # keep the states resolved to roundoff, and the exact ones
        unresolved = _unresolved(ys)
        ys = ys[: max(int(np.argmax(unresolved)) if unresolved.any() else len(ys), exact_rows)]
    return basis[:m], ys


def _validated(r: np.ndarray) -> DensityMatrix | None:
    """The state R holds, or None if it fails validation or has a negative population.

    A Krylov basis resolves entries to about 1e-16 of its start vector's
    norm, so a population far below that, such as the population of an
    exit that wall edits cut off, near 1e-20, can come out negative;
    :func:`_krylov_states` then recomputes that population's component
    from a start vector of its own before it validates the state again.
    """
    if not np.all(r.diagonal() >= 0.0):
        return None
    try:
        return DensityMatrix(_to_complex(r))
    except ValueError:
        return None


def _components(model: LindbladModel, nodes: np.ndarray) -> set[tuple[int, ...]]:
    """The connected components of the model's link graph (the nonzeros of H and G) that hold ``nodes``.

    The sink joins the exit's component through G[S, n]. Reachability is
    squared until it spans paths of d - 1 links, the longest a component has.
    """
    d = model.dim
    linked = (model.H != 0.0) | (model.G != 0.0) | np.eye(d, dtype=bool)
    reach = (linked | linked.T).astype(float)
    for _ in range((d - 1).bit_length()):
        reach = (reach @ reach > 0.0).astype(float)
    return {tuple(np.flatnonzero(reach[node])) for node in nodes}


def _span_bases(r: np.ndarray, n_steps: int, dt: float, form: _RealForm, bound: float, rows: bool):
    """(first step, ys, basis) for each :func:`_krylov_span` that advances R over n_steps steps; none if R = 0.

    Each basis starts where the one before stopped resolving and aims at
    the rest of the span, or after an unresolved basis at the steps that
    basis resolved. The rows of ys are the states from the first step on.
    """
    done, target = 0, n_steps
    while done < n_steps and r.any():
        target = min(target, n_steps - done)
        basis, ys = _krylov_span(r, target, dt, form, bound, rows=rows)
        first = done + 1
        if ys.ndim == 1:  # the end state alone
            ys, first = ys[None], done + target
        else:  # after an unresolved basis, aim the next at the steps this one resolved
            target = len(ys)
        yield first, ys, basis
        done = first + len(ys) - 1
        r = (ys[-1] @ basis).reshape(r.shape)


def _recompute_cut_off(r: np.ndarray, r0: np.ndarray, n_steps: int, model: LindbladModel) -> None:
    """Overwrite each diagonal block of R whose component holds a negative population by T4(dt L)^n_steps of R0's.

    L maps each component's diagonal block to itself, so that block of
    T4(dt L)^n R0 is T4(dt L_c)^n of R0's block, L_c the generator
    restricted to the component. Its Krylov spans resolve the block to
    roundoff of the block's own norm, however small that is. The sink's
    population is a fixed point of L, so it is set aside at the start and
    added back at the end: what the spans see is the rest of the block.
    """
    sink = model.sink
    for nodes in _components(model, np.flatnonzero(r.diagonal() < 0.0)):
        nodes = np.array(nodes)
        block = np.ix_(nodes, nodes)
        start = r0[block]
        held = 0.0
        if nodes[-1] == sink:  # the sink is the last basis state
            held, start[-1, -1] = start[-1, -1], 0.0
        form = _RealForm(model, nodes)
        end = start
        for _, ys, basis in _span_bases(start, n_steps, model.params.dt, form, _norm_bound(form), rows=False):
            end = (ys[-1] @ basis).reshape(start.shape)
        end[-1, -1] += held
        r[block] = end


def _krylov_states(
    state: DensityMatrix, model: LindbladModel, form: _RealForm, bound: float, n_steps: int, every: int,
    exit_trace: np.ndarray, rows: bool,
) -> list[DensityMatrix]:
    """Validated states at steps every, 2 every, ..., n_steps, from the Krylov bases of :func:`_span_bases`.

    A sampled state with a negative population first has its cut-off
    blocks recomputed by :func:`_recompute_cut_off`. Returns the states up
    to, not including, the first that then fails :func:`_validated`;
    ``exit_trace`` holds the exit occupation up to the last returned state
    (without ``rows`` only at each basis's end), each sample's entry equal
    to that state's.
    """
    d = model.dim
    exit_index = model.sink_exit
    samples = [*range(every, n_steps, every), n_steps]
    states = []
    r0 = _to_real(state.matrix)
    for first, ys, basis in _span_bases(r0, n_steps, model.params.dt, form, bound, rows):
        exit_trace[first - 1 : first - 1 + len(ys)] = ys @ basis[:, exit_index * (d + 1)]
        while len(states) < len(samples) and samples[len(states)] < first + len(ys):
            step = samples[len(states)]
            end = (ys[step - first] @ basis).reshape(d, d)
            if (end.diagonal() < 0.0).any():
                _recompute_cut_off(end, r0, step, model)
            result = _validated(end)
            if result is None:
                return states
            exit_trace[step - 1] = end[exit_index, exit_index]
            states.append(result)
    return states


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
    return _to_complex(_rhs(_RealForm(model), _to_real(mat)))


def propagate(
    state: DensityMatrix,
    model: LindbladModel,
    n_steps: int,
    first_step: int = 0,
    exit_trace: np.ndarray | None = None,
) -> DensityMatrix:
    """Advance a state by n_steps RK4 steps and validate the result.

    Within the stability guard (dt times :func:`_norm_bound` at most
    ``KRYLOV_RADIUS``) the span is evaluated by :func:`_krylov_states` in
    Krylov bases alone, however few its steps, and its end state
    validated as a :class:`DensityMatrix`; an end state with a negative
    population first has the diagonal block of that population's
    connected component recomputed in a Krylov span of its own. Outside
    the guard, or when validation still fails, the span is stepped: trace
    conservation is checked after every step and the final state
    validated, and any failure raises
    :class:`IntegrationError` with the index of the first bad step,
    offset by ``first_step``. When ``exit_trace`` is given it receives
    the exit-node occupation after each step, and its last entry equals
    the returned state's. A state not of the model's dimension, an
    n_steps or first_step that is not a non-negative integer (as
    :func:`fields.integer` takes it), an n_steps whose exit-node record
    cannot be allocated, an exit_trace not of length n_steps or, for
    n_steps > 0, a dt whose product with the norm bound is not finite
    raises ValueError, before any work.
    """
    n_steps = integer(n_steps, "n_steps", low=0)
    first_step = integer(first_step, "first_step", low=0)
    _check_dimension(state, model)
    if exit_trace is not None and np.shape(exit_trace) != (n_steps,):
        raise ValueError(f"exit_trace has shape {np.shape(exit_trace)}, expected ({n_steps},)")
    if n_steps == 0:
        return _stepped(state, model, _RealForm(model), 0, first_step, exit_trace)
    return _advance(state, model, n_steps, n_steps, first_step, exit_trace)[-1]


def _check_dimension(state: DensityMatrix, model: LindbladModel) -> None:
    """Refuse, before any work, a state not of the model's dimension."""
    if state.dim != model.dim:
        raise ValueError(f"initial state dimension {state.dim} does not match model {model.dim}")


def _advance(
    state: DensityMatrix, model: LindbladModel, n_steps: int, every: int, first_step: int,
    exit_trace: np.ndarray | None,
) -> list[DensityMatrix]:
    """Validated states every ``every`` steps of an n_steps span, the last at n_steps.

    Inside the stability guard as many as pass come from
    :func:`_krylov_states`; the rest are stepped chunk by chunk from the
    last of them by :func:`_stepped`, which raises on the first bad step.
    A dt whose product with the norm bound overflows, or an n_steps whose
    exit-node record cannot be allocated, raises ValueError.
    """
    rows = exit_trace is not None or every < n_steps  # else only the end state is wanted
    if exit_trace is None:
        try:
            exit_trace = np.empty(n_steps)
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"n_steps={n_steps} is too many: their exit-node record needs {8 * n_steps} bytes") from exc
    form = _RealForm(model)
    states = []
    dt, bound = model.params.dt, _norm_bound(form)
    if not math.isfinite(dt * bound):
        raise ValueError(f"dt={dt} is too large for this model: dt times its generator's norm bound {bound} is not finite")
    if dt * bound <= KRYLOV_RADIUS:
        states = _krylov_states(state, model, form, bound, n_steps, every, exit_trace, rows)
    done = len(states) * every
    while done < n_steps:
        chunk = min(every, n_steps - done)
        start = states[-1] if states else state
        states.append(_stepped(start, model, form, chunk, first_step + done, exit_trace[done : done + chunk]))
        done += chunk
    return states


def _stepped(
    state: DensityMatrix, model: LindbladModel, form: _RealForm, n_steps: int, first_step: int,
    exit_trace: np.ndarray | None,
) -> DensityMatrix:
    """Advance a state one RK4 step at a time, checking the trace after each; see :func:`propagate`.

    Both loops raise numpy's overflow and invalid-value errors, so a step
    that leaves the floats fails as a non-finite state at that step.
    """
    dt = model.params.dt
    n = model.sink_exit
    r = _to_real(state.matrix)
    steps = range(first_step + 1, first_step + n_steps + 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in steps:
                _rk4_step(r, dt, form)
                tr = np.trace(r)
                if not abs(tr - 1.0) <= TRACE_DRIFT_LIMIT:
                    problem = f"trace drifted to {tr} at step {step} (dt too large?)"
                    if not np.isfinite(tr):
                        problem = f"non-finite state at step {step}"
                    raise IntegrationError(
                        problem, step, t=step * dt, dt=dt, drift=float(abs(tr - 1.0)), last_good_step=first_step
                    )
                exit_trace[step - first_step - 1] = r[n, n]
            try:
                return DensityMatrix(_to_complex(r))
            except ValueError as exc:
                failure = exc
            # failure path: replay the span, validating every step, to find the first bad one
            r = _to_real(state.matrix)
            for step in steps:
                _rk4_step(r, dt, form)
                try:
                    DensityMatrix(_to_complex(r))
                except ValueError as exc:
                    failure = exc
                    break
    except FloatingPointError as exc:
        raise IntegrationError(
            f"non-finite state at step {step}", step, t=step * dt, dt=dt, last_good_step=first_step
        ) from exc
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


def evolve(rho0: DensityMatrix, model: LindbladModel, sample_every: int = SAMPLE_EVERY) -> Trajectory:
    """Integrate from t = 0 to t_final, sampling every ``sample_every`` steps.

    Snapshots (including the final state) are validated density
    matrices, taken from as few Krylov bases as cover the horizon (see
    :func:`propagate`), so a failed invariant surfaces as an
    :class:`IntegrationError` from stepping the chunk where it occurs.
    The sink population series must come out non-decreasing, anything
    else is likewise an integration failure. A ``sample_every`` that is
    not an integer of at least 1 (as :func:`fields.integer` takes it)
    raises ValueError naming it.
    """
    n_steps, dt = model.params.n_steps, model.params.dt
    _check_dimension(rho0, model)
    sample_every = integer(sample_every, "sample_every", low=1)
    n, sink = model.sink_exit, model.sink
    exit_occ = np.empty(n_steps + 1)
    exit_occ[0] = rho0.matrix[n, n].real
    snapshots = [rho0, *_advance(rho0, model, n_steps, sample_every, 0, exit_occ[1:])]
    sample_steps = np.array([0, *range(sample_every, n_steps, sample_every), n_steps])
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


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Write `t,p_sink,pop_0..pop_N` rows, one per snapshot, to the text stream ``fh``."""
    n_pop = traj.states[0].dim
    fh.write("t,p_sink," + ",".join(f"pop_{i}" for i in range(n_pop)) + "\n")
    for t, p_sink, state in zip(traj.times, traj.p_sink_series, traj.states):
        pops = ",".join(map(repr, state.populations.tolist()))
        fh.write(f"{float(t)!r},{float(p_sink)!r},{pops}\n")


def write_states_json(traj: Trajectory, fh, config: dict | None = None) -> None:
    """Write full snapshots as nested arrays of [re, im] pairs, with ``config``, to the text stream ``fh``."""
    doc = {
        "config": {} if config is None else config,
        "times": [float(t) for t in traj.times],
        "states": [
            [[[z.real, z.imag] for z in row] for row in state.matrix]
            for state in traj.states
        ],
    }
    json.dump(doc, fh, sort_keys=True, allow_nan=False)
    fh.write("\n")

