"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own integration code paths: the
classical walker oracle builds its rate matrix from scratch and is
integrated with scipy's adaptive solvers, the characteristic polynomial
comes from the Faddeev-LeVerrier recursion, so agreement with the
package is evidence, not tautology. The literal Lindblad generator
sums the jump operators one by one, built here from the maze adjacency,
and imports nothing from the package; its classical RK4 integrator
works on the complex density matrix, not on the package's real form.
The literal embedding trainer is the package's original per-angle
gradient-descent loop, copied in with its einsums; from the package it
takes only the angle record and the synthetic dataset. The SWAP test
is sampled one pair at a time, the per-pair reference for the batched
sampled Gram matrix. Maze connectivity is counted by union-find over a
plain edge list. The smallest Krylov basis that resolves a span is
found with a reference Arnoldi process of its own, classical
Gram-Schmidt against every earlier vector applied twice, so it is
independent of the package's windowed basis.
"""

import numpy as np
from scipy.integrate import solve_ivp


def classical_rate_matrix(adjacency, gamma: float, exit_node: int) -> np.ndarray:
    """Rate matrix of the classical random walk with an absorbing sink.

    Populations hop from j to i at rate A_ij / d_j^2 and leak out of j
    at total rate 1/d_j; the exit node additionally drains into the
    sink (last index) at rate 2*gamma.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    d = adjacency.sum(axis=0)
    rates = np.zeros((n + 1, n + 1))
    for i in range(n):
        for j in range(n):
            if adjacency[i, j]:
                rates[i, j] += adjacency[i, j] / d[j] ** 2
    for j in range(n):
        if d[j] > 0:
            rates[j, j] -= 1.0 / d[j]
    rates[exit_node, exit_node] -= 2.0 * gamma
    rates[n, exit_node] += 2.0 * gamma
    return rates


def literal_rhs(rho, adjacency, p: float, gamma: float, exit_node: int) -> np.ndarray:
    """The walker's Lindblad generator written out term by term.

    H is the adjacency padded with a zero row and column for the sink
    (last index); every ordered linked pair (i, j) has the jump operator
    (A_ij / d_j)|i><j|; the sink term is
    gamma (2 |S><n| rho |n><S| - {|n><n|, rho}). gamma = 0 gives the
    model without sink.
    """
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    dim = n + 1
    d = adjacency.sum(axis=0)
    ham = np.zeros((dim, dim), dtype=complex)
    ham[:n, :n] = adjacency
    out = (-1j * (1.0 - p)) * (ham @ rho - rho @ ham)
    for i in range(n):
        for j in range(n):
            if adjacency[i, j]:
                op = np.zeros((dim, dim), dtype=complex)
                op[i, j] = adjacency[i, j] / d[j]
                op_dag = op.conj().T
                out += p * (op @ rho @ op_dag - 0.5 * (op_dag @ op @ rho + rho @ op_dag @ op))
    proj = np.zeros((dim, dim), dtype=complex)
    proj[exit_node, exit_node] = 1.0
    transfer = np.zeros_like(proj)
    transfer[n, n] = rho[exit_node, exit_node]
    out += gamma * (2.0 * transfer - (proj @ rho + rho @ proj))
    return out


def literal_rk4(rho, adjacency, p: float, gamma: float, exit_node: int, dt: float, n_steps: int) -> np.ndarray:
    """n_steps of textbook RK4 on :func:`literal_rhs`, in complex arithmetic."""
    def f(r):
        return literal_rhs(r, adjacency, p, gamma, exit_node)

    rho = np.array(rho, dtype=complex)
    for _ in range(n_steps):
        k1 = f(rho)
        k2 = f(rho + 0.5 * dt * k1)
        k3 = f(rho + 0.5 * dt * k2)
        k4 = f(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def classical_populations(adjacency, gamma: float, exit_node: int, start: int, times) -> np.ndarray:
    """Populations of the classical walker at the requested times.

    Returns an array of shape (len(times), n + 1) including the sink.
    """
    rates = classical_rate_matrix(adjacency, gamma, exit_node)
    dim = rates.shape[0]
    p0 = np.zeros(dim)
    p0[start] = 1.0
    times = np.asarray(times, dtype=float)
    sol = solve_ivp(
        lambda _t, y: rates @ y,
        (0.0, float(times[-1])),
        p0,
        t_eval=times,
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y.T


def connected_components(n_nodes: int, edges) -> int:
    """Number of connected components of the graph on n_nodes nodes with these links."""
    parent = list(range(n_nodes))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    count = n_nodes
    for i, j in edges:
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[ri] = rj
            count -= 1
    return count


def is_spanning_tree(n_nodes: int, edges) -> bool:
    """True when the links connect all n_nodes nodes with exactly n_nodes - 1 of them."""
    return len(edges) == n_nodes - 1 and connected_components(n_nodes, edges) == 1


def characteristic_polynomial(matrix) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = m @ aux
        coeffs[k] = -aux.trace() / k
        aux += coeffs[k] * np.eye(n)
    return coeffs


def min_eigenvalue_from_roots(matrix) -> float:
    """Smallest eigenvalue as the minimum real root of the char. polynomial."""
    roots = np.roots(characteristic_polynomial(matrix))
    return float(np.min(roots.real))


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Wishart construction)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_pure_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def swap_test(a, b, shots: int, seed) -> float:
    """Sampled overlap estimate of two PureStates from the three-qubit SWAP test.

    The ancilla reads 0 with probability (1 + |<a|b>|^2) / 2; the
    estimate 2 * (count_0 / shots) - 1 is clamped at zero, where shot
    noise would otherwise drive it negative.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p0 = 0.5 * (1.0 + min(1.0, abs(a.overlap_with(b)) ** 2))
    rng = np.random.default_rng(seed)
    count0 = int(rng.binomial(shots, p0))
    return max(0.0, 2.0 * count0 / shots - 1.0)


def _literal_embed(xs, thetas) -> np.ndarray:
    """States RX(x) RY(t3) RX(x) RY(t2) RX(x) RY(t1) RX(x)|0>, one einsum per gate."""
    c, s = np.cos(xs / 2.0), np.sin(xs / 2.0)
    rx = np.empty((xs.size, 2, 2), dtype=complex)
    rx[:, 0, 0] = rx[:, 1, 1] = c
    rx[:, 0, 1] = rx[:, 1, 0] = -1.0j * s
    state = rx[:, :, 0]
    for theta in thetas:
        ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
        ry = np.array([[ct, -st], [st, ct]], dtype=complex)
        state = np.einsum("ab,nb->na", ry, state)
        state = np.einsum("nab,nb->na", rx, state)
    return state


def literal_train_embedding(n_per_class: int, data_seed: int, learning_rate: float, epochs: int, seed: int):
    """Full-batch parameter-shift descent on ``synth_dataset(n_per_class, data_seed)``.

    Every epoch embeds the points for the loss, builds the exact Gram
    matrix from them, and embeds them once more per shifted angle set
    for the gradient. Returns the final angles, the loss at the start of
    every epoch and the angles at the start of every epoch.
    """
    from qmlkit.embedding import EmbeddingModel, synth_dataset

    dataset = synth_dataset(n_per_class, data_seed)
    xs = np.asarray(dataset.points)
    labels = np.asarray(dataset.labels)
    iu, ju = np.triu_indices(labels.size, k=1)
    same = labels[iu] == labels[ju]
    groups = ((iu[same], ju[same], -1.0), (iu[~same], ju[~same], 1.0))

    def table(row, col):
        return np.abs(row.conj() @ col.T) ** 2

    thetas = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=3)
    curve, theta_log = np.empty(epochs), np.empty((epochs, 3))
    for epoch in range(epochs):
        model = EmbeddingModel(tuple(thetas))
        base = _literal_embed(xs, model.thetas)
        overlap = np.minimum(1.0, table(base, base))
        gram = 0.5 * (overlap + overlap.T)
        np.fill_diagonal(gram, 1.0)
        value = 0.0
        value += float(np.mean(1.0 - gram[iu[same], ju[same]]))
        value += float(np.mean(gram[iu[~same], ju[~same]]))
        curve[epoch] = value
        theta_log[epoch] = thetas
        grad = np.zeros(3)
        for k in range(3):
            shifted = []
            for sign in (1.0, -1.0):
                angles = list(model.thetas)
                angles[k] += sign * np.pi / 2
                shifted.append(table(_literal_embed(xs, angles), base))
            half_diff = 0.5 * (shifted[0] - shifted[1])
            d_gram = half_diff + half_diff.T
            for i, j, weight in groups:
                grad[k] += weight * float(np.mean(d_gram[i, j]))
        thetas = thetas - learning_rate * grad
    return EmbeddingModel(tuple(thetas)).thetas, curve, theta_log


def reference_arnoldi(apply, r0, size: int):
    """An orthonormal Krylov basis of at most ``size`` vectors at ``r0`` and its Hessenberg matrix.

    ``apply`` maps a flattened vector to the generator's image of it.
    Every new vector is orthogonalised against all earlier ones, twice.
    Returns the basis, one vector per row, and the (m + 1) x m Hessenberg
    matrix; the basis stops early when the space closes.
    """
    v = np.ravel(r0) / np.linalg.norm(r0)
    basis = [v]
    hess = np.zeros((size + 1, size))
    for m in range(size):
        w = apply(basis[m])
        scale = np.linalg.norm(w)
        for _ in range(2):
            block = np.array(basis)
            coefficients = block @ w
            w = w - coefficients @ block
            hess[: m + 1, m] += coefficients
        hess[m + 1, m] = np.linalg.norm(w)
        if hess[m + 1, m] <= 1e-14 * scale:
            return np.array(basis), hess[: m + 2, : m + 1]
        if m + 1 < size:
            basis.append(w / hess[m + 1, m])
    return np.array(basis), hess


def smallest_resolving_size(apply, r0, t4, dt: float, n_steps: int, size: int) -> int | None:
    """The fewest vectors of an orthonormal Krylov basis at ``r0`` that resolve a span's end state.

    The basis of at most ``size`` vectors comes from
    :func:`reference_arnoldi`. Each leading block of its Hessenberg
    matrix gives the end state T4(dt H)^n_steps e1, with ``t4`` mapping a
    square matrix to its RK4 polynomial; it is resolved once its last two
    coefficients fall below machine epsilon times its norm. Returns None
    when even the whole basis does not resolve it.
    """
    basis, hess = reference_arnoldi(apply, r0, size)
    for m in range(1, len(basis) + 1):
        y = np.linalg.matrix_power(t4(dt * hess[:m, :m]), n_steps)[:, 0]
        if np.linalg.norm(y[-2:]) <= np.finfo(float).eps * np.linalg.norm(y):
            return m
    return None
