"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own integration code paths: the
classical walker oracle builds its rate matrix from scratch and is
integrated with scipy's adaptive solvers, the characteristic polynomial
comes from the Faddeev-LeVerrier recursion, so agreement with the
package is evidence, not tautology. The literal Lindblad generator
sums the jump operators one by one, built here from the maze adjacency,
and imports nothing from the package; its classical RK4 integrator
works on the complex density matrix, not on the package's real form.
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
