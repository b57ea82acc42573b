"""Independent references for the benchmark's correctness checks.

Nothing here imports qmlkit: the Lindblad integrator, the embedding
circuit and the binomial quantiles are coded again from their textbook
definitions, so a refactor of the program is checked against something
it does not share code with.
"""

import math

import numpy as np


# --- Lindblad walker -------------------------------------------------------


def generator(n_cells: int, edges, exit_node: int, p: float, gamma: float):
    """(K, G) with drho/dt = K rho + rho K^dag + diag(G diag(rho)).

    K = -i(1-p) H - diag(p/2 * loss + gamma |n><n|), where the jump
    (1/d_j)|i><j| of every ordered linked pair contributes p/d_j^2 to the
    gain G[i, j] and to the loss of j; the sink gains 2 gamma rho_nn.
    """
    dim = n_cells + 1
    adj = np.zeros((dim, dim))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    deg = adj.sum(axis=0)
    coeff2 = np.divide(adj, deg[None, :] ** 2, out=np.zeros_like(adj), where=deg[None, :] > 0)
    gain = p * coeff2
    loss = gain.sum(axis=0)
    gain[n_cells, exit_node] += 2.0 * gamma
    damp = 0.5 * loss
    damp[exit_node] += gamma
    k = -1j * (1.0 - p) * adj - np.diag(damp)
    return k, gain


def rk4(rho: np.ndarray, k: np.ndarray, gain: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    idx = np.arange(rho.shape[0])

    def rhs(r):
        a = k @ r
        out = a + a.conj().T
        out[idx, idx] += gain @ r.diagonal()
        return out

    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def replay_policy(maze: dict, policy: dict, p, gamma, dt, t_final, action_period, max_actions) -> float:
    """Final sink population of one greedy rollout of a policy document.

    ``maze`` and ``policy`` are the parsed JSON files; a state key is
    ``"<step>|i-j+..."`` over the current edges in ascending order, and
    a missing key means no-op, as the policy format documents.
    """
    n_cells = maze["width"] * maze["height"]
    edges = {tuple(e) for e in maze["edges"]}
    table = policy["policy"]
    per_interval = round(action_period / dt)
    total = round(t_final / dt)
    rho = np.zeros((n_cells + 1, n_cells + 1), dtype=complex)
    rho[maze["entrance"], maze["entrance"]] = 1.0
    for step in range(max_actions):
        key = f"{step}|" + "+".join(f"{i}-{j}" for i, j in sorted(edges))
        label = table.get(key, "noop")
        if label != "noop":
            i, j = (int(v) for v in label[len("toggle:"):].split("-"))
            edges ^= {(i, j)}
        k, gain = generator(n_cells, edges, maze["exit"], p, gamma)
        steps = per_interval if step < max_actions - 1 else total - per_interval * (max_actions - 1)
        rho = rk4(rho, k, gain, dt, steps)
    return float(rho[n_cells, n_cells].real)


# --- embedding ---------------------------------------------------------------


def _rx(x):
    c, s = np.cos(x / 2.0), np.sin(x / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(t):
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def embed_states(points, thetas) -> np.ndarray:
    """RX(x) RY(t3) RX(x) RY(t2) RX(x) RY(t1) RX(x) |0>, one row per point."""
    out = np.empty((len(points), 2), dtype=complex)
    for n, x in enumerate(points):
        psi = np.array([1.0, 0.0], dtype=complex)
        rx = _rx(float(x))
        psi = rx @ psi
        for t in thetas:
            psi = rx @ (_ry(float(t)) @ psi)
        out[n] = psi
    return out


def overlaps(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    return np.abs(states_a.conj() @ states_b.T) ** 2


def binomial_interval(shots: int, p0: np.ndarray, level: float = 0.99) -> tuple[np.ndarray, np.ndarray]:
    """Exact central interval [lo, hi] of Binomial(shots, p0), elementwise.

    lo is the smallest k with CDF(k) >= (1-level)/2 and hi the smallest k
    with CDF(k) >= (1+level)/2, as scipy's ``binom.ppf`` defines them.
    """
    p0 = np.clip(np.asarray(p0, dtype=float), 0.0, 1.0)[:, None]
    k = np.arange(shots + 1)[None, :]
    log_comb = np.array([math.lgamma(shots + 1) - math.lgamma(j + 1) - math.lgamma(shots - j + 1) for j in range(shots + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = log_comb[None, :] + k * np.log(p0) + (shots - k) * np.log1p(-p0)
    log_pmf = np.where(p0 == 0.0, np.where(k == 0, 0.0, -np.inf), log_pmf)
    log_pmf = np.where(p0 == 1.0, np.where(k == shots, 0.0, -np.inf), log_pmf)
    cdf = np.cumsum(np.exp(log_pmf), axis=1)
    tail = 0.5 * (1.0 - level)
    lo = np.argmax(cdf >= tail * (1 - 1e-12), axis=1)
    hi = np.argmax(cdf >= (1.0 - tail) * (1 - 1e-12), axis=1)
    return lo, hi
