"""Trainable single-qubit embedding of 1-d data, with overlap classification.

A scalar x is uploaded into one qubit by alternating data rotations with
trainable ones:

    |x> = RX(x) RY(t3) RX(x) RY(t2) RX(x) RY(t1) RX(x) |0>

(rightmost gate first). Class structure is read off pairwise squared
overlaps |<x_i|x_j>|^2, collected into a Gram matrix either exactly or
through a sampled three-qubit SWAP test. Training pushes same-class
overlaps toward 1 and cross-class overlaps toward 0 with plain gradient
descent; gradients come from the parameter-shift rule, which is exact
for half-angle rotations.
"""

import json
from dataclasses import dataclass

import numpy as np

from .header import config_header
from .states import PureState

N_THETAS = 3
SHIFT = np.pi / 2


@dataclass(frozen=True)
class EmbeddingModel:
    """The three trainable rotation angles."""

    thetas: tuple[float, float, float]

    def __post_init__(self):
        thetas = tuple(float(t) for t in self.thetas)
        if len(thetas) != N_THETAS:
            raise ValueError(f"expected {N_THETAS} angles, got {len(thetas)}")
        if not all(np.isfinite(t) for t in thetas):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "thetas", thetas)


def _as_points(points) -> np.ndarray:
    """``points`` as a float array, checked to be 1-d, non-empty and finite."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("points must be a non-empty 1-d array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


@dataclass(frozen=True, eq=False)
class LabeledDataset1D:
    """Scalar points with 'A'/'B' class labels."""

    points: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        pts = _as_points(self.points)
        labels = tuple(self.labels)
        if len(labels) != pts.size:
            raise ValueError("labels and points must have equal length")
        bad = sorted(set(labels) - {"A", "B"})
        if bad:
            raise ValueError(f"unknown labels: {bad}")
        if len(set(labels)) < 2:
            raise ValueError("dataset must contain both classes")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.points.size


def synth_dataset(n_per_class: int, seed: int) -> LabeledDataset1D:
    """Nested 1-d benchmark: class B inside [-1, 1], class A outside.

    Class A is split evenly between [-3, -1.5] and [1.5, 3], so no
    single threshold on x separates the classes.
    """
    if n_per_class < 2:
        raise ValueError("need at least 2 points per class")
    rng = np.random.default_rng(seed)
    n_neg = n_per_class // 2
    a_neg = rng.uniform(-3.0, -1.5, size=n_neg)
    a_pos = rng.uniform(1.5, 3.0, size=n_per_class - n_neg)
    b = rng.uniform(-1.0, 1.0, size=n_per_class)
    points = np.concatenate([a_neg, a_pos, b])
    labels = ("A",) * n_per_class + ("B",) * n_per_class
    return LabeledDataset1D(points=points, labels=labels)


def rotation_y(angle: float) -> np.ndarray:
    """Single-qubit rotation exp(-i*angle*Y/2) in the half-angle convention."""
    if not np.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _embed_batch(xs: np.ndarray, thetas) -> np.ndarray:
    """States for a batch of points, shape (n, 2)."""
    xs = np.asarray(xs, dtype=float)
    c, s = np.cos(xs / 2.0), np.sin(xs / 2.0)
    rx = np.empty((xs.size, 2, 2), dtype=complex)
    rx[:, 0, 0] = rx[:, 1, 1] = c
    rx[:, 0, 1] = rx[:, 1, 0] = -1.0j * s
    state = rx[:, :, 0]
    for theta in thetas:
        ry = rotation_y(theta)
        state = np.einsum("ab,nb->na", ry, state)
        state = np.einsum("nab,nb->na", rx, state)
    return state


def embed(x: float, model: EmbeddingModel) -> PureState:
    """Upload one point through the circuit."""
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    return PureState(_embed_batch(np.array([x]), model.thetas)[0])


def overlap_exact(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, clipped to [0, 1] against roundoff."""
    v = abs(a.overlap_with(b)) ** 2
    return float(min(1.0, v))


def swap_test(a: PureState, b: PureState, shots: int, seed) -> float:
    """Sampled overlap estimate from the three-qubit SWAP test.

    The ancilla reads 0 with probability (1 + |<a|b>|^2) / 2; the
    estimate 2 * (count_0 / shots) - 1 is clamped at zero, where shot
    noise would otherwise drive it negative.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p0 = 0.5 * (1.0 + overlap_exact(a, b))
    rng = np.random.default_rng(seed)
    count0 = int(rng.binomial(shots, p0))
    return max(0.0, 2.0 * count0 / shots - 1.0)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric matrix of pairwise squared overlaps, entries in [0, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Gram matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("Gram entries must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("Gram matrix must be symmetric")
        if m.min() < 0.0 or m.max() > 1.0:
            raise ValueError("Gram entries must lie in [0, 1]")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _overlap_table(states_row: np.ndarray, states_col: np.ndarray) -> np.ndarray:
    return np.abs(states_row.conj() @ states_col.T) ** 2


def gram(dataset, model: EmbeddingModel, mode: str = "exact", shots: int = 100, seed: int | None = None) -> GramMatrix:
    """Pairwise overlap matrix of the embedded points.

    ``mode="exact"`` computes |<x_i|x_j>|^2 analytically (unit diagonal
    by construction). ``mode="sampled"`` runs :func:`swap_test` on each
    pair i <= j; row i draws its counts for j = i..n-1 in order from one
    stream, ``SeedSequence([seed, i])``. Entry (i, j) depends only on
    seed, shots, i and the overlaps (i, i..j), not on (seed, i, j) alone,
    since numpy's binomial draws use a variable share of the stream. Rows
    are independent, and the leading k x k block of an n-point matrix
    equals the k-point matrix bit for bit.
    """
    points = dataset.points if isinstance(dataset, LabeledDataset1D) else _as_points(dataset)
    states = _embed_batch(points, model.thetas)
    overlap = np.minimum(1.0, _overlap_table(states, states))
    if mode == "exact":
        m = 0.5 * (overlap + overlap.T)
        np.fill_diagonal(m, 1.0)
        return GramMatrix(m)
    if mode == "sampled":
        for name, value in (("shots", shots), ("seed", seed)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if shots < 1:
            raise ValueError("shots must be >= 1")
        p0 = 0.5 * (1.0 + overlap)
        counts = np.zeros(overlap.shape, dtype=np.int64)
        for i in range(points.size):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
            counts[i, i:] = rng.binomial(shots, p0[i, i:])
        # zero counts below the diagonal clamp to 0.0
        m = np.maximum(0.0, 2.0 * counts / shots - 1.0)
        return GramMatrix(m + np.triu(m, 1).T)
    raise ValueError(f"unknown mode {mode!r}")


def _pair_indices(labels) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i < j) split into same-class and cross-class groups."""
    labels = np.asarray(labels)
    iu, ju = np.triu_indices(len(labels), k=1)
    same = labels[iu] == labels[ju]
    return np.stack([iu[same], ju[same]], axis=1), np.stack([iu[~same], ju[~same]], axis=1)


def _loss_from_gram(m: np.ndarray, labels) -> float:
    same, cross = _pair_indices(labels)
    value = 0.0
    if len(same):
        value += float(np.mean(1.0 - m[same[:, 0], same[:, 1]]))
    if len(cross):
        value += float(np.mean(m[cross[:, 0], cross[:, 1]]))
    return value


def loss(model: EmbeddingModel, dataset: LabeledDataset1D) -> float:
    """Mean same-class (1 - overlap) plus mean cross-class overlap."""
    return _loss_from_gram(gram(dataset, model).matrix, dataset.labels)


def gradient(model: EmbeddingModel, dataset: LabeledDataset1D) -> np.ndarray:
    """dC/dtheta via the parameter-shift rule.

    Each angle appears once in each of the two embeddings of a pair, so
    its overlap derivative combines four evaluations: the +-pi/2 shifts
    applied to the bra side and, by symmetry, transposed for the ket.
    """
    points = dataset.points
    base = _embed_batch(points, model.thetas)
    same, cross = _pair_indices(dataset.labels)
    grad = np.zeros(N_THETAS)
    for k in range(N_THETAS):
        shifted = []
        for sign in (1.0, -1.0):
            thetas = list(model.thetas)
            thetas[k] += sign * SHIFT
            shifted.append(_overlap_table(_embed_batch(points, thetas), base))
        half_diff = 0.5 * (shifted[0] - shifted[1])
        d_gram = half_diff + half_diff.T
        value = 0.0
        if len(same):
            value -= float(np.mean(d_gram[same[:, 0], same[:, 1]]))
        if len(cross):
            value += float(np.mean(d_gram[cross[:, 0], cross[:, 1]]))
        grad[k] = value
    return grad


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 300
    seed: int = 0


def train_embedding(dataset: LabeledDataset1D, config: TrainConfig) -> tuple[EmbeddingModel, np.ndarray, np.ndarray]:
    """Full-batch gradient descent from seeded uniform(-pi, pi) angles.

    Returns the final model, the loss recorded at the start of every
    epoch, and the angles at the start of every epoch (one row each).
    The step is fixed, so the loss curve need not be monotone.
    """
    if config.epochs < 1:
        raise ValueError("epochs must be >= 1")
    rng = np.random.default_rng(config.seed)
    thetas = rng.uniform(-np.pi, np.pi, size=N_THETAS)
    curve = np.empty(config.epochs)
    theta_log = np.empty((config.epochs, N_THETAS))
    for epoch in range(config.epochs):
        model = EmbeddingModel(tuple(thetas))
        curve[epoch] = loss(model, dataset)
        theta_log[epoch] = thetas
        thetas = thetas - config.learning_rate * gradient(model, dataset)
    return EmbeddingModel(tuple(thetas)), curve, theta_log


def classify(points, model: EmbeddingModel, train_dataset: LabeledDataset1D) -> tuple[str, ...]:
    """Assign each point the class with the larger mean overlap against
    the training points of that class; ties go to class A."""
    points = np.asarray(points, dtype=float)
    states = _embed_batch(points, model.thetas)
    train_states = _embed_batch(train_dataset.points, model.thetas)
    overlaps = _overlap_table(states, train_states)
    labels = np.asarray(train_dataset.labels)
    mean_a = overlaps[:, labels == "A"].mean(axis=1)
    mean_b = overlaps[:, labels == "B"].mean(axis=1)
    return tuple("A" if a >= b else "B" for a, b in zip(mean_a, mean_b))


def write_gram_csv(g: GramMatrix, path, config: dict | None = None) -> None:
    """One row per line, each entry written as ``repr(float)``.

    Each distinct value is formatted once: a sampled matrix holds at most
    shots + 1 of them. Values are told apart by their bits, not by float
    equality, so -0.0 and 0.0 keep their own text.
    """
    m = g.matrix
    keys, inverse = np.unique(m.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    rows = text[inverse.reshape(m.shape)].tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_header(config))
        fh.write("".join(",".join(row) + "\n" for row in rows))


def write_training_log(curve: np.ndarray, theta_log: np.ndarray, path, config: dict | None = None) -> None:
    """Write `epoch,loss,theta1,theta2,theta3` rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_header(config))
        fh.write("epoch,loss,theta1,theta2,theta3\n")
        for epoch, (value, thetas) in enumerate(zip(curve, theta_log)):
            ts = ",".join(repr(float(t)) for t in thetas)
            fh.write(f"{epoch},{float(value)!r},{ts}\n")


def _json_float(value, field: str) -> float:
    """A parsed JSON number as a finite float; ``ValueError`` naming ``field`` otherwise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{field} must be a number")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{field} is too large for a float") from None
    if not np.isfinite(x):
        raise ValueError(f"{field} must be finite")
    return x


def model_from_json(text: str) -> EmbeddingModel:
    """Parse an angles document (an object with a ``thetas`` array)."""
    doc = json.loads(text)
    thetas = doc.get("thetas") if isinstance(doc, dict) else None
    if not isinstance(thetas, list) or len(thetas) != N_THETAS:
        raise ValueError(f"thetas: expected an array of {N_THETAS} numbers")
    return EmbeddingModel(tuple(_json_float(t, f"thetas: angle {k}") for k, t in enumerate(thetas)))


def dataset_to_json(dataset: LabeledDataset1D) -> str:
    doc = [{"x": float(x), "label": label} for x, label in zip(dataset.points, dataset.labels)]
    return json.dumps(doc, indent=2) + "\n"


def dataset_from_json(text: str) -> LabeledDataset1D:
    """Parse a dataset document: an array of ``{"x": number, "label": "A" | "B"}``."""
    doc = json.loads(text)
    if not isinstance(doc, list) or not doc:
        raise ValueError("dataset document must be a non-empty JSON array")
    points, labels = [], []
    for k, item in enumerate(doc):
        if not isinstance(item, dict) or set(item) != {"x", "label"}:
            raise ValueError(f"entry {k}: expected an object with keys x and label")
        points.append(_json_float(item["x"], f"entry {k}: x"))
        if item["label"] not in ("A", "B"):
            raise ValueError(f"entry {k}: label must be \"A\" or \"B\"")
        labels.append(item["label"])
    return LabeledDataset1D(points=np.array(points), labels=tuple(labels))
