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
import numbers
from dataclasses import dataclass

import numpy as np

N_THETAS = 3
SHIFT = np.pi / 2
MAX_SHOTS = int(np.iinfo(np.int64).max)  # numpy's binomial takes an int64 count
SAMPLED_SHOTS = 100  # gram's shots when mode="sampled" leaves them out


def _json_float(value, field: str) -> float:
    """A real number, not a bool, as a finite float; ``ValueError`` naming ``field`` otherwise."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{field} must be a number")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{field} is too large for a float") from None
    if not np.isfinite(x):
        raise ValueError(f"{field} must be finite")
    return x


@dataclass(frozen=True)
class EmbeddingModel:
    """The three trainable rotation angles, each a finite real number and
    not a bool, stored as floats; a bad one raises ValueError naming it."""

    thetas: tuple[float, float, float]

    def __post_init__(self):
        thetas = tuple(_json_float(t, f"thetas: angle {k}") for k, t in enumerate(self.thetas))
        if len(thetas) != N_THETAS:
            raise ValueError(f"expected {N_THETAS} angles, got {len(thetas)}")
        object.__setattr__(self, "thetas", thetas)


def _as_points(points) -> np.ndarray:
    """``points`` as a float array, checked to be 1-d, non-empty and finite."""
    try:
        pts = np.asarray(points, dtype=float)
    except OverflowError:
        for k, x in enumerate(np.ravel(np.asarray(points, dtype=object))):
            try:
                float(x)
            except OverflowError:
                raise ValueError(f"points: point {k} is too large for a float") from None
        raise
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
    single threshold on x separates the classes. A count below 2, or one
    whose points cannot be allocated, raises ValueError naming it.
    """
    if n_per_class < 2:
        raise ValueError(f"n_per_class must be >= 2, got {n_per_class!r}")
    try:
        points = np.empty(2 * n_per_class)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"n_per_class={n_per_class} is too many: its points need {16 * n_per_class} bytes") from exc
    rng = np.random.default_rng(seed)
    n_neg = n_per_class // 2
    points[:n_neg] = rng.uniform(-3.0, -1.5, size=n_neg)
    points[n_neg:n_per_class] = rng.uniform(1.5, 3.0, size=n_per_class - n_neg)
    points[n_per_class:] = rng.uniform(-1.0, 1.0, size=n_per_class)
    labels = ("A",) * n_per_class + ("B",) * n_per_class
    return LabeledDataset1D(points=points, labels=labels)


def _embed_batch(xs: np.ndarray, thetas) -> np.ndarray:
    """States for a batch of points: shape (n, 2) for one angle set, or
    (m, n, 2) for a stack of m sets, shape (m, 3).

    Each gate is applied as explicit 2x2 arithmetic on the two amplitude
    arrays, which gives the same bits as the one-set einsum form.
    """
    xs = np.asarray(xs, dtype=float)
    c, ms = np.cos(xs / 2.0), -1.0j * np.sin(xs / 2.0)  # RX(x) = [[c, ms], [ms, c]]
    half = np.asarray(thetas, dtype=float)[..., None] / 2.0
    cc, ss = np.cos(half), np.sin(half)  # RY(t) = [[cc, -ss], [ss, cc]]
    a, b = c, ms  # RX(x)|0>
    for k in range(N_THETAS):
        a, b = cc[..., k, :] * a + (-ss[..., k, :]) * b, ss[..., k, :] * a + cc[..., k, :] * b
        a, b = c * a + ms * b, ms * a + c * b
    return np.stack([a, b], axis=-1)


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


def _exact_gram(states: np.ndarray) -> np.ndarray:
    """|<x_i|x_j>|^2 of n states, clipped to at most 1 against roundoff and symmetrised, with a unit diagonal."""
    overlap = np.minimum(1.0, _overlap_table(states, states))
    m = 0.5 * (overlap + overlap.T)
    np.fill_diagonal(m, 1.0)
    return m


def gram(dataset, model: EmbeddingModel, mode: str = "exact", shots: int | None = None, seed: int | None = None) -> GramMatrix:
    """Pairwise overlap matrix of the embedded points.

    ``mode="exact"`` computes |<x_i|x_j>|^2 analytically; it takes no
    ``shots`` or ``seed``. ``mode="sampled"`` simulates the SWAP test on
    each pair i <= j: a binomial draw counts the ancilla's zeros over
    ``shots`` runs (default SAMPLED_SHOTS), each of probability
    (1 + |<x_i|x_j>|^2) / 2, and the estimate 2 count / shots - 1 is
    clamped at zero against shot noise. All counts come from one stream,
    ``SeedSequence(seed)``, in column order (j = 0..n-1, then i = 0..j):
    entry (i, j) depends on the overlaps of all pairs up to it, not on
    (seed, i, j) alone, since numpy's binomial draws use a variable share
    of the stream, and the leading k x k block of an n-point matrix
    equals the k-point matrix bit for bit.
    """
    points = dataset.points if isinstance(dataset, LabeledDataset1D) else _as_points(dataset)
    states = _embed_batch(points, model.thetas)
    if mode == "exact":
        for name, value in (("shots", shots), ("seed", seed)):
            if value is not None:
                raise ValueError(f"{name} applies only to mode='sampled', got {name}={value!r}")
        return GramMatrix(_exact_gram(states))
    if mode == "sampled":
        shots = SAMPLED_SHOTS if shots is None else shots
        for name, value in (("shots", shots), ("seed", seed)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        overlap = np.minimum(1.0, _overlap_table(states, states))
        # read as (j, i), tril_indices lists the upper triangle column by column
        j, i = np.tril_indices(points.size)
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        counts = rng.binomial(shots, 0.5 * (1.0 + overlap[i, j]))
        m = np.empty_like(overlap)
        m[i, j] = m[j, i] = np.maximum(0.0, 2.0 * counts / shots - 1.0)
        return GramMatrix(m)
    raise ValueError(f"unknown mode {mode!r}")


def _pair_indices(labels) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Index pairs (i < j) as (rows, cols), split into same-class and cross-class groups."""
    labels = np.asarray(labels)
    iu, ju = np.triu_indices(len(labels), k=1)
    same = labels[iu] == labels[ju]
    return (iu[same], ju[same]), (iu[~same], ju[~same])


def _loss_and_gradient(model: EmbeddingModel, points: np.ndarray, pairs) -> tuple[float, np.ndarray]:
    """The loss and its parameter-shift gradient from one embedding call.

    Row 0 of the angle stack is the model's; rows 2k + 1 and 2k + 2 shift
    angle k by +pi/2 and -pi/2. The unshifted states' overlaps with
    themselves are the exact Gram entries; angle k's overlap derivative
    combines the overlaps of its two shifted sets with the unshifted
    states, applied to the bra side and, by symmetry, transposed for the
    ket. The n x n tables are formed one angle at a time.
    """
    sets = np.tile(model.thetas, (2 * N_THETAS + 1, 1))
    for k in range(N_THETAS):
        sets[2 * k + 1, k] += SHIFT
        sets[2 * k + 2, k] -= SHIFT
    states = _embed_batch(points, sets)
    base = states[0]
    m = _exact_gram(base)
    (si, sj), (ci, cj) = pairs  # a dataset holds both classes, so cross pairs exist
    value, grad = float(np.mean(m[ci, cj])), np.zeros(N_THETAS)
    if len(si):
        value += float(np.mean(1.0 - m[si, sj]))
    for k in range(N_THETAS):
        plus, minus = _overlap_table(states[2 * k + 1 : 2 * k + 3], base)
        half_diff = 0.5 * (plus - minus)
        d_gram = half_diff + half_diff.T
        if len(si):
            grad[k] -= np.mean(d_gram[si, sj])
        grad[k] += np.mean(d_gram[ci, cj])
    return value, grad


def loss(model: EmbeddingModel, dataset: LabeledDataset1D) -> float:
    """Mean same-class (1 - overlap) plus mean cross-class overlap, read
    off the exact Gram matrix."""
    return _loss_and_gradient(model, dataset.points, _pair_indices(dataset.labels))[0]


def gradient(model: EmbeddingModel, dataset: LabeledDataset1D) -> np.ndarray:
    """dC/dtheta via the parameter-shift rule, exact for half-angle rotations.

    Computed together with the loss by one embedding of the unshifted and
    the six +-pi/2-shifted angle sets.
    """
    return _loss_and_gradient(model, dataset.points, _pair_indices(dataset.labels))[1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate!r}")
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, int):
            raise ValueError(f"epochs must be an int, got {type(self.epochs).__name__} {self.epochs!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs!r}")


def train_embedding(dataset: LabeledDataset1D, config: TrainConfig) -> tuple[EmbeddingModel, np.ndarray, np.ndarray]:
    """Full-batch gradient descent from seeded uniform(-pi, pi) angles.

    Returns the final model, the loss recorded at the start of every
    epoch, and the angles at the start of every epoch (one row each).
    The step is fixed, so the loss curve need not be monotone. The pair
    groups are found once; each epoch then makes one batched embedding
    of all seven angle sets, which yields both its loss and its gradient.
    An epoch count whose record cannot be allocated raises ValueError.
    """
    try:
        curve = np.empty(config.epochs)
        theta_log = np.empty((config.epochs, N_THETAS))
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"epochs={config.epochs} is too many: their record needs {8 * (N_THETAS + 1) * config.epochs} bytes") from exc
    rng = np.random.default_rng(config.seed)
    thetas = rng.uniform(-np.pi, np.pi, size=N_THETAS)
    pairs = _pair_indices(dataset.labels)
    for epoch in range(config.epochs):
        curve[epoch], grad = _loss_and_gradient(EmbeddingModel(tuple(thetas)), dataset.points, pairs)
        theta_log[epoch] = thetas
        thetas = thetas - config.learning_rate * grad
    return EmbeddingModel(tuple(thetas)), curve, theta_log


def classify(points, model: EmbeddingModel, train_dataset: LabeledDataset1D) -> tuple[str, ...]:
    """Assign each point the class with the larger mean overlap against
    the training points of that class; ties go to class A. ``points``
    are checked as :func:`gram` checks them."""
    points = _as_points(points)
    states = _embed_batch(points, model.thetas)
    train_states = _embed_batch(train_dataset.points, model.thetas)
    overlaps = _overlap_table(states, train_states)
    labels = np.asarray(train_dataset.labels)
    mean_a = overlaps[:, labels == "A"].mean(axis=1)
    mean_b = overlaps[:, labels == "B"].mean(axis=1)
    return tuple("A" if a >= b else "B" for a, b in zip(mean_a, mean_b))


def write_gram_csv(g: GramMatrix, fh) -> None:
    """Write one row per line to the text stream ``fh``, each entry as ``repr(float)``.

    Each distinct value is formatted once: a sampled matrix holds at most
    shots + 1 of them. Values are told apart by their bits, not by float
    equality, so -0.0 and 0.0 keep their own text.
    """
    m = g.matrix
    keys, inverse = np.unique(m.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    rows = text[inverse.reshape(m.shape)].tolist()
    fh.write("".join(",".join(row) + "\n" for row in rows))


def write_training_log(curve: np.ndarray, theta_log: np.ndarray, fh) -> None:
    """Write `epoch,loss,theta1,theta2,theta3` rows to the text stream ``fh``."""
    fh.write("epoch,loss,theta1,theta2,theta3\n")
    for epoch, (value, thetas) in enumerate(zip(curve, theta_log)):
        ts = ",".join(repr(float(t)) for t in thetas)
        fh.write(f"{epoch},{float(value)!r},{ts}\n")


def model_from_json(text: str) -> EmbeddingModel:
    """Parse an angles document (an object with a ``thetas`` array of 3 values), whose angles the model checks."""
    doc = json.loads(text)
    thetas = doc.get("thetas") if isinstance(doc, dict) else None
    if not isinstance(thetas, list) or len(thetas) != N_THETAS:
        raise ValueError(f"thetas: expected an array of {N_THETAS} numbers")
    return EmbeddingModel(tuple(thetas))


def dataset_to_json(dataset: LabeledDataset1D) -> str:
    doc = [{"x": float(x), "label": label} for x, label in zip(dataset.points, dataset.labels)]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


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
