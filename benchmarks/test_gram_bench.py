"""Per-layer microbenchmarks of the embedding's Gram path at n = 200.

Outside the tier-1 suite (``testpaths`` lists only ``tests``). Run from
the repository root with one BLAS thread, so numbers compare across
commits on a shared host:

    OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks --benchmark-only

The points and angles match the ``embed-gram-sampled`` benchmark
workload's size: 100 points per class and 100 shots per entry. The
Gram CSV writer runs on both the sampled matrix (at most shots + 1
distinct values) and the exact one (about n^2 / 2 distinct values).
``gradient`` runs at the embed-train default, 20 points per class, and
``train_embedding`` at the workload's set-up: 20 points per class for
300 epochs.
``test_embed_gram_cli`` times one in-process ``embed-gram --mode
sampled`` run end to end, argument parsing and the CSV write included.
"""

import numpy as np
import pytest

from qmlkit import cli
from qmlkit.embedding import (
    EmbeddingModel,
    TrainConfig,
    _embed_batch,
    gradient,
    gram,
    synth_dataset,
    train_embedding,
    write_gram_csv,
)

N_PER_CLASS, SHOTS = 100, 100
TRAIN_PER_CLASS, TRAIN_EPOCHS = 20, 300


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(N_PER_CLASS, seed=0)


@pytest.fixture(scope="module")
def model():
    return EmbeddingModel((0.7, -1.1, 0.4))


def test_embed_batch(benchmark, dataset, model):
    states = benchmark(_embed_batch, dataset.points, model.thetas)
    assert states.shape == (2 * N_PER_CLASS, 2)


def test_gram_exact(benchmark, dataset, model):
    g = benchmark(gram, dataset, model)
    np.testing.assert_array_equal(np.diag(g.matrix), 1.0)


def test_gram_sampled(benchmark, dataset, model):
    g = benchmark(gram, dataset, model, mode="sampled", shots=SHOTS, seed=0)
    assert g.dim == 2 * N_PER_CLASS


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_write_gram_csv(benchmark, dataset, model, mode, tmp_path):
    g = gram(dataset, model, mode="sampled", shots=SHOTS, seed=0) if mode == "sampled" else gram(dataset, model)
    path = tmp_path / "gram.csv"

    def write():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_gram_csv(g, fh)

    benchmark(write)
    assert len(path.read_text().splitlines()) == g.dim


def test_gradient(benchmark, model):
    grad = benchmark(gradient, model, synth_dataset(TRAIN_PER_CLASS, seed=0))
    assert grad.shape == (3,)


def test_train_embedding(benchmark):
    _, curve, _ = benchmark(train_embedding, synth_dataset(TRAIN_PER_CLASS, seed=0), TrainConfig(epochs=TRAIN_EPOCHS))
    assert curve.shape == (TRAIN_EPOCHS,)


def test_embed_gram_cli(benchmark, tmp_path):
    out = tmp_path / "gram.csv"
    argv = ["embed-gram", "--n-per-class", N_PER_CLASS, "--data-seed", 0, "--thetas", 0.7, -1.1, 0.4,
            "--mode", "sampled", "--shots", SHOTS, "--seed", 0, "-o", out]
    assert benchmark(cli.main, list(map(str, argv))) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * N_PER_CLASS
