"""Per-layer microbenchmarks of the embedding's Gram path at n = 200.

Outside the tier-1 suite (``testpaths`` lists only ``tests``). Run from
the repository root with one BLAS thread, so numbers compare across
commits on a shared host:

    OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks --benchmark-only

The points and angles match the ``embed-gram-sampled`` benchmark
workload's size: 100 points per class and 100 shots per entry. The
Gram CSV writer runs on both the sampled matrix (at most shots + 1
distinct values) and the exact one (about n^2 / 2 distinct values).
``gradient`` runs at the embed-train default, 20 points per class.
"""

import numpy as np
import pytest

from qmlkit.embedding import EmbeddingModel, _embed_batch, gradient, gram, synth_dataset, write_gram_csv

N_PER_CLASS, SHOTS = 100, 100
TRAIN_PER_CLASS = 20


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
    g = gram(dataset, model, mode=mode, shots=SHOTS, seed=0)
    path = tmp_path / "gram.csv"
    benchmark(write_gram_csv, g, path)
    assert len(path.read_text().splitlines()) == g.dim


def test_gradient(benchmark, model):
    grad = benchmark(gradient, model, synth_dataset(TRAIN_PER_CLASS, seed=0))
    assert grad.shape == (3,)
