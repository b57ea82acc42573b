import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from qmlkit.embedding import (
    SAMPLED_SHOTS,
    EmbeddingModel,
    GramMatrix,
    LabeledDataset1D,
    TrainConfig,
    classify,
    dataset_from_json,
    dataset_to_json,
    gradient,
    gram,
    loss,
    synth_dataset,
    train_embedding,
    write_gram_csv,
    _embed_batch,
)
from qmlkit.states import PureState

from oracles import literal_train_embedding, swap_test

ZERO_MODEL = EmbeddingModel((0.0, 0.0, 0.0))


def embedded_states(points, model: EmbeddingModel) -> list[PureState]:
    """One validated state per point, from the package's batched embedding."""
    return [PureState(amps) for amps in _embed_batch(np.asarray(points, dtype=float), model.thetas)]


def states_with_overlap(v: float) -> tuple[PureState, PureState]:
    phi = np.arccos(np.sqrt(v))
    a = PureState(np.array([1.0, 0.0], dtype=complex))
    b = PureState(np.array([np.cos(phi), np.sin(phi)], dtype=complex))
    return a, b


def fd_gradient(model: EmbeddingModel, dataset: LabeledDataset1D, h: float = 1e-5) -> np.ndarray:
    out = np.zeros(3)
    for k in range(3):
        plus, minus = list(model.thetas), list(model.thetas)
        plus[k] += h
        minus[k] -= h
        out[k] = (
            loss(EmbeddingModel(tuple(plus)), dataset)
            - loss(EmbeddingModel(tuple(minus)), dataset)
        ) / (2 * h)
    return out


class TestEmbed:
    def test_zero_angles_collapse_to_single_rotation(self):
        # four same-axis X rotations by x compose to RX(4x), whose action
        # on |0> is (cos 2x, -i sin 2x) in the half-angle convention
        xs = np.array([-1.3, 0.2, 0.9, 2.4])
        for x, state in zip(xs, _embed_batch(xs, ZERO_MODEL.thetas)):
            expected = np.array([np.cos(2 * x), -1j * np.sin(2 * x)])
            np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_zero_input_leaves_only_y_rotations(self):
        thetas = (0.4, -1.2, 0.7)
        state = _embed_batch(np.array([0.0]), thetas)[0]
        total = sum(thetas)
        expected = np.array([np.cos(total / 2), np.sin(total / 2)])
        np.testing.assert_allclose(state, expected, atol=1e-12)

    def test_output_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            model = EmbeddingModel(tuple(rng.uniform(-np.pi, np.pi, 3)))
            state = _embed_batch(np.array([rng.uniform(-5, 5)]), model.thetas)[0]
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingModel((0.0, np.inf, 0.0))

    def test_angle_too_large_for_a_float_rejected(self):
        with pytest.raises(ValueError, match="^thetas: angle 0 is too large for a float$"):
            EmbeddingModel((10**400, 0, 0))

    @pytest.mark.parametrize("thetas", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)], ids=["two", "four"])
    def test_wrong_number_of_angles_rejected(self, thetas):
        with pytest.raises(ValueError, match=rf"^expected 3 angles, got {len(thetas)}$"):
            EmbeddingModel(thetas)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 50), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_stacked_angle_sets_match_one_call_per_set(self, n, m, seed):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-3.0, 3.0, size=n)
        sets = rng.uniform(-2 * np.pi, 2 * np.pi, size=(m, 3))
        stacked = _embed_batch(xs, sets)
        assert stacked.shape == (m, n, 2)
        for row, thetas in zip(stacked, sets):
            np.testing.assert_array_equal(row.view(np.int64), _embed_batch(xs, thetas).view(np.int64))


class TestOverlapExact:
    # the off-diagonal entries of gram(mode="exact")
    def test_self_overlap(self):
        g = gram(np.array([0.37, 0.37]), ZERO_MODEL, mode="exact").matrix
        assert g[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        # x = 0 embeds to |0>, x = pi/4 to -i|1>
        g = gram(np.array([0.0, np.pi / 4]), ZERO_MODEL, mode="exact").matrix
        assert g[0, 1] == pytest.approx(0.0, abs=1e-30)

    def test_zero_angle_closed_form(self):
        for xi, xj in ((0.1, 0.5), (-0.7, 0.3), (1.0, 2.2)):
            value = gram(np.array([xi, xj]), ZERO_MODEL, mode="exact").matrix[0, 1]
            assert value == pytest.approx(np.cos(2 * (xj - xi)) ** 2, abs=1e-12)


class TestSwapTest:
    def test_identical_states_certain(self):
        (state,) = embedded_states([0.5], ZERO_MODEL)
        for seed in range(5):
            assert swap_test(state, state, shots=50, seed=seed) == 1.0

    def test_orthogonal_states_near_zero(self):
        a, b = states_with_overlap(0.0)
        assert swap_test(a, b, shots=1_000_000, seed=1) <= 0.01

    def test_zero_shots_rejected(self):
        a, b = states_with_overlap(0.5)
        with pytest.raises(ValueError):
            swap_test(a, b, shots=0, seed=0)

    def test_deterministic_given_seed(self):
        a, b = states_with_overlap(0.3)
        assert swap_test(a, b, 100, seed=5) == swap_test(a, b, 100, seed=5)

    def test_estimates_cover_binomial_interval(self):
        # the exact central 99% interval for the ancilla counts must
        # capture at least 99% of seeded estimates (it holds >= 99% of
        # the probability mass by construction)
        v = 0.5
        a, b = states_with_overlap(v)
        shots = 100
        p0 = 0.5 * (1 + v)
        lo = binom.ppf(0.005, shots, p0)
        hi = binom.ppf(0.995, shots, p0)
        est_lo = max(0.0, 2 * lo / shots - 1)
        est_hi = 2 * hi / shots - 1
        inside = sum(
            est_lo <= swap_test(a, b, shots, seed) <= est_hi for seed in range(1000)
        )
        assert inside >= 990

    @pytest.mark.parametrize("v", [0.1, 0.36, 0.64])
    def test_unbiased_above_clamp_region(self, v):
        # at 10^4 shots the zero-clamp never triggers for v >= 0.1, so
        # the seed-averaged estimate converges to the true overlap
        a, b = states_with_overlap(v)
        estimates = [swap_test(a, b, 10_000, seed) for seed in range(1000)]
        assert abs(np.mean(estimates) - v) <= 1.5e-3


class TestGram:
    def test_exact_diagonal_is_one(self):
        ds = synth_dataset(5, seed=0)
        g = gram(ds, ZERO_MODEL)
        np.testing.assert_array_equal(np.diag(g.matrix), np.ones(10))

    def test_ten_points_shape_and_symmetry(self):
        ds = synth_dataset(5, seed=1)
        g = gram(ds, ZERO_MODEL, mode="exact")
        assert g.dim == 10
        np.testing.assert_array_equal(g.matrix, g.matrix.T)
        assert g.matrix.min() >= 0.0 and g.matrix.max() <= 1.0

    def test_sampled_converges_to_exact(self):
        ds = synth_dataset(3, seed=2)
        exact = gram(ds, ZERO_MODEL).matrix
        sampled = gram(ds, ZERO_MODEL, mode="sampled", shots=100_000, seed=3).matrix
        assert np.max(np.abs(sampled - exact)) <= 0.02

    def test_sampled_deterministic(self):
        ds = synth_dataset(3, seed=2)
        a = gram(ds, ZERO_MODEL, mode="sampled", shots=100, seed=7).matrix
        b = gram(ds, ZERO_MODEL, mode="sampled", shots=100, seed=7).matrix
        np.testing.assert_array_equal(a, b)

    def test_sampled_estimates_quantized_by_shots(self):
        # 100 draws per entry: every estimate is a multiple of 1/50
        ds = synth_dataset(3, seed=2)
        g = gram(ds, ZERO_MODEL, mode="sampled", shots=100, seed=7).matrix
        np.testing.assert_allclose(np.round(g * 50) / 50, g, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        thetas=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
        shots=st.integers(1, 200),
    )
    def test_sampled_leading_block_matches_smaller_dataset(self, n, data, seed, thetas, shots):
        k = data.draw(st.integers(1, n - 1), label="k")
        points = np.random.default_rng(seed).uniform(-3.0, 3.0, size=n)
        model = EmbeddingModel(thetas)
        full = gram(points, model, mode="sampled", shots=shots, seed=seed).matrix
        head = gram(points[:k], model, mode="sampled", shots=shots, seed=seed).matrix
        np.testing.assert_array_equal(full[:k, :k], head)

    def test_sampled_rows_match_swap_test_loop(self):
        # reference: one swap_test per pair, drawing column by column from one stream
        ds = synth_dataset(4, seed=6)
        model = EmbeddingModel((0.7, -1.1, 0.4))
        g = gram(ds, model, mode="sampled", shots=100, seed=9).matrix
        states = embedded_states(ds.points, model)
        rng = np.random.default_rng(np.random.SeedSequence(9))
        for j in range(len(ds)):
            for i in range(j + 1):
                assert g[i, j] == g[j, i] == swap_test(states[i], states[j], 100, rng)

    def test_sampled_block_ignores_later_points(self):
        ds = synth_dataset(10, seed=4)
        model = EmbeddingModel((0.7, -1.1, 0.4))
        k = 8
        moved = ds.points.copy()
        moved[k:] += np.linspace(0.3, 1.9, moved.size - k)
        a = gram(ds, model, mode="sampled", shots=100, seed=5).matrix
        b = gram(moved, model, mode="sampled", shots=100, seed=5).matrix
        np.testing.assert_array_equal(a[:k, :k], b[:k, :k])
        assert not np.array_equal(a, b)

    def test_sampled_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            gram(synth_dataset(2, seed=0), ZERO_MODEL, mode="sampled", shots=0, seed=0)

    @pytest.mark.parametrize(
        "shots, seed, message",
        [
            (2**63, 0, r"shots must lie in \[1, 9223372036854775807\], got 9223372036854775808"),
            (10, -1, "seed must be non-negative, got -1"),
            (10, np.int64(-5), "seed must be non-negative, got -5"),
        ],
        ids=["shots-above-int64", "negative-seed", "negative-numpy-seed"],
    )
    def test_sampled_rejects_out_of_range_shots_or_seed(self, shots, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gram(synth_dataset(2, seed=0), ZERO_MODEL, mode="sampled", shots=shots, seed=seed)

    @pytest.mark.parametrize(
        "name, shots, seed",
        [("shots", 10.7, 0), ("shots", True, 0), ("seed", 10, 1.5), ("seed", 10, False)],
    )
    def test_sampled_rejects_non_integer_shots_or_seed(self, name, shots, seed):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            gram(synth_dataset(2, seed=0), ZERO_MODEL, mode="sampled", shots=shots, seed=seed)

    def test_sampled_accepts_numpy_integers(self):
        ds = synth_dataset(3, seed=0)
        a = gram(ds, ZERO_MODEL, mode="sampled", shots=np.int64(10), seed=np.int32(4)).matrix
        b = gram(ds, ZERO_MODEL, mode="sampled", shots=10, seed=4).matrix
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["shots", "seed"])
    def test_exact_rejects_sampling_arguments(self, name):
        with pytest.raises(ValueError, match=f"^{name} applies only to mode='sampled', got {name}=5$"):
            gram(synth_dataset(2, seed=0), ZERO_MODEL, **{name: 5})

    def test_sampled_shots_default(self):
        ds = synth_dataset(3, seed=0)
        a = gram(ds, ZERO_MODEL, mode="sampled", seed=4).matrix
        b = gram(ds, ZERO_MODEL, mode="sampled", shots=SAMPLED_SHOTS, seed=4).matrix
        np.testing.assert_array_equal(a, b)

    def test_sampled_requires_seed(self):
        with pytest.raises(ValueError):
            gram(synth_dataset(2, seed=0), ZERO_MODEL, mode="sampled", shots=10)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            gram(synth_dataset(2, seed=0), ZERO_MODEL, mode="approx")

    def test_accepts_raw_points(self):
        g = gram(np.array([0.0, 0.25]), ZERO_MODEL)
        assert g.dim == 2

    def test_gram_matrix_validation(self):
        with pytest.raises(ValueError):
            GramMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))  # asymmetric
        with pytest.raises(ValueError):
            GramMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))  # out of range

    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))], ids=["2x3", "1-d", "3-d"])
    def test_gram_matrix_that_is_not_square_rejected(self, m):
        with pytest.raises(ValueError, match="^Gram matrix must be square$"):
            GramMatrix(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gram_matrix_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="Gram entries must be finite"):
            GramMatrix([[bad]])
        with pytest.raises(ValueError, match="Gram entries must be finite"):
            GramMatrix(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ValueError, match="Gram entries must be finite"):
            GramMatrix(np.array([[1.0, 0.5], [bad, 1.0]]))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_raw_points(self, mode, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            gram(np.array([0.0, bad, 0.3]), ZERO_MODEL, mode=mode, shots=10, seed=0)

    def test_rejects_raw_point_too_large_for_a_float(self):
        with pytest.raises(ValueError, match="^points: point 1 is too large for a float$"):
            gram([0.0, 10**400], ZERO_MODEL)

    @pytest.mark.parametrize("points", [np.zeros((2, 2)), np.array([]), np.float64(0.5)], ids=["2-d", "empty", "0-d"])
    def test_rejects_raw_points_not_1d_non_empty(self, points):
        with pytest.raises(ValueError, match="points must be a non-empty 1-d array"):
            gram(points, ZERO_MODEL)

    @pytest.mark.parametrize("seed, shots", [(1, 100), (2, 100), (99, 100), (5, 1), (7, 13)])
    def test_sampled_matches_per_row_estimates(self, seed, shots):
        # reference: one scalar count per pair from one stream, column by
        # column, each estimate clamped and written into both triangles
        ds = synth_dataset(15, seed=3)
        model = EmbeddingModel((0.7, -1.1, 0.4))
        states = np.array([state.amplitudes for state in embedded_states(ds.points, model)])
        overlap = np.minimum(1.0, np.abs(states.conj() @ states.T) ** 2)
        expected = np.zeros_like(overlap)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for j in range(len(ds)):
            for i in range(j + 1):
                count = rng.binomial(shots, 0.5 * (1.0 + overlap[i, j]))
                expected[i, j] = expected[j, i] = max(0.0, 2.0 * count / shots - 1.0)
        g = gram(ds, model, mode="sampled", shots=shots, seed=seed).matrix
        assert g.tobytes() == expected.tobytes()


# entries a Gram matrix may hold that format or compare unusually
SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.1e-308, 1.0, float(np.nextafter(1.0, 0.0)), 0.5, 0.1]


@st.composite
def gram_matrices(draw):
    """Symmetric matrices in [0, 1] over a pool of 1 to 60 distinct values."""
    n = draw(st.integers(1, 12))
    pool = draw(
        st.lists(st.sampled_from(SPECIAL_ENTRIES) | st.floats(0.0, 1.0), min_size=1, max_size=draw(st.sampled_from([1, 3, 60])))
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * n, max_size=n * n))
    m = np.array([pool[k] for k in picks]).reshape(n, n)
    m = np.triu(m) + np.triu(m, 1).T
    # a zero may carry either sign on each side: -0.0 == 0.0 keeps it symmetric
    flips = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    m[(m == 0.0) & flips] *= -1.0
    return m


class TestWriteGramCsv:
    @settings(max_examples=150, deadline=None)
    @given(m=gram_matrices())
    @example(m=np.array([[0.25]]))
    @example(m=np.array([[-0.0, 0.0], [0.0, -0.0]]))
    @example(m=np.array([[1.0, 5e-324], [5e-324, 0.0]]))
    def test_matches_per_entry_repr(self, m):
        out = io.StringIO()
        write_gram_csv(GramMatrix(m), out)
        assert out.getvalue() == "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m)

    def test_no_config_writes_rows_only(self):
        out = io.StringIO()
        write_gram_csv(GramMatrix(np.array([[1.0, -0.0], [0.0, 1.0]])), out)
        assert out.getvalue() == "1.0,-0.0\n0.0,1.0\n"


class TestLoss:
    def test_identical_same_class_points(self):
        ds = LabeledDataset1D(np.array([0.3, 0.3, 0.9]), ("A", "A", "B"))
        model = ZERO_MODEL
        # same-class pair overlaps exactly 1, so only the cross term remains
        value = loss(model, ds)
        a, b = embedded_states([0.3, 0.9], model)
        cross = abs(a.overlap_with(b)) ** 2  # both cross pairs, (0, 2) and (1, 2)
        assert value == pytest.approx(cross, abs=1e-12)

    def test_perfectly_separated_classes(self):
        # x = 0 embeds to |0>, x = pi/4 embeds to -i|1>: orthogonal classes
        ds = LabeledDataset1D(np.array([0.0, 0.0, np.pi / 4, np.pi / 4]), ("A", "A", "B", "B"))
        assert loss(ZERO_MODEL, ds) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_classes(self):
        ds = LabeledDataset1D(np.array([0.3, 0.3, 0.3, 0.3]), ("A", "A", "B", "B"))
        assert loss(ZERO_MODEL, ds) == pytest.approx(1.0, abs=1e-12)

    def test_single_point_class_drops_same_term(self):
        ds = LabeledDataset1D(np.array([0.0, np.pi / 4]), ("A", "B"))
        assert loss(ZERO_MODEL, ds) == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ds = LabeledDataset1D(rng.uniform(-3, 3, 6), ("A", "A", "A", "B", "B", "B"))
            model = EmbeddingModel(tuple(rng.uniform(-np.pi, np.pi, 3)))
            assert 0.0 <= loss(model, ds) <= 2.0


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = EmbeddingModel(tuple(rng.uniform(-np.pi, np.pi, 3)))
            ds = LabeledDataset1D(rng.uniform(-3, 3, 6), ("A", "A", "A", "B", "B", "B"))
            np.testing.assert_allclose(gradient(model, ds), fd_gradient(model, ds), atol=1e-6)

    def test_stationary_at_zero_angles(self):
        # every pair overlap has a purely imaginary angle derivative at
        # theta = 0, so the analytic gradient vanishes for any dataset
        ds = LabeledDataset1D(np.array([-1.2, -0.4, 0.4, 1.2]), ("A", "B", "B", "A"))
        assert np.max(np.abs(gradient(ZERO_MODEL, ds))) <= 1e-8
        assert np.max(np.abs(fd_gradient(ZERO_MODEL, ds))) <= 1e-8

    def test_loss_periodic_in_each_angle(self):
        ds = LabeledDataset1D(np.array([-1.0, 0.2, 0.8, 2.0]), ("A", "B", "B", "A"))
        model = EmbeddingModel((0.3, -1.1, 2.0))
        base = loss(model, ds)
        for k in range(3):
            shifted = list(model.thetas)
            shifted[k] += 2 * np.pi
            assert abs(loss(EmbeddingModel(tuple(shifted)), ds) - base) <= 1e-12


class TestTrain:
    def test_zero_learning_rate_is_flat(self):
        ds = synth_dataset(4, seed=3)
        model, curve, _ = train_embedding(ds, TrainConfig(learning_rate=0.0, epochs=5, seed=8))
        np.testing.assert_allclose(curve, curve[0], atol=0)
        rng = np.random.default_rng(8)
        np.testing.assert_allclose(model.thetas, rng.uniform(-np.pi, np.pi, 3), atol=0)

    def test_deterministic(self):
        ds = synth_dataset(4, seed=3)
        config = TrainConfig(learning_rate=0.1, epochs=10, seed=1)
        model_a, curve_a, _ = train_embedding(ds, config)
        model_b, curve_b, _ = train_embedding(ds, config)
        assert model_a.thetas == model_b.thetas
        np.testing.assert_array_equal(curve_a, curve_b)

    @settings(max_examples=40, deadline=None)
    @given(
        n_per_class=st.integers(2, 40),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        epochs=st.integers(1, 30),
    )
    @example(n_per_class=20, data_seed=11, seed=0, epochs=30)
    def test_matches_literal_loop_bit_for_bit(self, n_per_class, data_seed, seed, epochs):
        config = TrainConfig(learning_rate=0.1, epochs=epochs, seed=seed)
        model, curve, theta_log = train_embedding(synth_dataset(n_per_class, data_seed), config)
        thetas, curve_ref, log_ref = literal_train_embedding(n_per_class, data_seed, 0.1, epochs, seed)
        np.testing.assert_array_equal(curve.view(np.int64), curve_ref.view(np.int64))
        np.testing.assert_array_equal(theta_log.view(np.int64), log_ref.view(np.int64))
        np.testing.assert_array_equal(np.array(model.thetas).view(np.int64), np.array(thetas).view(np.int64))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"learning_rate": np.nan}, "learning_rate must be finite, got nan"),
            ({"learning_rate": -np.inf}, "learning_rate must be finite, got -inf"),
            ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ],
    )
    def test_config_rejects_bad_fields(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**kwargs)

    def test_loss_decreases_on_benchmark(self):
        ds = synth_dataset(10, seed=11)
        model, curve, _ = train_embedding(ds, TrainConfig(learning_rate=0.1, epochs=50, seed=0))
        assert loss(model, ds) <= curve[0]


class TestSynthDataset:
    def test_class_regions(self):
        ds = synth_dataset(10, seed=4)
        points = np.asarray(ds.points)
        labels = np.asarray(ds.labels)
        assert np.all(np.abs(points[labels == "B"]) <= 1.0)
        outer = np.abs(points[labels == "A"])
        assert np.all((outer >= 1.5) & (outer <= 3.0))

    def test_not_threshold_separable(self):
        ds = synth_dataset(8, seed=5)
        points = np.asarray(ds.points)
        labels = np.asarray(ds.labels)
        a, b = points[labels == "A"], points[labels == "B"]
        assert a[a > 0].min() > b.max() and a[a < 0].max() < b.min()

    def test_even_split_of_outer_class(self):
        ds = synth_dataset(10, seed=6)
        a = np.asarray(ds.points)[np.asarray(ds.labels) == "A"]
        assert (a < 0).sum() == 5 and (a > 0).sum() == 5

    def test_deterministic(self):
        np.testing.assert_array_equal(
            synth_dataset(5, seed=7).points, synth_dataset(5, seed=7).points
        )

    def test_rejects_tiny_classes(self):
        with pytest.raises(ValueError):
            synth_dataset(1, seed=0)


class TestClassify:
    def test_tie_goes_to_class_a(self):
        # both classes sit on the same embedded state, so every overlap
        # mean ties and the deterministic rule picks A
        ds = LabeledDataset1D(np.array([0.2, 0.2]), ("A", "B"))
        assert classify(np.array([0.9]), ZERO_MODEL, ds) == ("A",)

    def test_recovers_training_labels_when_separated(self):
        ds = LabeledDataset1D(np.array([0.0, 0.0, np.pi / 4, np.pi / 4]), ("A", "A", "B", "B"))
        preds = classify(ds.points, ZERO_MODEL, ds)
        assert preds == ds.labels

    @pytest.mark.parametrize(
        "points, message",
        [
            ([np.nan, 0.5], "points must be finite"),
            ([[0.1, 0.2], [0.3, 0.4]], "points must be a non-empty 1-d array"),
            ([], "points must be a non-empty 1-d array"),
        ],
        ids=["nan", "2-d", "empty"],
    )
    def test_rejects_the_points_gram_rejects(self, points, message):
        ds = LabeledDataset1D(np.array([0.0, np.pi / 4]), ("A", "B"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify(points, ZERO_MODEL, ds)


class TestDatasetJson:
    def test_round_trip(self):
        ds = synth_dataset(3, seed=9)
        restored = dataset_from_json(dataset_to_json(ds))
        np.testing.assert_array_equal(restored.points, ds.points)
        assert restored.labels == ds.labels

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            dataset_from_json('{"x": 1}')
        with pytest.raises(ValueError):
            dataset_from_json('[{"x": 1}]')


class TestDatasetValidation:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset1D(np.array([0.1, 0.2]), ("A", "A"))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset1D(np.array([0.1, 0.2]), ("A", "C"))

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset1D(np.array([0.1, np.nan]), ("A", "B"))

    def test_more_labels_than_points_rejected(self):
        with pytest.raises(ValueError, match="^labels and points must have equal length$"):
            LabeledDataset1D(np.array([0.1, 0.2]), ("A", "B", "A"))

    def test_point_too_large_for_a_float_rejected(self):
        with pytest.raises(ValueError, match="^points: point 1 is too large for a float$"):
            LabeledDataset1D([0.0, 10**400], ("A", "B"))
