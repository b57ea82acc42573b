import numpy as np
import pytest

from qmlkit.states import EIGENVALUE_FLOOR, DensityMatrix, PureState

from oracles import min_eigenvalue_from_roots, random_density_matrix, random_pure_density_matrix


class TestPureState:
    def test_accepts_normalized(self):
        s = PureState(np.array([1.0, 0.0], dtype=complex))
        assert s.dim == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PureState(np.array([np.inf, 0.0]))

    def test_tolerates_tiny_norm_error(self):
        PureState(np.array([1.0 + 5e-11, 0.0]))

    def test_amplitudes_read_only(self):
        s = PureState(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0

    def test_overlap_with(self):
        a = PureState(np.array([1.0, 0.0]))
        b = PureState(np.array([0.0, 1.0]))
        assert a.overlap_with(a) == pytest.approx(1.0)
        assert a.overlap_with(b) == pytest.approx(0.0)


class TestDensityMatrix:
    def test_accepts_random_mixed_state(self):
        rng = np.random.default_rng(0)
        rho = DensityMatrix(random_density_matrix(7, rng))
        assert rho.dim == 7
        assert abs(rho.matrix.trace() - 1.0) <= 1e-8

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.ones((2, 3)) / 6.0)
        # a NaN would slip through every comparison below the shape check
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_positivity_matches_characteristic_polynomial_roots(self):
        # I/d + s*T with T random traceless Hermitian has trace 1, and its
        # smallest eigenvalue falls on either side of the floor as s varies
        rng = np.random.default_rng(8)
        outcomes = []
        for _ in range(40):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            t = a + a.conj().T
            t -= (t.trace() / 5) * np.eye(5)
            m = np.eye(5) / 5 + rng.uniform(0.0, 0.08) * t
            lo = min_eigenvalue_from_roots(m)
            if abs(lo + 1e-8) < 1e-3:  # too close to the floor to call
                continue
            if lo >= -1e-8:
                DensityMatrix(m)
            else:
                with pytest.raises(ValueError, match="positive"):
                    DensityMatrix(m)
            outcomes.append(lo >= -1e-8)
        assert 10 <= sum(outcomes) <= len(outcomes) - 10

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9], ids=["below", "above"])
    def test_positivity_decided_just_beside_the_floor(self, offset):
        # U diag(lambda) U^dag with the smallest eigenvalue 1e-9 from the floor
        rng = np.random.default_rng(17)
        u, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        levels = np.array([EIGENVALUE_FLOOR + offset, 0.1, 0.15, 0.2, 0.25, 0.0])
        levels[-1] = 1.0 - levels.sum()
        m = (u * levels) @ u.conj().T
        m = (m + m.conj().T) / 2
        if offset > 0:
            DensityMatrix(m)
            return
        with pytest.raises(ValueError) as info:
            DensityMatrix(m)
        assert str(info.value) == f"not positive semidefinite: min eigenvalue {float(np.linalg.eigvalsh(m)[0])}"

    def test_purity_of_pure_state(self):
        rng = np.random.default_rng(1)
        rho = DensityMatrix(random_pure_density_matrix(5, rng))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_purity_of_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        assert rho.purity() == pytest.approx(0.25, abs=1e-12)

    def test_basis_state(self):
        rho = DensityMatrix.basis_state(5, 2)
        expected = np.zeros((5, 5))
        expected[2, 2] = 1.0
        np.testing.assert_array_equal(rho.matrix, expected)
        with pytest.raises(ValueError):
            DensityMatrix.basis_state(3, 3)

    @pytest.mark.parametrize(
        "dim, index, message",
        [
            (3, 1.5, "index: expected an integer"),
            (3, True, "index: expected an integer"),
            (3.0, 1, "dim: expected an integer"),
            (0, 0, "dim must be >= 1, got 0"),
            (3, -1, "index -1 outside dimension 3"),
        ],
        ids=["float-index", "bool-index", "float-dim", "empty", "negative-index"],
    )
    def test_basis_state_names_a_bad_argument(self, dim, index, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix.basis_state(dim, index)

    def test_basis_state_takes_numpy_integers(self):
        np.testing.assert_array_equal(DensityMatrix.basis_state(np.int64(3), np.uint8(1)).matrix, DensityMatrix.basis_state(3, 1).matrix)

    def test_matrix_read_only(self):
        rho = DensityMatrix.basis_state(2, 0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.5
