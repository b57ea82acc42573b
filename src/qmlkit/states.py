"""Quantum state containers with validated physical invariants.

Construction is validation: a ``DensityMatrix`` or ``PureState`` that
exists is Hermitian/normalized/positive within the stated tolerances.
Nothing is ever silently renormalized; out-of-tolerance input raises.
"""

from dataclasses import dataclass

import numpy as np

from .fields import integer

TRACE_ATOL = 1e-8
HERMITIAN_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-8
NORM_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector; no workload builds one, but the benchmark's tracer hooks its validation."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-d vector")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_ATOL}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap_with(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite complex matrix.

    Positivity is tested by a Cholesky factorization of M - floor * I,
    which exists when every eigenvalue of M lies above EIGENVALUE_FLOOR;
    only when it fails is the smallest eigenvalue computed, to decide
    within roundoff of the floor and to name it in the error.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > HERMITIAN_ATOL:
            raise ValueError(f"not Hermitian: max |M - M^dag| = {herm_dev}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr} deviates from 1 by more than {TRACE_ATOL}")
        try:  # succeeds exactly when every eigenvalue exceeds the floor, up to roundoff
            np.linalg.cholesky(m - EIGENVALUE_FLOOR * np.eye(len(m)))
        except np.linalg.LinAlgError:
            lo = float(np.linalg.eigvalsh(m)[0])
            if lo < EIGENVALUE_FLOOR:
                raise ValueError(f"not positive semidefinite: min eigenvalue {lo}") from None
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal of the matrix, as a read-only view."""
        return self.matrix.diagonal().real

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states."""
        return float(np.vdot(self.matrix, self.matrix).real)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityMatrix":
        """|index><index| in a dim-dimensional space; ``dim`` is an integer of at least 1 and ``index`` one below it."""
        dim, index = integer(dim, "dim", low=1), integer(index, "index")
        if not 0 <= index < dim:
            raise ValueError(f"index {index} outside dimension {dim}")
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)
