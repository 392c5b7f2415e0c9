"""Dense Hermitian kernel: eigendecomposition and negative-spectrum sums.

Everything downstream (evolution under H, partial-transpose spectra) is
built on the contracts here.  All functions are pure; arrays are never
mutated in place.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

HERMITICITY_TOL = 1e-10
# Eigenvalues below this magnitude are round-off, not entanglement.
ZERO_EIGENVALUE_TOL = 1e-12


def _as_square(m: np.ndarray) -> np.ndarray:
    """Real input stays real (a real symmetric eigensolve); anything else is complex."""
    a = np.asarray(m, dtype=np.float64 if np.isrealobj(m) else np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains NaN/Inf entries")
    return a


def check_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity in max-abs entry norm; returns the validated array."""
    a = _as_square(m)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol:
        raise NotHermitian(f"max |m - m†| = {dev:.3e} exceeds {tol:.1e}")
    return a


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, orthonormal eigenvector columns) of a Hermitian matrix."""
    a = check_hermitian(m)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def negative_sum(m: np.ndarray) -> float:
    """2 |sum of negative eigenvalues| of a Hermitian matrix.

    Eigenvalues with |w| < ZERO_EIGENVALUE_TOL are treated as exact zeros so
    that separable states do not register spurious entanglement.
    """
    a = check_hermitian(m)
    w = np.linalg.eigvalsh(a)
    return negative_sum_of_eigenvalues(w)


def negative_sum_of_eigenvalues(w: np.ndarray) -> float:
    """Same contract as negative_sum, applied to a precomputed real spectrum."""
    neg = w[w < -ZERO_EIGENVALUE_TOL]
    return float(2.0 * -neg.sum()) if neg.size else 0.0
