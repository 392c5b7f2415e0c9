"""Dense Hermitian kernel: validation and negative-spectrum sums.

The partial-transpose spectra downstream are built on the contracts here.
All functions are pure; arrays are never mutated in place.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
# Eigenvalues below this magnitude are round-off, not entanglement.
ZERO_EIGENVALUE_TOL = 1e-12


def _as_square(m: np.ndarray) -> np.ndarray:
    """Real input stays real (a real symmetric eigensolve); anything else is complex."""
    a = np.asarray(m, dtype=np.float64 if np.isrealobj(m) else np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains NaN/Inf entries")
    return a


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate Hermiticity in max-abs entry norm; returns the validated array."""
    a = _as_square(m)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > HERMITICITY_TOL:
        raise ValueError(f"max |m - m†| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return a


def negative_sum_of_eigenvalues(w: np.ndarray) -> np.ndarray:
    """2 |sum of negative eigenvalues| of real spectra along the last axis.

    Eigenvalues with |w| < ZERO_EIGENVALUE_TOL are treated as exact zeros so
    that separable states do not register spurious entanglement.
    """
    # 0.0 - keeps a sum with no negative eigenvalue at +0.0, not -0.0.
    return 0.0 - 2.0 * np.add.reduce(w, axis=-1, where=w < -ZERO_EIGENVALUE_TOL)
