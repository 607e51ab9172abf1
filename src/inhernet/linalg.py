"""Dense float64 linear algebra: norms, softmax, truncated SVD.

Matrices are plain 2-D ``numpy.ndarray`` objects in row-major order.
Every public operation validates shapes, rejects non-finite input, and
returns finite output; all functions are pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, NumericalError, RangeError, ShapeError

# Singular values below RANK_CUTOFF * sigma_max are treated as zero when
# computing condition numbers of rank-deficient matrices.
RANK_CUTOFF = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising ShapeError otherwise."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix contains NaN or Inf entries")
    return m


@dataclass(frozen=True)
class SvdFactorization:
    """Truncated singular value decomposition with the full spectrum retained.

    ``u`` is m-by-r with orthonormal columns, ``sigma`` the top ``r``
    singular values (nonincreasing), ``v`` n-by-r with orthonormal columns,
    and ``full_spectrum`` all ``min(m, n)`` singular values of the original
    matrix. The sign convention forces the largest-magnitude entry of each
    column of ``u`` to be nonnegative, so factorizations are reproducible.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    full_spectrum: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    def reconstruct(self) -> np.ndarray:
        """The rank-r matrix u @ diag(sigma) @ v.T."""
        return (self.u * self.sigma) @ self.v.T


def truncated_svd(w, r: int) -> SvdFactorization:
    """Top-r singular value decomposition of ``w``.

    The returned reconstruction is the Frobenius-optimal rank-r
    approximation; its error equals sqrt(sum of squared tail singular
    values). The full spectrum is kept alongside for spectral-energy
    accounting.
    """
    w = as_matrix(w)
    m, n = w.shape
    if not 1 <= r <= min(m, n):
        raise RangeError(f"rank {r} out of range [1, {min(m, n)}] for shape {w.shape}")
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge for shape {w.shape}: {exc}") from exc
    # Reproducible signs: largest-magnitude entry of each left vector >= 0.
    pivots = np.argmax(np.abs(u), axis=0)
    flips = np.where(u[pivots, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    u = u * flips
    vt = vt * flips[:, None]
    return SvdFactorization(
        u=np.ascontiguousarray(u[:, :r]),
        sigma=s[:r].copy(),
        v=np.ascontiguousarray(vt[:r].T),
        full_spectrum=s.copy(),
    )


# numpy sums fewer than this many entries left to right, so it reduces the
# columns of a matrix this narrow to the same bits as its rows.
NARROW_ROW = 8


def _narrow(a: np.ndarray) -> bool:
    return a.ndim == 2 and a.shape[1] < NARROW_ROW


def sum_rows(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)``, bit for bit.

    Reducing or broadcasting along a short last axis costs numpy one inner
    loop per row, which dominates a (512, 3) gate. A matrix narrower than
    :data:`NARROW_ROW` is copied transposed instead and summed down its
    columns, one vector addition per column across all rows at once.
    """
    if not _narrow(a):
        return a.sum(axis=-1, keepdims=True)
    return np.add.reduce(np.ascontiguousarray(a.T), axis=0)[:, None]


def _shifted(logits, what: str) -> tuple[np.ndarray, int]:
    """``logits`` minus each row's maximum, after the shape and finiteness checks.

    Returns a new array and the axis its rows run along: the last one, or 0
    for a narrow matrix, which is shifted in a transposed copy (see
    :func:`sum_rows`).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ShapeError(f"{what} of empty input")
    if not np.isfinite(z).all():
        raise NumericalError(f"{what} input contains NaN or Inf")
    if _narrow(z):
        t = z.T.copy()
        t -= np.maximum.reduce(t, axis=0)
        return t, 0
    return z - z.max(axis=-1, keepdims=True), -1


def softmax(logits) -> np.ndarray:
    """Softmax along the last axis, computed with max-subtraction.

    Accepts a vector or a batch of row vectors; outputs are in (0, 1]
    and each row sums to 1. The exponential and the normalisation run in
    place in the shifted copy.
    """
    e, axis = _shifted(logits, "softmax")
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e.T.copy() if axis == 0 else e


def log_softmax(logits) -> np.ndarray:
    """Logarithm of :func:`softmax` along the last axis, formed directly.

    Entries stay finite where the softmax itself underflows to 0, so
    products like ``p * log p`` never meet ``0 * log(0)``.
    """
    shifted, axis = _shifted(logits, "log-softmax")
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))
    return shifted.T.copy() if axis == 0 else shifted


def frobenius_norm(w) -> float:
    """Square root of the sum of squared entries."""
    w = as_matrix(w)
    return float(np.sqrt(np.sum(w * w)))


def condition_number(w) -> float:
    """Ratio of the largest to the smallest nonzero singular value.

    Singular values below ``RANK_CUTOFF * sigma_max`` count as zero, so
    rank-deficient matrices report the conditioning of their nonzero part.
    """
    return spectrum_condition(singular_values(w))


def singular_values(w) -> np.ndarray:
    """Every singular value of ``w``, largest first.

    ``w`` passes :func:`as_matrix`'s checks, so a NaN or Inf entry raises
    :class:`NumericalError`, as does an SVD that fails to converge.
    """
    w = as_matrix(w)
    try:
        return np.linalg.svd(w, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge for shape {w.shape}: {exc}") from exc


def spectrum_condition(s: np.ndarray) -> float:
    """:func:`condition_number` of a matrix whose singular values, largest
    first, are ``s``."""
    smax = float(s[0])
    if smax == 0.0:
        raise DegenerateInputError("condition number of an all-zero matrix")
    nonzero = s[s > RANK_CUTOFF * smax]
    return float(smax / nonzero[-1])
