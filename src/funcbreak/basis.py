"""Fourier-basis representation of functional observations.

Curves on [0, 1] are stored as coefficient vectors with respect to an
orthonormal Fourier basis (constant function first, then sin/cos pairs at
increasing frequency). Orthonormality makes every L2 inner product, norm and
kernel operator a finite-dimensional linear-algebra computation on the
coefficients, which is also how daily observations smoothed over 21 basis
functions are handled in practice. A basis is its size alone: curves are
fitted and evaluated at whatever points the caller supplies.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateFitError",
    "FourierBasis",
    "Curve",
    "CurveSeries",
    "KernelMatrix",
    "EigenSystem",
    "fit_curve",
    "eigen_decompose",
]

DEFAULT_BASIS_SIZE = 21


class DegenerateFitError(ValueError):
    """A curve has fewer usable sample points than basis functions."""


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only copy: the caller's array, and any array it views, stay
    writeable, and later writes to them do not reach the copy."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal Fourier basis v_1, ..., v_D on [0, 1].

    v_1 is the constant function 1; for j >= 1 the pair
    v_{2j}(t) = sqrt(2) sin(2 pi j t), v_{2j+1}(t) = sqrt(2) cos(2 pi j t)
    follows. The size D is the whole value: two bases with the same
    ``n_basis`` are equal.
    """

    n_basis: int = DEFAULT_BASIS_SIZE

    def __post_init__(self):
        if self.n_basis < 1:
            raise ValueError("basis needs at least one function")

    def design_matrix(self, t) -> np.ndarray:
        """Evaluate all basis functions at points ``t``; shape (len(t), D)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t.size, self.n_basis))
        out[:, 0] = 1.0
        for col in range(1, self.n_basis):
            freq = (col + 1) // 2
            arg = 2.0 * np.pi * freq * t
            out[:, col] = np.sqrt(2.0) * (np.sin(arg) if col % 2 == 1 else np.cos(arg))
        return out


@dataclass(frozen=True, eq=False)
class Curve:
    """A single function, stored as coefficients w.r.t. a FourierBasis."""

    coeffs: np.ndarray
    basis: FourierBasis

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).ravel()
        if c.size != self.basis.n_basis:
            raise ValueError("coefficient length does not match basis size")
        if not np.all(np.isfinite(c)):
            raise ValueError("curve coefficients must be finite")
        object.__setattr__(self, "coeffs", _readonly(c))


@dataclass(frozen=True, eq=False)
class CurveSeries:
    """n observed curves sharing one basis; coefficient rows, shape (n, D)."""

    data: np.ndarray
    basis: FourierBasis

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.ndim != 2 or d.shape[0] < 2:
            raise ValueError("series needs a 2-d array with at least two curves")
        if d.shape[1] != self.basis.n_basis:
            raise ValueError("coefficient columns do not match basis size")
        if not np.all(np.isfinite(d)):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "data", _readonly(d))

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """A bivariate kernel on [0,1]^2 in basis coordinates, shape (D, D).

    Holds covariance-type kernels as well as (possibly asymmetric) lagged
    autocovariances; symmetry is enforced only where an operation needs it.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("kernel entries must form a square matrix")
        if not np.all(np.isfinite(e)):
            raise ValueError("kernel entries must be finite")
        object.__setattr__(self, "entries", _readonly(e))

    def max_asymmetry(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.T)))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Descending eigenvalues and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        w = np.asarray(self.vectors, dtype=float)
        if w.shape != (v.size, v.size):
            raise ValueError("vectors must be square with one column per value")
        if np.any(np.diff(v) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "vectors", _readonly(w))


# the largest condition number of a Gram X'X solved as such (about 6 of 16 digits lost)
_GRAM_CONDITION = 1e6


def _least_squares(problems) -> np.ndarray:
    """Coefficients of a list of (table, rows, values) fits, stacked.

    Of each design X = ``table.take(rows, axis=0)`` only X'X and X'y are kept;
    one stacked ``solve`` takes every well-conditioned X'X c = X'y, lstsq the rest.
    """
    designs = ((table.take(rows, axis=0), y) for table, rows, y in problems)
    grams, rhs = map(np.array, zip(*((x.T @ x, x.T @ y) for x, y in designs)))
    # Gershgorin bounds on the eigenvalues clear most Grams; eigvalsh the rest
    radii = np.abs(grams).sum(axis=2)
    lower = (2.0 * grams.diagonal(axis1=1, axis2=2) - radii).min(axis=1)
    solvable = (lower > 0) & (radii.max(axis=1) <= _GRAM_CONDITION * lower)
    unsure = np.flatnonzero(~solvable)
    low, high = np.linalg.eigvalsh(grams[unsure])[:, [0, -1]].T
    solvable[unsure] = (low > 0) & (high <= _GRAM_CONDITION * low)
    coeffs = np.empty_like(rhs)
    coeffs[solvable] = np.linalg.solve(grams[solvable], rhs[solvable, :, None])[..., 0]
    for i in np.flatnonzero(~solvable):
        table, rows, y = problems[i]
        coeffs[i] = np.linalg.lstsq(table.take(rows, axis=0), y, rcond=None)[0]
    return coeffs


def fit_curve(basis: FourierBasis, t, values) -> np.ndarray:
    """Least-squares coefficients for samples ``values`` at points ``t``.

    NaN values are treated as missing and excluded from the fit. The normal
    equations are solved unless ill-conditioned, when ``np.linalg.lstsq`` fits
    the design. Raises DegenerateFitError when fewer than D usable points remain.

    It stays public as the per-year reference: ``cli.ingest`` fits every year
    in one stacked solve and is tested against it, and the benchmark traces it
    as a layer.
    """
    t = np.asarray(t, dtype=float).ravel()
    y = np.asarray(values, dtype=float).ravel()
    if t.size != y.size:
        raise ValueError("t and values must have equal length")
    mask = np.isfinite(y)
    if mask.sum() < basis.n_basis:
        raise DegenerateFitError(
            f"only {int(mask.sum())} usable points for {basis.n_basis} basis functions"
        )
    rows = np.arange(mask.sum())
    return _least_squares([(basis.design_matrix(t[mask]), rows, y[mask])])[0]


def eigen_decompose(k: KernelMatrix) -> EigenSystem:
    """Full spectral decomposition of a symmetric kernel, values descending.

    Ties keep the underlying decomposition's order (stable sort); each
    eigenvector's sign is fixed by making its largest-magnitude entry positive.
    """
    a = k.entries
    scale = max(1.0, float(np.max(np.abs(a))))
    if k.max_asymmetry() > 1e-8 * scale:
        raise ValueError("kernel is not symmetric")
    a = (a + a.T) / 2.0
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    anchor = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[anchor, np.arange(values.size)])
    return EigenSystem(values, vectors * signs)
