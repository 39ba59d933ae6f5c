"""Proper orthogonal decomposition by the method of snapshots.

The M x M correlation matrix C[m, q] = (1/M)(psi_m, psi_q) is diagonalized
with LAPACK's symmetric eigensolver (np.linalg.eigh), the basis is assembled as

    xi_i = sum_m (v_i)_m psi_m / sqrt(M lambda_i),

i.e. the snapshot combination renormalized to unit norm so downstream
Galerkin projections need no mass weighting, and a modified Gram-Schmidt
pass removes the residual non-orthogonality the normalization amplifies on
deep-tail modes.  The average squared distance of the snapshots to their
span equals the neglected-eigenvalue sum, which projection_error evaluates
independently from the projections themselves, on the same residual rows
whose norms are the per-time projection floors of pipeline.compare.

Snapshots and modes are FieldRows: every function here works on their one
(M, n) array, with the grid's cell area as the inner-product weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankError, ShapeError
from .grid import FieldRows, Grid, load_arrays, read_file, save_arrays
# snapshot_matrix stays importable here for perfbench/spans.py, which wraps it
from .grid import snapshot_matrix  # noqa: F401

RANK_CUTOFF = 1e-13


def correlation_matrix(rows: FieldRows) -> np.ndarray:
    """Symmetric PSD matrix of scaled snapshot inner products."""
    if len(rows) < 1:
        raise ShapeError("correlation_matrix needs at least one snapshot")
    C = (rows.values @ rows.values.T) * (rows.grid.cell_area / len(rows))
    return 0.5 * (C + C.T)  # exact symmetry regardless of GEMM blocking


def symmetric_eig(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a symmetric matrix (LAPACK, via np.linalg.eigh).

    Returns eigenvalues sorted non-increasing and the matching orthonormal
    eigenvector columns, each signed so that its largest-magnitude entry is
    positive (the first such entry on a tie), which keeps the modes built
    from them deterministic.  A matrix that is not square, not finite or not
    symmetric to 1e-13 ||C||_F raises ShapeError; a LAPACK failure raises
    NumericalError.
    """
    A = np.asarray(C, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"need a square matrix, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ShapeError("matrix has non-finite entries")
    norm = float(np.linalg.norm(A, "fro"))
    if np.abs(A - A.T).max() > max(1e-13 * norm, 1e-300):
        raise ShapeError("matrix is not symmetric")
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
    w, V = w[::-1], V[:, ::-1]
    lead = V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])]
    return w.copy(), V * np.where(lead < 0, -1.0, 1.0)


@dataclass(eq=False)
class ReducedBasis:
    """Orthonormal modes plus the full originating spectrum.

    ``modes`` is a FieldRows: ``modes.values`` is the (N, n) mode array.
    ``n_primary`` counts the snapshot-derived modes; supremizer enrichment
    appends modes after them and bumps ``n_supremizer``.
    """

    modes: FieldRows
    eigenvalues: np.ndarray
    kind: str
    M: int
    n_supremizer: int = 0

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if not isinstance(self.modes, FieldRows) or len(self.modes) == 0:
            raise ShapeError("ReducedBasis needs a FieldRows of at least one mode")

    @property
    def grid(self) -> Grid:
        return self.modes.grid

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def n_primary(self) -> int:
        return self.n_modes - self.n_supremizer

    def gram(self) -> np.ndarray:
        Phi = self.modes.values
        return (Phi @ Phi.T) * self.grid.cell_area

    def save(self, directory) -> None:
        save_arrays(directory, "romkit-basis-3",
                    {"kind": self.kind, "M": self.M, "n_supremizer": self.n_supremizer,
                     "field_kind": self.modes.kind},
                    {"modes": self.modes.values, "eigenvalues": self.eigenvalues})

    @classmethod
    def load(cls, directory, grid: Grid, read=read_file) -> "ReducedBasis":
        meta, arrays = load_arrays(directory, "romkit-basis-3", read)
        return cls(FieldRows(grid, meta["field_kind"], arrays["modes"]), arrays["eigenvalues"],
                   meta["kind"], meta["M"], meta["n_supremizer"])


def _mgs(matrix: np.ndarray, area: float, start: int = 0) -> np.ndarray:
    """Modified Gram-Schmidt on the rows, in the weighted inner product.

    Rows before ``start`` are assumed orthonormal and left untouched.  The
    projection sweep runs twice per row so near-dependent entries (e.g.
    supremizers almost inside the span) still come out orthogonal to
    machine precision.
    """
    Q = matrix.copy()
    for i in range(Q.shape[0]):
        if i >= start:
            for _ in range(2):
                for j in range(i):
                    Q[i] -= (area * np.dot(Q[j], Q[i])) * Q[j]
            nrm = np.sqrt(area * np.dot(Q[i], Q[i]))
            if nrm <= 0:
                raise RankError(f"mode {i} vanished during re-orthonormalization")
            Q[i] /= nrm
    return Q


def build_basis(rows: FieldRows, eigenvalues: np.ndarray, eigenvectors: np.ndarray,
                n_modes: int, kind: str = "velocity") -> ReducedBasis:
    """Orthonormal spanning modes of the dominant n_modes-dimensional subspace."""
    M = len(rows)
    w = np.asarray(eigenvalues, dtype=np.float64)
    if eigenvectors.shape != (M, w.size):
        raise ShapeError("eigenvector matrix shape does not match snapshots/eigenvalues")
    if n_modes < 1:
        raise RankError(f"n_modes must be >= 1, got {n_modes}")
    rank = numerical_rank(w)
    if n_modes > rank:
        raise RankError(f"requested {n_modes} modes but numerical rank is {rank}")
    coeff = eigenvectors[:, :n_modes] / np.sqrt(M * w[:n_modes])
    Phi = _mgs(coeff.T @ rows.values, rows.grid.cell_area)
    return ReducedBasis(FieldRows(rows.grid, rows.kind, Phi), w, kind, M)


def numerical_rank(eigenvalues: np.ndarray) -> int:
    w = np.asarray(eigenvalues, dtype=np.float64)
    if w.size == 0 or w[0] <= 0:
        raise RankError("spectrum has no positive eigenvalue")
    return int(np.sum(w > RANK_CUTOFF * w[0]))


def truncation_rank(eigenvalues: np.ndarray, threshold: float) -> int:
    """Smallest N whose cumulative eigenvalue fraction reaches the threshold."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    w = np.asarray(eigenvalues, dtype=np.float64)
    total = w.sum()
    if w.size == 0 or total <= 0:
        raise RankError("cannot truncate an all-zero spectrum")
    frac = np.cumsum(w) / total
    return int(np.searchsorted(frac, threshold - 1e-15) + 1)


def pod_basis(rows: FieldRows, n_modes: int | None = None,
              kind: str = "velocity") -> ReducedBasis:
    """Correlation matrix, eigensolve and basis assembly in one call; at most
    n_modes modes (all of the numerical rank by default)."""
    C = correlation_matrix(rows)
    w, V = symmetric_eig(C)
    rank = numerical_rank(w)
    n_modes = rank if n_modes is None else min(n_modes, rank)
    return build_basis(rows, w, V, n_modes, kind)


def project_coefficients(rows: FieldRows, basis: ReducedBasis,
                         n_modes: int | None = None) -> np.ndarray:
    """(M, n_modes) inner products of each row with the first n_modes basis modes."""
    n = basis.n_modes if n_modes is None else n_modes
    return (rows.values @ basis.modes.values[:n].T) * basis.grid.cell_area


def projection_error(rows: FieldRows, basis: ReducedBasis, n_modes: int) -> float:
    """Mean squared distance of the snapshots to the span of the first
    n_modes modes, computed directly from the projection residuals."""
    if n_modes > basis.n_modes:
        raise RankError(f"basis holds {basis.n_modes} modes, asked for {n_modes}")
    area = basis.grid.cell_area
    R = _residual(rows.values, basis.modes.values[:n_modes], area)
    return float(np.sum(R * R) * area / len(rows))


def _residual(S: np.ndarray, Phi: np.ndarray, area: float) -> np.ndarray:
    """S minus its projection on the orthonormal rows of Phi: the residual
    rows whose norms are the projection errors (formed explicitly; the
    norm-difference shortcut cancels when the span holds most of a row)."""
    return S - ((S @ Phi.T) * area) @ Phi
