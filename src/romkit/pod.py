"""Proper orthogonal decomposition by the method of snapshots.

The M x M correlation matrix C[m, q] = (1/M)(psi_m, psi_q) is diagonalized
with a cyclic Jacobi sweep (threshold variant), the basis is assembled as

    xi_i = sum_m (v_i)_m psi_m / sqrt(M lambda_i),

i.e. the snapshot combination renormalized to unit norm so downstream
Galerkin projections need no mass weighting, and a modified Gram-Schmidt
pass removes the residual non-orthogonality the normalization amplifies on
deep-tail modes.  The average squared distance of the snapshots to their
span equals the neglected-eigenvalue sum, which projection_error evaluates
independently from the projections themselves.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FormatError, NumericalError, RankError, ShapeError
# snapshot_matrix stays importable here for perfbench/spans.py, which wraps it
from .grid import Field, FieldRows, Grid, _load_rows, field_rows, snapshot_matrix  # noqa: F401

RANK_CUTOFF = 1e-13
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100


def correlation_matrix(fields: FieldRows | Sequence[Field]) -> np.ndarray:
    """Symmetric PSD matrix of scaled snapshot inner products."""
    if len(fields) < 1:
        raise ShapeError("correlation_matrix needs at least one snapshot")
    rows = field_rows(fields)
    C = (rows.values @ rows.values.T) * (rows.grid.cell_area / len(rows))
    return 0.5 * (C + C.T)  # exact symmetry regardless of GEMM blocking


def _off_norm(A: np.ndarray) -> float:
    # summed directly over off-diagonal entries: the ||A||_F^2 - ||diag||^2
    # shortcut cancels catastrophically once the off-diagonal is tiny
    B = A.copy()
    np.fill_diagonal(B, 0.0)
    return float(np.linalg.norm(B, "fro"))


def symmetric_eig(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a symmetric matrix via cyclic Jacobi rotations.

    Returns eigenvalues sorted non-increasing and the matching orthonormal
    eigenvector columns.  Convergence: off-diagonal Frobenius norm below
    1e-14 ||C||_F within 100 sweeps, else NumericalError.
    """
    A = np.asarray(C, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"need a square matrix, got {A.shape}")
    n = A.shape[0]
    norm = float(np.linalg.norm(A, "fro"))
    if np.abs(A - A.T).max() > max(1e-13 * norm, 1e-300):
        raise ShapeError("matrix is not symmetric")
    if n == 1:
        return A.copy().reshape(1), np.ones((1, 1))

    A = A.copy()
    V = np.eye(n)
    tol = JACOBI_TOL * norm
    if norm == 0.0:
        return np.zeros(n), V
    skip = tol / n

    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_norm(A) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        raise NumericalError(
            f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal {_off_norm(A):.3e} vs tolerance {tol:.3e})"
        )

    w = np.diag(A).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order]


@dataclass(eq=False)
class ReducedBasis:
    """Orthonormal modes plus the full originating spectrum.

    ``modes`` is a FieldRows (given as one or as a sequence of Fields):
    ``modes.values`` is the (N, n) mode array, ``modes[i]`` a Field view of
    mode i.  ``n_primary`` counts the snapshot-derived modes; supremizer
    enrichment appends modes after them and bumps ``n_supremizer``.
    """

    modes: FieldRows
    eigenvalues: np.ndarray
    kind: str
    M: int
    n_supremizer: int = 0

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if len(self.modes) == 0:
            raise ShapeError("ReducedBasis needs at least one mode")
        self.modes = field_rows(self.modes)

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
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        for i, row in enumerate(self.modes.values):
            (d / f"modes_{i:06d}.bin").write_bytes(row.astype("<f8").tobytes())
        with open(d / "spectrum.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "lambda"])
            for i, lam in enumerate(self.eigenvalues):
                writer.writerow([i, repr(float(lam))])
        (d / "basis.json").write_text(json.dumps({
            "format": "romkit-basis-1",
            "kind": self.kind,
            "N": self.n_modes,
            "M": self.M,
            "n_supremizer": self.n_supremizer,
            "field_kind": self.modes.kind,
            "normalization": "unit",
        }, indent=1))

    @classmethod
    def load(cls, directory, grid: Grid) -> "ReducedBasis":
        d = Path(directory)
        try:
            meta = json.loads((d / "basis.json").read_text())
        except FileNotFoundError:
            raise FormatError(f"no basis.json under {d}")
        if meta.get("format") != "romkit-basis-1":
            raise FormatError(f"unsupported basis format {meta.get('format')!r}")
        modes = _load_rows(grid, meta["field_kind"],
                           [d / f"modes_{i:06d}.bin" for i in range(meta["N"])])
        lams = []
        with open(d / "spectrum.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                lams.append(float(row["lambda"]))
        return cls(modes, np.array(lams), meta["kind"], meta["M"], meta["n_supremizer"])


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


def build_basis(fields: FieldRows | Sequence[Field], eigenvalues: np.ndarray,
                eigenvectors: np.ndarray, n_modes: int, kind: str = "velocity") -> ReducedBasis:
    """Orthonormal spanning modes of the dominant n_modes-dimensional subspace."""
    rows = field_rows(fields)
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


def pod_basis(fields: FieldRows | Sequence[Field], n_modes: int | None = None,
              energy: float | None = None, kind: str = "velocity") -> ReducedBasis:
    """Correlation matrix, eigensolve and basis assembly in one call."""
    fields = field_rows(fields)
    C = correlation_matrix(fields)
    w, V = symmetric_eig(C)
    rank = numerical_rank(w)
    if n_modes is None:
        n_modes = truncation_rank(w, energy) if energy is not None else rank
    n_modes = min(n_modes, rank)
    return build_basis(fields, w, V, n_modes, kind)


def project_coefficients(fields: FieldRows | Sequence[Field] | Field, basis: ReducedBasis,
                         n_modes: int | None = None) -> np.ndarray:
    """Inner products of each snapshot with the first n_modes basis modes."""
    single = isinstance(fields, Field)
    S = fields.values[None, :] if single else field_rows(fields).values
    n = basis.n_modes if n_modes is None else n_modes
    coeff = (S @ basis.modes.values[:n].T) * basis.grid.cell_area
    return coeff[0] if single else coeff


def projection_error(fields: FieldRows | Sequence[Field], basis: ReducedBasis,
                     n_modes: int) -> float:
    """Mean squared distance of the snapshots to the span of the first
    n_modes modes, computed directly from the projection residuals."""
    if n_modes > basis.n_modes:
        raise RankError(f"basis holds {basis.n_modes} modes, asked for {n_modes}")
    S = field_rows(fields).values
    area = basis.grid.cell_area
    if n_modes == 0:
        R = S
    else:
        Phi = basis.modes.values[:n_modes]
        R = S - ((S @ Phi.T) * area) @ Phi
    return float(np.sum(R * R) * area / S.shape[0])
