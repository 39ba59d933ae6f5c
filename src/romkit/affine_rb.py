"""Stationary reduced basis for affinely parameterized compliant problems.

The full-order problem is A(mu) u = f(mu) with the parameter-separable
forms A(mu) = sum_q theta_a^q(mu) A_q and f(mu) = sum_q theta_f^q(mu) f_q,
output s(mu) = f(mu)' u (compliance).  Offline, snapshots at training
parameters are compressed with POD in the A(mu_bar)-energy product and the
reduced blocks Z' A_q Z, Z' f_q are precomputed; online, only N-sized data
is touched, so the cost is independent of the full dimension.

The built-in demo is P1 finite-element diffusion on (0, 1) with a
two-subdomain conductivity (kappa = mu on the left half, 1 on the right),
unit load, and parameter box [0.1, 10].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError, RankError, ShapeError, StabilityError
from .pod import numerical_rank, symmetric_eig

FOM_RESIDUAL_RTOL = 1e-12


@dataclass(eq=False)
class AffineProblem:
    """Parameter-separable SPD system with a compliant output."""

    A_blocks: list
    f_blocks: list
    theta_a: Callable[[np.ndarray], np.ndarray]
    theta_f: Callable[[np.ndarray], np.ndarray]
    param_box: np.ndarray          # (p, 2) bounds
    name: str = "affine"

    def __post_init__(self):
        if not self.A_blocks or not self.f_blocks:
            raise ConfigurationError("need at least one A block and one f block")
        n = self.A_blocks[0].shape[0]
        for A in self.A_blocks:
            if A.shape != (n, n):
                raise ShapeError("A blocks must share one square shape")
        for f in self.f_blocks:
            if np.asarray(f).shape != (n,):
                raise ShapeError("f blocks must be vectors of the A dimension")
        self.param_box = np.atleast_2d(np.asarray(self.param_box, dtype=np.float64))
        if self.param_box.shape[1] != 2 or np.any(self.param_box[:, 0] >= self.param_box[:, 1]):
            raise ConfigurationError("param_box must be rows of (lo, hi) with lo < hi")

    @property
    def n_dof(self) -> int:
        return self.A_blocks[0].shape[0]

    @property
    def Q_a(self) -> int:
        return len(self.A_blocks)

    @property
    def Q_f(self) -> int:
        return len(self.f_blocks)

    def check_mu(self, mu) -> np.ndarray:
        mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
        if mu.shape != (self.param_box.shape[0],):
            raise ConfigurationError(f"mu must have {self.param_box.shape[0]} entries")
        lo, hi = self.param_box[:, 0], self.param_box[:, 1]
        if np.any(mu < lo) or np.any(mu > hi):
            raise ConfigurationError(f"mu={mu} outside the parameter box")
        return mu

    def assemble(self, mu) -> tuple:
        mu = self.check_mu(mu)
        th_a = np.asarray(self.theta_a(mu), dtype=np.float64)
        th_f = np.asarray(self.theta_f(mu), dtype=np.float64)
        if th_a.shape != (self.Q_a,) or th_f.shape != (self.Q_f,):
            raise ShapeError("theta functions must return one coefficient per block")
        A = th_a[0] * self.A_blocks[0]
        for c, blk in zip(th_a[1:], self.A_blocks[1:]):
            A = A + c * blk
        f = th_f @ np.asarray(self.f_blocks)
        return A, f


def fom_solve(problem: AffineProblem, mu):
    """High-fidelity solve; returns (u, s) with s = f(mu)' u."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    A, f = problem.assemble(mu)
    sym_dev = abs(A - A.T)
    if (sym_dev.max() if sp.issparse(A) else np.abs(sym_dev).max()) > 1e-12 * abs(A).max():
        raise ConfigurationError("assembled operator is not symmetric")
    u = spla.splu(A.tocsc()).solve(f)
    resid = np.linalg.norm(A @ u - f)
    scale = spla.norm(A, np.inf) * np.linalg.norm(u) + np.linalg.norm(f)
    if resid > FOM_RESIDUAL_RTOL * max(scale, 1e-300):
        raise NumericalError(f"full-order residual {resid:.3e} above tolerance")
    if f @ u < 0:
        raise ConfigurationError("assembled operator is not positive definite (f'u < 0)")
    return u, float(f @ u)


@dataclass(eq=False)
class ReducedModel:
    """The N-sized data rb_online touches: nothing here scales with N_delta."""

    A_rb: np.ndarray               # (Q_a, N, N)
    f_rb: np.ndarray               # (Q_f, N)
    theta_a: Callable
    theta_f: Callable

    @property
    def n_modes(self) -> int:
        return self.A_rb.shape[1]


@dataclass(eq=False)
class RBSpace:
    """Energy-orthonormal basis with precomputed reduced affine blocks."""

    basis: np.ndarray              # (N_delta, N)
    reduced: ReducedModel
    mu_bar: np.ndarray
    training_mus: np.ndarray
    eigenvalues: np.ndarray        # POD spectrum over the training snapshots

    @property
    def n_modes(self) -> int:
        return self.reduced.n_modes


def rb_offline(problem: AffineProblem, training_mus: Sequence, n_modes: int) -> RBSpace:
    """Snapshot solves, energy-product POD and reduced-block precomputation."""
    mus = np.atleast_2d(np.asarray(training_mus, dtype=np.float64))
    if mus.shape[0] < n_modes:
        raise RankError(f"{mus.shape[0]} training solves cannot support {n_modes} modes")
    U = np.column_stack([fom_solve(problem, mu)[0] for mu in mus])
    mu_bar = problem.param_box.mean(axis=1)
    X, _ = problem.assemble(mu_bar)

    M = mus.shape[0]
    XU = X @ U
    C = (U.T @ XU) / M
    C = 0.5 * (C + C.T)
    w, V = symmetric_eig(C)
    rank = numerical_rank(w)
    if n_modes > rank:
        raise RankError(f"requested {n_modes} modes, numerical rank is {rank}")
    Z = U @ (V[:, :n_modes] / np.sqrt(M * w[:n_modes]))

    # re-orthonormalize in the X-energy product (MGS in the induced geometry)
    for i in range(Z.shape[1]):
        for _ in range(2):
            for j in range(i):
                Z[:, i] -= (Z[:, j] @ (X @ Z[:, i])) * Z[:, j]
        nrm = np.sqrt(Z[:, i] @ (X @ Z[:, i]))
        if nrm <= 0:
            raise RankError(f"basis vector {i} vanished in re-orthonormalization")
        Z[:, i] /= nrm

    A_rb = np.stack([Z.T @ (blk @ Z) for blk in problem.A_blocks])
    f_rb = np.stack([Z.T @ np.asarray(blk) for blk in problem.f_blocks])
    reduced = ReducedModel(A_rb, f_rb, problem.theta_a, problem.theta_f)
    return RBSpace(Z, reduced, mu_bar, mus, w)


def rb_online(model: ReducedModel | RBSpace, mu):
    """N x N solve; returns (reduced coefficients, s_rb)."""
    if isinstance(model, RBSpace):
        model = model.reduced
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    th_a = model.theta_a(mu)
    th_f = model.theta_f(mu)
    A = th_a[0] * model.A_rb[0]
    for q in range(1, len(th_a)):
        A += th_a[q] * model.A_rb[q]
    f = th_f[0] * model.f_rb[0]
    for q in range(1, len(th_f)):
        f += th_f[q] * model.f_rb[q]
    try:
        coeff = np.linalg.solve(A, f)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(f"reduced system singular at mu={mu}: {exc}")
    return coeff, float(coeff @ f)


def demo_problem(n_dof: int = 4096, kind: str = "two_domain") -> AffineProblem:
    """P1 FEM diffusion -(kappa u')' = 1 on (0, 1), u(0) = u(1) = 0.

    two_domain: kappa = mu on (0, 1/2), 1 on (1/2, 1)  ->  Q_a = 2, Q_f = 1.
    uniform:    kappa = mu everywhere                   ->  Q_a = 1, Q_f = 1.
    """
    import scipy.sparse as sp

    n_el = n_dof + 1
    h = 1.0 / n_el

    def stiffness(active: np.ndarray) -> sp.csr_matrix:
        # element-wise assembly over interior nodes; active masks the elements
        main = np.zeros(n_dof)
        off = np.zeros(n_dof - 1)
        for e in range(n_el):
            if not active[e]:
                continue
            left, right = e - 1, e  # interior node indices of element e
            if left >= 0:
                main[left] += 1.0 / h
            if right < n_dof:
                main[right] += 1.0 / h
            if left >= 0 and right < n_dof:
                off[left] -= 1.0 / h
        return sp.diags([off, main, off], [-1, 0, 1], format="csr")

    elems = np.arange(n_el)
    mid = (elems + 0.5) * h
    load = np.full(n_dof, h)

    if kind == "two_domain":
        A1 = stiffness(mid < 0.5)
        A2 = stiffness(mid >= 0.5)
        return AffineProblem(
            A_blocks=[A1, A2],
            f_blocks=[load],
            theta_a=lambda mu: np.array([mu[0], 1.0]),
            theta_f=lambda mu: np.array([1.0]),
            param_box=np.array([[0.1, 10.0]]),
            name="two-domain diffusion",
        )
    if kind == "uniform":
        A1 = stiffness(np.ones(n_el, dtype=bool))
        return AffineProblem(
            A_blocks=[A1],
            f_blocks=[load],
            theta_a=lambda mu: np.array([mu[0]]),
            theta_f=lambda mu: np.array([1.0]),
            param_box=np.array([[0.1, 10.0]]),
            name="uniform diffusion",
        )
    raise ConfigurationError(f"unknown demo problem kind {kind!r}")
