import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romkit import pod
from romkit.errors import FormatError, NumericalError, RankError, ShapeError
from romkit.grid import FieldRows, Grid, l2_norm
from romkit.pod import (
    ReducedBasis,
    build_basis,
    correlation_matrix,
    numerical_rank,
    pod_basis,
    project_coefficients,
    projection_error,
    symmetric_eig,
    truncation_rank,
)

from conftest import CHANNEL_TAGS, random_scalars, random_vectors


@pytest.fixture
def grid():
    return Grid(8, 4, 1.0, 0.5, CHANNEL_TAGS)


def _random_set(grid, rng, m, kind="vector2"):
    maker = random_vectors if kind == "vector2" else random_scalars
    return maker(grid, rng, m)


class TestCorrelationMatrix:
    def test_single_unit_snapshot(self, grid):
        f = FieldRows(grid, "scalar", np.full((1, grid.n_scalar), 1.0 / np.sqrt(grid.lx * grid.ly)))
        C = correlation_matrix(f)
        assert C.shape == (1, 1)
        assert C[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_two_orthogonal_unit_snapshots(self, grid):
        a = np.zeros(grid.n_scalar)
        b = np.zeros(grid.n_scalar)
        a[0] = 1.0 / np.sqrt(grid.cell_area)
        b[1] = 1.0 / np.sqrt(grid.cell_area)
        C = correlation_matrix(FieldRows(grid, "scalar", np.stack([a, b])))
        assert np.allclose(C, 0.5 * np.eye(2), atol=1e-15)

    def test_matches_double_loop_oracle(self, grid, rng):
        fields = _random_set(grid, rng, 5)
        C = correlation_matrix(fields)
        M = len(fields)
        oracle = np.empty((M, M))
        for m in range(M):
            for q in range(M):
                oracle[m, q] = (float(np.dot(fields[m].values, fields[q].values))
                                * grid.cell_area / M)
        assert np.abs(C - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_exactly_symmetric_and_psd(self, grid, rng):
        C = correlation_matrix(_random_set(grid, rng, 12))
        assert np.array_equal(C, C.T)
        w, _ = symmetric_eig(C)
        assert w.min() >= -1e-12 * w.max()

    def test_empty_rejected(self, grid):
        with pytest.raises(ShapeError):
            correlation_matrix(FieldRows(grid, "scalar", np.zeros((0, grid.n_scalar))))


class TestSymmetricEig:
    def test_diagonal(self):
        w, V = symmetric_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(V), np.eye(2))

    def test_classic_2x2(self):
        w, V = symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [3.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(V[:, 0]), [s, s], atol=1e-12)
        assert np.allclose(np.abs(V[:, 1]), [s, s], atol=1e-12)

    def test_reconstruction_random_8x8(self, rng):
        A = rng.standard_normal((8, 8))
        C = A + A.T
        w, V = symmetric_eig(C)
        assert np.linalg.norm(V @ np.diag(w) @ V.T - C, "fro") <= 1e-12 * np.linalg.norm(C, "fro")

    def test_eigenvector_residuals(self, rng):
        A = rng.standard_normal((12, 12))
        C = A + A.T
        w, V = symmetric_eig(C)
        for i in range(12):
            r = np.linalg.norm(C @ V[:, i] - w[i] * V[:, i])
            assert r <= 1e-12 * np.linalg.norm(C, "fro")

    def test_orthonormal_eigenvectors(self, rng):
        A = rng.standard_normal((20, 20))
        C = A + A.T
        _, V = symmetric_eig(C)
        assert np.abs(V.T @ V - np.eye(20)).max() < 1e-13

    def test_sorted_descending(self, rng):
        A = rng.standard_normal((15, 15))
        w, _ = symmetric_eig(A + A.T)
        assert np.all(np.diff(w) <= 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_size_one(self):
        w, V = symmetric_eig(np.array([[4.0]]))
        assert w[0] == 4.0 and V[0, 0] == 1.0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.sampled_from(["symmetric", "gram", "repeated"]),
           st.integers(0, 2**32 - 1))
    def test_contract(self, n, kind, seed):
        """Order, orthonormality, reconstruction, sign rule and determinism on
        general symmetric, rank-deficient PSD and repeated-eigenvalue input."""
        rng = np.random.default_rng(seed)
        if kind == "symmetric":
            A = rng.standard_normal((n, n))
            C = A + A.T
        elif kind == "gram":
            B = rng.standard_normal((n, int(rng.integers(1, max(2, n)))))  # rank < n for n > 1
            C = B @ B.T
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            lam = rng.choice([3.0, 1.0, 0.0, -2.0], size=n)
            C = (Q * lam) @ Q.T
        C = 0.5 * (C + C.T)
        w, V = symmetric_eig(C)
        assert w.shape == (n,) and V.shape == (n, n)
        assert np.all(np.diff(w) <= 0)
        assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-13
        norm = np.linalg.norm(C, "fro")
        assert np.linalg.norm((V * w) @ V.T - C, "fro") <= 1e-12 * max(norm, 1e-300)
        assert np.all(V[np.abs(V).argmax(axis=0), np.arange(n)] > 0)
        w2, V2 = symmetric_eig(C.copy())
        assert np.array_equal(w, w2) and np.array_equal(V, V2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ShapeError, match="non-finite"):
            symmetric_eig(np.array([[1.0, bad], [bad, 1.0]]))

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def fail(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(pod.np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            symmetric_eig(np.eye(3))


class TestBuildBasis:
    def test_single_snapshot_normalized(self, grid, rng):
        f = random_scalars(grid, rng)
        basis = pod_basis(f, kind="pressure")
        assert l2_norm(basis.modes[0]) == pytest.approx(1.0, abs=1e-12)
        # mode is the snapshot direction
        c = float(np.dot(basis.modes.values[0], f.values[0])) * grid.cell_area
        assert abs(abs(c) - l2_norm(f[0])) <= 1e-10 * l2_norm(f[0])

    def test_duplicated_snapshot_rank_one(self, grid, rng):
        f = random_scalars(grid, rng).values
        fields = FieldRows(grid, "scalar", np.vstack([f, f]))
        C = correlation_matrix(fields)
        w, V = symmetric_eig(C)
        assert numerical_rank(w) == 1
        with pytest.raises(RankError):
            build_basis(fields, w, V, 2)
        basis = build_basis(fields, w, V, 1)
        assert basis.n_modes == 1

    def test_gram_identity(self, grid, rng):
        fields = _random_set(grid, rng, 10)
        basis = pod_basis(fields)
        G = basis.gram()
        assert np.abs(G - np.eye(basis.n_modes)).max() < 1e-10

    def test_rank_error_beyond_cutoff(self, grid, rng):
        fields = _random_set(grid, rng, 4)
        C = correlation_matrix(fields)
        w, V = symmetric_eig(C)
        with pytest.raises(RankError):
            build_basis(fields, w, V, 5)


class TestTruncation:
    def test_spiked_spectrum(self):
        assert truncation_rank(np.array([1.0, 0.0, 0.0]), 0.9999) == 1

    def test_partial_energy(self):
        assert truncation_rank(np.array([0.5, 0.3, 0.2]), 0.8) == 2

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            truncation_rank(np.array([1.0]), 0.0)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(RankError):
            truncation_rank(np.zeros(3), 0.9)

    def test_full_energy_needs_all(self):
        assert truncation_rank(np.array([0.5, 0.3, 0.2]), 1.0) == 3


class TestProjectionError:
    def test_full_basis_zero_error(self, grid, rng):
        fields = _random_set(grid, rng, 6)
        basis = pod_basis(fields)
        err = projection_error(fields, basis, basis.n_modes)
        lam1 = basis.eigenvalues[0]
        assert err <= 1e-12 * lam1

    def test_zero_modes_gives_trace(self, grid, rng):
        fields = _random_set(grid, rng, 6)
        basis = pod_basis(fields)
        err = projection_error(fields, basis, 0)
        trace = basis.eigenvalues.sum()
        assert err == pytest.approx(trace, rel=1e-12)

    def test_eigenvalue_tail_identity_every_n(self, grid, rng):
        fields = _random_set(grid, rng, 12)
        basis = pod_basis(fields)
        w = basis.eigenvalues
        total = w.sum()
        for n in range(basis.n_modes + 1):
            direct = projection_error(fields, basis, n)
            tail = w[n:].sum()
            assert abs(direct - tail) <= 1e-10 * total

    def test_monotone_in_n(self, grid, rng):
        fields = _random_set(grid, rng, 10)
        basis = pod_basis(fields)
        errs = [projection_error(fields, basis, n) for n in range(basis.n_modes + 1)]
        assert all(e1 <= e0 + 1e-14 * errs[0] for e0, e1 in zip(errs, errs[1:]))

    def test_scaling_invariance_of_projector(self, grid, rng):
        fields = _random_set(grid, rng, 6, kind="scalar")
        alpha = 37.5
        scaled = FieldRows(grid, "scalar", alpha * fields.values)
        b1 = pod_basis(fields, n_modes=4, kind="pressure")
        b2 = pod_basis(scaled, n_modes=4, kind="pressure")
        area = grid.cell_area
        P1 = b1.modes.values.T @ b1.modes.values * area
        P2 = b2.modes.values.T @ b2.modes.values * area
        assert np.linalg.norm(P1 - P2, 2) < 1e-10


class TestPersistence:
    def test_roundtrip(self, grid, rng, tmp_path):
        basis = pod_basis(_random_set(grid, rng, 7), n_modes=5)
        basis.save(tmp_path / "basis_u")
        back = ReducedBasis.load(tmp_path / "basis_u", grid)
        assert back.kind == basis.kind and back.M == basis.M
        assert np.array_equal(back.eigenvalues, basis.eigenvalues)
        for a, b in zip(basis.modes, back.modes):
            assert np.array_equal(a.values, b.values)
        assert (tmp_path / "basis_u" / "modes.bin").read_bytes() == basis.modes.values.tobytes()

    def test_bad_files_rejected(self, grid, rng, tmp_path):
        d = tmp_path / "basis_u"
        pod_basis(_random_set(grid, rng, 7), n_modes=5).save(d)
        modes = (d / "modes.bin").read_bytes()
        (d / "modes.bin").write_bytes(modes[:-8])
        with pytest.raises(FormatError, match="modes.bin"):
            ReducedBasis.load(d, grid)
        meta = json.loads((d / "meta.json").read_text())
        (d / "meta.json").write_text(json.dumps({**meta, "format": "romkit-basis-2"}))
        with pytest.raises(FormatError, match="romkit-basis-2"):
            ReducedBasis.load(d, grid)


class TestCoefficients:
    def test_projection_reproduces_snapshot_in_span(self, grid, rng):
        fields = _random_set(grid, rng, 5)
        basis = pod_basis(fields)
        c = project_coefficients(fields[2:3], basis)[0]
        recon = basis.modes.values.T @ c
        assert np.allclose(recon, fields[2].values, atol=1e-10 * np.abs(fields[2].values).max())
