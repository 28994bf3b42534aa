"""The band kernel of `rotosense.multipole` gives the numbers of the dense T_LM formulas, no library
path builds the dense stack, and no module keeps a dense embedding isometry."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotosense
from rotosense import subspaces
from rotosense.anticoherence import is_anticoherent
from rotosense.multipole import adjoint_products, multipole_expectations, multipole_products, multipole_stack
from rotosense.oqr import certify, spin2_family
from rotosense.spin_core import DensityMatrix, SpinLabel
from rotosense.subspaces import SearchConfig, catalog, objective_g_t, search_subspace, verify_subspace
from conftest import random_density, serial_objective_and_gradient, serial_residual_and_jacobian, serial_tangent


def frames(two_j, k, restarts, seed):
    """Orthonormal (restarts, k, d) start frames, retracted as the search retracts them."""
    rng = np.random.default_rng(seed)
    d = two_j + 1
    return subspaces._orthonormalize_rows(rng.normal(size=(restarts, k, d)) + 1j * rng.normal(size=(restarts, k, d)))


def sparse_density(two_j, rng):
    """A low-rank state whose vectors lose 40% of their entries, so that rho holds exact zeros."""
    d = two_j + 1
    x = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    x[rng.random(x.shape) < 0.4] = 0.0
    x[0, 0] = 1.0
    m = x @ x.conj().T
    return DensityMatrix(SpinLabel(two_j), m / np.trace(m).real)


CELLS = [(1, 1, 1, 16), (2, 1, 1, 16), (4, 1, 1, 16), (4, 2, 1, 16), (7, 1, 2, 16), (8, 2, 2, 3), (10, 2, 2, 16),
         (9, 4, 1, 16), (16, 7, 1, 5), (16, 4, 2, 1), (17, 8, 1, 16), (40, 1, 3, 16), (40, 8, 2, 16), (80, 1, 2, 16),
         (80, 10, 2, 4)]


class TestProductsMatchTheDenseProduct:
    @pytest.mark.parametrize("two_j, k, t, restarts", CELLS)
    def test_products_are_psi_times_each_operator(self, two_j, k, t, restarts):
        ts = multipole_stack(two_j, 1, t)
        psi = frames(two_j, k, restarts, 20240051 + two_j)
        pt = multipole_products(psi, t)
        assert pt.shape == (restarts, k, len(ts), two_j + 1) and pt.flags.c_contiguous
        # equal entry by entry (a zero may carry the other sign)
        assert np.array_equal(pt, np.matmul(psi[:, None], ts).swapaxes(1, 2))
        assert np.array_equal(adjoint_products(pt, t), np.matmul(ts, psi[:, None].conj().swapaxes(-1, -2)).transpose(0, 3, 1, 2))

    @pytest.mark.parametrize("two_j, k, t, restarts", CELLS)
    def test_objective_and_gradient_have_the_bytes_of_the_wide_gemm(self, two_j, k, t, restarts):
        # k = 1 with 16 frames is where a product stack in another memory layout rounds G differently
        ts = multipole_stack(two_j, 1, t)
        d = two_j + 1
        psi = frames(two_j, k, restarts, 20240052 + two_j)
        pt = (psi @ ts.transpose(1, 0, 2).reshape(d, -1)).reshape(restarts, -1, d)
        b = pt @ psi.conj().swapaxes(-1, -2)
        value, tangent, _ = subspaces._score(psi, psi.conj().swapaxes(-1, -2), t)
        grad = 2 * (b.conj().swapaxes(-1, -2) @ pt)
        assert value.tobytes() == np.sum(np.abs(b) ** 2, axis=(-2, -1)).tobytes()
        assert tangent.tobytes() == np.array([serial_tangent(p, g) for p, g in zip(psi, grad)]).tobytes()
        for r in range(restarts):
            want_value, want_grad = serial_objective_and_gradient(psi[r], ts)
            assert float(value[r]) == want_value and grad[r].tobytes() == want_grad.tobytes()
            assert tangent[r].tobytes() == serial_tangent(psi[r], want_grad).tobytes()

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 7, 10, 16, 25, 40])
    def test_normal_equations_have_the_bytes_of_the_serial_oracle(self, two_j):
        for t in range(1, min(3, two_j) + 1):
            ts = multipole_stack(two_j, 1, t)
            for k in sorted({1, min(2, two_j + 1), min(3, two_j + 1)}):
                for psi in frames(two_j, k, 3, 20240053 + 10 * two_j + k):
                    residual, jac = subspaces._residual_and_jacobian(psi, t)
                    want_residual, want_jac = serial_residual_and_jacobian(psi, ts)
                    assert np.array_equal(jac, want_jac)
                    assert (jac.T @ jac).tobytes() == (want_jac.T @ want_jac).tobytes()
                    assert (jac.T @ residual).tobytes() == (want_jac.T @ want_residual).tobytes()

    def test_objective_has_the_bytes_of_the_dense_pair_sum_on_every_catalog_frame(self):
        for name, entry in catalog().items():
            m = entry.frame.matrix()
            for t in range(1, min(entry.order_t + 1, entry.frame.spin.two_j) + 1):
                want = subspaces._pair_sum(m @ multipole_stack(entry.frame.spin.two_j, 1, t) @ m.conj().T)
                assert objective_g_t(entry.frame, t) == want, (name, t)


class TestExpectationsMatchTheDenseTrace:
    @pytest.mark.parametrize("two_j", list(range(1, 21)) + [31, 40, 57, 64, 79, 80])
    def test_max_violation_has_the_bits_of_the_einsum(self, two_j, rng):
        states = [random_density(SpinLabel(two_j), rng), random_density(SpinLabel(two_j), rng, rank=1),
                  sparse_density(two_j, rng), sparse_density(two_j, rng)]
        for rho in states:
            for t in range(1, min(3, two_j) + 1):
                dense = np.einsum("aij,ji->a", multipole_stack(two_j, 1, t), rho.matrix)
                assert np.array_equal(multipole_expectations(rho.matrix, t), dense)
                assert is_anticoherent(rho, t).max_violation == float(np.abs(dense).max())


def test_band_tables_reject_orders_above_two_j():
    with pytest.raises(ValueError, match=r"invalid L range \[1, 5\] for two_j=4"):
        multipole_products(np.zeros((1, 5), dtype=complex), 5)


def test_no_library_path_builds_a_dense_stack():
    multipole_stack.cache_clear()
    search_subspace(SpinLabel(4), 2, 1, SearchConfig(seed=20240054, restarts=2))
    for entry in catalog().values():
        verify_subspace(entry.frame, entry.order_t)
    certify(spin2_family(0.5))
    is_anticoherent(random_density(SpinLabel(80), np.random.default_rng(20240055)), 3)
    assert multipole_stack.cache_info().currsize == 0


def test_no_library_path_builds_a_dense_isometry():
    # the embeddings are gathered from `spin_core._coupling_table`: no package module defines or names
    # a dense isometry
    for path in Path(rotosense.__file__).parent.glob("*.py"):
        assert "embedding_isometry" not in path.read_text(encoding="utf-8"), path.name
    assert not hasattr(rotosense.spin_core, "embedding_isometry")


def test_full_rank_report_at_two_j_80_stays_small():
    # a child interpreter, so that the peak resident size is this report's own; the dense
    # embedding E rho E^T of every split raised it by about 83 MB
    code = ("import resource, numpy as np; "
            "from rotosense.spin_core import DensityMatrix, SpinLabel; "
            "from rotosense.anticoherence import anticoherence_report; "
            "x = np.random.default_rng(20240057).normal(size=(81, 162)).view(complex); "
            "m = x @ x.conj().T; rho = DensityMatrix(SpinLabel(80), m / np.trace(m).real); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "anticoherence_report(rho); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(rotosense.__file__)),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 16 * 1024  # ru_maxrss is in KiB on Linux
