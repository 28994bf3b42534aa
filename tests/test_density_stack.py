"""The stacked density-matrix check and mixture builder of spin_core, and the suite that runs on them."""

import itertools
import warnings

import numpy as np
import pytest

import rotosense.entanglement as entanglement
from rotosense.entanglement import protected_negativity_suite
from rotosense.spin_core import (
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    SpinLabel,
    check_density_matrices,
    mixture_matrices,
)
from rotosense.subspaces import catalog
from conftest import random_density, random_pure


def lone_error(spin, matrix) -> str:
    with pytest.raises(ValueError) as info:
        DensityMatrix(spin, matrix)
    return str(info.value)


def stack_error(matrices, d) -> str:
    with pytest.raises(ValueError) as info:
        check_density_matrices(matrices, d)
    return str(info.value)


def broken(kind, rho: np.ndarray) -> np.ndarray:
    """A copy of a valid density matrix that fails exactly the gate `kind`."""
    m = rho.copy()
    if kind == "finite":
        m[0, 1] = m[1, 0] = np.nan
    elif kind == "hermitian":
        m[0, 1] += 1e-6
    elif kind == "trace":
        m *= 1.0 + 1e-9
    else:  # "psd": Hermitian with unit trace and one negative eigenvalue
        m = np.diag([1.5, -0.5] + [0.0] * (len(m) - 2)).astype(complex)
    return m


KINDS = ("finite", "hermitian", "trace", "psd")


class TestStackedCheck:
    def test_valid_stack_passes(self, rng):
        s = SpinLabel(6)
        check_density_matrices(np.stack([random_density(s, rng, rank=r).matrix for r in (1, 3, 7)]), s.dimension)

    @pytest.mark.parametrize("first, later", list(itertools.product(KINDS, KINDS)))
    def test_first_bad_matrix_names_the_error(self, rng, first, later):
        s = SpinLabel(4)
        good = [random_density(s, rng).matrix for _ in range(4)]
        stack = np.stack([good[0], good[1], broken(first, good[2]), good[3], broken(later, good[3])])
        message = stack_error(stack, s.dimension)
        assert message == lone_error(s, stack[2])
        assert message.startswith({"finite": "matrix not finite", "hermitian": "matrix not Hermitian",
                                   "trace": "trace is", "psd": "matrix not PSD"}[first])

    def test_wrong_shape_names_one_matrix(self):
        stack = np.zeros((3, 2, 3), dtype=complex)
        assert stack_error(stack, 2) == lone_error(SpinLabel(1), stack[0]) == "matrix has shape (2, 3), expected (2, 2)"

    @pytest.mark.parametrize("shape", [(1, 2, 2), (4,), ()])
    def test_lone_matrix_must_be_two_dimensional(self, shape):
        assert lone_error(SpinLabel(1), np.zeros(shape)) == f"matrix has shape {shape}, expected (2, 2)"

    def test_huge_entries_raise_cleanly_in_a_stack(self, rng):
        huge = [[[1e308, 1e308], [-1e308, 1 - 1e308]], [[1e308, 1e308j], [1e308j, 1.0]], [[1e308, 0.0], [0.0, 1e308]]]
        good = random_density(SpinLabel(1), rng).matrix
        for m in np.array(huge, dtype=complex):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert stack_error(np.stack([good, m, good]), 2) == lone_error(SpinLabel(1), m)

    @pytest.mark.parametrize("gate", ["trace", "hermitian"])
    def test_gates_agree_with_a_lone_matrix_at_the_tolerance(self, rng, gate):
        # matrices a few ulps either side of the tolerance: the stack accepts exactly those a lone matrix accepts
        s = SpinLabel(9)
        rho = random_density(s, rng).matrix
        stack = []
        for step in range(-40, 41):
            m = rho.copy()
            if gate == "trace":
                m *= 1.0 + TRACE_TOL * (1.0 + step * 1e-4)
            else:
                m[0, 1] += HERMITICITY_TOL * (1.0 + step * 1e-4)
            stack.append(m)
        stack = np.stack(stack)
        lone_ok = []
        for m in stack:
            try:
                DensityMatrix(s, m)
                lone_ok.append(True)
            except ValueError:
                lone_ok.append(False)
        assert True in lone_ok and False in lone_ok
        for i, m in enumerate(stack):
            try:
                check_density_matrices(stack[i:i + 1], s.dimension)
                assert lone_ok[i]
            except ValueError:
                assert not lone_ok[i]
        first = lone_ok.index(False)
        assert stack_error(stack, s.dimension) == lone_error(s, stack[first])


def loop_mixture(weights, states) -> np.ndarray:
    """The mixture as one weight vector, accumulated term by term in state order."""
    m = np.zeros((states[0].spin.dimension,) * 2, dtype=complex)
    for wi, s in zip(weights, states):
        m += wi * np.outer(s.amplitudes, s.amplitudes.conj())
    return m


class TestMixtureBuilder:
    @pytest.mark.parametrize("two_j, k", [(1, 2), (4, 3), (9, 5), (16, 9)])
    def test_rows_equal_the_term_by_term_loop(self, rng, two_j, k):
        s = SpinLabel(two_j)
        states = [random_pure(s, rng) for _ in range(k)]
        weights = rng.dirichlet(np.ones(k), size=7)
        stack = mixture_matrices(weights, states)
        for w, m in zip(weights, stack):
            assert m.tobytes() == loop_mixture(w, states).tobytes()
            assert m.tobytes() == DensityMatrix.from_mixture(w, states).matrix.tobytes()

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [np.nan, np.nan]])
    def test_non_finite_weights_named(self, rng, weights):
        states = [random_pure(SpinLabel(2), rng) for _ in range(2)]
        with pytest.raises(ValueError, match="weights must be a probability vector"):
            DensityMatrix.from_mixture(weights, states)
        with pytest.raises(ValueError, match="weights must be a probability vector"):
            mixture_matrices(np.array([[0.5, 0.5], weights]), states)

    @pytest.mark.parametrize("weights", [[[0.5, 0.5]], 1.0, [0.5, 0.25, 0.25]])
    def test_from_mixture_takes_one_weight_vector(self, rng, weights):
        states = [random_pure(SpinLabel(2), rng) for _ in range(2)]
        with pytest.raises(ValueError, match="weights must be a probability vector"):
            DensityMatrix.from_mixture(weights, states)

    def test_state_errors_keep_their_order(self, rng):
        with pytest.raises(ValueError, match="empty mixture"):
            DensityMatrix.from_mixture([], [])
        mixed = [random_pure(SpinLabel(2), rng), random_pure(SpinLabel(3), rng)]
        with pytest.raises(ValueError, match="mixed spins"):
            DensityMatrix.from_mixture([0.5, 0.5], mixed)
        with pytest.raises(ValueError, match="weights must be"):
            DensityMatrix.from_mixture([0.5, 0.6], mixed)


class TestSuiteRunsOneStack:
    def test_no_density_matrix_per_sample(self, monkeypatch):
        built, checked = [], []
        post_init, check = DensityMatrix.__post_init__, entanglement.check_density_matrices

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def recording_check(matrices, d):
            checked.append(matrices.shape)
            check(matrices, d)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
        monkeypatch.setattr(entanglement, "check_density_matrices", recording_check)
        entry = catalog()["(7/2,2,2)"]
        report = protected_negativity_suite(entry.frame, entry.order_t, 20, 5)
        assert report.all_pass
        assert built == []
        assert checked == [(20, 8, 8)]

    def test_a_bad_mixture_raises_the_lone_error(self, monkeypatch):
        # the suite's check is DensityMatrix's: a corrupted sample fails it with the lone matrix's message
        entry = catalog()["(2,2,1)"]
        build = entanglement.mixture_matrices

        def corrupting(weights, states):
            m = build(weights, states)
            m[3] = broken("psd", m[3])
            return m

        monkeypatch.setattr(entanglement, "mixture_matrices", corrupting)
        want = lone_error(entry.frame.spin, broken("psd", np.eye(5) / 5))
        with pytest.raises(ValueError) as info:
            protected_negativity_suite(entry.frame, entry.order_t, 20, 5)
        assert str(info.value) == want
