"""The density-matrix gate and the mixture builder of spin_core, and the suite that runs on the builder."""

import itertools
import warnings

import numpy as np
import pytest

import rotosense.entanglement as entanglement
from rotosense import spin_core
from rotosense.entanglement import protected_negativity_suite
from rotosense.spin_core import (
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    SpinLabel,
    mixture_matrices,
)
from rotosense.subspaces import catalog
from conftest import random_density, random_pure


def lone_error(spin, matrix) -> str:
    with pytest.raises(ValueError) as info:
        DensityMatrix(spin, matrix)
    return str(info.value)


def broken(kind, rho: np.ndarray) -> np.ndarray:
    """A copy of a valid density matrix that fails exactly the gate `kind`."""
    m = rho.copy()
    if kind == "finite":  # away from the entry the "hermitian" break moves, so the two breaks compose
        m[-1, -2] = m[-2, -1] = np.nan
    elif kind == "hermitian":
        m[0, 1] += 1e-6
    elif kind == "trace":
        m *= 1.0 + 1e-9
    else:  # "psd": Hermitian with unit trace and one negative eigenvalue
        m = np.diag([1.5, -0.5] + [0.0] * (len(m) - 2)).astype(complex)
    return m


KINDS = ("finite", "hermitian", "trace", "psd")  # in the order the gates run
PREFIX = {"finite": "matrix not finite", "hermitian": "matrix not Hermitian", "trace": "trace is",
          "psd": "matrix not PSD"}


class TestDensityGate:
    def test_valid_matrices_pass(self, rng):
        s = SpinLabel(6)
        for r in (1, 3, 7):
            m = random_density(s, rng, rank=r).matrix
            assert DensityMatrix(s, m).matrix.tobytes() == m.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_gate_names_its_error(self, rng, kind):
        s = SpinLabel(4)
        assert lone_error(s, broken(kind, random_density(s, rng).matrix)).startswith(PREFIX[kind])

    @pytest.mark.parametrize("first, later", list(itertools.combinations(KINDS, 2)))
    def test_gates_run_in_order(self, rng, first, later):
        # a matrix that fails two gates is named by the one that runs first, whichever break was made first
        s = SpinLabel(4)
        rho = random_density(s, rng).matrix
        both = [broken(first, broken(later, rho))]
        if later != "psd":  # the "psd" break replaces the whole matrix, so it can only be made first
            both.append(broken(later, broken(first, rho)))
        for m in both:
            assert lone_error(s, m).startswith(PREFIX[first])

    def test_wrong_shape_is_named(self):
        assert lone_error(SpinLabel(1), np.zeros((2, 3), dtype=complex)) == "matrix has shape (2, 3), expected (2, 2)"

    @pytest.mark.parametrize("shape", [(1, 2, 2), (4,), ()])
    def test_lone_matrix_must_be_two_dimensional(self, shape):
        assert lone_error(SpinLabel(1), np.zeros(shape)) == f"matrix has shape {shape}, expected (2, 2)"

    def test_huge_entries_raise_cleanly(self):
        huge = [[[1e308, 1e308], [-1e308, 1 - 1e308]], [[1e308, 1e308j], [1e308j, 1.0]], [[1e308, 0.0], [0.0, 1e308]]]
        for m, prefix in zip(np.array(huge, dtype=complex), ("matrix not Hermitian", "matrix not Hermitian", "trace is")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert lone_error(SpinLabel(1), m).startswith(prefix)

    @pytest.mark.parametrize("gate", ["trace", "hermitian"])
    def test_gates_sit_at_the_tolerance(self, rng, gate):
        # matrices a few ulps either side of the tolerance: a matrix passes exactly when its deviation does
        s = SpinLabel(9)
        rho = random_density(s, rng).matrix
        verdicts = []
        for step in range(-40, 41):
            m = rho.copy()
            if gate == "trace":
                m *= 1.0 + TRACE_TOL * (1.0 + step * 1e-4)
                within = abs(complex(np.trace(m)) - 1.0) <= TRACE_TOL
            else:
                m[0, 1] += HERMITICITY_TOL * (1.0 + step * 1e-4)
                within = float(np.abs(m - m.conj().T).max()) <= HERMITICITY_TOL
            try:
                DensityMatrix(s, m)
                verdicts.append((within, True))
            except ValueError:
                verdicts.append((within, False))
        assert all(within == passed for within, passed in verdicts)
        assert {passed for _, passed in verdicts} == {True, False}


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
        # the samples are mixtures of checked states, built as one stack and not judged again
        built, stacks = [], []
        post_init, build = DensityMatrix.__post_init__, entanglement.mixture_matrices

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def recording_build(weights, states):
            stacks.append(weights.shape)
            return build(weights, states)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
        monkeypatch.setattr(entanglement, "mixture_matrices", recording_build)
        entry = catalog()["(7/2,2,2)"]
        report = protected_negativity_suite(entry.frame, entry.order_t, 20, 5)
        assert report.all_pass
        assert built == []
        assert stacks == [(20, entry.frame.k)]
        # the constructor holds the one density gate: no stack gate is left to run
        assert not hasattr(spin_core, "check_density_matrices")
