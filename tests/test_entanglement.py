import math
from dataclasses import fields

import numpy as np
import pytest

from rotosense.entanglement import (
    NEGATIVITY_TOL,
    Bipartition,
    NegativityReport,
    ProtectedNegativityReport,
    _partial_transpose_spectrum,
    embed_bipartite,
    negativity,
    schmidt_spectrum,
    protected_negativity_suite,
)
from rotosense.spin_core import (
    AxisAngle,
    DensityMatrix,
    PureState,
    SpinLabel,
    rotation_operator,
)
from rotosense.subspaces import catalog, spin2_plane, spin3_one_ac_triple
from conftest import (
    cg_embedding_isometry,
    dense_embedding,
    dense_partial_transpose_spectrum,
    random_axis,
    random_density,
    random_pure,
    serial_protected_negativity_suite,
    signed_zero_densities,
)


class TestEmbedding:
    def test_stretched_state_is_product(self):
        s = SpinLabel(6)
        for t in (1, 2, 3):
            bip = Bipartition.of(s, t)
            vec = embed_bipartite(PureState.basis_state(s, 6), bip)
            da, db = bip.dims
            want = np.zeros(da * db)
            want[0] = 1.0  # |t/2, t/2> (x) |j-t/2, j-t/2>
            assert np.abs(vec - want).max() < 1e-14

    def test_trace_preserved(self, rng):
        for _ in range(50):
            two_j = int(rng.integers(2, 9))
            s = SpinLabel(two_j)
            rho = random_density(s, rng)
            t = int(rng.integers(1, two_j))
            big = embed_bipartite(rho, Bipartition.of(s, t))
            assert np.trace(big).real == pytest.approx(1.0, abs=1e-12)

    def test_inner_products_preserved(self, rng):
        s = SpinLabel(5)
        bip = Bipartition.of(s, 2)
        a, b = random_pure(s, rng), random_pure(s, rng)
        va, vb = embed_bipartite(a, bip), embed_bipartite(b, bip)
        assert np.vdot(va, vb) == pytest.approx(a.overlap(b), abs=1e-12)

    def test_spin2_worked_schmidt_vectors(self):
        # (|2,2> + sqrt2 |2,-1>)/sqrt3 at t=1: B-side vectors against the
        # qubit basis are (sqrt2 |3/2,3/2> + |3/2,-3/2>)/sqrt3 and |3/2,-1/2>
        s = SpinLabel(4)
        amp = np.zeros(5)
        amp[0] = 1 / math.sqrt(3)
        amp[3] = math.sqrt(2 / 3)
        psi = PureState(s, amp)
        a = embed_bipartite(psi, Bipartition.of(s, 1)).reshape(2, 4)
        b_up = a[0] * math.sqrt(2)    # paired with |1/2,+1/2>, Schmidt coeff 1/sqrt2
        b_down = a[1] * math.sqrt(2)
        want_up = np.zeros(4)
        want_up[0] = math.sqrt(2 / 3)
        want_up[3] = 1 / math.sqrt(3)
        want_down = np.zeros(4)
        want_down[2] = 1.0  # |3/2,-1/2>
        assert np.abs(b_up - want_up).max() < 1e-12
        assert np.abs(b_down - want_down).max() < 1e-12

    def test_bad_bipartition_rejected(self):
        with pytest.raises(ValueError):
            Bipartition(0, 4)
        with pytest.raises(ValueError):
            embed_bipartite(PureState.basis_state(SpinLabel(4), 4), Bipartition(1, 6))


def catalog_mixtures(rng, count):
    """(name, `count` Dirichlet mixtures over the frame) for each catalog frame."""
    for name, entry in sorted(catalog().items()):
        frame = entry.frame
        yield name, [DensityMatrix.from_mixture(rng.dirichlet(np.ones(frame.k)), frame.basis) for _ in range(count)]


def sample_states(two_j, rng):
    s = SpinLabel(two_j)
    return [random_density(s, rng), random_density(s, rng, rank=1), random_density(s, rng, rank=2),
            PureState.basis_state(s, two_j).density_matrix(), PureState.basis_state(s, two_j % 2).density_matrix(),
            *signed_zero_densities(s, rng)]


class TestGatherMatchesTheDenseEmbedding:
    """The coupling-table gathers give the numbers of the dense products with the reference isometry,
    built from `clebsch_gordan_2`."""

    @pytest.mark.parametrize("two_j", list(range(2, 41)))
    def test_pure_embedding_has_the_bytes_of_the_isometry_product(self, two_j, rng):
        s = SpinLabel(two_j)
        states = [random_pure(s, rng) for _ in range(3)] + [PureState.basis_state(s, two_j - 2 * i)
                                                             for i in range(two_j + 1)]
        for psi in states:
            for t in range(1, two_j):
                got = embed_bipartite(psi, Bipartition(t, two_j))
                assert got.tobytes() == (cg_embedding_isometry(two_j, t) @ psi.amplitudes).tobytes(), t

    @pytest.mark.parametrize("two_j", list(range(2, 21)))
    def test_negativity_spectrum_has_the_bytes_of_the_dense_partial_transpose(self, two_j, rng):
        for rho in sample_states(two_j, rng):
            for t in range(1, two_j):
                bip = Bipartition(t, two_j)
                assert (negativity(rho, bip).spectrum.tobytes()
                        == dense_partial_transpose_spectrum(rho.matrix, bip).tobytes()), t

    def test_catalog_spectra_have_the_dense_bytes_one_by_one_and_stacked(self, rng):
        for name, states in catalog_mixtures(rng, 20):
            stack = np.stack([rho.matrix for rho in states])
            spin = states[0].spin
            for t in range(1, spin.two_j):
                bip = Bipartition.of(spin, t)
                want = dense_partial_transpose_spectrum(stack, bip)
                assert _partial_transpose_spectrum(stack, bip).tobytes() == want.tobytes(), (name, t)
                assert negativity(states[0], bip).spectrum.tobytes() == want[0].tobytes(), (name, t)

    @pytest.mark.parametrize("two_j, t", [(3, 1), (8, 3), (16, 8), (24, 5)])
    def test_random_stack_spectra_have_the_dense_bytes(self, two_j, t, rng):
        s = SpinLabel(two_j)
        stack = np.stack([random_density(s, rng, rank=1 + i % 3).matrix for i in range(20)])
        bip = Bipartition(t, two_j)
        assert (_partial_transpose_spectrum(stack, bip).tobytes()
                == dense_partial_transpose_spectrum(stack, bip).tobytes())

    @pytest.mark.parametrize("two_j, t", [(3, 1), (8, 3), (16, 8)])
    def test_non_contiguous_stacks_give_the_bytes_of_their_contiguous_copies(self, two_j, t, rng):
        s = SpinLabel(two_j)
        stack = np.stack([random_density(s, rng, rank=1 + i % 3).matrix for i in range(12)])
        bip = Bipartition(t, two_j)
        for matrices in (stack[::2], np.asfortranarray(stack), np.asfortranarray(stack[0])):
            assert not matrices.flags.c_contiguous
            want = _partial_transpose_spectrum(np.ascontiguousarray(matrices), bip)
            assert _partial_transpose_spectrum(matrices, bip).tobytes() == want.tobytes()

    def test_mixed_embedding_differs_from_the_dense_product_only_in_the_sign_of_zeros(self, rng):
        # the GEMM of E rho E^T may write -0.0 where rho holds an exact 0; the gather writes +0.0 there,
        # and so does the partial transpose, whose spectrum the sign of a zero can move
        states = [rho for two_j in range(2, 17) for rho in sample_states(two_j, rng)]
        states += [rho for _, mixtures in catalog_mixtures(rng, 2) for rho in mixtures]
        for rho in states:
            for t in range(1, rho.spin.two_j):
                got = embed_bipartite(rho, Bipartition(t, rho.spin.two_j))
                want = dense_embedding(rho.matrix, rho.spin.two_j, t)
                assert np.array_equal(got, want)
                differ = got.view(np.int64) != want.view(np.int64)
                assert (got.view(float)[differ] == 0.0).all()
                assert not np.signbit(got.view(float)[got.view(float) == 0.0]).any()


class TestNegativity:
    def test_pure_t_ac_state_maximal(self):
        frame = catalog()["(7/2,2,2)"].frame  # basis states are 2-AC
        for t in (1, 2):
            rep = negativity(frame.basis[0].density_matrix(), Bipartition.of(frame.spin, t))
            assert rep.negativity == pytest.approx(t / 2, abs=1e-10)

    def test_maximally_mixed_is_ppt(self):
        s = SpinLabel(6)
        rho = DensityMatrix.maximally_mixed(s)
        for t in (1, 2, 3):
            assert negativity(rho, Bipartition.of(s, t)).negativity == pytest.approx(0.0, abs=1e-12)

    def test_spin2_plane_mixtures_protected_at_t1(self, rng):
        frame = spin2_plane()
        for _ in range(10):
            lam = rng.uniform(0.05, 0.95)
            rho = DensityMatrix.from_mixture([lam, 1 - lam], frame.basis)
            rep = negativity(rho, Bipartition.of(frame.spin, 1))
            assert rep.negativity == pytest.approx(0.5, abs=1e-10)

    def test_transpose_side_irrelevant(self, rng):
        # transposing A instead of B gives the complex conjugate operator,
        # so the spectrum and the negativity match
        s = SpinLabel(5)
        rho = random_density(s, rng, rank=3)
        bip = Bipartition.of(s, 2)
        da, db = bip.dims
        big = embed_bipartite(rho, bip).reshape(da, db, da, db)
        pt_b = np.einsum("abcd->adcb", big).reshape(da * db, da * db)
        pt_a = np.einsum("abcd->cbad", big).reshape(da * db, da * db)
        ev_b = np.sort(np.linalg.eigvalsh(pt_b))
        ev_a = np.sort(np.linalg.eigvalsh(pt_a))
        assert np.abs(ev_a - ev_b).max() < 1e-10

    def test_local_unitary_invariance_under_rotations(self, rng):
        # global spin rotations act as local rotations on both factors
        s = SpinLabel(4)
        psi = random_pure(s, rng)
        bip = Bipartition.of(s, 1)
        base = negativity(psi.density_matrix(), bip).negativity
        for _ in range(5):
            r = rotation_operator(s, AxisAngle(random_axis(rng), rng.uniform(0, 3)))
            rep = negativity(psi.density_matrix().conjugated(r), bip)
            assert rep.negativity == pytest.approx(base, abs=1e-9)

    def test_report_reads_off_the_spectrum(self):
        rep = NegativityReport(Bipartition(1, 2), np.array([-0.5, 0.5, 0.5, 0.5]))
        assert rep.negativity == 0.5
        assert rep.negative_eigenvalues.tolist() == [-0.5]


class TestSchmidt:
    def test_t_ac_state_flat_spectrum(self):
        frame = catalog()["(7/2,2,2)"].frame
        for t in (1, 2):
            coeffs = schmidt_spectrum(frame.basis[1], Bipartition.of(frame.spin, t))
            assert np.abs(coeffs - 1 / math.sqrt(t + 1)).max() < 1e-12

    def test_product_state_single_coefficient(self):
        s = SpinLabel(6)
        coeffs = schmidt_spectrum(PureState.basis_state(s, 6), Bipartition.of(s, 2))
        assert coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(coeffs[1:]).max() < 1e-14

    def test_random_state_normalization(self, rng):
        s = SpinLabel(4)
        coeffs = schmidt_spectrum(random_pure(s, rng), Bipartition.of(s, 1))
        assert len(coeffs) == 2
        assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-12)

    def test_convention_gate(self):
        s = SpinLabel(4)
        with pytest.raises(ValueError, match="t <= N - t"):
            schmidt_spectrum(PureState.basis_state(s, 4), Bipartition.of(s, 3))


class TestProtectedNegativitySuite:
    def test_spin2_plane_first_order(self):
        rep = protected_negativity_suite(spin2_plane(), 1, weight_samples=20, seed=5)
        assert rep.all_pass
        assert rep.max_negativity_deviation < 1e-9
        assert rep.schmidt_orthonormality_deviation < 1e-9
        assert rep.multiplicities_ok

    def test_spin72_second_order(self):
        rep = protected_negativity_suite(catalog()["(7/2,2,2)"].frame, 2, weight_samples=10, seed=6)
        assert rep.all_pass

    def test_spin3_triple_equal_mixture(self):
        frame = spin3_one_ac_triple()
        rho = DensityMatrix.from_mixture([1 / 3] * 3, frame.basis)
        rep = negativity(rho, Bipartition.of(frame.spin, 1))
        assert rep.negativity == pytest.approx(0.5, abs=1e-10)
        assert protected_negativity_suite(frame, 1, weight_samples=10, seed=7).all_pass

    def test_multiplicity_bookkeeping_total(self):
        frame = catalog()["(7/2,2,2)"].frame
        t = 2
        n = frame.spin.qubit_count
        rho = DensityMatrix.from_mixture([0.4, 0.6], frame.basis)
        rep = negativity(rho, Bipartition.of(frame.spin, t))
        assert len(rep.spectrum) == (t + 1) * (n - t + 1)

    def test_unprotected_order_decays_with_purity(self):
        # along a purity-decreasing path the t=2 negativity of spin-2 plane
        # mixtures never increases (the t=1 negativity stays at 1/2)
        frame = spin2_plane()
        values = []
        for lam in np.linspace(1.0, 0.5, 11):
            w = np.array([lam, 1 - lam])
            keep = w > 0
            rho = DensityMatrix.from_mixture(
                w[keep] / w[keep].sum(), [s for s, kp in zip(frame.basis, keep) if kp]
            )
            values.append(negativity(rho, Bipartition.of(frame.spin, 2)).negativity)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10)
        assert values[0] == pytest.approx(1.0, abs=1e-10)   # pure 2-AC state
        assert values[-1] == pytest.approx(0.5, abs=1e-10)
        assert max(values) <= 1.0 + 1e-10

    def test_verdicts_read_off_the_spectrum_deviation(self):
        frame = spin2_plane()
        assert ProtectedNegativityReport(frame, 1, 1, 0.0, 0.0, NEGATIVITY_TOL).all_pass
        mismatch = ProtectedNegativityReport(frame, 1, 1, 0.0, 0.0, math.inf)  # spectrum sizes differ
        assert not mismatch.multiplicities_ok
        assert not mismatch.all_pass

    def test_rejects_unverified_frame(self, rng):
        s = SpinLabel(4)
        x = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        q, _ = np.linalg.qr(x)
        from rotosense.subspaces import SubspaceFrame

        frame = SubspaceFrame.from_amplitudes(s, q.T)
        with pytest.raises(ValueError, match="does not certify"):
            protected_negativity_suite(frame, 1)

    @pytest.mark.parametrize("samples", [0, -1, True, 2.0])
    def test_weight_samples_must_be_a_positive_count(self, samples):
        # a suite over no mixture would pass having checked nothing
        with pytest.raises(ValueError, match="weight_samples must be an integer >= 1"):
            protected_negativity_suite(spin2_plane(), 1, weight_samples=samples)

    @pytest.mark.parametrize("seed", [-1, True, False, 0.5])
    def test_seed_must_be_a_count(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            protected_negativity_suite(spin2_plane(), 1, seed=seed)

    def test_numpy_integer_counts_accepted(self):
        rep = protected_negativity_suite(spin2_plane(), 1, weight_samples=np.int64(1), seed=np.int32(3))
        assert rep.all_pass
        assert rep.weight_samples == 1


def report_bits(report):
    """Every field of a ProtectedNegativityReport, floats by their exact bits."""
    return [(type(v), v.hex()) if isinstance(v, float) else v
            for v in (getattr(report, f.name) for f in fields(report))]


class TestStackedSuiteMatchesSerial:
    """The suite takes all spectra of one order in one stack; the per-sample loop it replaced is the oracle."""

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_every_catalog_entry(self, name):
        entry = catalog()[name]
        for seed in range(5):
            for samples in (1, 20):
                got = protected_negativity_suite(entry.frame, entry.order_t, samples, seed)
                want = serial_protected_negativity_suite(entry.frame, entry.order_t, samples, seed)
                assert report_bits(got) == report_bits(want), (seed, samples)

    @pytest.mark.parametrize("two_j, t", [(2, 1), (5, 2), (8, 3), (12, 6)])
    def test_stacked_spectra_equal_single_ones(self, rng, two_j, t):
        s = SpinLabel(two_j)
        states = [random_density(s, rng), random_density(s, rng, rank=2), DensityMatrix.maximally_mixed(s),
                  PureState.basis_state(s, two_j).density_matrix()]
        bip = Bipartition.of(s, t)
        stacked = _partial_transpose_spectrum(np.stack([rho.matrix for rho in states]), bip)
        for rho, spectrum in zip(states, stacked):
            assert negativity(rho, bip).spectrum.tobytes() == spectrum.tobytes()
