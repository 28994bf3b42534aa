import math

import numpy as np
import pytest

from rotosense.spin_core import PureState, SpinLabel, rotation_operator_euler
from rotosense import subspaces
from rotosense.multipole import multipole_stack
from rotosense.subspaces import (
    LM_ENTRY,
    MAX_ITERATIONS,
    STOP_REASONS,
    SUCCESS_THRESHOLD,
    SearchConfig,
    SubspaceFrame,
    catalog,
    construct_one_ac_family,
    construct_two_ac_family,
    kmax_scan,
    objective_g_lm,
    objective_g_lm_trace,
    objective_g_t,
    one_ac_family_dimension,
    rotation_equivalent,
    search_subspace,
    spin2_plane,
    two_ac_family_dimension,
    upper_bound_kmax,
    verify_subspace,
)
from conftest import random_pure, serial_search


def einsum_g_t(frame, t):
    """G_t by the three-operand contraction: reference for the GEMM form."""
    from rotosense.multipole import multipole_stack

    ts = multipole_stack(frame.spin.two_j, 1, t)
    m = frame.matrix()
    blocks = np.einsum("kd,ade,le->akl", m, ts, m.conj())
    iu = np.triu_indices(frame.k)
    return float(np.sum(np.abs(blocks[:, iu[0], iu[1]]) ** 2))


def random_frame(spin, k, rng):
    x = rng.normal(size=(spin.dimension, k)) + 1j * rng.normal(size=(spin.dimension, k))
    q, _ = np.linalg.qr(x)
    return SubspaceFrame.from_amplitudes(spin, q[:, :k].T)


class TestObjectives:
    def test_spin2_plane_dipole_terms_vanish(self):
        frame = spin2_plane()
        for m in (-1, 0, 1):
            assert objective_g_lm(frame, 1, m) < 1e-28

    def test_single_qubit_state_value(self):
        # <T_10> on |1/2,1/2> is 1/sqrt2, so the objective is 1/2
        frame = SubspaceFrame(SpinLabel(1), (PureState.basis_state(SpinLabel(1), 1),))
        assert objective_g_lm(frame, 1, 0) == pytest.approx(0.5, abs=1e-14)

    def test_full_space_frame_positive(self, rng):
        s = SpinLabel(3)
        frame = random_frame(s, 4, rng)
        assert objective_g_t(frame, 1) > 0.1

    def test_coherent_state_positive(self):
        s = SpinLabel(6)
        frame = SubspaceFrame(s, (PureState.basis_state(s, 6),))
        assert objective_g_t(frame, 1) > 0.1

    def test_pairwise_vs_trace_form(self, rng):
        # per (L, M): trace form = pairwise(L, M) + strict-pairs(L, -M);
        # summed over M the trace form double counts off-diagonal pairs
        s = SpinLabel(5)
        frame = random_frame(s, 3, rng)
        for L in (1, 2, 3):
            for M in range(-L, L + 1):
                tr = objective_g_lm_trace(frame, L, M)
                pw = objective_g_lm(frame, L, M)
                assert tr >= pw - 1e-12
            total_tr = sum(objective_g_lm_trace(frame, L, M) for M in range(-L, L + 1))
            diag = 0.0
            strict = 0.0
            m = frame.matrix()
            from rotosense.multipole import multipole_stack

            ts = multipole_stack(s.two_j, L, L)
            for M in range(-L, L + 1):
                b = m @ ts[M + L] @ m.conj().T
                diag += float(np.sum(np.abs(np.diag(b)) ** 2))
                iu = np.triu_indices(frame.k, 1)
                strict += float(np.sum(np.abs(b[iu]) ** 2))
            assert total_tr == pytest.approx(diag + 2 * strict, abs=1e-10)

    def test_zero_sets_coincide(self):
        frame = catalog()["(7/2,2,2)"].frame
        for L in (1, 2):
            for M in range(-L, L + 1):
                assert objective_g_lm(frame, L, M) < 1e-24
                assert objective_g_lm_trace(frame, L, M) < 1e-24

    def test_gemm_objective_matches_einsum_oracle(self, rng):
        def close(got, want):
            # relative agreement, or both at the noise level of a zero
            return abs(got - want) <= max(1e-12 * abs(want), 1e-28)

        for two_j, k, t in ((1, 1, 1), (4, 2, 1), (5, 3, 2), (9, 4, 3), (12, 13, 2), (20, 7, 4), (80, 81, 1)):
            frame = random_frame(SpinLabel(two_j), k, rng)
            assert close(objective_g_t(frame, t), einsum_g_t(frame, t))
        for name, entry in catalog().items():
            assert close(objective_g_t(entry.frame, entry.order_t), einsum_g_t(entry.frame, entry.order_t)), name
            assert verify_subspace(entry.frame, entry.order_t).verified, name

    def test_invariance_under_span_preserving_mixing(self, rng):
        # G_t depends only on the projector
        frame = catalog()["(3,3,1)"].frame
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        mixed = SubspaceFrame.from_amplitudes(frame.spin, u @ frame.matrix())
        assert objective_g_t(mixed, 1) == pytest.approx(objective_g_t(frame, 1), abs=1e-10)

    def test_invariance_under_global_rotation(self, rng):
        frame = catalog()["(5,2,2)"].frame
        r = rotation_operator_euler(frame.spin, *rng.uniform(0, 2 * math.pi, 3))
        assert objective_g_t(frame.rotated(r), 2) == pytest.approx(
            objective_g_t(frame, 2), abs=1e-9
        )


class TestVerify:
    def test_spin2_plane_first_order(self):
        cert = verify_subspace(spin2_plane(), 1)
        assert cert.verified
        assert cert.objective_value < 1e-24

    def test_spin2_plane_not_second_order(self):
        # both basis states are 2-AC, but L=2 cross terms survive, so the
        # span is not a 2-AC subspace (mixtures are 2-AC states regardless)
        cert = verify_subspace(spin2_plane(), 2)
        assert not cert.verified
        assert cert.objective_value == pytest.approx(4 / 7, abs=1e-12)

    def test_spin3_triple_orders(self):
        frame = catalog()["(3,3,1)"].frame
        assert verify_subspace(frame, 1).verified
        assert not verify_subspace(frame, 2).verified

    def test_catalog_entries_verify(self):
        for name, entry in catalog().items():
            cert = verify_subspace(entry.frame, entry.order_t)
            assert cert.verified, (name, cert.objective_value)


class TestSearch:
    def test_finds_spin2_plane(self):
        result = search_subspace(SpinLabel(4), 2, 1, SearchConfig(seed=11, restarts=8))
        assert result.found
        assert result.certificate.objective_value <= 1e-10

    def test_spin32_negative_result(self):
        result = search_subspace(SpinLabel(3), 2, 1, SearchConfig(seed=11, restarts=8))
        assert not result.found
        assert result.certificate.objective_value > 1e-3

    def test_determinism(self):
        cfg = SearchConfig(seed=555, restarts=6)
        a = search_subspace(SpinLabel(4), 2, 1, cfg)
        b = search_subspace(SpinLabel(4), 2, 1, cfg)
        assert a.certificate.objective_value == b.certificate.objective_value
        assert np.array_equal(a.certificate.frame.matrix(), b.certificate.frame.matrix())
        assert [r.objective for r in a.records] == [r.objective for r in b.records]

    @pytest.mark.parametrize("two_j", [4, 3])  # (2,2,1) hits, (3/2,2,1) misses
    def test_restart_records_are_seed_prefixes(self, two_j):
        # SeedSequence.spawn gives child i the same seed whatever the count,
        # so restart i does not depend on how many restarts run
        short = search_subspace(SpinLabel(two_j), 2, 1, SearchConfig(seed=99, restarts=4))
        long = search_subspace(SpinLabel(two_j), 2, 1, SearchConfig(seed=99, restarts=8))
        assert short.records == long.records[:4]
        assert [r.index for r in long.records] == list(range(8))
        for r in long.records:
            assert r.converged == (r.objective <= SUCCESS_THRESHOLD / 2)
            assert r.converged == (r.stop_reason == "gate")
            assert r.stop_reason in STOP_REASONS
            assert r.evaluations > r.iterations
        assert short.certificate.tolerance == long.certificate.tolerance == SUCCESS_THRESHOLD

    def test_input_gates(self):
        with pytest.raises(ValueError):
            search_subspace(SpinLabel(4), 9, 1, SearchConfig(seed=1))
        with pytest.raises(ValueError):
            SearchConfig(seed=1, restarts=0)


def seeded_starts(two_j, k, seed, restarts):
    """The (restarts, k, d) stack of start frames of a search at `seed`, drawn and retracted as the search does."""
    d = two_j + 1
    starts = []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        starts.append(rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d)))
    return subspaces._orthonormalize_rows(np.stack(starts))


class TestDescentEngine:
    @pytest.mark.parametrize("two_j, k, t", [(10, 2, 2), (9, 4, 1)])
    def test_jacobian_matches_finite_differences(self, rng, two_j, k, t):
        ts = multipole_stack(two_j, 1, t)
        psi = random_frame(SpinLabel(two_j), k, rng).matrix()
        residual, jac = subspaces._residual_and_jacobian(psi, ts)
        assert jac.shape == (residual.size, 2 * k * (two_j + 1))
        assert float(residual @ residual) == pytest.approx(
            subspaces._trace_objective_and_gradient(psi, ts)[0], rel=1e-12)
        h = 1e-6
        for _ in range(6):
            x = rng.normal(size=jac.shape[1])
            delta = (x[: x.size // 2] + 1j * x[x.size // 2:]).reshape(psi.shape)
            plus = subspaces._residual_and_jacobian(psi + h * delta, ts)[0]
            minus = subspaces._residual_and_jacobian(psi - h * delta, ts)[0]
            # central differences of a quadratic map are exact up to rounding
            assert np.abs((plus - minus) / (2 * h) - jac @ x).max() < 1e-8

    def test_tangent_projection(self, rng):
        psi = random_frame(SpinLabel(9), 3, rng).matrix()
        g = rng.normal(size=psi.shape) + 1j * rng.normal(size=psi.shape)
        xi = subspaces._tangent(psi, g)
        s = xi @ psi.conj().T
        assert np.abs(s + s.conj().T).max() < 1e-13
        assert np.abs(subspaces._tangent(psi, xi) - xi).max() < 1e-13

    def test_crawl_cell_converges(self):
        # (5,2,2) at this seed: first-order descent left 5 of 16 restarts
        # at the iteration cap, still creeping toward zero
        result = search_subspace(SpinLabel(10), 2, 2, SearchConfig(seed=20240004, restarts=16))
        assert result.found
        assert all(r.converged for r in result.records)
        assert not any(r.iterations >= MAX_ITERATIONS for r in result.records)

    def test_lm_step_that_raises_objective_is_rejected(self, monkeypatch):
        ts = multipole_stack(10, 1, 2)
        # restart 1 of the crawl cell, descended by phase 1 to the LM entry
        (psi,), (f0,), _, _, _ = subspaces._descend(seeded_starts(10, 2, 20240004, 2)[1:], ts, LM_ENTRY)
        assert f0 <= LM_ENTRY
        trials = []
        evaluate = subspaces._trace_objective_and_gradient

        def recording(p, t):
            value, grad = evaluate(p, t)
            trials.append(value)
            return value, grad

        monkeypatch.setattr(subspaces, "_trace_objective_and_gradient", recording)
        monkeypatch.setattr(subspaces, "MAX_ITERATIONS", 1)
        _, (f1,), (iterations,), (reason,), (evaluations,) = subspaces._descend(psi[None], ts, 0.0)
        assert (iterations, reason) == (1, "iteration_cap")
        lm_trials = trials[1:]  # trials[0] evaluates the start frame
        assert evaluations == len(trials)
        # the lightly damped step overshoots; more damping finds a decrease
        assert lm_trials[0] > f0
        assert all(v >= f0 for v in lm_trials[:-1])
        assert f1 == lm_trials[-1] < f0


class TestLockstepBatch:
    """The batch driver reproduces the serial engine, restart by restart, bit for bit."""

    @pytest.mark.parametrize("restarts", [1, 3, 16])
    @pytest.mark.parametrize("two_j, k, t, seed", [
        (4, 2, 1, 20240011),   # (2,2,1) hit
        (3, 2, 1, 20240012),   # (3/2,2,1) miss
        (8, 2, 2, 20240003),   # (4,2,2) miss
        (10, 2, 2, 20240004),  # crawl cell: LM entry, rejections, fallback to phase 1
        (9, 4, 1, 20240013),   # (9/2,4,1) hit
        (7, 2, 2, 20240014),   # (7/2,2,2) hit
    ])
    def test_matches_serial_oracle(self, two_j, k, t, seed, restarts):
        config = SearchConfig(seed=seed, restarts=restarts)
        records, frame_matrix, objective = serial_search(SpinLabel(two_j), k, t, config)
        result = search_subspace(SpinLabel(two_j), k, t, config)
        assert len(result.records) == len(records)
        for got, want in zip(result.records, records):
            assert got == want
        assert result.certificate.frame.matrix().tobytes() == frame_matrix.tobytes()
        assert result.certificate.objective_value == objective

    def test_singular_solves_match_serial_oracle(self, monkeypatch):
        # declare singular every LM system whose first entry, read as a 64-bit
        # integer, is divisible by 3, so that both engines meet the same ones
        solve = np.linalg.solve
        singular_calls = []

        def solve_or_fail(a, b):
            if np.any(np.asarray(a[..., 0, 0]).view(np.int64) % 3 == 0):
                singular_calls.append(a.ndim)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_or_fail)
        config = SearchConfig(seed=20240004, restarts=16)
        records, frame_matrix, objective = serial_search(SpinLabel(10), 2, 2, config)
        serial_calls = len(singular_calls)
        result = search_subspace(SpinLabel(10), 2, 2, config)
        assert serial_calls > 0 and len(singular_calls) == 2 * serial_calls
        assert result.records == records
        assert result.certificate.frame.matrix().tobytes() == frame_matrix.tobytes()
        assert result.certificate.objective_value == objective

    @pytest.mark.parametrize("two_j, k, t, seed", [
        (8, 2, 2, 20240003),   # (4,2,2) miss
        (10, 2, 2, 20240004),  # crawl cell
    ])
    def test_driver_evaluates_all_pending_trials_together(self, monkeypatch, two_j, k, t, seed):
        ts = multipole_stack(two_j, 1, t)
        psi = seeded_starts(two_j, k, seed, 16)
        frames = []
        evaluate = subspaces._trace_objective_and_gradient

        def recording(p, t):
            frames.append(p.shape[0])
            return evaluate(p, t)

        monkeypatch.setattr(subspaces, "_trace_objective_and_gradient", recording)
        evaluations = subspaces._descend(psi, ts, subspaces.DESCENT_GATE)[4]
        # one call for the start frames, then one per round over every pending trial
        assert frames[0] == 16
        assert len(frames) == max(evaluations)
        assert sum(frames) == sum(evaluations)


class TestBounds:
    def test_upper_bound_values(self):
        assert upper_bound_kmax(SpinLabel(4), 1) == 2
        assert upper_bound_kmax(SpinLabel(2), 1) == 1
        assert upper_bound_kmax(SpinLabel(7), 2) == 2
        assert upper_bound_kmax(SpinLabel(3), 1) == 1
        assert upper_bound_kmax(SpinLabel(9), 1) == 4

    def test_kmax_scan_spin2(self):
        scan = kmax_scan(SpinLabel(4), 1, SearchConfig(seed=31, restarts=12))
        assert scan.k_max == 2
        assert scan.bound == 2
        assert scan.k_max <= scan.bound
        assert scan.anomalies == ()

    def test_kmax_scan_spin92_reaches_bound(self):
        scan = kmax_scan(SpinLabel(9), 1, SearchConfig(seed=71, restarts=24))
        assert scan.k_max == 4 == scan.bound

    def test_kmax_scan_spin4_second_order_is_one(self):
        # pure 2-AC states exist at j=4 but no two-dimensional subspace
        scan = kmax_scan(SpinLabel(8), 2, SearchConfig(seed=72, restarts=24))
        assert scan.k_max == 1
        assert scan.bound == 2

    def test_kmax_scan_spin7_second_order_is_three(self):
        scan = kmax_scan(SpinLabel(14), 2, SearchConfig(seed=73, restarts=24))
        assert scan.k_max == 3
        assert scan.bound == 4

    def test_spin1_pairs_always_fail_first_order(self, rng):
        # every 2-dim spin-1 frame keeps a dipole matrix element
        s = SpinLabel(2)
        for _ in range(50):
            frame = random_frame(s, 2, rng)
            assert objective_g_t(frame, 1) > 1e-3


class TestConstructions:
    def test_one_ac_spin2_table_row(self):
        frame = construct_one_ac_family(SpinLabel(4))
        assert frame.k == 2
        want0 = np.zeros(5); want0[0] = want0[4] = 1 / math.sqrt(2)
        want1 = np.zeros(5); want1[2] = 1.0
        assert np.abs(frame.basis[0].amplitudes - want0).max() < 1e-14
        assert np.abs(frame.basis[1].amplitudes - want1).max() < 1e-14

    def test_one_ac_spin72_table_row(self):
        frame = construct_one_ac_family(SpinLabel(7))
        assert frame.k == 2
        want0 = np.zeros(8); want0[0] = want0[7] = 1 / math.sqrt(2)
        want1 = np.zeros(8); want1[2] = want1[5] = 1 / math.sqrt(2)
        assert np.abs(frame.basis[0].amplitudes - want0).max() < 1e-14
        assert np.abs(frame.basis[1].amplitudes - want1).max() < 1e-14

    def test_one_ac_spin4_table_row(self):
        frame = construct_one_ac_family(SpinLabel(8))
        assert frame.k == 3
        want1 = np.zeros(9); want1[2] = want1[6] = 1 / math.sqrt(2)
        want2 = np.zeros(9); want2[4] = 1.0
        assert np.abs(frame.basis[1].amplitudes - want1).max() < 1e-14
        assert np.abs(frame.basis[2].amplitudes - want2).max() < 1e-14

    @pytest.mark.parametrize("two_j", list(range(2, 42)))
    def test_one_ac_family_verifies_and_sizes(self, two_j):
        spin = SpinLabel(two_j)
        frame = construct_one_ac_family(spin)
        assert objective_g_t(frame, 1) <= 1e-12
        assert frame.k == one_ac_family_dimension(spin)

    def test_two_ac_spin5_table_row(self):
        frame = construct_two_ac_family(SpinLabel(10))
        assert frame.k == 1
        want = np.zeros(11)
        want[0] = want[10] = 1 / math.sqrt(7)
        want[3] = want[7] = math.sqrt(5 / 14)
        assert np.abs(frame.basis[0].amplitudes - want).max() < 1e-10

    def test_two_ac_spin11_table_rows(self):
        frame = construct_two_ac_family(SpinLabel(22))
        assert frame.k == 2
        w1 = np.zeros(23)
        w1[0] = w1[22] = math.sqrt(19); w1[6] = w1[16] = math.sqrt(77)
        w1 /= 8 * math.sqrt(3)
        w2 = np.zeros(23)
        w2[3] = w2[19] = math.sqrt(2); w2[9] = w2[13] = 1.0
        w2 /= math.sqrt(6)
        assert np.abs(frame.basis[0].amplitudes - w1).max() < 1e-10
        assert np.abs(frame.basis[1].amplitudes - w2).max() < 1e-10

    def test_two_ac_spin35_halves_table_rows(self):
        frame = construct_two_ac_family(SpinLabel(35))
        assert frame.k == 3
        t1 = np.zeros(36)
        t1[0] = t1[35] = math.sqrt(107); t1[9] = t1[26] = math.sqrt(595)
        t1 /= 6 * math.sqrt(39)
        t2 = np.zeros(36)
        t2[3] = t2[32] = math.sqrt(233); t2[12] = t2[23] = math.sqrt(307)
        t2 /= 6 * math.sqrt(30)
        t3 = np.zeros(36)
        t3[6] = t3[29] = math.sqrt(305); t3[15] = t3[20] = math.sqrt(73)
        t3 /= 6 * math.sqrt(21)
        for got, want in zip(frame.basis, (t1, t2, t3)):
            assert np.abs(got.amplitudes - want).max() < 1e-10

    @pytest.mark.parametrize("two_j", list(range(10, 82)))
    def test_two_ac_family_verifies_and_sizes(self, two_j):
        spin = SpinLabel(two_j)
        frame = construct_two_ac_family(spin)
        assert objective_g_t(frame, 2) <= 1e-10
        assert frame.k == two_ac_family_dimension(spin)

    def test_two_ac_needs_j_at_least_5(self):
        with pytest.raises(ValueError):
            construct_two_ac_family(SpinLabel(9))


class TestRotationEquivalence:
    def test_frame_vs_itself(self):
        frame = spin2_plane()
        eq = rotation_equivalent(frame, frame)
        assert eq.equivalent
        assert eq.residual < 1e-12

    def test_real_form_matches_plane(self):
        eq = rotation_equivalent(spin2_plane(), catalog()["(2,2,1)-rotated"].frame, t=1)
        assert eq.equivalent
        assert eq.residual < 1e-8

    def test_inequivalent_frames(self):
        a = catalog()["(5/2,2,1)-V1"].frame
        b = catalog()["(5/2,2,1)-V2"].frame
        eq = rotation_equivalent(a, b, starts=12)
        assert not eq.equivalent
        assert eq.residual > 1e-2

    def test_shape_gate(self):
        with pytest.raises(ValueError):
            rotation_equivalent(spin2_plane(), catalog()["(3,3,1)"].frame)


class TestSearchConfigContract:
    @pytest.mark.parametrize("kwargs", [
        {"seed": True}, {"seed": 1, "restarts": True}, {"seed": -1}, {"seed": 1.0}, {"seed": "1"},
        {"seed": None}, {"seed": 1, "restarts": 0}, {"seed": 1, "restarts": 2.0},
    ])
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            SearchConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = SearchConfig(seed=np.int64(0), restarts=np.int32(3))
        assert (config.seed, config.restarts) == (0, 3)
