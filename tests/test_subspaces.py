import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rotosense.spin_core import PureState, SpinLabel, rotation_operator_euler
from rotosense import subspaces
from rotosense.multipole import MultipoleIndex, multipole_operator, multipole_stack
from rotosense.subspaces import (
    DESCENT_GATE,
    LM_ENTRY,
    MAX_ITERATIONS,
    ROTATION_EQUIVALENCE_TOL,
    STATIONARY,
    STOP_REASONS,
    SUCCESS_THRESHOLD,
    KmaxScan,
    KmaxScanEntry,
    RestartRecord,
    RotationEquivalence,
    SearchConfig,
    SubspaceCertificate,
    SubspaceFrame,
    catalog,
    construct_one_ac_family,
    construct_two_ac_family,
    kmax_scan,
    objective_g_lm,
    objective_g_t,
    one_ac_family_dimension,
    rotation_equivalent,
    search_subspace,
    spin2_plane,
    two_ac_family_dimension,
    upper_bound_kmax,
    verify_subspace,
)
from conftest import (
    random_pure,
    serial_descend,
    serial_objective_and_gradient,
    serial_orthonormalize_rows,
    serial_search,
    serial_tangent,
)


def einsum_g_t(frame, t):
    """G_t by the three-operand contraction: reference for the GEMM form."""
    from rotosense.multipole import multipole_stack

    ts = multipole_stack(frame.spin.two_j, 1, t)
    m = frame.matrix()
    blocks = np.einsum("kd,ade,le->akl", m, ts, m.conj())
    iu = np.triu_indices(frame.k)
    return float(np.sum(np.abs(blocks[:, iu[0], iu[1]]) ** 2))


def objective_g_lm_trace(frame, L, M):
    """Projector form Tr(Pi T_LM Pi T_LM^dag) = ||Psi T_LM Psi^dag||_F^2 of one (L, M) term.

    Counts off-diagonal pairs twice relative to `objective_g_lm`; both vanish
    together once summed over M.
    """
    m = frame.matrix()
    return float(np.sum(np.abs(m @ multipole_operator(frame.spin, MultipoleIndex(L, M)) @ m.conj().T) ** 2))


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

    def test_verified_is_read_off_the_objective(self):
        frame = spin2_plane()
        assert SubspaceCertificate(frame, 1, SUCCESS_THRESHOLD).verified
        assert not SubspaceCertificate(frame, 1, 2e-10).verified
        with pytest.raises(TypeError):  # the gate is SUCCESS_THRESHOLD, not a field
            SubspaceCertificate(frame, 1, 0.5, 1.0)

    @pytest.mark.parametrize("name", list(catalog()))
    def test_gate_bounds_every_pair_in_the_span(self, name, rng):
        # |<v1|T_LM|v2>| <= ||B||_F <= sqrt(2 G_t) for unit v1, v2 in the span
        entry = catalog()[name]
        spin, t, m = entry.frame.spin, entry.order_t, entry.frame.matrix()
        x = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)

        def perturbed(eps):
            q, _ = np.linalg.qr((m + eps * x).T)
            return SubspaceFrame.from_amplitudes(spin, q.T)

        # G_t grows as eps^2 near a zero: aim just under the gate
        eps = 1e-4 * math.sqrt(0.9 * SUCCESS_THRESHOLD / objective_g_t(perturbed(1e-4), t))
        frame = perturbed(eps)
        g = objective_g_t(frame, t)
        assert 0.5 * SUCCESS_THRESHOLD < g <= SUCCESS_THRESHOLD
        assert verify_subspace(frame, t).verified
        c = rng.normal(size=(2, 500, frame.k)) + 1j * rng.normal(size=(2, 500, frame.k))
        v = c @ frame.matrix()
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        elements = np.einsum("pd,ade,pe->ap", v[0].conj(), multipole_stack(spin.two_j, 1, t), v[1])
        assert np.abs(elements).max() <= math.sqrt(2 * g)


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


def score(psi, t):
    """`subspaces._score` of a frame or an (R, k, d) stack, as `_descend` scores its start frames."""
    return subspaces._score(psi, psi.conj().swapaxes(-1, -2), t)


class TestDescentEngine:
    @pytest.mark.parametrize("two_j, k, t", [(10, 2, 2), (9, 4, 1)])
    def test_jacobian_matches_finite_differences(self, rng, two_j, k, t):
        psi = random_frame(SpinLabel(two_j), k, rng).matrix()
        residual, jac = subspaces._residual_and_jacobian(psi, t)
        assert jac.shape == (residual.size, 2 * k * (two_j + 1))
        assert float(residual @ residual) == pytest.approx(score(psi, t)[0], rel=1e-12)
        h = 1e-6
        for _ in range(6):
            x = rng.normal(size=jac.shape[1])
            delta = (x[: x.size // 2] + 1j * x[x.size // 2:]).reshape(psi.shape)
            plus = subspaces._residual_and_jacobian(psi + h * delta, t)[0]
            minus = subspaces._residual_and_jacobian(psi - h * delta, t)[0]
            # central differences of a quadratic map are exact up to rounding
            assert np.abs((plus - minus) / (2 * h) - jac @ x).max() < 1e-8

    def test_tangent_projection(self, rng):
        psi = random_frame(SpinLabel(9), 3, rng).matrix()
        xi = score(psi[None], 2)[1][0]
        s = xi @ psi.conj().T
        assert np.abs(s + s.conj().T).max() < 1e-13
        assert np.abs(serial_tangent(psi, xi) - xi).max() < 1e-13

    def test_crawl_cell_converges(self):
        # (5,2,2) at this seed: first-order descent left 5 of 16 restarts
        # at the iteration cap, still creeping toward zero
        result = search_subspace(SpinLabel(10), 2, 2, SearchConfig(seed=20240004, restarts=16))
        assert result.found
        assert all(r.converged for r in result.records)
        assert not any(r.iterations >= MAX_ITERATIONS for r in result.records)

    def test_lm_step_that_raises_objective_is_rejected(self, monkeypatch):
        # restart 1 of the crawl cell, descended by phase 1 to the LM entry
        (psi,), (f0,), _, _, _ = subspaces._descend(seeded_starts(10, 2, 20240004, 2)[1:], 2, LM_ENTRY)
        assert f0 <= LM_ENTRY
        trials = []
        evaluate = subspaces._score

        def recording(p, p_h, t):
            value, grad, gn2 = evaluate(p, p_h, t)
            trials.append(value)
            return value, grad, gn2

        monkeypatch.setattr(subspaces, "_score", recording)
        monkeypatch.setattr(subspaces, "MAX_ITERATIONS", 1)
        _, (f1,), (iterations,), (reason,), (evaluations,) = subspaces._descend(psi[None], 2, 0.0)
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
        singular_calls = []

        def failing(solve):
            def solve_or_fail(a, b):
                if np.any(np.asarray(a[..., 0, 0]).view(np.int64) % 3 == 0):
                    singular_calls.append(a.ndim)
                    raise np.linalg.LinAlgError("Singular matrix")
                return solve(a, b)
            return solve_or_fail

        # the serial oracle calls np.linalg.solve, the driver its own binding
        monkeypatch.setattr(np.linalg, "solve", failing(np.linalg.solve))
        monkeypatch.setattr(subspaces, "_solve", failing(subspaces._solve))
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
        psi = seeded_starts(two_j, k, seed, 16)
        frames = []
        evaluate = subspaces._score

        def recording(p, p_h, t):
            frames.append(p.shape[0])
            return evaluate(p, p_h, t)

        monkeypatch.setattr(subspaces, "_score", recording)
        evaluations = subspaces._descend(psi, t, subspaces.DESCENT_GATE)[4]
        # one call for the start frames, then one per round over every pending trial
        assert frames[0] == 16
        assert len(frames) == max(evaluations)
        assert sum(frames) == sum(evaluations)

    def test_batch_size_independence_holds_on_two_blas_threads(self):
        # a child interpreter, so that the BLAS thread count is set before numpy loads
        node = f"{__file__}::TestLockstepBatch::test_matches_serial_oracle[10-2-2-20240004-16]"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(subspaces.__file__)),
                                                          env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0 and "1 passed" in run.stdout, run.stdout + run.stderr


class TestRepeatedTrials:
    """The batch driver scores each distinct trial frame of a restart once."""

    @staticmethod
    def recording_scorer(monkeypatch):
        """Patch the objective kernel to record every frame it scores; returns the list of those frames."""
        scored = []
        evaluate = subspaces._score

        def recording(p, p_h, t):
            scored.extend(p.copy())
            return evaluate(p, p_h, t)

        monkeypatch.setattr(subspaces, "_score", recording)
        return scored

    def test_hit_polish_scores_few_frames(self, monkeypatch):
        # the gate-0 polish of the (2,2,1) hit ends with backtracks whose step
        # is below the spacing of the floats, so most of its trials repeat
        ts = multipole_stack(4, 1, 1)
        psi, f, _, _, _ = subspaces._descend(seeded_starts(4, 2, 20240004, 16), 1, DESCENT_GATE)
        best = psi[min(range(len(f)), key=f.__getitem__)]
        scored = self.recording_scorer(monkeypatch)
        (frame,), (value,), (iterations,), (reason,), (evaluations,) = subspaces._descend(best[None], 1, 0.0)
        assert len(scored) <= 10
        assert evaluations == 51
        want = serial_descend(best, ts, 0.0)
        assert frame.tobytes() == want[0].tobytes()
        assert (value, iterations, reason, evaluations) == want[1:]

    def test_repeated_trial_gets_the_stored_reply(self, monkeypatch):
        start, trial, fresh = seeded_starts(4, 2, 20240004, 3)
        replies = []

        def restart(psi, f, g, gn2, ts, gate):
            for frame in (trial, trial, trial, fresh):
                replies.append((yield frame, np.zeros_like(frame), 0.0))
            return psi, f, 0, "gate", 1 + len(replies)

        monkeypatch.setattr(subspaces, "_restart", restart)
        scored = self.recording_scorer(monkeypatch)
        assert subspaces._descend(start[None], 1, 0.0)[4] == [5]
        # the start frame, then the retracted first trial and the retracted new one
        assert [p.tobytes() for p in scored] == [p.tobytes() for p in (start, replies[0][0], replies[3][0])]
        first = replies[0]
        for repeat in replies[1:3]:
            assert repeat[0].tobytes() == first[0].tobytes() and repeat[2].tobytes() == first[2].tobytes()
            assert (repeat[1], repeat[3]) == (first[1], first[3])
        assert replies[3][1] != first[1]


def local_products(reply, psi, g):
    """The Barzilai-Borwein numerator and denominator of a step from (psi, g), as a restart takes them alone."""
    dpsi = reply[0] - psi
    dg = reply[2] - g
    return float((np.abs(dpsi) ** 2).sum()), abs(float((dpsi.conj() * dg).real.sum()))


def bits(values):
    return [float(v).hex() for v in values]


class TestStepRequests:
    """Phase-1 trials are step requests; `_descend` forms, retracts and scores them as one stack."""

    @pytest.mark.parametrize("two_j, k, t, restarts", [
        (1, 1, 1, 1), (4, 2, 1, 16), (8, 2, 2, 5), (10, 2, 2, 16), (9, 4, 1, 7), (17, 8, 1, 16), (14, 3, 2, 3),
    ])
    def test_products_match_the_restart_local_formula(self, monkeypatch, two_j, k, t, restarts):
        # each restart moves its base to every reply, and every third round
        # repeats its last request instead, which `_descend` answers from its
        # memo while it scores the other rows of the stack
        checked, repeated, started = [], [], []

        def restart(psi, f, g, gn2, ts, gate):
            index = len(started)
            started.append(index)
            rng = np.random.default_rng(index)
            request = reply = None
            for round_ in range(12):
                if round_ and round_ % 3 == index % 3:
                    repeated.append((yield request) is reply)
                    continue
                request = psi, g, float(rng.uniform(1e-4, 0.3))
                reply = yield request
                checked.append(bits(reply[4]) == bits(local_products(reply, psi, g)))
                psi, g = reply[0], reply[2]
            return psi, reply[1], 12, "iteration_cap", 13

        monkeypatch.setattr(subspaces, "_restart", restart)
        subspaces._descend(seeded_starts(two_j, k, 20240031, restarts), t, 0.0)
        assert len(checked) >= 8 * restarts and all(checked)
        assert repeated and all(repeated)

    def test_kept_reply_after_a_base_move_is_not_accepted(self, monkeypatch):
        start = seeded_starts(8, 2, 20240003, 1)
        seen = {}

        def restart(psi, f, g, gn2, ts, gate):
            trial = psi - 1e-6 * g
            first = yield psi, g, 1e-6
            # accept: the base moves to the retracted trial, and the next
            # request, from the new base, forms a frame with the trial's bytes
            base = first[0]
            diff = base - trial
            assert (base - 1.0 * diff).tobytes() == trial.tobytes()
            again = yield base, diff, 1.0
            seen.update(first=first, again=again, psi=psi, g=g)
            return base, first[1], 2, "gate", 3

        monkeypatch.setattr(subspaces, "_restart", restart)
        scored = TestRepeatedTrials.recording_scorer(monkeypatch)
        subspaces._descend(start, 2, 0.0)
        first, again = seen["first"], seen["again"]
        assert len(scored) == 2  # the start frame and the first trial: the repeat is answered from the memo
        assert again is first
        # its products are against the old base, not the new one (from which
        # the step is zero), but its f is the f at the new base, so neither
        # acceptance test of _restart holds
        assert bits(again[4]) == bits(local_products(first, seen["psi"], seen["g"]))
        assert bits(local_products(again, first[0], first[2])) == bits((0.0, 0.0)) != bits(again[4])
        f, gn2 = first[1], first[3]
        assert not (again[1] < f - subspaces.ARMIJO * 1.0 * gn2 or again[1] < f * (1 - 1e-12))

    @pytest.mark.parametrize("two_j, k, t, seed, restarts", [
        (10, 2, 2, 20240004, 16),  # crawl cell: LM entry, rejections, fallback to phase 1
        (8, 2, 2, 20240003, 16),   # (4,2,2) miss
    ])
    def test_search_replies_carry_the_local_products(self, monkeypatch, two_j, k, t, seed, restarts):
        # every request is a step request, and every reply has the
        # restart-local products or is a kept reply to the trial whose
        # acceptance moved the base
        real = subspaces._restart
        fresh, kept = [], []

        def checked(psi, f, g, gn2, ts, gate):
            inner = real(psi, f, g, gn2, ts, gate)
            reply = None
            while True:
                try:
                    request = inner.send(reply)
                except StopIteration as stop:
                    return stop.value
                assert type(request) is tuple and len(request) == 3
                reply = yield request
                base, grad, _ = request
                if bits(reply[4]) == bits(local_products(reply, base, grad)):
                    fresh.append(True)
                else:
                    kept.append(reply[0].tobytes() == base.tobytes())

        monkeypatch.setattr(subspaces, "_restart", checked)
        config = SearchConfig(seed=seed, restarts=restarts)
        result = search_subspace(SpinLabel(two_j), k, t, config)
        assert len(fresh) > 1000 and all(kept)
        records, frame_matrix, _ = serial_search(SpinLabel(two_j), k, t, config)
        assert result.records == records
        assert result.certificate.frame.matrix().tobytes() == frame_matrix.tobytes()


class TestQrRetraction:
    """The retraction calls LAPACK's QR gufuncs directly, with the bits of np.linalg.qr."""

    @staticmethod
    def stacks():
        """2,070 random stacks: every k in 1..8 and d in max(k, 2)..18, R cycling through 1..16, two layouts."""
        rng = np.random.default_rng(20240041)
        n = 0
        for k in range(1, 9):
            for d in range(max(k, 2), 19):
                for _ in range(18):
                    R = n % 16 + 1
                    n += 1
                    x = rng.normal(size=(R, k, d)) + 1j * rng.normal(size=(R, k, d))
                    # row-major trial stacks, as `_descend` forms them, or
                    # column-major frames, as it holds the start frames
                    yield x if n % 2 else np.ascontiguousarray(x.swapaxes(1, 2)).swapaxes(1, 2)

    @staticmethod
    def linalg_retraction(psi):
        q, r = np.linalg.qr(psi.conj().swapaxes(-1, -2))
        phases = np.sign(np.diagonal(r, axis1=-2, axis2=-1).real + 1e-300)
        return (q * phases[..., None, :]).conj().swapaxes(-1, -2)

    def test_matches_the_serial_oracle_byte_for_byte(self):
        count = 0
        for psi in self.stacks():
            count += 1
            got = subspaces._orthonormalize_rows(psi)
            want = self.linalg_retraction(psi)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
            for frame, row in zip(psi, got):
                assert row.tobytes() == serial_orthonormalize_rows(frame).tobytes()
        assert count >= 2000
        # one frame, as the polished hit is retracted
        assert subspaces._orthonormalize_rows(psi[0]).tobytes() == serial_orthonormalize_rows(psi[0]).tobytes()

    def test_input_is_left_unchanged(self):
        psi = seeded_starts(9, 3, 20240042, 4)
        before = psi.copy()
        subspaces._orthonormalize_rows(psi)
        assert psi.tobytes() == before.tobytes()

    def test_real_stack_is_refused(self):
        with pytest.raises(TypeError):
            subspaces._orthonormalize_rows(np.eye(3)[:2])

    def test_linalg_fallback_has_the_same_bits(self, monkeypatch):
        stacks = list(self.stacks())[::20]
        want = [subspaces._orthonormalize_rows(psi) for psi in stacks]
        monkeypatch.setattr(subspaces, "_qr", subspaces._linalg_qr)
        for psi, w in zip(stacks, want):
            got = subspaces._orthonormalize_rows(psi)
            assert got.tobytes() == w.tobytes() and got.strides == w.strides
        config = SearchConfig(seed=20240004, restarts=4)
        records, frame_matrix, _ = serial_search(SpinLabel(10), 2, 2, config)
        result = search_subspace(SpinLabel(10), 2, 2, config)
        assert result.records == records
        assert result.certificate.frame.matrix().tobytes() == frame_matrix.tobytes()

    def test_fallback_is_chosen_at_import_without_the_gufuncs(self, monkeypatch):
        import importlib.util

        from numpy.linalg import _umath_linalg

        name = "rotosense._subspaces_without_qr_gufuncs"
        spec = importlib.util.spec_from_file_location(name, subspaces.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        with monkeypatch.context() as m:
            m.delattr(_umath_linalg, "qr_reduced")
            spec.loader.exec_module(module)
        assert module._qr is module._linalg_qr
        assert subspaces._qr is subspaces._lapack_qr
        psi = seeded_starts(10, 2, 20240004, 3)
        assert module._orthonormalize_rows(psi).tobytes() == subspaces._orthonormalize_rows(psi).tobytes()


def signed_zero_stack(two_j, k, restarts, seed):
    """(restarts, k, d) complex frames, about 40% of whose parts are zeros of either sign; the first two
    frames are sparse catalog-like rows negated, whose zero imaginary parts become -0.0."""
    rng = np.random.default_rng(seed)
    d = two_j + 1
    x = rng.normal(size=(restarts, k, d, 2))
    x[rng.random(x.shape) < 0.4] = 0.0
    x[rng.random(x.shape) < 0.5] *= -1.0
    x[..., 0, 0] = 1.0  # no all-zero row
    x = x.view(complex)[..., 0]
    for r in range(min(2, restarts)):
        x[r] = -np.where(rng.random((k, d)) < 0.5, 0.0, rng.normal(size=(k, d)) + 0j)
        x[r, :, 0] = -1.0
    return x


def unfused_round(trials, base, grad, ts):
    """The round as `_descend` formed it from unfused kernels: each trial retracted, scored and projected by
    the serial oracles, held as a stack of column-major frames, then the Barzilai-Borwein sums over it."""
    q = np.array([serial_orthonormalize_rows(x).T for x in trials]).swapaxes(1, 2)
    scored = [serial_objective_and_gradient(p, ts) for p in q]
    g = np.array([serial_tangent(p, grad_p) for p, (_, grad_p) in zip(q, scored)])
    dpsi = q.swapaxes(1, 2) - base
    num = (np.abs(dpsi) ** 2).sum(axis=(1, 2))
    den = np.abs((dpsi.swapaxes(1, 2).conj() * (g - grad)).real.sum(axis=(1, 2)))
    return q, [v for v, _ in scored], g, [float(np.sum(np.abs(x) ** 2)) for x in g], num.tolist(), den.tolist()


class TestRoundKernel:
    """`_retract_and_score` has the bytes of the unfused retraction, objective, tangent and sums."""

    CELLS = [(1, 1, 1), (4, 2, 1), (8, 2, 2), (10, 2, 2), (9, 4, 1), (14, 3, 2), (6, 3, 3), (17, 8, 1)]

    @staticmethod
    def assert_same_round(got, want):
        q, f, g, gn2, num, den = got
        assert q.tobytes() == want[0].tobytes() and q.strides == want[0].strides
        assert g.tobytes() == want[2].tobytes()
        for a, b in ((f, want[1]), (gn2, want[3]), (num, want[4]), (den, want[5])):
            assert bits(a) == bits(b)

    @pytest.mark.parametrize("restarts", [1, 16])
    @pytest.mark.parametrize("two_j, k, t", CELLS)
    def test_stepped_trials(self, two_j, k, t, restarts):
        ts = multipole_stack(two_j, 1, t)
        psi = seeded_starts(two_j, k, 20240061 + two_j, restarts)
        rng = np.random.default_rng(two_j)
        base = np.array([p.T for p in psi])
        grad = score(psi, t)[1]
        steps = rng.uniform(1e-6, 0.3, size=restarts)
        trials = base.swapaxes(1, 2) - steps[:, None, None] * grad
        self.assert_same_round(subspaces._retract_and_score(trials, base, grad, t),
                               unfused_round(trials, base, grad, ts))

    @pytest.mark.parametrize("restarts", [1, 16])
    @pytest.mark.parametrize("two_j, k, t", CELLS)
    def test_signed_zeros(self, two_j, k, t, restarts):
        ts = multipole_stack(two_j, 1, t)
        trials = signed_zero_stack(two_j, k, restarts, 20240062 + two_j)
        base = signed_zero_stack(two_j, k, restarts, 20240063 + two_j).swapaxes(1, 2).copy()
        grad = signed_zero_stack(two_j, k, restarts, 20240064 + two_j)
        zeros = trials.view(float)[trials.view(float) == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        self.assert_same_round(subspaces._retract_and_score(trials, base, grad, t),
                               unfused_round(trials, base, grad, ts))

    @pytest.mark.parametrize("restarts", [1, 16])
    @pytest.mark.parametrize("two_j, k, t", CELLS)
    def test_start_frames(self, two_j, k, t, restarts):
        # the start frames are scored by the kernel's scoring half, with psi^dag taken from the frame
        ts = multipole_stack(two_j, 1, t)
        for psi in (seeded_starts(two_j, k, 20240065, restarts),
                    subspaces._orthonormalize_rows(signed_zero_stack(two_j, k, restarts, 20240066))):
            f, g, gn2 = score(psi, t)
            for r, frame in enumerate(psi):
                want_f, want_grad = serial_objective_and_gradient(frame, ts)
                want_g = serial_tangent(frame, want_grad)
                assert float(f[r]).hex() == want_f.hex() and g[r].tobytes() == want_g.tobytes()
                assert float(gn2[r]).hex() == float(np.sum(np.abs(want_g) ** 2)).hex()

    def test_trials_are_left_unchanged(self):
        psi = seeded_starts(9, 3, 20240067, 4)
        base = np.array([p.T for p in psi])
        grad = score(psi, 1)[1]
        trials = base.swapaxes(1, 2) - 0.1 * grad
        copies = [a.copy() for a in (trials, base, grad)]
        subspaces._retract_and_score(trials, base, grad, 1)
        assert all(a.tobytes() == c.tobytes() for a, c in zip((trials, base, grad), copies))


class TestSolveBinding:
    """The Levenberg-Marquardt loops call LAPACK's solve gufunc directly, with the bits of np.linalg.solve."""

    @staticmethod
    def systems():
        """Normal equations of both loops' sizes: J^T J + damping, J tall or rank-deficient."""
        rng = np.random.default_rng(20240071)
        for n in (3, 6, 12, 22, 44, 60):
            for rank in (n, max(1, n - 2)):
                jac = rng.normal(size=(2 * n, rank)) @ rng.normal(size=(rank, n))
                normal = jac.T @ jac
                system = normal.copy()
                system.reshape(-1)[:: n + 1] += 10.0 ** rng.uniform(-12, 0)
                yield system, rng.normal(size=n)

    def test_matches_np_linalg_solve(self):
        assert subspaces._solve is subspaces._lapack_solve
        for a, b in self.systems():
            got = subspaces._solve(a, b)
            assert got.tobytes() == np.linalg.solve(a, b).tobytes()

    def test_singular_system_raises_in_both_bindings(self):
        for a in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(6) - np.eye(6, k=0)):
            b = np.ones(len(a))
            for solve in (subspaces._lapack_solve, np.linalg.solve):
                with pytest.raises(np.linalg.LinAlgError):
                    solve(a, b)

    def test_linalg_fallback_has_the_same_bits(self, monkeypatch):
        systems = list(self.systems())
        want = [subspaces._solve(a, b) for a, b in systems]
        config = SearchConfig(seed=20240004, restarts=6)
        result = search_subspace(SpinLabel(10), 2, 2, config)  # the crawl cell: LM entries and rejections
        monkeypatch.setattr(subspaces, "_solve", np.linalg.solve)
        assert all(subspaces._solve(a, b).tobytes() == w.tobytes() for (a, b), w in zip(systems, want))
        fallback = search_subspace(SpinLabel(10), 2, 2, config)
        assert fallback.records == result.records
        assert fallback.certificate.frame.matrix().tobytes() == result.certificate.frame.matrix().tobytes()

    def test_rotation_equivalent_matches_np_linalg_solve(self, monkeypatch):
        entries = list(catalog().values())
        pairs = [(e.frame, _turned_copy(e.frame, 20240072 + i)) for i, e in enumerate(entries)]
        pairs += [(a.frame, b.frame) for a in entries for b in entries
                  if a is not b and a.frame.spin == b.frame.spin and a.frame.k == b.frame.k]
        got = [rotation_equivalent(a, b, starts=4) for a, b in pairs]
        monkeypatch.setattr(subspaces, "_solve", np.linalg.solve)
        want = [rotation_equivalent(a, b, starts=4) for a, b in pairs]
        for g, w in zip(got, want):
            assert bits([g.residual, *g.euler_angles]) == bits([w.residual, *w.euler_angles])

    def test_fallback_is_chosen_at_import_without_the_gufunc(self, monkeypatch):
        import importlib.util

        from numpy.linalg import _umath_linalg

        name = "rotosense._subspaces_without_solve_gufunc"
        spec = importlib.util.spec_from_file_location(name, subspaces.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        with monkeypatch.context() as m:
            m.delattr(_umath_linalg, "solve1")
            spec.loader.exec_module(module)
        assert module._solve is np.linalg.solve
        assert subspaces._solve is subspaces._lapack_solve


class TestStationaryStop:
    """Phase 1 stops at a positive first-order stationary point, and only there."""

    def test_misses_stop_stationary(self):
        result = search_subspace(SpinLabel(8), 2, 2, SearchConfig(seed=20240003, restarts=16))
        assert not result.found
        for r in result.records:
            assert r.stop_reason == "stationary"
            assert r.objective > DESCENT_GATE

    def test_oracle_stops_where_the_gradient_test_holds(self):
        ts = multipole_stack(8, 1, 2)
        for child in np.random.SeedSequence(20240003).spawn(16):
            rng = np.random.default_rng(child)
            start = serial_orthonormalize_rows(rng.normal(size=(2, 9)) + 1j * rng.normal(size=(2, 9)))
            psi, f, _, reason, _ = serial_descend(start, ts, DESCENT_GATE)
            g = serial_tangent(psi, serial_objective_and_gradient(psi, ts)[1])
            assert reason == "stationary"
            assert f > LM_ENTRY
            assert float(np.sum(np.abs(g) ** 2)) <= STATIONARY * f

    @pytest.mark.parametrize("two_j, k, t", [
        (4, 2, 1),   # (2,2,1)
        (7, 2, 2),   # (7/2,2,2)
        (10, 2, 2),  # crawl cell: creeps toward the gate well above the stop
    ])
    def test_hits_never_stop_stationary(self, two_j, k, t):
        result = search_subspace(SpinLabel(two_j), k, t, SearchConfig(seed=20240004, restarts=16))
        assert result.found
        assert all(r.stop_reason == "gate" for r in result.records)

    def test_miss_everywhere_ends_in_a_verdict(self, capfd):
        # (4,4,1) is within the dimension bound, but every restart stops stationary
        result = search_subspace(SpinLabel(8), 4, 1, SearchConfig(seed=20240004, restarts=8))
        assert not result.found
        assert all(r.stop_reason == "stationary" for r in result.records)
        scan = kmax_scan(SpinLabel(8), 1, SearchConfig(seed=20240004, restarts=8))
        assert [e.found for e in scan.entries] == [True, True, True, False]
        assert scan.k_max == 3 and scan.bound == 4 and scan.anomalies == ()
        assert capfd.readouterr() == ("", "")


def einsum_objective_and_gradient(psi, ts):
    """The five-einsum form of the trace objective and gradient: reference for the GEMM kernel."""
    pt = np.einsum("...kd,ade->...ake", psi, ts)
    b = np.einsum("...ake,...le->...akl", pt, psi.conj())
    value = np.sum(np.abs(b) ** 2, axis=(-3, -2, -1))
    ptd = np.einsum("...kd,aed->...ake", psi, ts.conj())
    grad = np.einsum("...alk,...ald->...kd", b.conj(), pt) + np.einsum("...akl,...ald->...kd", b, ptd)
    return value, grad


class TestGemmKernel:
    @pytest.mark.parametrize("two_j, k, t, restarts", [
        (4, 2, 1, 16), (10, 2, 2, 4), (9, 4, 1, 16), (40, 8, 2, 16), (80, 10, 2, 4),
    ])
    def test_matches_einsum_reference(self, two_j, k, t, restarts):
        ts = multipole_stack(two_j, 1, t)
        psi = seeded_starts(two_j, k, 20240021, restarts)
        value, tangent, gn2 = score(psi, t)
        want_value, want_grad = einsum_objective_and_gradient(psi, ts)
        want_tangent = np.array([serial_tangent(p, g) for p, g in zip(psi, want_grad)])
        assert value.shape == gn2.shape == (restarts,) and tangent.shape == psi.shape
        assert np.all(np.abs(value - want_value) <= 1e-13 * want_value)
        scale = np.abs(want_grad).max(axis=(1, 2))
        assert np.all(np.abs(tangent - want_tangent).max(axis=(1, 2)) <= 1e-13 * scale)
        assert np.all(np.abs(gn2 - np.sum(np.abs(want_tangent) ** 2, axis=(1, 2))) <= 1e-12 * scale ** 2)
        # frame r of the stack has the bits of a one-frame call on it
        for r in range(restarts):
            v, g, n2 = score(psi[r:r + 1], t)
            assert v.tobytes() == value[r:r + 1].tobytes() and g.tobytes() == tangent[r:r + 1].tobytes()
            assert n2.tobytes() == gn2[r:r + 1].tobytes()

    @pytest.mark.parametrize("two_j", [4, 10, 40])
    def test_stack_holds_the_mirror_the_gradient_uses(self, two_j):
        # T_{L,-M} = (-1)^M T_{LM}^dag, so sum_a B_a psi T_a^dag = sum_a B_a^dag psi T_a
        t = 3
        ts = multipole_stack(two_j, 1, t)
        indices = [(L, M) for L in range(1, t + 1) for M in range(-L, L + 1)]
        for a, (L, M) in enumerate(indices):
            mirror = ts[indices.index((L, -M))]
            assert np.array_equal(mirror, (-1) ** M * ts[a].conj().T)  # exactly, up to the sign of zeros


class TestBounds:
    def test_upper_bound_values(self):
        assert upper_bound_kmax(SpinLabel(4), 1) == 2
        assert upper_bound_kmax(SpinLabel(2), 1) == 1
        assert upper_bound_kmax(SpinLabel(7), 2) == 2
        assert upper_bound_kmax(SpinLabel(3), 1) == 1
        assert upper_bound_kmax(SpinLabel(9), 1) == 4

    def test_upper_bound_is_an_int_for_numpy_orders(self):
        for t in (np.int64(1), np.int32(2), np.uint8(3)):
            bound = upper_bound_kmax(SpinLabel(9), t)
            assert type(bound) is int and bound == upper_bound_kmax(SpinLabel(9), int(t))
        for t in (True, 1.0, "1", 0, 10):
            with pytest.raises(ValueError, match="t must be an integer"):
                upper_bound_kmax(SpinLabel(9), t)

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

    @pytest.mark.parametrize("two_j, t", [(1, 1), (2, 2), (3, 2)])
    def test_kmax_scan_at_bound_zero_runs_no_search(self, two_j, t):
        # no k >= 1 can exist past the proven bound, so no search is run
        scan = kmax_scan(SpinLabel(two_j), t, SearchConfig(seed=1, restarts=2))
        assert scan.bound == 0
        assert scan.entries == ()
        assert scan.k_max == 0

    def test_spin1_pairs_always_fail_first_order(self, rng):
        # every 2-dim spin-1 frame keeps a dipole matrix element
        s = SpinLabel(2)
        for _ in range(50):
            frame = random_frame(s, 2, rng)
            assert objective_g_t(frame, 1) > 1e-3


class TestDerivedVerdicts:
    def test_kmax_scan_reports_a_hit_after_a_miss(self):
        scan = KmaxScan(SpinLabel(4), 1, (KmaxScanEntry(1, 1e-3), KmaxScanEntry(2, SUCCESS_THRESHOLD)))
        assert [e.found for e in scan.entries] == [False, True]
        assert scan.k_max == 2 == scan.bound
        assert scan.anomalies == (2,)

    def test_records_at_their_gate_pass(self):
        above = lambda gate: math.nextafter(gate, 1.0)
        assert RestartRecord(0, DESCENT_GATE, 1, "gate", 2).converged
        assert not RestartRecord(0, above(DESCENT_GATE), 1, "stall", 2).converged
        assert RotationEquivalence(ROTATION_EQUIVALENCE_TOL, (0.0, 0.0, 0.0)).equivalent
        assert not RotationEquivalence(above(ROTATION_EQUIVALENCE_TOL), (0.0, 0.0, 0.0)).equivalent


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


def _turned_copy(frame, seed):
    """The frame turned by Euler angles drawn uniformly from [0, 2 pi) with the given seed."""
    angles = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, size=3)
    r = rotation_operator_euler(frame.spin, *angles)
    return SubspaceFrame.from_amplitudes(frame.spin, frame.matrix() @ r.T)


class TestRotationEquivalence:
    def test_frame_vs_itself(self):
        frame = spin2_plane()
        eq = rotation_equivalent(frame, frame)
        assert eq.equivalent
        assert eq.residual < 1e-12

    def test_real_form_matches_plane(self):
        eq = rotation_equivalent(spin2_plane(), catalog()["(2,2,1)-rotated"].frame)
        assert eq.equivalent
        assert eq.residual < 1e-8

    def test_inequivalent_frames(self):
        a = catalog()["(5/2,2,1)-V1"].frame
        b = catalog()["(5/2,2,1)-V2"].frame
        eq = rotation_equivalent(a, b, starts=12)
        assert not eq.equivalent
        assert abs(eq.residual - 0.684804) <= 1e-6

    def test_shape_gate(self):
        with pytest.raises(ValueError):
            rotation_equivalent(spin2_plane(), catalog()["(3,3,1)"].frame)

    @pytest.mark.parametrize("name", ["(2,2,1)", "(5/2,2,1)-V1", "(3,3,1)", "(7/2,2,2)", "(5,2,2)"])
    def test_randomly_rotated_frame_is_found(self, name):
        frame = catalog()[name].frame
        angles = np.random.default_rng(20241018).uniform(0.0, 2 * math.pi, size=3)
        r = rotation_operator_euler(frame.spin, *angles)
        turned = SubspaceFrame.from_amplitudes(frame.spin, frame.matrix() @ r.T)
        eq = rotation_equivalent(frame, turned)
        assert eq.equivalent
        assert eq.residual <= 1e-12

    @pytest.mark.parametrize("names", [("(2,2,1)", "(2,2,1)-rotated"), ("(5/2,2,1)-V1", "(5/2,2,1)-V2")])
    def test_angles_reproduce_residual(self, names):
        a, b = (catalog()[n].frame for n in names)
        eq = rotation_equivalent(a, b, starts=4)
        r = rotation_operator_euler(a.spin, *eq.euler_angles)
        assert float(np.linalg.norm(a.projector() - r @ b.projector() @ r.conj().T)) == eq.residual

    def test_pure_z_rotation_found_from_gimbal_lock(self):
        # the identity start sits at beta = 0, where the alpha and gamma columns coincide
        frame = catalog()["(3,3,1)"].frame
        r = rotation_operator_euler(frame.spin, 0.7, 0.0, 0.0)
        eq = rotation_equivalent(frame, SubspaceFrame.from_amplitudes(frame.spin, frame.matrix() @ r.T), starts=1)
        assert eq.residual <= 1e-12

    def test_jacobian_matches_central_differences(self):
        frame = catalog()["(7/2,2,2)"].frame
        p = frame.projector()

        def turned(angles):
            r = rotation_operator_euler(frame.spin, *angles)
            return r @ p @ r.conj().T

        angles = np.array([0.4, 1.1, -2.3])
        jac = subspaces._turn_jacobian(frame.spin, turned(angles), angles)
        h = 1e-6
        for k in range(3):
            step = h * np.eye(3)[k]
            numeric = -(turned(angles + step) - turned(angles - step)) / (2 * h)
            assert np.abs(jac[k] - numeric).max() <= 1e-9

    def test_no_start_exceeds_the_evaluation_budget(self, monkeypatch):
        # copy 0 of (7,3,2) is missed, so all 24 starts run, and copy 1 is found
        counts = []
        fit = subspaces._levenberg_marquardt

        def counted(residual, jacobian, x):
            calls = []
            x, evaluations = fit(lambda a: calls.append(a) or residual(a), jacobian, x)
            assert evaluations == len(calls)
            counts.append(evaluations)
            return x, evaluations

        monkeypatch.setattr(subspaces, "_levenberg_marquardt", counted)
        frame = catalog()["(7,3,2)"].frame
        assert [rotation_equivalent(frame, _turned_copy(frame, s)).equivalent for s in range(2)] == [False, True]
        assert len(counts) > 24
        assert max(counts) <= subspaces.TURN_FIT_EVALUATIONS

    def test_fit_stops_at_the_evaluation_budget(self):
        # exp(x) has no zero, and a slope four times too steep keeps every step near -1/4, so each
        # trial lowers it by a factor near exp(-1/4) and none is negligible
        x, evaluations = subspaces._levenberg_marquardt(np.exp, lambda x, r: np.diag(4 * r), np.array([0.0]))
        assert evaluations == subspaces.TURN_FIT_EVALUATIONS
        assert x[0] < -90.0

    def test_all_rotated_copies_found_at_default_starts(self):
        frame = catalog()["(9/2,4,1)"].frame
        for s in range(10):
            eq = rotation_equivalent(frame, _turned_copy(frame, s))
            assert eq.equivalent and eq.residual <= 1e-12, s

    def test_start_at_a_zero_takes_no_step(self):
        frame = catalog()["(7/2,2,2)"].frame
        start = np.array([0.4, 1.1, -2.3])
        p = frame.projector()

        def turned(angles):
            r = rotation_operator_euler(frame.spin, *angles)
            return r @ p @ r.conj().T

        target = turned(start)  # the residual below is exactly zero at the start

        def jacobian(angles, r):
            raise AssertionError("a fit that starts at a zero needs no Jacobian")

        x, evaluations = subspaces._levenberg_marquardt(lambda a: (target - turned(a)).view(float).ravel(),
                                                        jacobian, start)
        assert evaluations == 1
        assert x is start

    @pytest.mark.parametrize("kwargs, name", [
        ({"starts": 2.5}, "starts"), ({"starts": 0}, "starts"), ({"starts": -3}, "starts"),
        ({"starts": True}, "starts"), ({"seed": True}, "seed"), ({"seed": -1}, "seed"), ({"seed": 1.0}, "seed"),
    ])
    def test_argument_contract(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            rotation_equivalent(spin2_plane(), spin2_plane(), **kwargs)


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
