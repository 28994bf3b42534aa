import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from rotosense.spin_core import DensityMatrix, PureState, SpinLabel, clebsch_gordan_2


def random_pure(spin: SpinLabel, rng) -> PureState:
    amp = rng.normal(size=spin.dimension) + 1j * rng.normal(size=spin.dimension)
    return PureState.from_unnormalized(spin, amp)


def random_density(spin: SpinLabel, rng, rank=None) -> DensityMatrix:
    d = spin.dimension
    rank = d if rank is None else rank
    x = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = x @ x.conj().T
    return DensityMatrix(spin, m / np.trace(m).real)


def signed_zero_densities(spin: SpinLabel, rng) -> list:
    """States whose zero entries carry a sign: a diagonal state with -0.0 off the diagonal, a basis
    projector likewise, and a real rank-1 state with some zero amplitudes, whose complex product with -1
    leaves zeros of both signs in both parts."""
    d = spin.dimension
    diagonal, projector = np.full((2, d, d), complex(-0.0, -0.0))
    diagonal[np.diag_indices(d)] = rng.dirichlet(np.ones(d))
    projector[np.diag_indices(d)] = 0.0
    projector[0, 0] = 1.0
    x = rng.normal(size=d) * (rng.random(d) < 0.5)
    x[0] = 1.0
    x /= np.linalg.norm(x)
    return [DensityMatrix(spin, m) for m in (diagonal, projector, np.outer(x, -x).astype(complex) * -1)]


def random_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def fraction_clebsch_gordan_2(tj1, tm1, tj2, tm2, tj, tm) -> float:
    """Reference CG: the Racah sum added term by term in Fraction arithmetic."""
    if tm1 + tm2 != tm:
        return 0.0
    if not (abs(tj1 - tj2) <= tj <= tj1 + tj2) or (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj + tm) % 2:
        return 0.0

    def f(tx):  # factorial of tx/2; tx is even and >= 0 here
        return math.factorial(tx // 2)

    prefactor = Fraction(
        (tj + 1) * f(tj1 + tj2 - tj) * f(tj1 - tj2 + tj) * f(-tj1 + tj2 + tj),
        f(tj1 + tj2 + tj + 2),
    ) * (
        f(tj1 + tm1) * f(tj1 - tm1) * f(tj2 + tm2) * f(tj2 - tm2) * f(tj + tm) * f(tj - tm)
    )
    zmin = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    zmax = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for z in range(zmin, zmax + 1):
        denom = (
            math.factorial(z)
            * f(tj1 + tj2 - tj - 2 * z)
            * f(tj1 - tm1 - 2 * z)
            * f(tj2 + tm2 - 2 * z)
            * f(tj - tj2 + tm1 + 2 * z)
            * f(tj - tj1 - tm2 + 2 * z)
        )
        total += Fraction((-1) ** z, denom)
    if total == 0:
        return 0.0
    magnitude = math.sqrt(prefactor * total * total)
    return magnitude if total > 0 else -magnitude


def serial_sector(two_j: int, L: int) -> np.ndarray:
    """Reference multipole sector: every coefficient from its own `clebsch_gordan_2`, row after row,
    as `multipole._sector` built it before rows shared their factors and mirrored their halves."""
    d = two_j + 1
    pref = np.sqrt((2 * L + 1) / d)
    out = np.zeros((2 * L + 1, d))
    for M in range(L + 1):
        out[L + M, :d - M] = pref * np.array([
            clebsch_gordan_2(two_j, two_j - 2 * b, 2 * L, 2 * M, two_j, two_j - 2 * b + 2 * M)
            for b in range(M, d)
        ])
    for M in range(1, L + 1):
        out[L - M, M:] = (-1) ** M * out[L + M, :d - M] + 0.0
    return out


@lru_cache(maxsize=None)
def cg_embedding_isometry(two_j, t):
    """Reference isometry from spin-j into spin-(t/2) (x) spin-(j-t/2): row ia * db + ib, column m, every
    entry from clebsch_gordan_2, as the Racah-sum loop built it.  Cached; read-only."""
    ta, tb = t, two_j - t
    da, db, d = ta + 1, tb + 1, two_j + 1
    e = np.zeros((da * db, d))
    for ia in range(da):
        tmu = ta - 2 * ia
        for ib in range(db):
            tnu = tb - 2 * ib
            tm = tmu + tnu
            if abs(tm) > two_j:
                continue
            e[ia * db + ib, (two_j - tm) // 2] = clebsch_gordan_2(ta, tmu, tb, tnu, two_j, tm)
    e.flags.writeable = False
    return e


def dense_embedding(matrices, two_j, t):
    """Reference embedded operator: E rho E^T with the reference isometry, for one matrix or a (..., d, d) stack."""
    e = cg_embedding_isometry(two_j, t)
    return e @ matrices @ e.T


def dense_reduced_state(rho: DensityMatrix, t: int) -> np.ndarray:
    """Reference reduced state: the dense embedding traced over its second factor by einsum."""
    da, db = t + 1, rho.spin.qubit_count - t + 1
    return np.einsum("abcb->ac", dense_embedding(rho.matrix, rho.spin.two_j, t).reshape(da, db, da, db))


def dense_partial_transpose_spectrum(matrices, bipartition) -> np.ndarray:
    """Reference partial-transpose spectrum: the dense embedding, transposed on its second factor by einsum."""
    da, db = bipartition.dims
    stack = matrices.shape[:-2]
    big = dense_embedding(matrices, bipartition.n_total, bipartition.t).reshape(*stack, da, db, da, db)
    return np.linalg.eigvalsh(np.einsum("...abcd->...adcb", big).reshape(*stack, da * db, da * db))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# Serial search oracle: the one-restart-at-a-time descent that the batch
# driver in rotosense.subspaces must reproduce bit for bit.
# ---------------------------------------------------------------------------

def serial_orthonormalize_rows(psi):
    q, r = np.linalg.qr(psi.conj().T)
    phases = np.sign(np.diag(r).real + 1e-300)
    return (q * phases).conj().T


def serial_objective_and_gradient(psi, ts):
    d = psi.shape[1]
    wide = ts.transpose(1, 0, 2).reshape(d, -1)
    pt = (psi @ wide).reshape(-1, d)
    b = pt @ psi.conj().T
    value = float(np.sum(np.abs(b) ** 2))
    grad = 2 * (b.conj().T @ pt)
    return value, grad


def serial_tangent(psi, g):
    s = g @ psi.conj().T
    return g - 0.5 * (s + s.conj().T) @ psi


def serial_residual_and_jacobian(psi, ts):
    k, d = psi.shape
    blocks = psi @ ts @ psi.conj().T
    p = np.swapaxes(ts @ psi.conj().T, 1, 2)[:, None, :, None, :]
    q = (psi @ ts)[:, :, None, None, :]
    eye = np.eye(k)
    left = eye[None, :, None, :, None] * p
    right = eye[None, None, :, :, None] * q
    jac = np.stack([left + right, 1j * (left - right)], axis=3).reshape(-1, 2 * k * d)
    residual = np.concatenate([blocks.real.ravel(), blocks.imag.ravel()])
    return residual, np.concatenate([jac.real, jac.imag])


def serial_descend(psi, ts, gate):
    """One restart of the two-phase descent, run alone; returns (psi, f, iterations, reason, evaluations)."""
    from rotosense import subspaces as s

    f, g = serial_objective_and_gradient(psi, ts)
    g = serial_tangent(psi, g)
    evaluations = 1
    step = s.INITIAL_STEP / max(1.0, float(np.linalg.norm(g)))
    prev = None
    damping = s.LM_INITIAL_DAMPING
    second_order = True
    iterations = 0
    reason = "iteration_cap"
    while iterations < s.MAX_ITERATIONS:
        if f <= gate:
            break
        if second_order and f <= s.LM_ENTRY:
            iterations += 1
            residual, jac = serial_residual_and_jacobian(psi, ts)
            normal = jac.T @ jac
            rhs = -(jac.T @ residual)
            diag = np.diag_indices_from(normal)
            fc = math.inf
            for _reject in range(s.LM_MAX_REJECTIONS):
                system = normal.copy()
                system[diag] += damping * f
                try:
                    x = np.linalg.solve(system, rhs).reshape(2, *psi.shape)
                except np.linalg.LinAlgError:
                    damping *= s.LM_DAMPING_GROWTH
                    continue
                cand = serial_orthonormalize_rows(psi + x[0] + 1j * x[1])
                fc, gc = serial_objective_and_gradient(cand, ts)
                evaluations += 1
                if fc < f:
                    break
                damping *= s.LM_DAMPING_GROWTH
            if fc < f:
                damping /= s.LM_DAMPING_GROWTH
                prev = None
                psi, f, g = cand, fc, serial_tangent(cand, gc)
            else:
                second_order = False
            continue
        gn2 = float(np.sum(np.abs(g) ** 2))
        if gn2 < 1e-60:
            reason = "stall"
            break
        if f > s.LM_ENTRY and gn2 <= s.STATIONARY * f:
            reason = "stationary"
            break
        iterations += 1
        if prev is not None:
            dpsi = psi - prev[0]
            dg = g - prev[1]
            denom = abs(float(np.sum((dpsi.conj() * dg).real)))
            if denom > 1e-300:
                step = float(np.sum(np.abs(dpsi) ** 2)) / denom
        moved = False
        for _bt in range(s.MAX_BACKTRACKS):
            cand = serial_orthonormalize_rows(psi - step * g)
            fc, gc = serial_objective_and_gradient(cand, ts)
            evaluations += 1
            if fc < f - s.ARMIJO * step * gn2 or fc < f * (1 - 1e-12):
                moved = True
                break
            step *= s.BACKTRACK
        if not moved:
            reason = "backtrack_exhausted"
            break
        prev = (psi, g)
        psi, f, g = cand, fc, serial_tangent(cand, gc)
    if f <= gate:
        reason = "gate"
    return psi, f, iterations, reason, evaluations


def serial_search(spin, k, t, config):
    """The restart loop of the serial engine: (records, certificate frame matrix, certificate objective)."""
    from rotosense import subspaces as s
    from rotosense.multipole import multipole_stack

    ts = multipole_stack(spin.two_j, 1, t)
    d = spin.dimension
    records = []
    best_psi, best_f = None, math.inf
    for i, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.restarts)):
        rng = np.random.default_rng(child)
        psi = serial_orthonormalize_rows(rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d)))
        psi, f, iterations, reason, evaluations = serial_descend(psi, ts, s.DESCENT_GATE)
        records.append(s.RestartRecord(i, float(f), int(iterations), reason, evaluations))
        if best_psi is None or f < best_f:
            best_psi, best_f = psi, f
    if best_f <= s.DESCENT_GATE:
        best_psi = serial_descend(best_psi, ts, 0.0)[0]
    frame = s.SubspaceFrame.from_amplitudes(spin, serial_orthonormalize_rows(best_psi))
    return tuple(records), frame.matrix(), s.objective_g_t(frame, t)


# ---------------------------------------------------------------------------
# Serial protected-negativity oracle: one `negativity` call per weight sample
# and order, which the stacked suite in rotosense.entanglement must reproduce
# bit for bit.
# ---------------------------------------------------------------------------

def serial_protected_negativity_suite(frame, t, weight_samples=20, seed=0):
    """The per-sample suite: a ProtectedNegativityReport built one mixture at a time."""
    from rotosense.entanglement import (
        Bipartition,
        ProtectedNegativityReport,
        embed_bipartite,
        negativity,
    )
    from rotosense.subspaces import verify_subspace

    def predicted_pt_spectrum(weights, k, t, n):
        h = n - k * (t + 1) - t + 1
        vals = []
        plus_mult = (t + 1) + t * (t + 1) // 2
        minus_mult = t * (t + 1) // 2
        for lam in weights:
            vals.extend([lam / (t + 1)] * plus_mult)
            vals.extend([-lam / (t + 1)] * minus_mult)
        vals.extend([0.0] * (h * (t + 1)))
        return np.sort(np.array(vals))

    if not verify_subspace(frame, t).verified:
        raise ValueError(f"frame does not certify at order t={t}")
    spin = frame.spin
    n = spin.qubit_count
    k = frame.k
    rng = np.random.default_rng(seed)

    bip = Bipartition.of(spin, t)
    da, db = bip.dims
    rows = []
    for state in frame.basis:
        amp = embed_bipartite(state, bip).reshape(da, db)
        rows.extend(np.sqrt(t + 1) * amp)
    rows = np.array(rows)
    gram = rows @ rows.conj().T
    schmidt_dev = float(np.abs(gram - np.eye(len(rows))).max())

    worst = spectrum_dev = 0.0
    for _ in range(weight_samples):
        w = rng.dirichlet(np.ones(k)) if k > 1 else np.array([1.0])
        rho = DensityMatrix.from_mixture(w, frame.basis)
        for tp in range(1, t + 1):
            report = negativity(rho, Bipartition.of(spin, tp))
            worst = max(worst, abs(report.negativity - tp / 2.0))
            if tp == t:
                predicted = predicted_pt_spectrum(w, k, t, n)
                gap = (np.abs(predicted - np.sort(report.spectrum)).max()
                       if len(predicted) == len(report.spectrum) else np.inf)
                spectrum_dev = max(spectrum_dev, float(gap))
    return ProtectedNegativityReport(frame, t, weight_samples, worst, schmidt_dev, spectrum_dev)
