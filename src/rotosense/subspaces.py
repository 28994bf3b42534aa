"""Anticoherent subspaces: objectives, numerical search, constructions, catalog.

A k-dimensional subspace V of the spin-j space is t-AC when every unit
vector in it is a t-AC state; equivalently all matrix elements
<psi_a| T_LM |psi_b> between frame vectors vanish for 1 <= L <= t.  The
objective

    G_t = sum_{L=1..t} sum_M sum_{a <= b} |<psi_a| T_LM |psi_b>|^2

is zero exactly on such frames.  Its zeros are found by deterministic
multi-start descent over orthonormal k-frames in two phases: Barzilai-Borwein
steps along the tangent gradient until the trace objective reaches LM_ENTRY,
then damped Gauss-Newton (Levenberg-Marquardt) steps on the block residual,
which converge where first-order steps crawl toward a zero.  Each restart is
one coroutine; all pending trials of a search are evaluated together by
stacked kernels, each exactly as it would be alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from .multipole import multipole_stack
from .spin_core import PureState, SpinLabel, check_orthonormal, rotation_operator_euler

SUCCESS_THRESHOLD = 1e-10
ROTATION_EQUIVALENCE_TOL = 1e-8

# the trace form over-counts off-diagonal pairs at most 2x, so this
# internal gate implies the reported pairwise G_t meets the threshold
DESCENT_GATE = SUCCESS_THRESHOLD / 2
MAX_ITERATIONS = 5000
INITIAL_STEP = 0.1
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
# phase 2 of the descent: Levenberg-Marquardt steps below this trace objective
LM_ENTRY = 1e-6
LM_INITIAL_DAMPING = 1e-3  # times f, the scale of the squared residual
LM_DAMPING_GROWTH = 10.0
LM_MAX_REJECTIONS = 8
STOP_REASONS = ("gate", "stall", "iteration_cap", "backtrack_exhausted")


# ---------------------------------------------------------------------------
# Frames and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceFrame:
    """Ordered orthonormal basis of a candidate subspace."""

    spin: SpinLabel
    basis: tuple

    def __post_init__(self):
        states = tuple(self.basis)
        if not 1 <= len(states) <= self.spin.dimension:
            raise ValueError(f"frame dimension {len(states)} out of range")
        check_orthonormal(self.spin, states, "frame")
        object.__setattr__(self, "basis", states)

    @classmethod
    def from_amplitudes(cls, spin: SpinLabel, rows) -> "SubspaceFrame":
        return cls(spin, tuple(PureState(spin, np.asarray(r, dtype=complex)) for r in rows))

    @property
    def k(self) -> int:
        return len(self.basis)

    def matrix(self) -> np.ndarray:
        return np.array([s.amplitudes for s in self.basis])

    def projector(self) -> np.ndarray:
        m = self.matrix()
        return m.conj().T @ m

    def rotated(self, unitary: np.ndarray) -> "SubspaceFrame":
        return SubspaceFrame(
            self.spin, tuple(PureState(self.spin, unitary @ s.amplitudes) for s in self.basis)
        )


@dataclass(frozen=True)
class SubspaceCertificate:
    frame: SubspaceFrame
    order_t: int
    objective_value: float
    tolerance: float
    verified: bool

    def __post_init__(self):
        if self.verified != (self.objective_value <= self.tolerance):
            raise ValueError("verified flag inconsistent with objective value")


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic multi-start search parameters; seed is mandatory."""

    seed: int
    restarts: int = 64
    # the per-restart cap, readable here for callers that tell capped restarts apart
    max_iterations: ClassVar[int] = MAX_ITERATIONS

    def __post_init__(self):
        for name, least in (("seed", 0), ("restarts", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def _pair_sum(b: np.ndarray) -> float:
    """sum_{a <= b} |B_ab|^2 for one operator block."""
    k = b.shape[0]
    iu = np.triu_indices(k)
    return float(np.sum(np.abs(b[iu]) ** 2))


def objective_g_lm(frame: SubspaceFrame, L: int, M: int) -> float:
    """Pairwise form: sum over ordered pairs a <= b of |<psi_a|T_LM|psi_b>|^2."""
    ts = multipole_stack(frame.spin.two_j, L, L)
    t = ts[M + L]
    m = frame.matrix()
    return _pair_sum(m @ t @ m.conj().T)


def objective_g_lm_trace(frame: SubspaceFrame, L: int, M: int) -> float:
    """Projector form Tr(Pi T_LM Pi T_LM^dag) = ||Psi T_LM Psi^dag||_F^2.

    Counts off-diagonal pairs twice relative to `objective_g_lm`; both vanish
    together once summed over M.
    """
    ts = multipole_stack(frame.spin.two_j, L, L)
    t = ts[M + L]
    m = frame.matrix()
    return float(np.sum(np.abs(m @ t @ m.conj().T) ** 2))


def objective_g_t(frame: SubspaceFrame, t: int) -> float:
    """G_t = sum over L = 1..t and all M of the pairwise objective."""
    ts = multipole_stack(frame.spin.two_j, 1, t)
    m = frame.matrix()
    blocks = m @ ts @ m.conj().T
    k = frame.k
    iu = np.triu_indices(k)
    return float(np.sum(np.abs(blocks[:, iu[0], iu[1]]) ** 2))


def verify_subspace(frame: SubspaceFrame, t: int) -> SubspaceCertificate:
    """Certificate for the frame at order t, with a random-vector spot check.

    The frame objective is gated on SUCCESS_THRESHOLD.  Besides it, 20
    deterministic pseudo-random unit-vector pairs in the span are tested
    directly for vanishing T_LM matrix elements (the all-pairs
    characterization of an anticoherent subspace).
    """
    g = objective_g_t(frame, t)
    verified = g <= SUCCESS_THRESHOLD
    if verified and frame.k >= 1:
        ts = multipole_stack(frame.spin.two_j, 1, t)
        m = frame.matrix()
        rng = np.random.default_rng(20240000 + 997 * frame.spin.two_j + t)
        for _ in range(20):
            c1 = rng.normal(size=frame.k) + 1j * rng.normal(size=frame.k)
            c2 = rng.normal(size=frame.k) + 1j * rng.normal(size=frame.k)
            v1 = c1 @ m
            v2 = c2 @ m
            v1 /= np.linalg.norm(v1)
            v2 /= np.linalg.norm(v2)
            worst = float(np.abs(np.einsum("d,ade,e->a", v1.conj(), ts, v2)).max())
            # spot-check tolerance scales with the frame gate (amplitudes vs squares)
            if worst > 10 * math.sqrt(SUCCESS_THRESHOLD):
                verified = False
                break
    return SubspaceCertificate(frame, t, g, SUCCESS_THRESHOLD, verified)


# ---------------------------------------------------------------------------
# Numerical search
# ---------------------------------------------------------------------------

def _orthonormalize_rows(psi: np.ndarray) -> np.ndarray:
    """QR retraction of the rows of a frame, or of each frame in a (..., k, d) stack."""
    q, r = np.linalg.qr(psi.conj().swapaxes(-1, -2))
    phases = np.sign(np.diagonal(r, axis1=-2, axis2=-1).real + 1e-300)
    return (q * phases[..., None, :]).conj().swapaxes(-1, -2)


def _trace_objective_and_gradient(psi: np.ndarray, ts: np.ndarray):
    """sum_ops ||psi T psi^dag||_F^2 and its conjugate-Wirtinger gradient, per frame of a stack."""
    pt = np.einsum("...kd,ade->...ake", psi, ts)
    b = np.einsum("...ake,...le->...akl", pt, psi.conj())
    value = np.sum(np.abs(b) ** 2, axis=(-3, -2, -1))
    ptd = np.einsum("...kd,aed->...ake", psi, ts.conj())
    grad = np.einsum("...alk,...ald->...kd", b.conj(), pt) + np.einsum("...akl,...ald->...kd", b, ptd)
    return value, grad


def _tangent(psi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g - sym(g psi^dag) psi: the part of g tangent to the orthonormal k-frames."""
    s = g @ psi.conj().swapaxes(-1, -2)
    return g - 0.5 * (s + s.conj().swapaxes(-1, -2)) @ psi


def _residual_and_jacobian(psi: np.ndarray, ts: np.ndarray):
    """Real residual of the blocks psi T psi^dag and its Jacobian in (Re psi, Im psi).

    The residual stacks the real and imaginary parts of every block entry, so
    its squared norm is the trace objective.  Column (part, m, e) is the
    derivative along a unit change of the real (part 0) or imaginary (part 1)
    part of psi[m, e], for the 2kd real parameters of the frame.
    """
    k, d = psi.shape
    blocks = psi @ ts @ psi.conj().T
    # dB_a = dpsi (T_a psi^dag) + (psi T_a) dpsi^dag, entry by entry
    p = np.swapaxes(ts @ psi.conj().T, 1, 2)[:, None, :, None, :]  # [a, -, j, -, e] = (T_a psi^dag)[e, j]
    q = (psi @ ts)[:, :, None, None, :]                              # [a, i, -, -, e] = (psi T_a)[i, e]
    eye = np.eye(k)
    left = eye[None, :, None, :, None] * p    # delta_im (T_a psi^dag)[e, j]
    right = eye[None, None, :, :, None] * q   # delta_jm (psi T_a)[i, e]
    jac = np.stack([left + right, 1j * (left - right)], axis=3).reshape(-1, 2 * k * d)
    residual = np.concatenate([blocks.real.ravel(), blocks.imag.ravel()])
    return residual, np.concatenate([jac.real, jac.imag])


@dataclass(frozen=True)
class RestartRecord:
    index: int
    objective: float
    iterations: int
    converged: bool
    stop_reason: str  # one of STOP_REASONS
    evaluations: int  # objective evaluations, trial steps included


@dataclass(frozen=True)
class SearchResult:
    certificate: SubspaceCertificate
    records: Tuple[RestartRecord, ...]
    config: SearchConfig

    @property
    def found(self) -> bool:
        return self.certificate.verified


def _restart(psi, f, g, gn2, ts, gate):
    """One restart of the two-phase descent of the trace objective f, as a coroutine.

    Starts from the frame `psi` with objective f, tangent gradient g and
    squared gradient norm gn2.  Phase 1 takes Barzilai-Borwein-scaled,
    Armijo-backtracked steps along g.  Once f <= LM_ENTRY, phase 2 takes
    Levenberg-Marquardt steps on the block residual, each accepted only if it
    lowers f; a rejection multiplies the damping by LM_DAMPING_GROWTH, and
    after LM_MAX_REJECTIONS in a row (an exactly singular solve counts as
    one, with no evaluation) phase 1 finishes the restart.  One iteration is
    one gradient with its backtracks or one Jacobian with its trial steps.

    Each trial frame is yielded before retraction; the reply is (retracted
    frame, f, g, gn2) at it.  Returns (psi, f, iterations, reason,
    evaluations), where reason is "gate", "stall" (g vanished),
    "iteration_cap" or "backtrack_exhausted" (MAX_BACKTRACKS tries failed).
    """
    evaluations = 1
    step = INITIAL_STEP / max(1.0, float(np.linalg.norm(g)))
    prev = None
    damping = LM_INITIAL_DAMPING
    second_order = True
    iterations = 0
    reason = "iteration_cap"
    while iterations < MAX_ITERATIONS:
        if f <= gate:
            break
        if second_order and f <= LM_ENTRY:
            iterations += 1
            residual, jac = _residual_and_jacobian(psi, ts)
            normal = jac.T @ jac
            rhs = -(jac.T @ residual)
            diag = np.diag_indices_from(normal)
            for _reject in range(LM_MAX_REJECTIONS):
                system = normal.copy()
                system[diag] += damping * f
                try:
                    x = np.linalg.solve(system, rhs).reshape(2, *psi.shape)
                except np.linalg.LinAlgError:  # damping * f too small to lift the null space
                    damping *= LM_DAMPING_GROWTH
                    continue
                cand, fc, gc, gn2c = yield psi + x[0] + 1j * x[1]
                evaluations += 1
                if fc < f:
                    damping /= LM_DAMPING_GROWTH
                    prev = None
                    psi, f, g, gn2 = cand, fc, gc, gn2c
                    break
                damping *= LM_DAMPING_GROWTH
            else:
                second_order = False
            continue
        if gn2 < 1e-60:
            reason = "stall"
            break
        iterations += 1
        if prev is not None:
            dpsi = psi - prev[0]
            dg = g - prev[1]
            denom = abs(float((dpsi.conj() * dg).real.sum()))
            if denom > 1e-300:
                step = float((np.abs(dpsi) ** 2).sum()) / denom
        for _bt in range(MAX_BACKTRACKS):
            cand, fc, gc, gn2c = yield psi - step * g
            evaluations += 1
            if fc < f - ARMIJO * step * gn2 or fc < f * (1 - 1e-12):
                break
            step *= BACKTRACK
        else:
            reason = "backtrack_exhausted"
            break
        prev = (psi, g)
        psi, f, g, gn2 = cand, fc, gc, gn2c
    if f <= gate:
        reason = "gate"
    return psi, f, iterations, reason, evaluations


def _evaluate(psi, ts):
    """Objective, tangent gradient and its squared norm for each frame of an (R, k, d) stack."""
    f, g = _trace_objective_and_gradient(psi, ts)
    g = _tangent(psi, g)
    return f.tolist(), g, np.sum(np.abs(g) ** 2, axis=(1, 2)).tolist()


def _descend(psi, ts, gate):
    """Run one `_restart` per frame of the (R, k, d) stack `psi`, evaluating their trials together.

    In each round every restart that has not stopped yields one trial frame;
    one stacked QR retracts them all and one batched `_evaluate` scores them.
    The stacked kernels sum each frame in the order they sum it alone, so each
    restart's floats are bit for bit those it computes alone.  Returns (psi,
    f, iterations, reasons, evaluations), one entry per restart.
    """
    restarts = [_restart(*start, ts, gate) for start in zip(psi, *_evaluate(psi, ts))]
    results = [None] * len(restarts)
    replies = dict.fromkeys(range(len(restarts)))  # live restart -> what to send it next
    while replies:
        trials = {}
        for r, reply in replies.items():
            try:
                trials[r] = restarts[r].send(reply)
            except StopIteration as stop:
                results[r] = stop.value
        replies = {}
        if trials:
            q = _orthonormalize_rows(np.array(list(trials.values())))
            replies = dict(zip(trials, zip(q, *_evaluate(q, ts))))
    frames, f, iterations, reasons, evaluations = map(list, zip(*results))
    # stacked so that each frame keeps the memory layout _orthonormalize_rows gives it
    return np.array([p.T for p in frames]).swapaxes(1, 2), f, iterations, reasons, evaluations


def search_subspace(spin: SpinLabel, k: int, t: int, config: SearchConfig) -> SearchResult:
    """Minimize G_t over orthonormal k-frames with seeded multi-start descent.

    Each restart draws an independent frame from a child seed of config.seed
    and runs as its own `_restart` coroutine to the success gate; `_descend`
    evaluates the pending trials of all restarts together.  A restart's
    record (why it stopped, its objective, iterations and objective
    evaluations) is the one it gets when run alone, so it does not depend on
    config.restarts.  The best frame (minimum objective, lowest index on
    ties) is certified; not reaching the gate is a valid negative result,
    reported with the best objective found.
    """
    if not 1 <= k <= spin.dimension:
        raise ValueError(f"k must be in 1..{spin.dimension}")
    ts = multipole_stack(spin.two_j, 1, t)
    d = spin.dimension
    starts = []
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(child)
        starts.append(rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d)))
    psi, f, iterations, reasons, evaluations = _descend(_orthonormalize_rows(np.stack(starts)), ts, DESCENT_GATE)
    records = tuple(
        RestartRecord(i, float(f[i]), int(iterations[i]), bool(f[i] <= DESCENT_GATE), reasons[i], int(evaluations[i]))
        for i in range(config.restarts)
    )
    best = min(range(config.restarts), key=f.__getitem__)  # lowest index on ties
    best_psi = psi[best]
    if f[best] <= DESCENT_GATE:
        # a hit is already inside its basin; polishing to the machine floor
        # removes the O(sqrt(threshold)) frame noise left by the stop gate
        best_psi = _descend(best_psi[None], ts, 0.0)[0][0]
    frame = SubspaceFrame.from_amplitudes(spin, _orthonormalize_rows(best_psi))
    return SearchResult(verify_subspace(frame, t), records, config)


def upper_bound_kmax(spin: SpinLabel, t: int) -> int:
    """floor((2j - t + 1)/(t + 1)), from counting orthonormal Schmidt vectors."""
    if not 1 <= t <= spin.two_j:
        raise ValueError(f"t must be in 1..2j = {spin.two_j}")
    return (spin.two_j - t + 1) // (t + 1)


@dataclass(frozen=True)
class KmaxScanEntry:
    k: int
    found: bool
    best_objective: float


@dataclass(frozen=True)
class KmaxScan:
    spin: SpinLabel
    t: int
    k_max: int
    bound: int
    entries: Tuple[KmaxScanEntry, ...]
    anomalies: Tuple[int, ...]  # k values found after a smaller k failed


def kmax_scan(spin: SpinLabel, t: int, config: SearchConfig) -> KmaxScan:
    """Largest k for which the search reaches a zero of G_t.

    Scans every k up to the dimension bound even past a failure (optimizer
    misses at smaller k are reported as anomalies rather than silently
    truncating the scan).
    """
    bound = upper_bound_kmax(spin, t)
    entries: List[KmaxScanEntry] = []
    found_ks: List[int] = []
    for k in range(1, max(bound, 1) + 1):
        result = search_subspace(spin, k, t, replace(config, seed=config.seed + k))
        entries.append(KmaxScanEntry(k, result.found, result.certificate.objective_value))
        if result.found:
            found_ks.append(k)
    k_max = max(found_ks, default=0)
    anomalies = tuple(
        k for k in found_ks if any(e.k < k and not e.found for e in entries)
    )
    return KmaxScan(spin, t, k_max, bound, tuple(entries), anomalies)


# ---------------------------------------------------------------------------
# Constructive families
# ---------------------------------------------------------------------------

def one_ac_family_dimension(spin: SpinLabel) -> int:
    """Dimension of the generic 1-AC family below.

    floor((j-1)/2) + 1 paired-cat states, plus the central |j,0> state when
    j is an integer and 2j - 3 - 4*floor((j-1)/2) > 0 (even integer j).
    """
    j2 = spin.two_j
    amax = (j2 - 2) // 4  # floor((j-1)/2)
    extra = 1 if (j2 % 2 == 0 and j2 - 3 - 4 * amax > 0) else 0
    return amax + 1 + extra


def construct_one_ac_family(spin: SpinLabel) -> SubspaceFrame:
    """Generic 1-AC subspace from sparse +/-m cat states.

    States (0_{2a}, 1, 0_{2j-4a-1}, 1, 0_{2a})/sqrt(2) for
    a = 0..floor((j-1)/2), plus (0_j, 1, 0_j) when j is an even integer.
    The m-level layout makes every J_z, J_+/- matrix element between frame
    vectors vanish identically.
    """
    if spin.two_j < 2:
        raise ValueError("construction needs j >= 1")
    d = spin.dimension
    rows = []
    amax = (spin.two_j - 2) // 4
    for a in range(amax + 1):
        v = np.zeros(d)
        v[2 * a] = 1.0 / math.sqrt(2)
        v[2 * a + (spin.two_j - 4 * a - 1) + 1] = 1.0 / math.sqrt(2)
        rows.append(v)
    if spin.two_j % 2 == 0 and spin.two_j - 3 - 4 * amax > 0:
        v = np.zeros(d)
        v[spin.two_j // 2] = 1.0
        rows.append(v)
    return SubspaceFrame.from_amplitudes(spin, rows)


def two_ac_level_offset(spin: SpinLabel) -> int:
    """kappa = ceil(j - sqrt(j(j+1)/3)), the inner-level offset of the family."""
    j = spin.j
    return math.ceil(j - math.sqrt(j * (j + 1) / 3.0) - 1e-12)


def two_ac_family_dimension(spin: SpinLabel) -> int:
    """Dimension of the generic 2-AC family below.

    The number of states is limited by two gap conditions: the inner +/-m
    pair of each state must be at least 3 apart (a <= (2j - 2 kappa - 5)/6)
    and the two m-ladders must stay at least 3 apart across states
    (a <= (kappa - 2)/3).
    """
    kappa = two_ac_level_offset(spin)
    arm_inner = math.floor((spin.two_j - 2 * kappa - 5) / 6)
    arm_cross = math.floor((kappa - 2) / 3)
    return min(arm_inner, arm_cross) + 1


def construct_two_ac_family(spin: SpinLabel) -> SubspaceFrame:
    """Generic 2-AC subspace for j >= 5: states with four +/-m support levels.

    Each state is (0_{3a}, alpha_a, 0_kappa, beta_a, 0_mid, beta_a, 0_kappa,
    alpha_a, 0_{3a}) with 2 alpha_a^2 + 2 beta_a^2 = 1 and the second-moment
    balance j(j+1) = 6 [(j-3a)^2 alpha_a^2 + (j-3a-1-kappa)^2 beta_a^2].
    """
    if spin.two_j < 10:
        raise ValueError("construction needs j >= 5")
    j = spin.j
    d = spin.dimension
    kappa = two_ac_level_offset(spin)
    k2 = two_ac_family_dimension(spin)
    target = j * (j + 1) / 6.0
    rows = []
    for a in range(k2):
        ma = j - 3 * a
        mb = j - 3 * a - 1 - kappa
        denom = mb * mb - ma * ma
        bsq = (target - ma * ma / 2.0) / denom
        asq = 0.5 - bsq
        if asq < -1e-12 or bsq < -1e-12:
            raise ArithmeticError(
                f"no real coefficients at a={a} for spin {spin}: "
                f"alpha^2={asq:.3e}, beta^2={bsq:.3e}"
            )
        alpha = math.sqrt(max(asq, 0.0))
        beta = math.sqrt(max(bsq, 0.0))
        v = np.zeros(d)
        p = 3 * a
        v[p] = alpha
        v[p + 1 + kappa] = beta
        v[d - 1 - p] = alpha
        v[d - 1 - (p + 1 + kappa)] = beta
        rows.append(v)
    return SubspaceFrame.from_amplitudes(spin, rows)


# ---------------------------------------------------------------------------
# Rotation equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationEquivalence:
    equivalent: bool
    residual: float
    euler_angles: Tuple[float, float, float]


def rotation_equivalent(
    frame_a: SubspaceFrame,
    frame_b: SubspaceFrame,
    t: Optional[int] = None,
    starts: int = 24,
    seed: int = 7,
    tolerance: float = ROTATION_EQUIVALENCE_TOL,
) -> RotationEquivalence:
    """Test whether two frames span globally rotated copies of one subspace.

    Minimizes ||Pi_A - R(alpha,beta,gamma) Pi_B R^dag||_F over Euler angles
    with multi-start local optimization.  When `t` is given, both frames are
    required to certify at that order first.
    """
    if frame_a.spin != frame_b.spin or frame_a.k != frame_b.k:
        raise ValueError("frames must share spin and dimension")
    if t is not None:
        for f in (frame_a, frame_b):
            if not verify_subspace(f, t).verified:
                raise ValueError(f"frame does not certify at order t={t}")
    pa = frame_a.projector()
    pb = frame_b.projector()
    spin = frame_a.spin

    def residual(angles):
        r = rotation_operator_euler(spin, *angles)
        return float(np.linalg.norm(pa - r @ pb @ r.conj().T))

    rng = np.random.default_rng(seed)
    best_val = residual((0.0, 0.0, 0.0))
    best_angles = (0.0, 0.0, 0.0)
    for start in range(starts):
        if best_val <= tolerance / 100:
            break
        x0 = np.zeros(3) if start == 0 else rng.uniform(0.0, 2 * math.pi, size=3)
        res = minimize(
            residual, x0, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000, "maxfev": 8000},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_angles = tuple(float(x) for x in res.x)
    return RotationEquivalence(best_val <= tolerance, best_val, best_angles)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    frame: SubspaceFrame
    order_t: int
    note: str = ""


def _frame(two_j: int, rows) -> SubspaceFrame:
    return SubspaceFrame.from_amplitudes(SpinLabel(two_j), rows)


def spin2_plane() -> SubspaceFrame:
    """The unique (up to rotation) two-dimensional 1-AC subspace at spin 2."""
    r2i = math.sqrt(2) * 1j
    return _frame(4, [
        np.array([1, 0, r2i, 0, 1], dtype=complex) / 2,
        np.array([1, 0, -r2i, 0, 1], dtype=complex) / 2,
    ])


def spin2_plane_rotated_form() -> SubspaceFrame:
    """A real-amplitude frame spanning a rotated copy of the spin-2 plane."""
    s = math.sqrt
    return _frame(4, [
        np.array([1 / s(3), 0, 0, s(2 / 3), 0], dtype=complex),
        np.array([0, s(2 / 3), 0, 0, -1 / s(3)], dtype=complex),
    ])


def spin3_one_ac_triple() -> SubspaceFrame:
    """The first three-dimensional 1-AC subspace (spin 3)."""
    s = math.sqrt
    v1 = np.zeros(7); v1[0] = s(2 / 5); v1[5] = s(3 / 5)
    v2 = np.zeros(7); v2[1] = -s(3 / 5); v2[6] = s(2 / 5)
    v3 = np.zeros(7); v3[3] = 1.0
    return _frame(6, [v1, v2, v3])


def catalog() -> Dict[str, CatalogEntry]:
    """Named reference frames; every entry certifies at its declared order."""
    s = math.sqrt
    entries: List[CatalogEntry] = []

    entries.append(CatalogEntry("(2,2,1)", spin2_plane(), 1, "first 2-dim 1-AC plane"))
    entries.append(CatalogEntry(
        "(2,2,1)-rotated", spin2_plane_rotated_form(), 1,
        "rotated copy of (2,2,1) with real amplitudes",
    ))

    v1 = np.zeros(6); v1[0] = s(3); v1[4] = s(5)
    v2 = np.zeros(6); v2[1] = -s(5); v2[5] = s(3)
    entries.append(CatalogEntry("(5/2,2,1)-V1", _frame(5, [v1 / s(8), v2 / s(8)]), 1))

    al = s(20 - 5 * s(7)); be = s(10 * s(7) - 20); ga = s(16 - 5 * s(7))
    w1 = np.array([0, al, 0, -be, 0, ga]) / 4
    w2 = np.array([ga, 0, be, 0, al, 0]) / 4
    entries.append(CatalogEntry("(5/2,2,1)-V2", _frame(5, [w1, w2]), 1))

    entries.append(CatalogEntry("(3,3,1)", spin3_one_ac_triple(), 1, "first 3-dim 1-AC subspace"))

    zeta = math.atan(2 * s(7 / 5))
    u1 = np.zeros(10, complex); u1[3] = s(5 / 2) / 2; u1[7] = -s(3 / 2) / 2
    u2 = np.zeros(10, complex); u2[2] = -s(3 / 2) / 2; u2[6] = -s(5 / 2) / 2
    u3 = np.zeros(10, complex)
    u3[0] = s(11 / 2) / 4 * np.exp(1j * zeta); u3[4] = s(3) / 4; u3[8] = s(15 / 2) / 4
    u4 = np.zeros(10, complex)
    u4[1] = s(15 / 2) / 4; u4[5] = -s(3) / 4; u4[9] = s(11 / 2) / 4 * np.exp(1j * zeta)
    entries.append(CatalogEntry("(9/2,4,1)", _frame(9, [u1, u2, u3, u4]), 1,
                                "first 4-dim 1-AC subspace"))

    q1 = np.zeros(8); q1[0] = s(3 / 10); q1[5] = s(7 / 10)
    q2 = np.zeros(8); q2[2] = s(7 / 10); q2[7] = -s(3 / 10)
    entries.append(CatalogEntry("(7/2,2,2)", _frame(7, [q1, q2]), 2, "first 2-dim 2-AC subspace"))

    p1 = np.zeros(11); p1[0] = s(2 / 7); p1[7] = s(5 / 7)
    p2 = np.zeros(11); p2[3] = -s(5 / 7); p2[10] = s(2 / 7)
    entries.append(CatalogEntry("(5,2,2)", _frame(10, [p1, p2]), 2))

    # 16-digit amplitudes of the first 3-dim 2-AC subspace (spin 7)
    a = -0.4604769924899385 + 0.2090691916016556j
    b = 0.2215035777892046 - 0.4925631870366248j
    c = 0.3036273245094665 + 0.3014334601129537j
    dd = -0.1069092203207547 + 0.2403277996106323j
    e = -0.3180190622270446 - 0.3149505431871214j
    f = 0.4395729087324888 + 0.1474365706612073j
    g = 0.4058433985142867 + 0.1117167627487395j
    h = 0.4038887232746600 + 0.2292839547339512j
    x1 = np.array([0, 0, a, 0, 0, b, 0, 0, c, 0, 0, dd, 0, 0, e])
    x2 = np.array([e, 0, 0, dd, 0, 0, c, 0, 0, b, 0, 0, a, 0, 0])
    x3 = np.array([0, f, 0, 0, g, 0, 0, h, 0, 0, g, 0, 0, f, 0])
    entries.append(CatalogEntry("(7,3,2)", _frame(14, [x1, x2, x3]), 2,
                                "first 3-dim 2-AC subspace; decimal amplitudes"))

    return {entry.name: entry for entry in entries}
