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
which converge where first-order steps crawl toward a zero.  A restart whose
first-order steps settle at a positive stationary point stops there.  Each
restart is one coroutine; all pending trials of a search are evaluated
together, each exactly as it would be alone; a trial that repeats its
restart's last one bit for bit is not scored again.  Every trial is a step
request (psi, direction, step): `_descend` forms all of a round's steps in
one stack, and one kernel, `_retract_and_score`, retracts and scores them
and forms the two sums of the next Barzilai-Borwein step; its scoring half,
`_score`, also scores the start frames.  The QR retraction calls LAPACK's
QR gufuncs directly, with np.linalg.qr as the fallback where numpy lacks
them, and both Levenberg-Marquardt loops call LAPACK's solve gufunc
directly, with np.linalg.solve as the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Dict, List, Tuple

import numpy as np

from .multipole import MultipoleIndex, adjoint_products, multipole_operator, multipole_products
from .spin_core import PureState, SpinLabel, angular_momentum_operators, check_count, check_orthonormal, rotation_operator_euler

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
# above LM_ENTRY, phase 1 stops at a first-order stationary point once
# gn2 <= STATIONARY * f, a relative test that means the same at any scale of G
STATIONARY = 1e-8
# phase 2 of the descent: Levenberg-Marquardt steps below this trace objective
LM_ENTRY = 1e-6
LM_INITIAL_DAMPING = 1e-3  # times f, the scale of the squared residual
LM_DAMPING_GROWTH = 10.0
LM_MAX_REJECTIONS = 8
STOP_REASONS = ("gate", "stall", "stationary", "iteration_cap", "backtrack_exhausted")
# Levenberg-Marquardt fit of the Euler angles in rotation_equivalent, with
# MINPACK's defaults: 100 (n + 1) residual evaluations for n = 3 angles, and
# sqrt(machine epsilon) as the negligible relative decrease and step
TURN_FIT_EVALUATIONS = 400
TURN_FIT_TOL = math.sqrt(np.finfo(float).eps)
TURN_FIT_INITIAL_DAMPING = 1e-3  # times diag(J^T J)


# ---------------------------------------------------------------------------
# Frames and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SubspaceCertificate:
    frame: SubspaceFrame
    order_t: int
    objective_value: float

    @property
    def verified(self) -> bool:
        """G_t at the gate SUCCESS_THRESHOLD."""
        return self.objective_value <= SUCCESS_THRESHOLD


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic multi-start search parameters; seed is mandatory."""

    seed: int
    restarts: int = 64
    # the per-restart cap, readable here for callers that tell capped restarts apart
    max_iterations: ClassVar[int] = MAX_ITERATIONS

    def __post_init__(self):
        check_count("seed", self.seed, 0)
        check_count("restarts", self.restarts, 1)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def _pair_sum(b: np.ndarray) -> float:
    """sum_{a <= b} |B_ab|^2 over one operator block or a stack of them."""
    iu = np.triu_indices(b.shape[-1])
    return float(np.sum(np.abs(b[..., iu[0], iu[1]]) ** 2))


def objective_g_lm(frame: SubspaceFrame, L: int, M: int) -> float:
    """Pairwise form: sum over ordered pairs a <= b of |<psi_a|T_LM|psi_b>|^2."""
    m = frame.matrix()
    return _pair_sum(m @ multipole_operator(frame.spin, MultipoleIndex(L, M)) @ m.conj().T)


def objective_g_t(frame: SubspaceFrame, t: int) -> float:
    """G_t = sum over L = 1..t and all M of the pairwise objective."""
    m = frame.matrix()
    return _pair_sum(multipole_products(m, check_count("t", t, 1)).swapaxes(0, 1) @ m.conj().T)


def verify_subspace(frame: SubspaceFrame, t: int) -> SubspaceCertificate:
    """Certificate for the frame at order t, gated on G_t <= SUCCESS_THRESHOLD.

    The gate covers every pair of unit vectors in the span, not only the
    frame.  Unit vectors v1, v2 with coefficients c1, c2 in the frame have
    |<v1|T_LM|v2>| = |c1^dag B c2| <= ||B||_F, B the frame block of T_LM.  An
    element of B below its diagonal is, up to sign and conjugation, one above
    the diagonal of the T_{L,-M} block, since T_{L,-M} = (-1)^M T_LM^dag; so
    the blocks of all L <= t and M have sum ||B||_F^2 <= 2 G_t, and on a
    certified frame every such element is at most sqrt(2 G_t) <= 1.42e-5.
    """
    t = check_count("t", t, 1)
    return SubspaceCertificate(frame, t, objective_g_t(frame, t))


# ---------------------------------------------------------------------------
# Numerical search
# ---------------------------------------------------------------------------

def _lapack_qr(a: np.ndarray):
    """Q of the reduced QR of the complex (..., m, n) stack `a`, m >= n, and the diagonal of R.

    The two LAPACK gufuncs behind `np.linalg.qr`, called as it calls them but
    without its checks, copy and `triu`: `qr_r_raw` factors `a` in place
    (R on and above the diagonal, the Householder vectors below it) and
    `qr_reduced` forms Q from them.  `casting="no"` refuses a real stack,
    whose in-place result would land in a discarded cast buffer.
    """
    tau = _qr_r_raw(a, signature="D->D", casting="no")
    return _qr_reduced(a, tau, signature="DD->D"), a.diagonal(0, -2, -1)


def _linalg_qr(a: np.ndarray):
    """`_lapack_qr` through `np.linalg.qr`: the same LAPACK calls, so the same bits."""
    q, r = np.linalg.qr(a)
    return q, np.diagonal(r, axis1=-2, axis2=-1)


try:  # private to numpy, so np.linalg.qr serves where either gufunc is missing
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced
    _qr = _lapack_qr
except ImportError:
    _qr = _linalg_qr


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _lapack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, for a real square `a` and vector `b`: the LAPACK gufunc behind `np.linalg.solve`.

    Called as `np.linalg.solve` calls it, under the same error state (the
    gufunc's invalid flag marks a singular system and raises
    np.linalg.LinAlgError; the rest is silent), but without its conversions
    and checks, so it gives the same bits.
    """
    with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _solve1(a, b, signature="dd->d")


try:  # private to numpy, so np.linalg.solve serves where the gufunc is missing
    from numpy.linalg._umath_linalg import solve1 as _solve1
    _solve = _lapack_solve
except ImportError:
    _solve = np.linalg.solve


def _adjoint_retraction(psi: np.ndarray) -> np.ndarray:
    """psi'^dag, (..., d, k), for the QR retraction psi' of the rows of a complex frame or (..., k, d) stack.

    `psi.conj()` is a fresh array, so it is factored in place, in its
    transposed (column-major per frame) layout: LAPACK reads that layout
    without a transposing copy.  Q is phased in place to the sign
    convention of a positive R diagonal; it holds psi'^dag row-major, so
    psi' = Q.conj().swapaxes(-1, -2) holds each frame column-major.
    """
    q, diagonal = _qr(psi.conj().swapaxes(-1, -2))
    q *= np.sign(diagonal.real + 1e-300)[..., None, :]
    return q


def _orthonormalize_rows(psi: np.ndarray) -> np.ndarray:
    """QR retraction of the rows of a complex frame, or of each frame in a (..., k, d) stack."""
    return _adjoint_retraction(psi).conj().swapaxes(-1, -2)


def _sum_squares(z: np.ndarray) -> np.ndarray:
    """sum |z|^2 over the last two axes, in the order np.sum takes it."""
    z = np.abs(z)
    z *= z
    return np.add.reduce(z, axis=(-2, -1))


def _score(psi: np.ndarray, psi_h: np.ndarray, t: int):
    """Trace objective, tangent gradient and its squared norm per frame of the (R, k, d) stack psi, psi_h = psi^dag.

    The objective is sum_a ||psi T_a psi^dag||_F^2, 1 <= L <= t.  pt holds
    the rows (psi T_a)[l], ordered (l, a), from `multipole_products`; b =
    pt psi^dag holds every block B_a = psi T_a psi^dag.  The
    conjugate-Wirtinger gradient sum_a (B_a^dag psi T_a + B_a psi T_a^dag)
    is 2 b^dag pt: its second term equals the first because the stack holds
    every M of each L and T_{L,-M} = (-1)^M T_{LM}^dag, so that
    sum_a B_a psi T_a^dag = sum_a B_a^dag psi T_a.  Its part tangent to the
    orthonormal k-frames is g - sym(g psi^dag) psi.  Both products with
    psi^dag read psi_h, and the temporaries are updated in place.
    """
    pt = multipole_products(psi, t).reshape(*psi.shape[:-2], -1, psi.shape[-1])
    b = pt @ psi_h
    f = _sum_squares(b)
    g = b.conj().swapaxes(-1, -2) @ pt
    g *= 2
    s = g @ psi_h
    s += s.conj().swapaxes(-1, -2)
    s *= 0.5
    g -= s @ psi
    return f, g, _sum_squares(g)


def _retract_and_score(trials: np.ndarray, base: np.ndarray, grad: np.ndarray, t: int):
    """Retract and `_score` the (n, k, d) trials; returns (frames, f, g, gn2, num, den), the scalars as lists.

    num = sum |dpsi|^2 and den = |sum Re(conj(dpsi) dg)| are the
    Barzilai-Borwein sums of each trial against its request, dpsi and dg
    the changes of frame and gradient from the transposed base (n, d, k)
    and the direction grad.  Each frame is summed in the layout a restart
    holds it: dpsi column-major, as the retraction leaves a frame, and the
    gradients and their products row-major.
    """
    psi_h = _adjoint_retraction(trials)
    psi = psi_h.conj().swapaxes(-1, -2)
    f, g, gn2 = _score(psi, psi_h, t)
    dpsi = psi.swapaxes(1, 2) - base
    dg = g - grad
    dg *= dpsi.swapaxes(1, 2).conj()
    den = np.abs(np.add.reduce(dg.real, axis=(1, 2)))
    return psi, f.tolist(), g, gn2.tolist(), _sum_squares(dpsi).tolist(), den.tolist()


def _residual_and_jacobian(psi: np.ndarray, t: int):
    """Real residual of the blocks psi T_a psi^dag, 1 <= L <= t, and its Jacobian in (Re psi, Im psi).

    The residual stacks the real and imaginary parts of every block entry, so
    its squared norm is the trace objective.  Column (part, m, e) is the
    derivative along a unit change of the real (part 0) or imaginary (part 1)
    part of psi[m, e], for the 2kd real parameters of the frame.
    """
    k, d = psi.shape
    pt = multipole_products(psi, t)
    blocks = pt.swapaxes(0, 1) @ psi.conj().T
    # dB_a = dpsi (T_a psi^dag) + (psi T_a) dpsi^dag, entry by entry; p[a, -, j, -, e] = (T_a psi^dag)[e, j]
    p = adjoint_products(pt, t).swapaxes(0, 1)[:, None, :, None, :]
    eye = np.eye(k)
    left = eye[None, :, None, :, None] * p    # delta_im (T_a psi^dag)[e, j]
    right = eye[None, None, :, :, None] * pt.swapaxes(0, 1)[:, :, None, None, :]  # delta_jm (psi T_a)[i, e]
    jac = np.stack([left + right, 1j * (left - right)], axis=3).reshape(-1, 2 * k * d)
    residual = np.concatenate([blocks.real.ravel(), blocks.imag.ravel()])
    return residual, np.concatenate([jac.real, jac.imag])


@dataclass(frozen=True)
class RestartRecord:
    index: int
    objective: float
    iterations: int
    stop_reason: str  # one of STOP_REASONS; "stationary": at a positive first-order stationary point
    evaluations: int  # the start frame and trial frames tested, repeats answered from the driver's memo included

    @property
    def converged(self) -> bool:
        """The restart reached the descent gate."""
        return self.objective <= DESCENT_GATE


@dataclass(frozen=True, eq=False)
class SearchResult:
    certificate: SubspaceCertificate
    records: Tuple[RestartRecord, ...]
    config: SearchConfig

    @property
    def found(self) -> bool:
        return self.certificate.verified


def _restart(psi, f, g, gn2, t, gate):
    """One restart of the two-phase descent of the trace objective f at order t, as a coroutine.

    Starts from the frame `psi` with objective f, tangent gradient g and
    squared gradient norm gn2.  Phase 1 takes Barzilai-Borwein-scaled,
    Armijo-backtracked steps along g.  Once f <= LM_ENTRY, phase 2 takes
    Levenberg-Marquardt steps on the block residual, each accepted only if it
    lowers f; a rejection multiplies the damping by LM_DAMPING_GROWTH, and
    after LM_MAX_REJECTIONS in a row (an exactly singular solve counts as
    one, with no evaluation) phase 1 finishes the restart.  Above LM_ENTRY,
    phase 1 stops at a first-order stationary point, gn2 <= STATIONARY * f,
    where its steps no longer descend.  One iteration is one gradient with
    its backtracks or one Jacobian with its trial steps.

    Each trial is yielded as the step request (psi, direction, step), for
    the frame psi - step * direction before retraction: a phase-1 trial
    steps along g, a Levenberg-Marquardt trial takes step 1.0 against its
    solution dx, which forms psi + dx bit for bit.  The reply is (retracted
    frame, f, g, gn2, products) at the trial, where products is
    (sum |dpsi|^2, |sum Re(conj(dpsi) dg)|), with dpsi and dg the changes of
    frame and gradient from the request's psi and direction: for a phase-1
    trial, the numerator and denominator of the Barzilai-Borwein step that
    follows if the trial is accepted.  After a Levenberg-Marquardt step the
    next first-order iteration keeps its step.  Returns (psi, f,
    iterations, reason, evaluations), where reason is "gate", "stall" (g
    vanished), "stationary" (a positive stationary point), "iteration_cap"
    or "backtrack_exhausted" (MAX_BACKTRACKS tries failed).
    """
    evaluations = 1
    step = INITIAL_STEP / max(1.0, float(np.linalg.norm(g)))
    products = None  # of the last accepted first-order step
    damping = LM_INITIAL_DAMPING
    second_order = True
    iterations = 0
    reason = "iteration_cap"
    while iterations < MAX_ITERATIONS:
        if f <= gate:
            break
        if second_order and f <= LM_ENTRY:
            iterations += 1
            residual, jac = _residual_and_jacobian(psi, t)
            normal = jac.T @ jac
            rhs = -(jac.T @ residual)
            for _reject in range(LM_MAX_REJECTIONS):
                system = normal.copy()
                system.reshape(-1)[:: len(system) + 1] += damping * f
                try:
                    x = _solve(system, rhs).reshape(2, *psi.shape)
                except np.linalg.LinAlgError:  # damping * f too small to lift the null space
                    damping *= LM_DAMPING_GROWTH
                    continue
                cand, fc, gc, gn2c, _ = yield psi, -(x[0] + 1j * x[1]), 1.0
                evaluations += 1
                if fc < f:
                    damping /= LM_DAMPING_GROWTH
                    products = None
                    psi, f, g, gn2 = cand, fc, gc, gn2c
                    break
                damping *= LM_DAMPING_GROWTH
            else:
                second_order = False
            continue
        if gn2 < 1e-60:
            reason = "stall"
            break
        if f > LM_ENTRY and gn2 <= STATIONARY * f:
            reason = "stationary"
            break
        iterations += 1
        if products is not None and products[1] > 1e-300:
            step = products[0] / products[1]
        for _bt in range(MAX_BACKTRACKS):
            cand, fc, gc, gn2c, products_c = yield psi, g, step
            evaluations += 1
            if fc < f - ARMIJO * step * gn2 or fc < f * (1 - 1e-12):
                break
            step *= BACKTRACK
        else:
            reason = "backtrack_exhausted"
            break
        psi, f, g, gn2, products = cand, fc, gc, gn2c, products_c
    if f <= gate:
        reason = "gate"
    return psi, f, iterations, reason, evaluations


def _descend(psi, t, gate):
    """Run one `_restart` at order t per frame of the (R, k, d) stack `psi`, evaluating their trials together.

    In each round every restart that has not stopped yields one step
    request (psi, direction, step).  One stacked base - steps * directions
    forms every trial, and one `_retract_and_score` call retracts them,
    scores them and forms their Barzilai-Borwein products; the start frames
    are scored by its scoring half, `_score`.
    The kernel sums each frame in the order it sums it alone, so each
    restart's floats are bit for bit those it computes alone.  The
    Barzilai-Borwein products of the requests are summed over the stack
    with each frame in the layout a restart holds it, column-major for
    frames (each comes from the QR retraction, the start frames included)
    and row-major for gradients and for their products, and so in the
    order a sum over one frame takes; they are bit for bit those of the
    restart-local formula.

    A reply thus depends only on the bytes of the trial and, for its
    products, on the request's base psi and direction.  Each restart's last
    trial and reply are kept: a trial whose bytes repeat the last one (a
    backtrack whose step has fallen below the spacing of the floats, so
    that psi - step * g == psi) gets the kept reply again, and only
    distinct trials are retracted and scored.  A kept reply may carry
    products against an earlier base, but it is then never accepted: a
    restart's base moves only when it accepts its last trial, so after a
    move the kept reply is the one to that trial, its f is the restart's
    current f, and both acceptance tests need a strictly lower one.
    Returns (psi, f, iterations, reasons, evaluations), one entry per
    restart.
    """
    f, g, gn2 = _score(psi, psi.conj().swapaxes(-1, -2), t)
    restarts = [_restart(*start, t, gate) for start in zip(psi, f.tolist(), g, gn2.tolist())]
    results = [None] * len(restarts)
    # live restart -> (bytes of its last trial, the reply to it); None primes the coroutine
    last = dict.fromkeys(range(len(restarts)), (None, None))
    while last:
        requests = {}
        for r, (_, reply) in list(last.items()):
            try:
                requests[r] = restarts[r].send(reply)
            except StopIteration as stop:
                results[r] = stop.value
                del last[r]
        if not requests:
            break
        rows = list(requests)
        bases, grads, steps = zip(*requests.values())
        base = np.array([p.T for p in bases])  # (n, d, k): the frames transposed
        grad = np.array(grads)
        trials = base.swapaxes(1, 2) - np.array(steps)[:, None, None] * grad
        keys = [trial.tobytes() for trial in trials]
        keep = [i for i, r in enumerate(rows) if keys[i] != last[r][0]]
        if not keep:
            continue
        if len(keep) < len(rows):
            trials, base, grad = trials[keep], base[keep], grad[keep]
        q, f, g, gn2, num, den = _retract_and_score(trials, base, grad, t)
        for i, reply in zip(keep, zip(q, f, g, gn2, zip(num, den))):
            last[rows[i]] = keys[i], reply
    frames, f, iterations, reasons, evaluations = map(list, zip(*results))
    # stacked so that each frame keeps the memory layout the QR retraction gives it
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
    k, t = check_count("k", k, 1), check_count("t", t, 1)
    if k > spin.dimension:
        raise ValueError(f"k must be in 1..{spin.dimension}")
    d = spin.dimension
    starts = []
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(child)
        starts.append(rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d)))
    psi, f, iterations, reasons, evaluations = _descend(_orthonormalize_rows(np.stack(starts)), t, DESCENT_GATE)
    records = tuple(
        RestartRecord(i, float(f[i]), int(iterations[i]), reasons[i], int(evaluations[i]))
        for i in range(config.restarts)
    )
    best = min(range(config.restarts), key=f.__getitem__)  # lowest index on ties
    best_psi = psi[best]
    if f[best] <= DESCENT_GATE:
        # a hit is already inside its basin; polishing to the machine floor
        # removes the O(sqrt(threshold)) frame noise left by the stop gate
        best_psi = _descend(best_psi[None], t, 0.0)[0][0]
    frame = SubspaceFrame.from_amplitudes(spin, _orthonormalize_rows(best_psi))
    return SearchResult(verify_subspace(frame, t), records, config)


def upper_bound_kmax(spin: SpinLabel, t: int) -> int:
    """floor((2j - t + 1)/(t + 1)), from counting orthonormal Schmidt vectors."""
    t = check_count("t", t, 1)
    if t > spin.two_j:
        raise ValueError(f"t must be an integer in 1..2j = {spin.two_j}, got {t!r}")
    return (spin.two_j - t + 1) // (t + 1)


@dataclass(frozen=True)
class KmaxScanEntry:
    k: int
    best_objective: float

    @property
    def found(self) -> bool:
        return self.best_objective <= SUCCESS_THRESHOLD


@dataclass(frozen=True)
class KmaxScan:
    spin: SpinLabel
    t: int
    entries: Tuple[KmaxScanEntry, ...]

    @property
    def bound(self) -> int:
        return upper_bound_kmax(self.spin, self.t)

    @property
    def k_max(self) -> int:
        return max((e.k for e in self.entries if e.found), default=0)

    @property
    def anomalies(self) -> Tuple[int, ...]:
        """The k values found after a smaller k failed."""
        return tuple(e.k for e in self.entries
                     if e.found and any(m.k < e.k and not m.found for m in self.entries))


def kmax_scan(spin: SpinLabel, t: int, config: SearchConfig) -> KmaxScan:
    """Largest k for which the search reaches a zero of G_t.

    Scans every k up to the dimension bound even past a failure (optimizer
    misses at smaller k are reported as anomalies rather than silently
    truncating the scan); at bound 0 it runs no search.
    """
    entries = []
    for k in range(1, upper_bound_kmax(spin, t) + 1):
        result = search_subspace(spin, k, t, replace(config, seed=config.seed + k))
        entries.append(KmaxScanEntry(k, result.certificate.objective_value))
    return KmaxScan(spin, t, tuple(entries))


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
    residual: float
    euler_angles: Tuple[float, float, float]

    @property
    def equivalent(self) -> bool:
        return self.residual <= ROTATION_EQUIVALENCE_TOL


def _turn_jacobian(spin: SpinLabel, x: np.ndarray, angles) -> np.ndarray:
    """The derivatives of -X, X = R p R^dag, in the Euler angles of R: i [n.J, X], n the axis each turns about."""
    (sa, sb), (ca, cb) = np.sin(angles[:2]), np.cos(angles[:2])
    axes = [[0.0, 0.0, 1.0], [-sa, ca, 0.0], [sb * ca, sb * sa, cb]]
    gens = (axes @ np.reshape(angular_momentum_operators(spin), (3, -1))).reshape(3, *x.shape)
    return 1j * (gens @ x - x @ gens)


def _levenberg_marquardt(residual, jacobian, x):
    """Fit residual(x) ~ 0 in least squares from x; returns (x, residual evaluations).

    jacobian(x, r) gives the Jacobian of the residual at x from r = residual(x).

    Each iteration solves (J^T J + lam diag(J^T J)) dx = -J^T r at the
    current x.  The Marquardt scaling keeps the system solvable where J is
    rank-deficient (Euler angles at beta = 0).  A trial x + dx is accepted
    only if it lowers |r|^2, which divides lam by LM_DAMPING_GROWTH; a
    rejection multiplies it.  The fit stops at a zero, after an accepted step
    with a negligible relative decrease or a negligible step, when even a
    negligible step is rejected, or at TURN_FIT_EVALUATIONS evaluations.
    """
    r = residual(x)
    f = float(r @ r)
    evaluations = 1
    damping = TURN_FIT_INITIAL_DAMPING
    while f > 0.0 and evaluations < TURN_FIT_EVALUATIONS:
        jac = jacobian(x, r)
        normal = jac.T @ jac
        rhs = -(jac.T @ r)
        scale = np.diag(normal)
        scale = np.diag(np.where(scale > 0.0, scale, 1.0))  # a column of zeros gets scale 1
        while evaluations < TURN_FIT_EVALUATIONS:
            try:
                dx = _solve(normal + damping * scale, rhs)
            except np.linalg.LinAlgError:
                damping *= LM_DAMPING_GROWTH
                continue
            small = float(np.linalg.norm(dx)) <= TURN_FIT_TOL * (float(np.linalg.norm(x)) + TURN_FIT_TOL)
            trial = x + dx
            rt = residual(trial)
            ft = float(rt @ rt)
            evaluations += 1
            if ft < f:
                break
            if small:
                return x, evaluations
            damping *= LM_DAMPING_GROWTH
        else:
            break
        # below machine epsilon the damping no longer changes the system
        damping = max(damping / LM_DAMPING_GROWTH, np.finfo(float).eps)
        negligible = small or f - ft <= TURN_FIT_TOL * f
        x, r, f = trial, rt, ft
        if negligible:
            break
    return x, evaluations


def rotation_equivalent(
    frame_a: SubspaceFrame,
    frame_b: SubspaceFrame,
    starts: int = 24,
    seed: int = 7,
) -> RotationEquivalence:
    """Test whether two frames span globally rotated copies of one subspace.

    Minimizes ||Pi_A - R Pi_B R^dag||_F over the Euler angles of
    R = R_z(alpha) R_y(beta) R_z(gamma) by `_levenberg_marquardt` on the
    exact Jacobian, from the identity and then from seeded uniform angles, up
    to `starts` runs, stopping once the residual is below
    ROTATION_EQUIVALENCE_TOL / 100.  The returned angles are any minimizer
    with the smallest residual found (a symmetric subspace has many) and
    reproduce that residual exactly; the verdict compares that residual with
    ROTATION_EQUIVALENCE_TOL.  Neither frame needs to be anticoherent; a
    caller that requires it checks each with `verify_subspace`.
    "Not equivalent" means that no start reached the gate, not that no
    rotation exists: the residual has many local minima at larger spin, and
    at the default 24 starts 6 of 10 randomly rotated copies of the (7,3,2)
    catalog frame are missed.
    """
    if frame_a.spin != frame_b.spin or frame_a.k != frame_b.k:
        raise ValueError("frames must share spin and dimension")
    check_count("seed", seed, 0)
    check_count("starts", starts, 1)
    pa = frame_a.projector()
    pb = frame_b.projector()
    spin = frame_a.spin

    def turned(angles):
        r = rotation_operator_euler(spin, *angles)
        return r @ pb @ r.conj().T

    def residual(angles):
        return (pa - turned(angles)).view(float).ravel()

    def jacobian(angles, r):
        # pa - r is the turned projector up to rounding, which the Jacobian can ignore
        return _turn_jacobian(spin, pa - r.view(complex).reshape(pa.shape), angles).view(float).reshape(3, -1).T

    rng = np.random.default_rng(seed)
    best_angles = (0.0, 0.0, 0.0)
    best_val = float(np.linalg.norm(pa - turned(best_angles)))
    for start in range(starts):
        if best_val <= ROTATION_EQUIVALENCE_TOL / 100:
            break
        x0 = np.zeros(3) if start == 0 else rng.uniform(0.0, 2 * math.pi, size=3)
        angles = tuple(float(x) for x in _levenberg_marquardt(residual, jacobian, x0)[0])
        val = float(np.linalg.norm(pa - turned(angles)))
        if val < best_val:
            best_val, best_angles = val, angles
    return RotationEquivalence(best_val, best_angles)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
