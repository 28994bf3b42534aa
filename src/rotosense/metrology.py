"""Fidelity, quantum Fisher information, and Cramer-Rao machinery.

The QFI of a mixed state under an infinitesimal rotation about the unit
vector n,

    I(n, rho) = 2 sum_{l,m} p_lm |<psi_l| J.n |psi_m>|^2,
    p_lm = (lam_m - lam_l)^2 / (lam_m + lam_l)   (0 when both vanish),

is quadratic in n because J.n is linear in n.  The full axis dependence is
therefore carried exactly by a real symmetric 3x3 matrix K with
I(n, rho) = n^T K n.  Both sphere averages are closed forms in K: the
average of I is Tr(K)/3, and the average of 1/I is Carlson's symmetric
elliptic integral R_F(k1 k2, k1 k3, k2 k3) of the principal values of K
(B. C. Carlson, Numer. Algorithms 10, 13 (1995)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import elliprf

from .spin_core import (
    DEFAULT_RANK_TOL,
    AxisAngle,
    DensityMatrix,
    PureState,
    SpinLabel,
    _readonly,
    angular_momentum_operators,
    component_along,
    rotation_operator,
    unit_axis,
)

JENSEN_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    # eigenvalues at the numerical-noise scale are exact zeros of the input
    # by contract; windowing them out keeps the square root from amplifying
    # eigensolver noise by d(sqrt)/d(lam) -> inf at lam = 0
    lam, vec = np.linalg.eigh(m)
    floor = 1e-14 * max(float(lam[-1]), 0.0)
    lam = np.where(lam > floor, lam, 0.0)
    return (vec * np.sqrt(lam)) @ vec.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped to [0, 1].

    Evaluated as the squared trace norm of sqrt(sigma) sqrt(rho), whose
    singular values are computed stably even for rank-deficient states.
    """
    if rho.spin != sigma.spin:
        raise ValueError("fidelity requires equal spins")
    a = _psd_sqrt(sigma.matrix) @ _psd_sqrt(rho.matrix)
    val = float(np.sum(np.linalg.svd(a, compute_uv=False)) ** 2)
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# QFI
# ---------------------------------------------------------------------------

def _qfi_pair_weights(lam: np.ndarray) -> np.ndarray:
    """Matrix p_lm; pairs with lam_l + lam_m below the rank gate are dropped."""
    s = lam[:, None] + lam[None, :]
    d2 = (lam[:, None] - lam[None, :]) ** 2
    keep = s >= DEFAULT_RANK_TOL
    p = np.zeros_like(s)
    p[keep] = d2[keep] / s[keep]
    return p


def qfi(rho: DensityMatrix, axis) -> float:
    """QFI for a rotation about `axis`, from the spectral pair sum."""
    lam, vec = np.linalg.eigh(rho.matrix)
    jn = component_along(rho.spin, axis)
    m = vec.conj().T @ jn @ vec
    p = _qfi_pair_weights(lam)
    return float(2.0 * np.sum(p * np.abs(m) ** 2))


def qfi_from_moments(rho: DensityMatrix, axis) -> float:
    """Algebraically equivalent form 4 Tr(rho Jn^2) - 8 sum_im lam lam/(lam+lam) |..|^2.

    The correction sum runs over image pairs only.  Kept as an independent
    route through the same definition; tests cross-check it against `qfi`.
    """
    lam, vec = np.linalg.eigh(rho.matrix)
    jn = component_along(rho.spin, axis)
    keep = lam >= DEFAULT_RANK_TOL
    lam_im = lam[keep]
    m_im = (vec.conj().T @ jn @ vec)[np.ix_(keep, keep)]
    s = lam_im[:, None] + lam_im[None, :]
    prod = lam_im[:, None] * lam_im[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(s > 0, prod / np.where(s > 0, s, 1.0), 0.0)
    moment = float(np.trace(rho.matrix @ jn @ jn).real)
    return 4.0 * moment - 8.0 * float(np.sum(w * np.abs(m_im) ** 2))


@dataclass(frozen=True)
class QfiQuadraticForm:
    """Real symmetric K with I(n, rho) = n^T K n for every unit n."""

    spin: SpinLabel
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = np.asarray(self.matrix, dtype=float)
        if k.shape != (3, 3):
            raise ValueError("K must be 3x3")
        if np.abs(k - k.T).max() > 1e-12:
            raise ValueError("K must be symmetric")
        if np.linalg.eigvalsh(k)[0] < -1e-10:
            raise ValueError("K must be positive semidefinite")
        object.__setattr__(self, "matrix", _readonly((k + k.T).copy() / 2))

    def evaluate(self, axis) -> float:
        ax = unit_axis(axis)
        return float(ax @ self.matrix @ ax)

    def principal_values(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    @property
    def isotropy_gap(self) -> float:
        """(lam_max - lam_min)/lam_max of K; 0 for the zero form."""
        lam = self.principal_values()
        if lam[2] <= 0.0:
            return 0.0
        return float((lam[2] - lam[0]) / lam[2])

    @property
    def averaged(self) -> float:
        """Sphere average of n^T K n, exactly Tr(K)/3."""
        return float(np.trace(self.matrix)) / 3.0


def qfi_quadratic_form(rho: DensityMatrix) -> QfiQuadraticForm:
    """Assemble K from the nine J_a J_b pair sums."""
    lam, vec = np.linalg.eigh(rho.matrix)
    p = _qfi_pair_weights(lam)
    ops = angular_momentum_operators(rho.spin)
    m = np.stack([vec.conj().T @ op @ vec for op in ops])
    k = 2.0 * np.einsum("lm,alm,blm->ab", p, m, m.conj()).real
    return QfiQuadraticForm(rho.spin, (k + k.T) / 2)


def averaged_qfi(rho: DensityMatrix) -> float:
    """Sphere-averaged QFI, computed exactly (no quadrature)."""
    return qfi_quadratic_form(rho).averaged


def averaged_inverse_qfi_from_form(form: QfiQuadraticForm) -> float:
    """Sphere average of 1/(n^T K n), exactly R_F(k1 k2, k1 k3, k2 k3).

    A singular K makes the integrand non-integrable, so +inf is returned.
    """
    k1, k2, k3 = form.principal_values()
    if k1 <= 1e-12 * max(k3, 1.0):
        return math.inf
    return float(elliprf(k1 * k2, k1 * k3, k2 * k3))


def averaged_inverse_qfi(rho: DensityMatrix) -> float:
    """Sphere average of 1/I(n, rho); +inf when I vanishes along some axis."""
    return averaged_inverse_qfi_from_form(qfi_quadratic_form(rho))


# ---------------------------------------------------------------------------
# Cramer-Rao reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrbReport:
    averaged_qfi: float
    averaged_inverse_qfi: float
    isotropy_gap: float
    qcrb_lower_bound: float

    def __post_init__(self):
        if self.averaged_qfi > 0 and math.isfinite(self.averaged_inverse_qfi):
            if self.averaged_inverse_qfi < 1.0 / self.averaged_qfi - JENSEN_SLACK:
                raise ValueError(
                    "Jensen violation: averaged inverse QFI "
                    f"{self.averaged_inverse_qfi} < 1/averaged QFI {1.0 / self.averaged_qfi}"
                )


def crb_report(rho: DensityMatrix) -> CrbReport:
    form = qfi_quadratic_form(rho)
    j = rho.spin.j
    return CrbReport(
        averaged_qfi=form.averaged,
        averaged_inverse_qfi=averaged_inverse_qfi_from_form(form),
        isotropy_gap=form.isotropy_gap,
        qcrb_lower_bound=3.0 / (4.0 * j * (j + 1.0)) if j > 0 else math.inf,
    )


# ---------------------------------------------------------------------------
# Fidelity-vs-QFI consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FidelityTaylorReport:
    etas: np.ndarray
    fidelity_deficits: np.ndarray     # 1 - F(rho, R rho R^dag)
    quadratic_predictions: np.ndarray  # eta^2 I(n, rho) / 4
    max_relative_residual: float


def fidelity_taylor_check(rho: DensityMatrix, axis, etas) -> FidelityTaylorReport:
    """Compare 1 - F against the small-angle prediction eta^2 I / 4.

    Serves as a consistency test between the fidelity and QFI routes; the
    relative residual is O(eta^2) for smooth families.
    """
    ax = unit_axis(axis)
    etas = np.asarray(etas, dtype=float)
    if np.any(np.abs(etas) > 0.1):
        raise ValueError("Taylor check is meant for angles |eta| <= 0.1")
    i_n = qfi(rho, ax)
    deficits = []
    for eta in etas:
        r = rotation_operator(rho.spin, AxisAngle(ax, float(eta)))
        deficits.append(1.0 - uhlmann_fidelity(rho, rho.conjugated(r)))
    deficits = np.array(deficits)
    predictions = etas**2 * i_n / 4.0
    rel = np.zeros_like(etas)
    meaningful = predictions > 1e-30
    rel[meaningful] = np.abs(deficits[meaningful] - predictions[meaningful]) / predictions[meaningful]
    rel[~meaningful] = np.abs(deficits[~meaningful])
    return FidelityTaylorReport(etas, deficits, predictions, float(rel.max(initial=0.0)))


# ---------------------------------------------------------------------------
# Fixed-axis benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedAxisOptimum:
    max_qfi: float
    states: tuple
    achieved_qfi: float


def fixed_axis_optimum(spin: SpinLabel, weights) -> FixedAxisOptimum:
    """Fixed-axis sensitivity benchmark for a given descending spectrum.

    Returns the closed-form value 4 sum_l lam_l (j - floor((l-1)/2))^2
    together with the associated Jz^2-eigenstate frame

        |psi_l> = N_l (|j, j-floor((l-1)/2)> + (-1)^(l-1) |j, floor((l-1)/2)-j>),

    N_l = 1/2 when j is an integer and l = 2j+1, else 1/sqrt(2).  The value
    bounds I(e_z, rho) from above for every state with this spectrum (it is
    the maximum of 4 Tr(rho Jz^2) over eigenframes); `achieved_qfi` reports
    the QFI the assembled mixture actually attains, which falls below the
    bound whenever two positive weights share a +/-m level pair.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) == 0 or len(w) > spin.dimension:
        raise ValueError(f"need 1..{spin.dimension} weights")
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-10:
        raise ValueError("weights must form a probability vector")
    if np.any(np.diff(w) > 1e-12):
        raise ValueError("weights must be sorted descending")
    j = spin.j
    d = spin.dimension
    value = 0.0
    states = []
    for l in range(1, len(w) + 1):
        a = (l - 1) // 2
        value += 4.0 * w[l - 1] * (j - a) ** 2
        amp = np.zeros(d, dtype=complex)
        hi = a              # index of m = j - a
        lo = spin.two_j - a  # index of m = a - j
        if hi == lo:
            amp[hi] = 1.0
        else:
            amp[hi] = 1.0 / math.sqrt(2)
            amp[lo] = (-1.0) ** (l - 1) / math.sqrt(2)
        states.append(PureState(spin, amp))
    positive = w > 0
    if positive.any():
        assembled = DensityMatrix.from_mixture(
            w[positive] / w[positive].sum(), [s for s, p in zip(states, positive) if p]
        )
        achieved = qfi(assembled, np.array([0.0, 0.0, 1.0]))
    else:
        achieved = 0.0
    return FixedAxisOptimum(float(value), tuple(states), float(achieved))
