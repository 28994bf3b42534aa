"""Certification of optimal quantum rotosensors and the worked state families.

Two grades of optimality for sensing an infinitesimal rotation about an
unknown, isotropically distributed axis:

  * fidelity-optimal: the averaged QFI is maximal, which for a mixed state
    requires its image to be a 1-AC subspace;
  * QCRB-optimal: additionally the QFI is axis-independent, i.e. the state
    itself is 2-AC.  Such states reach the same averaged Cramer-Rao floor
    3/(4 M j(j+1)) as the best pure states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anticoherence import ANTICOHERENCE_TOL, is_anticoherent
from .metrology import averaged_inverse_qfi_from_form, qfi_quadratic_form
from .spin_core import DensityMatrix, PureState, SpinLabel, _derived, check_count, eigen_mixture
from .subspaces import SUCCESS_THRESHOLD, SubspaceFrame, objective_g_t, spin2_plane, spin3_one_ac_triple


@dataclass(frozen=True, eq=False)
class OqrVerdict:
    image_frame: SubspaceFrame
    image_g1: float
    anticoherence_order2_violation: float
    isotropy_gap: float
    averaged_qfi: float
    qcrb: float

    @property
    def is_oqr_fidelity(self) -> bool:
        """The image is a 1-AC subspace: G_1 at the gate SUCCESS_THRESHOLD."""
        return self.image_g1 <= SUCCESS_THRESHOLD

    @property
    def is_oqr_qcrb(self) -> bool:
        """Fidelity-grade, and the state is 2-AC: its L = 1, 2 multipoles vanish within ANTICOHERENCE_TOL."""
        return self.is_oqr_fidelity and self.anticoherence_order2_violation <= ANTICOHERENCE_TOL

    def __post_init__(self):
        if self.is_oqr_qcrb:
            j = self.image_frame.spin.j
            ceiling = 4.0 * j * (j + 1.0) / 3.0
            if abs(self.averaged_qfi - ceiling) > 1e-8 * max(self.averaged_qfi, 1e-300):
                raise ValueError(
                    "QCRB-grade verdict requires the maximal averaged QFI "
                    f"{ceiling}, got {self.averaged_qfi}"
                )


def certify(rho: DensityMatrix) -> OqrVerdict:
    """Grade a state against both rotosensor conditions.

    The image frame is extracted from the spectral decomposition and tested
    for 1-anticoherence via G_1; the state itself is tested for vanishing
    L = 1, 2 multipole expectations.  Axis independence needs no gate of its
    own: a 2-AC state has K_nn <= 4 <J_n^2> = 4 j(j+1)/3 on every axis, so at
    the maximal averaged QFI Tr K / 3 = 4 j(j+1)/3 that the verdict requires,
    K is isotropic; its isotropy gap is reported.  The verdict records the
    numbers; both grades read the module gates SUCCESS_THRESHOLD and
    ANTICOHERENCE_TOL.
    """
    frame = _derived(SubspaceFrame, spin=rho.spin, basis=eigen_mixture(rho).states)
    g1 = objective_g_t(frame, 1) if rho.spin.two_j >= 1 else math.inf
    check2 = is_anticoherent(rho, 2)
    form = qfi_quadratic_form(rho)
    return OqrVerdict(
        image_frame=frame,
        image_g1=float(g1),
        anticoherence_order2_violation=check2.max_violation,
        isotropy_gap=form.isotropy_gap,
        averaged_qfi=form.averaged,
        qcrb=averaged_inverse_qfi_from_form(form),
    )


# ---------------------------------------------------------------------------
# Worked families
# ---------------------------------------------------------------------------

def spin32_ghz() -> PureState:
    """(|3/2,3/2> + |3/2,-3/2>)/sqrt(2), the unique 1-AC spin-3/2 state up to rotation."""
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1 / math.sqrt(2)
    return PureState(SpinLabel(3), amp)


def spin2_family(xi: float) -> DensityMatrix:
    """One-parameter spin-2 family interpolating plane mixtures with rho_0.

    For xi in [1/2, 1]: xi P_1 + (1-xi) P_2 over the spin-2 plane states;
    for xi in [1/5, 1/2]: ((5 xi - 1)/3)(P_1 + P_2) + ((1 - 2 xi)/3) * Id.
    Purity grows monotonically with xi; the QFI is isotropic throughout.
    """
    if not 0.2 - 1e-12 <= xi <= 1.0 + 1e-12:
        raise ValueError(f"xi must lie in [1/5, 1], got {xi}")
    frame = spin2_plane()
    p1 = frame.basis[0].density_matrix().matrix
    p2 = frame.basis[1].density_matrix().matrix
    if xi >= 0.5:
        m = xi * p1 + (1.0 - xi) * p2
    else:
        m = (5 * xi - 1) / 3 * (p1 + p2) + (1 - 2 * xi) / 3 * np.eye(5, dtype=complex)
    return DensityMatrix(SpinLabel(4), m)


def spin2_family_purity(xi: float) -> float:
    """Closed-form purity of the spin-2 family."""
    if xi >= 0.5:
        return 1.0 + 2.0 * xi * (xi - 1.0)
    return (2.0 * xi * (5.0 * xi - 2.0) + 1.0) / 3.0


def spin2_family_inverse_qfi(xi: float) -> float:
    """Closed-form axis-independent 1/QFI of the spin-2 family."""
    if xi >= 0.5:
        return 1.0 / 8.0
    if abs(1.0 - 5.0 * xi) < 1e-300:
        return math.inf
    return 3.0 * (xi + 1.0) / (16.0 * (1.0 - 5.0 * xi) ** 2)


def spin3_oqr_family(lambda1: float) -> DensityMatrix:
    """Rank-3 spin-3 rotosensors lam1 P_1 + (2/3 - lam1) P_2 + (1/3) P_3.

    Built over the three-dimensional 1-AC frame; the fixed 1/3 weight on the
    central state makes the mixture 2-AC for every lam1 in [0, 2/3], even
    though no pure state in the span is.
    """
    if not -1e-12 <= lambda1 <= 2.0 / 3.0 + 1e-12:
        raise ValueError(f"lambda1 must lie in [0, 2/3], got {lambda1}")
    frame = spin3_one_ac_triple()
    lam1 = min(max(lambda1, 0.0), 2.0 / 3.0)
    weights = np.array([lam1, 2.0 / 3.0 - lam1, 1.0 / 3.0])
    return DensityMatrix.from_mixture(weights / weights.sum(), frame.basis)


def pure_coherent_superposition_a2(a: complex, b: complex, c: complex) -> float:
    """A_2 of a |psi> = a psi_1 + b psi_2 + c psi_3 superposition (spin-3 triple).

    Evaluates (3/25)[8 - 4|a|^2|b|^2 - |c|^4 + 4 Re(a b conj(c)^2)]; the
    maximum over normalized coefficients is 24/25, so no pure state in the
    span is 2-AC.
    """
    norm = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"|a|^2 + |b|^2 + |c|^2 = {norm:.12g}, expected 1")
    return float(
        3.0 / 25.0 * (
            8.0
            - 4.0 * abs(a) ** 2 * abs(b) ** 2
            - abs(c) ** 4
            + 4.0 * (a * b * np.conj(c) ** 2).real
        )
    )


@dataclass(frozen=True)
class QcrbFloor:
    """Best possible averaged bounds at spin j with M repetitions.

    Both numbers carry the same 3/(4 j(j+1)) core: `variance_floor` is the
    M-repetition estimator-variance bound, `inverse_qfi_floor` the floor of
    the axis-averaged inverse QFI itself (M = 1 value).
    """

    variance_floor: float
    inverse_qfi_floor: float


def qcrb_floor(spin: SpinLabel, repetitions: int = 1) -> QcrbFloor:
    repetitions = check_count("repetitions", repetitions, 1)
    j = spin.j
    if j == 0:
        return QcrbFloor(math.inf, math.inf)
    core = 3.0 / (4.0 * j * (j + 1.0))
    return QcrbFloor(core / repetitions, core)
