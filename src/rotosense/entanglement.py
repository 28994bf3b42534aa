"""Negativity of spin states across symmetric-qubit bipartitions.

A spin-j state is a symmetric state of N = 2j qubits.  For the bipartition
t | N-t it embeds isometrically into spin-(t/2) (x) spin-(j-t/2); the
negativity is the absolute sum of the negative eigenvalues of the partial
transpose taken there.  Mixtures supported on a t-AC subspace saturate the
symmetric-state maximum N_t' = t'/2 for every t' <= t, with a partial
transpose whose spectrum splits into four fixed families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .spin_core import DensityMatrix, PureState, SpinLabel, embedding_isometry
from .subspaces import SubspaceFrame, verify_subspace

NEGATIVITY_TOL = 1e-9


@dataclass(frozen=True)
class Bipartition:
    """t qubits versus the remaining N - t of the symmetric realization."""

    t: int
    n_total: int

    def __post_init__(self):
        if not 1 <= self.t <= self.n_total - 1:
            raise ValueError(f"need 1 <= t <= N-1, got t={self.t}, N={self.n_total}")

    @classmethod
    def of(cls, spin: SpinLabel, t: int) -> "Bipartition":
        return cls(t, spin.qubit_count)

    @property
    def dims(self) -> Tuple[int, int]:
        return self.t + 1, self.n_total - self.t + 1


def embed_bipartite(obj: Union[PureState, DensityMatrix], bipartition: Bipartition) -> np.ndarray:
    """Image of a state in the spin-(t/2) (x) spin-(j-t/2) product space.

    Pure states map to product-basis amplitude vectors, density matrices to
    operators; the embedding is an isometry, so traces and inner products
    are preserved.
    """
    spin = obj.spin
    if spin.qubit_count != bipartition.n_total:
        raise ValueError("bipartition does not match the state's qubit count")
    e = embedding_isometry(spin.two_j, bipartition.t)
    if isinstance(obj, PureState):
        return e @ obj.amplitudes
    return e @ obj.matrix @ e.T


def _partial_transpose_spectrum(rho: DensityMatrix, bipartition: Bipartition) -> np.ndarray:
    da, db = bipartition.dims
    big = embed_bipartite(rho, bipartition).reshape(da, db, da, db)
    pt = np.einsum("abcd->adcb", big).reshape(da * db, da * db)
    return np.linalg.eigvalsh(pt)


@dataclass(frozen=True)
class NegativityReport:
    bipartition: Bipartition
    spectrum: np.ndarray

    @property
    def negativity(self) -> float:
        """Sum of (|Lambda| - Lambda)/2 over the partial-transpose spectrum."""
        return float(np.sum((np.abs(self.spectrum) - self.spectrum) / 2))

    @property
    def negative_eigenvalues(self) -> np.ndarray:
        return self.spectrum[self.spectrum < 0]


def negativity(rho: DensityMatrix, bipartition: Bipartition) -> NegativityReport:
    """The partial-transpose spectrum of rho across the bipartition, and its negativity."""
    return NegativityReport(bipartition, _partial_transpose_spectrum(rho, bipartition))


def schmidt_spectrum(psi: PureState, bipartition: Bipartition) -> np.ndarray:
    """Schmidt coefficients (descending) for the t | N-t split, t <= N-t."""
    if bipartition.t > bipartition.n_total - bipartition.t:
        raise ValueError("convention requires t <= N - t")
    da, db = bipartition.dims
    amp = embed_bipartite(psi, bipartition).reshape(da, db)
    return np.linalg.svd(amp, compute_uv=False)


# ---------------------------------------------------------------------------
# Protected-negativity property suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtectedNegativityReport:
    frame: SubspaceFrame
    order_t: int
    weight_samples: int
    max_negativity_deviation: float      # worst |N_t' - t'/2| over samples, t' <= t
    schmidt_orthonormality_deviation: float
    max_spectrum_deviation: float        # worst gap to the predicted order-t spectrum; inf on a size mismatch

    @property
    def multiplicities_ok(self) -> bool:
        return self.max_spectrum_deviation <= NEGATIVITY_TOL

    @property
    def all_pass(self) -> bool:
        return (self.max_negativity_deviation <= NEGATIVITY_TOL
                and self.schmidt_orthonormality_deviation <= NEGATIVITY_TOL and self.multiplicities_ok)


def _predicted_pt_spectrum(weights: np.ndarray, k: int, t: int, n: int) -> np.ndarray:
    """Spectrum of the partial transpose for a mixture over a t-AC frame.

    Per weight lam_m: +lam_m/(t+1) with multiplicity (t+1) + t(t+1)/2 and
    -lam_m/(t+1) with multiplicity t(t+1)/2; plus h(t+1) zeros,
    h = 2j - k(t+1) - t + 1.
    """
    h = n - k * (t + 1) - t + 1
    vals = []
    plus_mult = (t + 1) + t * (t + 1) // 2
    minus_mult = t * (t + 1) // 2
    for lam in weights:
        vals.extend([lam / (t + 1)] * plus_mult)
        vals.extend([-lam / (t + 1)] * minus_mult)
    vals.extend([0.0] * (h * (t + 1)))
    return np.sort(np.array(vals))


def protected_negativity_suite(
    frame: SubspaceFrame,
    t: int,
    weight_samples: int = 20,
    seed: int = 0,
) -> ProtectedNegativityReport:
    """Check the protected-negativity properties of a verified t-AC frame.

    For random mixtures over the frame: N_t' = t'/2 for every t' <= t; the
    B-side Schmidt vectors of all frame states (taken against the fixed
    computational basis of the small factor, legitimate because the Schmidt
    coefficients are fully degenerate) are jointly orthonormal; and the
    partial-transpose spectrum at order t matches the four predicted
    eigenvalue families exactly.
    """
    if not verify_subspace(frame, t).verified:
        raise ValueError(f"frame does not certify at order t={t}")
    spin = frame.spin
    n = spin.qubit_count
    k = frame.k
    rng = np.random.default_rng(seed)

    # joint orthonormality of the B-side Schmidt vectors (scaled amplitude rows)
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
                predicted = _predicted_pt_spectrum(w, k, t, n)
                gap = (np.abs(predicted - np.sort(report.spectrum)).max()
                       if len(predicted) == len(report.spectrum) else np.inf)
                spectrum_dev = max(spectrum_dev, float(gap))
    return ProtectedNegativityReport(frame, t, weight_samples, worst, schmidt_dev, spectrum_dev)
