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

from .spin_core import (DensityMatrix, PureState, SpinLabel, _embed_operator, _embed_vector,
                        check_count, check_density_matrices, mixture_matrices)
from .subspaces import SubspaceFrame, verify_subspace

NEGATIVITY_TOL = 1e-9


@dataclass(frozen=True)
class Bipartition:
    """t qubits versus the remaining N - t of the symmetric realization."""

    t: int
    n_total: int

    def __post_init__(self):
        object.__setattr__(self, "t", check_count("t", self.t, 1))
        object.__setattr__(self, "n_total", check_count("n_total", self.n_total, 1))
        if not self.t <= self.n_total - 1:
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
    are preserved.  The images are gathered from the state by
    `spin_core._embed_vector` and `spin_core._embed_operator`, so no dense
    isometry is formed.
    """
    _check_qubit_count(obj.spin, bipartition)
    if isinstance(obj, PureState):
        return _embed_vector(obj.amplitudes, bipartition.t)
    return _embed_operator(obj.matrix, bipartition.t)


def _check_qubit_count(spin: SpinLabel, bipartition: Bipartition) -> None:
    if spin.qubit_count != bipartition.n_total:
        raise ValueError("bipartition does not match the state's qubit count")


def _partial_transpose_spectrum(matrices: np.ndarray, bipartition: Bipartition) -> np.ndarray:
    """Spectrum of the partial transpose of one embedded operator, or of each in a (..., d, d) stack.

    The partial transpose is gathered from rho by `spin_core._embed_operator`;
    `eigvalsh` is the only dense step.
    """
    return np.linalg.eigvalsh(_embed_operator(matrices, bipartition.t, partial_transpose=True))


def _negativity_of(spectra: np.ndarray) -> np.ndarray:
    """Sum of (|Lambda| - Lambda)/2 over the last axis of one spectrum or a stack of them."""
    return np.sum((np.abs(spectra) - spectra) / 2, axis=-1)


@dataclass(frozen=True, eq=False)
class NegativityReport:
    bipartition: Bipartition
    spectrum: np.ndarray

    @property
    def negativity(self) -> float:
        """Sum of (|Lambda| - Lambda)/2 over the partial-transpose spectrum."""
        return float(_negativity_of(self.spectrum))

    @property
    def negative_eigenvalues(self) -> np.ndarray:
        return self.spectrum[self.spectrum < 0]


def negativity(rho: DensityMatrix, bipartition: Bipartition) -> NegativityReport:
    """The partial-transpose spectrum of rho across the bipartition, and its negativity."""
    _check_qubit_count(rho.spin, bipartition)
    return NegativityReport(bipartition, _partial_transpose_spectrum(rho.matrix, bipartition))


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

@dataclass(frozen=True, eq=False)
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
    """Spectrum of the partial transpose for a mixture over a t-AC frame, one row per weight row.

    Per weight lam_m: +lam_m/(t+1) with multiplicity (t+1) + t(t+1)/2 and
    -lam_m/(t+1) with multiplicity t(t+1)/2; plus h(t+1) zeros,
    h = 2j - k(t+1) - t + 1.
    """
    h = n - k * (t + 1) - t + 1
    scaled = weights / (t + 1)
    zeros = np.zeros((*weights.shape[:-1], max(h, 0) * (t + 1)))
    return np.sort(np.concatenate([np.repeat(scaled, (t + 1) + t * (t + 1) // 2, axis=-1),
                                   np.repeat(-scaled, t * (t + 1) // 2, axis=-1), zeros], axis=-1))


def protected_negativity_suite(
    frame: SubspaceFrame,
    t: int,
    weight_samples: int = 20,
    seed: int = 0,
) -> ProtectedNegativityReport:
    """Check the protected-negativity properties of a verified t-AC frame.

    For `weight_samples` random mixtures over the frame: N_t' = t'/2 for
    every t' <= t; the B-side Schmidt vectors of all frame states (taken
    against the fixed computational basis of the small factor, legitimate
    because the Schmidt coefficients are fully degenerate) are jointly
    orthonormal; and the partial-transpose spectrum at order t matches the
    four predicted eigenvalue families exactly.  The Dirichlet weights are
    drawn from `seed` first, all rows in one call, which draws the same
    stream as one call per row; all mixtures are built as one stack by
    `spin_core.mixture_matrices` and checked by
    `spin_core.check_density_matrices`, the builder and check of
    `DensityMatrix.from_mixture`, and their spectra are taken together, one
    stack per order t'.
    """
    check_count("weight_samples", weight_samples, 1)
    check_count("seed", seed, 0)
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

    weights = rng.dirichlet(np.ones(k), size=weight_samples) if k > 1 else np.ones((weight_samples, 1))
    states = mixture_matrices(weights, frame.basis)
    check_density_matrices(states, spin.dimension)
    worst = 0.0
    for tp in range(1, t + 1):
        spectra = _partial_transpose_spectrum(states, Bipartition.of(spin, tp))
        worst = max(worst, float(np.abs(_negativity_of(spectra) - tp / 2.0).max()))
    # spectra now holds order t
    predicted = _predicted_pt_spectrum(weights, k, t, n)
    spectrum_dev = (float(np.abs(predicted - np.sort(spectra)).max())
                    if predicted.shape == spectra.shape else np.inf)
    return ProtectedNegativityReport(frame, t, weight_samples, worst, schmidt_dev, spectrum_dev)
