"""Spin-j data model and exact angular-momentum algebra.

Everything downstream (multipole operators, QFI, anticoherence, subspace
searches, entanglement) consumes the types and operators defined here.
Half-integer spins are stored exactly as the integer 2j, amplitudes are
ordered by descending magnetic quantum number m = j, j-1, ..., -j, and
matrix exponentials go through Hermitian eigendecompositions so rotation
operators are unitary to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Validation gates for the data model.  These are contracts, not knobs.
NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10
AXIS_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def unit_axis(axis) -> np.ndarray:
    """`axis` as a float array, checked to be a 3-vector of finite numbers with unit norm within AXIS_TOL."""
    ax = np.asarray(axis, dtype=float)
    # hypot, unlike a dot product, cannot overflow; it runs only on finite 3-vectors
    if ax.shape != (3,) or not np.isfinite(ax).all() or abs(math.hypot(*ax) - 1.0) > AXIS_TOL:
        raise ValueError(f"axis must be a unit 3-vector of finite numbers, got {ax}")
    return ax


def direction(vector) -> np.ndarray:
    """The unit vector along a non-zero 3-vector of finite numbers."""
    v = np.asarray(vector, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"axis must be a non-zero 3-vector of finite numbers whose norm is a float, got {v}")
    return unit_axis(v / norm)


def _finite_angle(angle) -> float:
    a = float(angle)
    if not math.isfinite(a) or abs(a) > 2.0 ** 60:
        raise ValueError(f"rotation angle {a} is not finite or exceeds 2**60, past which floats lie turns apart")
    return a


def check_orthonormal(spin: SpinLabel, states, what: str) -> None:
    """Raise unless `states` are spin-j states whose amplitude vectors are orthonormal within ORTHONORMALITY_TOL."""
    if any(s.spin != spin for s in states):
        raise ValueError(f"{what} states must all have spin {spin}")
    mat = np.array([s.amplitudes for s in states])
    dev = float(np.abs(mat @ mat.conj().T - np.eye(len(states))).max())
    if dev > ORTHONORMALITY_TOL:
        raise ValueError(f"{what} not orthonormal: deviation {dev:.3e}")


@dataclass(frozen=True, order=True)
class SpinLabel:
    """Spin quantum number j, stored exactly as the integer two_j = 2j."""

    two_j: int

    def __post_init__(self):
        if (not isinstance(self.two_j, (int, np.integer)) or isinstance(self.two_j, bool)
                or self.two_j < 0):
            raise ValueError(f"two_j must be a non-negative integer, got {self.two_j!r}")
        object.__setattr__(self, "two_j", int(self.two_j))

    @classmethod
    def from_j(cls, j) -> "SpinLabel":
        """Build from j given as int, float, Fraction or a string like '7/2'."""
        if isinstance(j, str):
            j = Fraction(j)
        two_j = Fraction(j) * 2
        if two_j.denominator != 1:
            raise ValueError(f"j must be integer or half-integer, got {j!r}")
        return cls(int(two_j))

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def dimension(self) -> int:
        return self.two_j + 1

    @property
    def half_integer(self) -> bool:
        return self.two_j % 2 == 1

    @property
    def qubit_count(self) -> int:
        """N = 2j, the number of spin-1/2 constituents of the symmetric realization."""
        return self.two_j

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in storage order j, j-1, ..., -j."""
        return np.array([(self.two_j - 2 * i) / 2 for i in range(self.dimension)])

    def __str__(self):
        return f"{self.two_j // 2}" if self.two_j % 2 == 0 else f"{self.two_j}/2"


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector in the |j,m> basis, m descending."""

    spin: SpinLabel
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.spin.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, expected ({self.spin.dimension},)"
            )
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes not finite: the vector holds NaN or infinite entries")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _readonly(amp.copy()))

    @classmethod
    def from_unnormalized(cls, spin: SpinLabel, amplitudes) -> "PureState":
        amp = np.asarray(amplitudes, dtype=complex)
        return cls(spin, amp / np.linalg.norm(amp))

    @classmethod
    def basis_state(cls, spin: SpinLabel, two_m: int) -> "PureState":
        """|j,m> with m given as the exact integer 2m."""
        if (spin.two_j - two_m) % 2 != 0 or abs(two_m) > spin.two_j:
            raise ValueError(f"invalid two_m={two_m} for spin {spin}")
        amp = np.zeros(spin.dimension, dtype=complex)
        amp[(spin.two_j - two_m) // 2] = 1.0
        return cls(spin, amp)

    def overlap(self, other: "PureState") -> complex:
        if other.spin != self.spin:
            raise ValueError("spin mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.spin, np.outer(self.amplitudes, self.amplitudes.conj()))

    def rotated(self, operator: np.ndarray) -> "PureState":
        return PureState(self.spin, operator @ self.amplitudes)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator on the spin-j space."""

    spin: SpinLabel
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.spin.dimension
        if m.shape != (d, d):
            raise ValueError(f"matrix has shape {m.shape}, expected ({d}, {d})")
        if not np.isfinite(m).all():
            raise ValueError("matrix not finite: it holds NaN or infinite entries")
        herm = float(np.abs(m - m.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max |M - M^dag| = {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr:.12g}, expected 1 within {TRACE_TOL}")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -PSD_TOL:
            raise ValueError(f"matrix not PSD: smallest eigenvalue {lam_min:.3e}")
        object.__setattr__(self, "matrix", _readonly(m.copy()))

    @classmethod
    def maximally_mixed(cls, spin: SpinLabel) -> "DensityMatrix":
        d = spin.dimension
        return cls(spin, np.eye(d, dtype=complex) / d)

    @classmethod
    def from_mixture(cls, weights, states) -> "DensityMatrix":
        """Convex mixture of pure states (weights need not be sorted)."""
        states = list(states)
        if not states:
            raise ValueError("empty mixture")
        spin = states[0].spin
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(states),) or np.any(w < -NORM_TOL) or abs(w.sum() - 1.0) > NORM_TOL:
            raise ValueError("weights must be a probability vector matching the states")
        m = np.zeros((spin.dimension, spin.dimension), dtype=complex)
        for wi, s in zip(w, states):
            if s.spin != spin:
                raise ValueError("mixed spins in mixture")
            m += wi * np.outer(s.amplitudes, s.amplitudes.conj())
        return cls(spin, m)

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def conjugated(self, unitary: np.ndarray) -> "DensityMatrix":
        return DensityMatrix(self.spin, unitary @ self.matrix @ unitary.conj().T)


@dataclass(frozen=True)
class AxisAngle:
    """Rotation by `angle` radians about the unit vector `axis`."""

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "axis", _readonly(unit_axis(self.axis).copy()))
        object.__setattr__(self, "angle", _finite_angle(self.angle))

    @classmethod
    def from_vector(cls, axis, angle: float) -> "AxisAngle":
        return cls(direction(axis), angle)

    def so3_matrix(self) -> np.ndarray:
        """The 3x3 rotation matrix acting on axis vectors (Rodrigues form)."""
        n = self.axis
        kx = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
        return np.eye(3) + math.sin(self.angle) * kx + (1 - math.cos(self.angle)) * (kx @ kx)


@dataclass(frozen=True)
class EigenMixture:
    """Spectral decomposition of a density matrix, split at a rank tolerance.

    `weights`/`states` hold the image (descending weights); `kernel_states`
    complete the orthonormal eigenbasis.
    """

    spin: SpinLabel
    weights: np.ndarray
    states: tuple
    kernel_states: tuple = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -PSD_TOL):
            raise ValueError("negative weight in eigen-mixture")
        if np.any(np.diff(w) > 1e-14):
            raise ValueError("weights must be sorted descending")
        slack = NORM_TOL + self.spin.dimension * DEFAULT_RANK_TOL
        if abs(w.sum() - 1.0) > slack:
            raise ValueError(f"weights sum to {w.sum():.12g}, expected 1")
        check_orthonormal(self.spin, list(self.states) + list(self.kernel_states), "eigenvectors")
        object.__setattr__(self, "weights", _readonly(w.copy()))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "kernel_states", tuple(self.kernel_states))

    @property
    def rank(self) -> int:
        return len(self.states)

    def image_projector(self) -> np.ndarray:
        mat = np.array([s.amplitudes for s in self.states])
        return mat.conj().T @ mat if len(mat) else np.zeros((self.spin.dimension,) * 2, complex)

    def kernel_projector(self) -> np.ndarray:
        return np.eye(self.spin.dimension, dtype=complex) - self.image_projector()

    def reconstruct(self) -> DensityMatrix:
        w = self.weights / self.weights.sum()
        return DensityMatrix.from_mixture(w, self.states)


# ---------------------------------------------------------------------------
# Angular momentum operators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _jops(two_j: int):
    j = two_j / 2
    d = two_j + 1
    m = np.array([(two_j - 2 * i) / 2 for i in range(d)])
    jz = np.diag(m.astype(complex))
    jp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        # raising |j, m_i> -> |j, m_i + 1>, the row above in descending order
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    return tuple(_readonly(a) for a in (jx, jy, jz))


def angular_momentum_operators(spin: SpinLabel):
    """(Jx, Jy, Jz) in the |j,m> basis with m descending."""
    return _jops(spin.two_j)


def ladder_operators(spin: SpinLabel):
    """(J+, J-)."""
    jx, jy, _ = _jops(spin.two_j)
    return jx + 1j * jy, jx - 1j * jy


def component_along(spin: SpinLabel, axis) -> np.ndarray:
    """J_n = n . J for a unit vector n."""
    ax = unit_axis(axis)
    jx, jy, jz = _jops(spin.two_j)
    return ax[0] * jx + ax[1] * jy + ax[2] * jz


def _exp_from_eigh(lam: np.ndarray, vec: np.ndarray, angle: float) -> np.ndarray:
    return (vec * np.exp(-1j * angle * lam)) @ vec.conj().T


def rotation_operator(spin: SpinLabel, rotation: AxisAngle) -> np.ndarray:
    """exp(-i eta J.n) via eigendecomposition of the Hermitian generator."""
    lam, vec = np.linalg.eigh(component_along(spin, rotation.axis))
    return _exp_from_eigh(lam, vec, rotation.angle)


@lru_cache(maxsize=None)
def _euler_eigh(two_j: int):
    """Eigendecompositions of Jz and Jy, computed as `rotation_operator` computes them."""
    spin = SpinLabel(two_j)
    return tuple(tuple(_readonly(a) for a in np.linalg.eigh(component_along(spin, axis)))
                 for axis in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])))


def rotation_operator_euler(spin: SpinLabel, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Active z-y-z rotation R_z(alpha) R_y(beta) R_z(gamma)."""
    (lz, vz), (ly, vy) = _euler_eigh(spin.two_j)
    return (_exp_from_eigh(lz, vz, _finite_angle(alpha)) @ _exp_from_eigh(ly, vy, _finite_angle(beta))
            @ _exp_from_eigh(lz, vz, _finite_angle(gamma)))


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------

def clebsch_gordan_2(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    """<j1 m1; j2 m2 | j m> with all quantum numbers doubled to integers.

    Condon-Shortley phases, evaluated from the Racah sum in exact integer
    arithmetic.  Every term of the sum is an integer once it is multiplied by
    the common denominator P = zmax! (a-zmin)! (b-zmin)! (c-zmin)! (d+zmax)!
    (e+zmax)!, and consecutive terms differ by a ratio of small integers, so
    the sum S is one integer.  The square prefactor * S^2 / P^2 is then a
    single integer ratio, which true division rounds correctly, as the float
    of the reduced fraction would be; the result is that ratio's square root
    with the sign of S.  Selection-rule violations return 0.
    """
    if tm1 + tm2 != tm:
        return 0.0
    if not (abs(tj1 - tj2) <= tj <= tj1 + tj2) or (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj + tm) % 2:
        return 0.0

    f = math.factorial
    # the summand of z is (-1)^z / (z! (a-z)! (b-z)! (c-z)! (d+z)! (e+z)!)
    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    d = (tj - tj2 + tm1) // 2
    e = (tj - tj1 - tm2) // 2
    zmin = max(0, -d, -e)
    zmax = min(a, b, c)
    span = zmax - zmin
    # term = P |summand of z|, an integer; at zmin, zmax!/zmin! (d+zmax)!/(d+zmin)! (e+zmax)!/(e+zmin)!
    term = math.perm(zmax, span) * math.perm(d + zmax, span) * math.perm(e + zmax, span)
    total = 0
    for z in range(zmin, zmax + 1):
        total += -term if z % 2 else term
        term = term * (a - z) * (b - z) * (c - z) // ((z + 1) * (d + z + 1) * (e + z + 1))
    if total == 0:
        return 0.0
    common = f(zmax) * f(a - zmin) * f(b - zmin) * f(c - zmin) * f(d + zmax) * f(e + zmax)
    prefactor = (
        (tj + 1) * f(a) * f((tj1 - tj2 + tj) // 2) * f((tj2 - tj1 + tj) // 2)
        * f(b) * f((tj1 + tm1) // 2) * f(c) * f((tj2 - tm2) // 2)
        * f((tj + tm) // 2) * f((tj - tm) // 2)
    )
    magnitude = math.sqrt(prefactor * total * total / (f((tj1 + tj2 + tj) // 2 + 1) * common * common))
    return magnitude if total > 0 else -magnitude


def _as_two(x, name: str) -> int:
    tx = Fraction(x).limit_denominator(4) * 2
    if tx.denominator != 1 or abs(float(tx) - 2 * float(x)) > 1e-9:
        raise ValueError(f"{name}={x!r} is not an integer or half-integer")
    return int(tx)


def clebsch_gordan(j1, j2, j, m1, m2, m) -> float:
    """<j1 m1; j2 m2 | j m> for half-integer arguments."""
    return clebsch_gordan_2(
        _as_two(j1, "j1"), _as_two(m1, "m1"),
        _as_two(j2, "j2"), _as_two(m2, "m2"),
        _as_two(j, "j"), _as_two(m, "m"),
    )


@lru_cache(maxsize=None)
def embedding_isometry(two_j: int, t: int) -> np.ndarray:
    """Isometry from the spin-j space into spin-(t/2) (x) spin-(j - t/2).

    Row index runs over product-basis pairs (mu, nu) with both factors in
    descending-m order (nu fastest); column index is the spin-j basis.
    Columns are the Clebsch-Gordan coupled states, so E^dag E = 1.  The
    coupling is stretched (j = t/2 + (j - t/2)), where the coefficient has
    the closed form <t/2 mu; j-t/2 nu | j mu+nu> = sqrt(C(t, ia) C(2j-t, ib)
    / C(2j, ia+ib)) with ia, ib the descending-m positions of mu and nu: one
    correctly rounded integer true division and a square root, as in
    `clebsch_gordan_2`, so the floats are the same.
    """
    if not 1 <= t <= two_j - 1:
        raise ValueError(f"bipartition size t={t} out of range for two_j={two_j}")
    da, db = t + 1, two_j - t + 1
    e = np.zeros((da * db, two_j + 1))
    for ia in range(da):
        for ib in range(db):
            e[ia * db + ib, ia + ib] = math.sqrt(
                math.comb(t, ia) * math.comb(two_j - t, ib) / math.comb(two_j, ia + ib))
    return _readonly(e)


# ---------------------------------------------------------------------------
# Spectral decomposition
# ---------------------------------------------------------------------------

def eigen_mixture(rho: DensityMatrix) -> EigenMixture:
    """Eigendecomposition of rho with weights sorted descending.

    Eigenvalues below DEFAULT_RANK_TOL are reported as kernel; the retained
    count defines the rank.
    """
    lam, vec = np.linalg.eigh(rho.matrix)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vec = vec[:, order]
    keep = lam >= DEFAULT_RANK_TOL
    states = tuple(PureState.from_unnormalized(rho.spin, vec[:, i]) for i in range(len(lam)) if keep[i])
    kernel = tuple(PureState.from_unnormalized(rho.spin, vec[:, i]) for i in range(len(lam)) if not keep[i])
    return EigenMixture(rho.spin, lam[keep], states, kernel)
