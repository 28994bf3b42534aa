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
from functools import cached_property, lru_cache

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


def _derived(cls, **fields):
    """A `cls` derived from checked values and not judged again, lest rounding carry it past a gate."""
    value = object.__new__(cls)
    for name, v in fields.items():
        object.__setattr__(value, name, _readonly(v) if isinstance(v, np.ndarray) else v)
    return value


def unit_axis(axis) -> np.ndarray:
    """`axis` as a float array, checked to be a 3-vector of finite numbers with unit norm within AXIS_TOL."""
    ax = np.asarray(axis, dtype=float)
    # hypot, unlike a dot product, cannot overflow; it runs only on finite 3-vectors
    if ax.shape != (3,) or not np.isfinite(ax).all() or abs(math.hypot(*ax) - 1.0) > AXIS_TOL:
        raise ValueError(f"axis must be a unit 3-vector of finite numbers, got {ax}")
    return ax


def _with_norm(v: np.ndarray):
    """`v` and its 2-norm; `v` is first scaled by a power of two, which is exact, only when the plain norm underflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm < 2.0 ** -511:  # the square root of the smallest normal float: the sum of squares lost bits
        exponent = math.frexp(float(np.abs(v).max(initial=0.0)))[1]
        v = np.ldexp(np.ascontiguousarray(v).view(float), -exponent).view(v.dtype)
        norm = float(np.linalg.norm(v))
    return v, norm


def direction(vector) -> np.ndarray:
    """The unit vector along a non-zero 3-vector of finite numbers."""
    v, norm = _with_norm(np.asarray(vector, dtype=float))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"axis must be a non-zero 3-vector of finite numbers whose norm is a float, got {v}")
    return unit_axis(v / norm)


def _finite_angle(angle) -> float:
    a = float(angle)
    if not math.isfinite(a) or abs(a) > 2.0 ** 60:
        raise ValueError(f"rotation angle {a} is not finite or exceeds 2**60, past which floats lie turns apart")
    return a


def check_count(name: str, value, least: int) -> int:
    """`value` as an int, checked to be an integer (a Python or numpy one, not a bool) >= least."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _as_two(x, name: str) -> int:
    """2x as an int, for x an exact integer or half-integer: an int, a float, a Fraction or a string like '7/2', not a bool."""
    try:
        two = Fraction(x) * 2
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        two = None
    if isinstance(x, bool) or two is None or two.denominator != 1:
        raise ValueError(f"{name} must be an integer or half-integer, got {x!r}")
    return int(two)


def check_orthonormal(spin: SpinLabel, states, what: str) -> None:
    """Raise unless `states` are spin-j states whose amplitude vectors are orthonormal within ORTHONORMALITY_TOL."""
    if any(s.spin != spin for s in states):
        raise ValueError(f"{what} states must all have spin {spin}")
    mat = np.array([s.amplitudes for s in states])
    dev = float(np.abs(mat @ mat.conj().T - np.eye(len(states))).max())
    if dev > ORTHONORMALITY_TOL:
        raise ValueError(f"{what} not orthonormal: deviation {dev:.3e}")


def mixture_matrices(weights: np.ndarray, states) -> np.ndarray:
    """sum_i w_i |a_i><a_i| over the pure states a_i, for each row of an (n, k) weight array, as (n, d, d).

    Each row must be a probability vector: finite, no entry below
    -NORM_TOL, summing to 1 within NORM_TOL.  The terms w_i outer(a_i, a_i*)
    are added in state order to a zero matrix, so each matrix has the bits
    a one-row call gives it.
    """
    states = list(states)
    if not states:
        raise ValueError("empty mixture")
    w = np.asarray(weights, dtype=float)
    if (w.shape[1:] != (len(states),) or not np.isfinite(w).all() or (w < -NORM_TOL).any()
            or (np.abs(w.sum(axis=1) - 1.0) > NORM_TOL).any()):
        raise ValueError("weights must be a probability vector matching the states")
    spin = states[0].spin
    if any(s.spin != spin for s in states):
        raise ValueError("mixed spins in mixture")
    m = np.zeros((len(w), spin.dimension, spin.dimension), dtype=complex)
    for wi, s in zip(w.T, states):
        m += wi[:, None, None] * np.outer(s.amplitudes, s.amplitudes.conj())
    return m


@dataclass(frozen=True, order=True)
class SpinLabel:
    """Spin quantum number j, stored exactly as the integer two_j = 2j."""

    two_j: int

    def __post_init__(self):
        object.__setattr__(self, "two_j", check_count("two_j", self.two_j, 0))

    @classmethod
    def from_j(cls, j) -> "SpinLabel":
        """Build from j >= 0 given as int, float, Fraction or a string like '7/2'."""
        two_j = _as_two(j, "j")
        if two_j < 0:
            raise ValueError(f"j must be >= 0, got {j!r}")
        return cls(two_j)

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


@dataclass(frozen=True, eq=False)
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
        """The state along a non-zero finite vector: divided by its `_with_norm` norm and not judged again."""
        amp, norm = _with_norm(np.asarray(amplitudes, dtype=complex))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"amplitudes must be a non-zero finite vector whose norm is a float, got norm {norm}")
        if amp.shape != (spin.dimension,):
            raise ValueError(f"amplitude vector has shape {amp.shape}, expected ({spin.dimension},)")
        return _derived(cls, spin=spin, amplitudes=amp / norm)

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
        return _derived(DensityMatrix, spin=self.spin, matrix=np.outer(self.amplitudes, self.amplitudes.conj()))

    def rotated(self, operator: np.ndarray) -> "PureState":
        return PureState(self.spin, operator @ self.amplitudes)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite operator on the spin-j space."""

    spin: SpinLabel
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        """The gates run in the order shape, finite, Hermitian within HERMITICITY_TOL, unit trace within
        TRACE_TOL and PSD within PSD_TOL; `eigvalsh` runs only on a matrix that passed the others."""
        m = np.asarray(self.matrix, dtype=complex)
        d = self.spin.dimension
        if m.shape != (d, d):
            raise ValueError(f"matrix has shape {m.shape}, expected ({d}, {d})")
        if not np.isfinite(m).all():
            raise ValueError("matrix not finite: it holds NaN or infinite entries")
        with np.errstate(over="ignore", invalid="ignore"):  # a sum of huge entries reads as inf, not as a warning
            herm = float(np.abs(m - m.conj().T).max())
            tr = complex(np.trace(m))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max |M - M^dag| = {herm:.3e}")
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr}, |trace - 1| = {abs(tr - 1.0):.3e}, expected at most {TRACE_TOL}")
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
        """Convex mixture of checked pure states (weights need not be sorted), built by `mixture_matrices`,
        which checks the weights and states, and not judged again."""
        states = list(states)
        matrices = mixture_matrices(np.asarray(weights, dtype=float)[None], states)
        return _derived(cls, spin=states[0].spin, matrix=matrices[0])

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    @cached_property
    def spectrum(self):
        """(eigenvalues ascending, eigenvectors) from one `np.linalg.eigh`, taken on first use; read-only."""
        return tuple(_readonly(a) for a in np.linalg.eigh(self.matrix))

    def conjugated(self, unitary: np.ndarray) -> "DensityMatrix":
        return DensityMatrix(self.spin, unitary @ self.matrix @ unitary.conj().T)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class EigenMixture:
    """The image of a density matrix: its eigenvectors above a rank tolerance, by descending weight."""

    spin: SpinLabel
    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -PSD_TOL):
            raise ValueError("negative weight in eigen-mixture")
        if np.any(np.diff(w) > 1e-14):
            raise ValueError("weights must be sorted descending")
        slack = NORM_TOL + self.spin.dimension * DEFAULT_RANK_TOL
        if abs(w.sum() - 1.0) > slack:
            raise ValueError(f"weights sum to {w.sum():.12g}, expected 1")
        check_orthonormal(self.spin, self.states, "eigenvectors")
        object.__setattr__(self, "weights", _readonly(w.copy()))
        object.__setattr__(self, "states", tuple(self.states))

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

_FACTORIALS = [1]
_FACTORIAL_CAP = 162  # entries kept between calls: k! for k <= 2j + L + 1 = 161 covers every sector up to 2j = 80


def _factorials(n: int) -> list:
    """The table of k!, one per process, grown on demand to hold k <= n."""
    for k in range(len(_FACTORIALS), n + 1):
        _FACTORIALS.append(_FACTORIALS[-1] * k)
    return _FACTORIALS


def _trim_factorials() -> None:
    """Drop the table's entries past _FACTORIAL_CAP, as `clebsch_gordan_2` and `multipole._sector` do when they
    return, so a huge call leaves no huge table behind."""
    del _FACTORIALS[_FACTORIAL_CAP:]


def _racah_cg(numerator: int, denominator: int, a: int, b: int, c: int, d: int, e: int, f: list) -> float:
    """sqrt(numerator S^2 / (denominator P^2)) with the sign of S, for the Racah sum S / P.

    The summand of z is (-1)^z / (z! (a-z)! (b-z)! (c-z)! (d+z)! (e+z)!),
    and f is the factorial table.  Every term of the sum is an integer once
    it is multiplied by the common denominator P = zmax! (a-zmin)! (b-zmin)!
    (c-zmin)! (d+zmax)! (e+zmax)!, and consecutive terms differ by a ratio of
    small integers, so S is one integer.  The square is then a single integer
    ratio, which true division rounds correctly, as the float of the reduced
    fraction would be; the result is its square root with the sign of S.
    """
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
    common = f[zmax] * f[a - zmin] * f[b - zmin] * f[c - zmin] * f[d + zmax] * f[e + zmax]
    magnitude = math.sqrt(numerator * total * total / (denominator * common * common))
    return magnitude if total > 0 else -magnitude


def clebsch_gordan_2(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    """<j1 m1; j2 m2 | j m> with all quantum numbers doubled to integers.

    Condon-Shortley phases, evaluated by `_racah_cg` in exact integer
    arithmetic from the factorial table: one correctly rounded integer true
    division and a square root.  Selection-rule violations return 0.
    """
    if tm1 + tm2 != tm:
        return 0.0
    if not (abs(tj1 - tj2) <= tj <= tj1 + tj2) or (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj + tm) % 2:
        return 0.0

    top = (tj1 + tj2 + tj) // 2 + 1
    f = _factorials(top)
    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    prefactor = (
        (tj + 1) * f[a] * f[(tj1 - tj2 + tj) // 2] * f[(tj2 - tj1 + tj) // 2]
        * f[b] * f[(tj1 + tm1) // 2] * f[c] * f[(tj2 - tm2) // 2]
        * f[(tj + tm) // 2] * f[(tj - tm) // 2]
    )
    value = _racah_cg(prefactor, f[top], a, b, c, (tj - tj2 + tm1) // 2, (tj - tj1 - tm2) // 2, f)
    _trim_factorials()
    return value


def _multipole_row(two_j: int, L: int, M: int) -> list:
    """<j m; L M | j m+M> for m = j - b, b = M, ..., 2j, with 0 <= M <= L <= 2j.

    The row's constant factors of the square, d L! (2j-L)! L! (L+M)! (L-M)!
    over (2j+L+1)!, are taken once.  Only the first half of the row is
    summed: with j1 = j = J the symmetry <j1 m1; j2 m2 | J M'> = (-1)^(j2+m2)
    sqrt((2J+1)/(2j1+1)) <J -M'; j2 m2 | j1 -m1> (Varshalovich, Moskalev and
    Khersonskii, Quantum Theory of Angular Momentum (1988), 8.4.3) gives
    entry b = (-1)^(L+M) entry 2j+M-b.  Both are the correctly rounded root
    of one exact ratio, so they agree bit for bit; + 0.0 turns a mirrored
    -0.0 into the +0.0 a zero sum gives.
    """
    f = _factorials(two_j + L + 1)
    row_numerator = (two_j + 1) * f[L] * f[two_j - L] * f[L] * f[L + M] * f[L - M]
    row_denominator = f[two_j + L + 1]
    mirror_from = (two_j + M) // 2 + 1  # the first b past the middle of the row
    half = [
        _racah_cg(row_numerator * f[b] * f[two_j - b] * f[two_j - b + M] * f[b - M], row_denominator,
                  L, b, L + M, two_j - L - b, -M, f)
        for b in range(M, mirror_from)
    ]
    sign = -1.0 if (L + M) % 2 else 1.0
    return half + [sign * half[two_j - b] + 0.0 for b in range(mirror_from, two_j + 1)]


def clebsch_gordan(j1, j2, j, m1, m2, m) -> float:
    """<j1 m1; j2 m2 | j m> for integer or half-integer arguments, with j1, j2, j >= 0."""
    tj1, tj2, tj = _as_two(j1, "j1"), _as_two(j2, "j2"), _as_two(j, "j")
    if min(tj1, tj2, tj) < 0:
        raise ValueError(f"j1, j2 and j must be >= 0, got {j1!r}, {j2!r}, {j!r}")
    return clebsch_gordan_2(tj1, _as_two(m1, "m1"), tj2, _as_two(m2, "m2"), tj, _as_two(m, "m"))


@lru_cache(maxsize=None)
def _coupling_table(two_j: int, t: int) -> np.ndarray:
    """The one coefficient of each product basis state in the stretched coupling, as a (t+1, 2j-t+1) table.

    Entry [ia, ib] is <t/2 mu; j-t/2 nu | j mu+nu> for the descending-m
    positions ia of mu and ib of nu; the coupled state it enters is the
    spin-j basis state at position ia + ib.  The stretched coupling (j =
    t/2 + (j - t/2)) has the closed form sqrt(C(t, ia) C(2j-t, ib) / C(2j,
    ia+ib)): one correctly rounded integer true division and a square root,
    as in `clebsch_gordan_2`, so the floats are the same.
    """
    if not 1 <= t <= two_j - 1:
        raise ValueError(f"bipartition size t={t} out of range for two_j={two_j}")
    return _readonly(np.array([
        [math.sqrt(math.comb(t, ia) * math.comb(two_j - t, ib) / math.comb(two_j, ia + ib))
         for ib in range(two_j - t + 1)]
        for ia in range(t + 1)
    ]))


def _embed_vector(amplitudes: np.ndarray, t: int) -> np.ndarray:
    """A spin-j vector in spin-(t/2) (x) spin-(j-t/2): entry (a, b), b fastest, is c[a,b] amplitudes[a+b],
    with c the `_coupling_table`, read through one strided view, so no dense isometry is formed."""
    c = _coupling_table(amplitudes.shape[-1] - 1, t)
    return (c * np.ndarray(c.shape, amplitudes.dtype, amplitudes, 0, amplitudes.strides * 2)).ravel()


def _embed_operator(matrices: np.ndarray, t: int, partial_transpose: bool = False) -> np.ndarray:
    """E rho E^T of each matrix in a (..., d, d) stack, or its partial transpose, as (..., da db, da db).

    Entry (a, b, a', b') of the embedded operator is (c[a,b] rho[a+b, a'+b'])
    c[a',b'], with c the `_coupling_table`: each row of the dense isometry E
    holds one coefficient, so this is E rho E^T in the order of its two
    products.  The partial transpose swaps b and b'.  Either is one C-ordered
    product of a read-only strided view of rho, scaled in place; + 0.0 turns
    a -0.0 into the +0.0 that the dense products' sums of zeros give.
    """
    m = np.ascontiguousarray(matrices)
    c = _coupling_table(m.shape[-1] - 1, t)
    da, db = c.shape
    *lead, s0, s1 = m.strides
    view = np.ndarray((*m.shape[:-2], da, db, da, db), m.dtype, m, 0, (*lead, s0, s0, s1, s1))
    view.flags.writeable = False
    factors = [view, c[:, :, None, None], c[None, None]]
    if partial_transpose:
        factors = [f.swapaxes(-3, -1) for f in factors]
    view, left, right = factors
    out = np.multiply(view, left, order="C")
    out *= right
    out += 0.0
    return out.reshape(*m.shape[:-2], da * db, da * db)


def _partial_trace(matrix: np.ndarray, t: int) -> np.ndarray:
    """The (t+1, t+1) matrix of t of the 2j qubits: the blocks (c[a,b] rho[a+b, a'+b]) c[a',b] of E rho E^T,
    gathered from one strided view of rho and summed over b in sequence, as the dense partial trace summed
    them; + 0.0 turns a sum of -0.0 into the +0.0 that sum started from."""
    c = _coupling_table(matrix.shape[-1] - 1, t).T
    db, da = c.shape
    s0, s1 = matrix.strides
    blocks = np.ndarray((db, da, da), matrix.dtype, matrix, 0, (s0 + s1, s0, s1)) * c[:, :, None]
    blocks *= c[:, None, :]
    return np.cumsum(blocks, axis=0)[-1] + 0.0


# ---------------------------------------------------------------------------
# Spectral decomposition
# ---------------------------------------------------------------------------

def eigen_mixture(rho: DensityMatrix) -> EigenMixture:
    """Eigendecomposition of rho with weights sorted descending.

    Eigenvalues below DEFAULT_RANK_TOL belong to the kernel, which is not
    kept; the retained count defines the rank.  Each eigenvector is divided
    by its `_with_norm` norm, as in `PureState.from_unnormalized`.
    """
    lam, vec = rho.spectrum
    order = np.argsort(lam)[::-1]
    kept = order[lam[order] >= DEFAULT_RANK_TOL]
    normed = (_with_norm(vec[:, i]) for i in kept)
    states = tuple(_derived(PureState, spin=rho.spin, amplitudes=v / norm) for v, norm in normed)
    return _derived(EigenMixture, spin=rho.spin, weights=lam[kept], states=states)
