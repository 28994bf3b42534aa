"""Value types: how they compare and hash, and which values are checked where they enter.

Array-holding values compare by identity; the others compare by value.  A value that the library
derives from checked values (`PureState.density_matrix`, `PureState.from_unnormalized`,
`DensityMatrix.from_mixture` and the protected-negativity suite's samples, `reduced_state`,
`eigen_mixture`, `expand` and the image frame of `certify`) is not checked again: it keeps the bits the
checked constructor would give it, and rounding cannot carry it past a gate that its source passed.
"""

import copy
import dataclasses
import importlib
import json
import pkgutil
import re

import numpy as np
import pytest

import rotosense
from rotosense.anticoherence import anticoherence_report, is_anticoherent, reduced_state
from rotosense.cli import main
from rotosense.entanglement import Bipartition, negativity, protected_negativity_suite
from rotosense.io import RunManifest, SubspaceFileContent, load_state, save_state
from rotosense.metrology import crb_report, fidelity_taylor_check, fixed_axis_optimum, qfi_quadratic_form
from rotosense.multipole import MultipoleExpansion, MultipoleIndex, expand
from rotosense.oqr import certify, qcrb_floor, spin2_family
from rotosense.spin_core import (
    DEFAULT_RANK_TOL,
    AxisAngle,
    DensityMatrix,
    EigenMixture,
    PureState,
    SpinLabel,
    _partial_trace,
    eigen_mixture,
    mixture_matrices,
)
from rotosense.subspaces import (
    KmaxScan,
    KmaxScanEntry,
    RestartRecord,
    RotationEquivalence,
    SearchConfig,
    SearchResult,
    SubspaceFrame,
    catalog,
    spin2_plane,
    verify_subspace,
)
from conftest import random_density

# one builder per dataclass of the package; each call builds a fresh value equal to the last
BUILDERS = {
    "SpinLabel": lambda: SpinLabel(4),
    "PureState": lambda: PureState.basis_state(SpinLabel(4), 2),
    "DensityMatrix": lambda: spin2_family(0.7),
    "AxisAngle": lambda: AxisAngle([0.0, 0.0, 1.0], 0.3),
    "EigenMixture": lambda: eigen_mixture(spin2_family(0.7)),
    "MultipoleIndex": lambda: MultipoleIndex(2, -1),
    "MultipoleExpansion": lambda: expand(spin2_family(0.7)),
    "QfiQuadraticForm": lambda: qfi_quadratic_form(spin2_family(0.7)),
    "CrbReport": lambda: crb_report(spin2_family(0.7)),
    "FidelityTaylorReport": lambda: fidelity_taylor_check(spin2_family(0.7), [0.0, 0.0, 1.0], [0.01, 0.02]),
    "FixedAxisOptimum": lambda: fixed_axis_optimum(SpinLabel(4), [0.6, 0.4]),
    "AnticoherenceCheck": lambda: is_anticoherent(spin2_family(0.7), 2),
    "AnticoherenceReport": lambda: anticoherence_report(spin2_family(0.7)),
    "SubspaceFrame": spin2_plane,
    "SubspaceCertificate": lambda: verify_subspace(spin2_plane(), 1),
    "SearchConfig": lambda: SearchConfig(seed=3, restarts=2),
    "RestartRecord": lambda: RestartRecord(0, 1e-20, 5, "gate", 7),
    "SearchResult": lambda: SearchResult(verify_subspace(spin2_plane(), 1),
                                         (RestartRecord(0, 1e-20, 5, "gate", 7),), SearchConfig(seed=3)),
    "KmaxScanEntry": lambda: KmaxScanEntry(2, 1e-20),
    "KmaxScan": lambda: KmaxScan(SpinLabel(4), 1, (KmaxScanEntry(1, 0.0), KmaxScanEntry(2, 1e-20))),
    "RotationEquivalence": lambda: RotationEquivalence(1e-14, (0.1, 0.2, 0.3)),
    "CatalogEntry": lambda: catalog()["(2,2,1)"],
    "Bipartition": lambda: Bipartition(1, 4),
    "NegativityReport": lambda: negativity(spin2_family(0.7), Bipartition(1, 4)),
    "ProtectedNegativityReport": lambda: protected_negativity_suite(spin2_plane(), 1, 2),
    "OqrVerdict": lambda: certify(spin2_family(0.7)),
    "QcrbFloor": lambda: qcrb_floor(SpinLabel(4)),
    "SubspaceFileContent": lambda: SubspaceFileContent(spin2_plane(), 1, 0.0, 7),
    "RunManifest": lambda: RunManifest("certify", {"state": "rho.json"}, 7),
}

# the types that hold arrays, directly or through the states of a frame
IDENTITY = {"PureState", "DensityMatrix", "AxisAngle", "EigenMixture", "SubspaceFrame", "SubspaceCertificate",
            "SearchResult", "CatalogEntry", "QfiQuadraticForm", "FidelityTaylorReport", "FixedAxisOptimum",
            "NegativityReport", "ProtectedNegativityReport", "OqrVerdict", "SubspaceFileContent"}
# two value types hold dicts, and RunManifest is mutable: none of them hashes
UNHASHABLE = {"AnticoherenceReport", "MultipoleExpansion", "RunManifest"}


def package_dataclasses() -> dict:
    found = {}
    for info in pkgutil.iter_modules(rotosense.__path__):
        module = importlib.import_module(f"rotosense.{info.name}")
        found.update({name: obj for name, obj in vars(module).items()
                      if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__})
    return found


def test_every_dataclass_has_a_builder():
    assert set(package_dataclasses()) == set(BUILDERS)
    assert len(IDENTITY) == 15 and IDENTITY <= set(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_comparison_of_equal_values_never_raises(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert type(a).__name__ == name and a is not b
    assert isinstance(a == b, bool) and isinstance(a != b, bool)
    assert (a == b) is not (a != b)
    assert isinstance(a in [b], bool)
    assert a == a and a in [a]


@pytest.mark.parametrize("name", sorted(IDENTITY))
def test_array_holding_types_compare_and_hash_by_identity(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a != b and a not in [b] and a != copy.copy(a)
    assert hash(a) == object.__hash__(a)
    assert {a: 1}[a] == 1


@pytest.mark.parametrize("name", sorted(set(BUILDERS) - IDENTITY))
def test_other_types_keep_value_equality(name):
    a = BUILDERS[name]()
    twin = copy.copy(a)
    assert twin is not a and twin == a and a in [twin] and not twin != a
    if name != "RunManifest":  # a manifest records when it was made
        assert BUILDERS[name]() == a
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(twin) == hash(a)


# ---------------------------------------------------------------------------
# Values derived from checked values
# ---------------------------------------------------------------------------

def band_state() -> DensityMatrix:
    """The maximally mixed state at 2j = 20 with 0.45e-12 i on both first off-diagonals: Hermitian within
    the gate, 0.9e-12 off, while its reduced states are up to 7.7e-12 off."""
    m = np.eye(21, dtype=complex) / 21
    i = np.arange(20)
    m[i, i + 1] += 0.45e-12j
    m[i + 1, i] += 0.45e-12j
    return DensityMatrix(SpinLabel(20), m)


def refuse_checks(monkeypatch) -> None:
    """From here on, fail the test if a PureState or DensityMatrix is checked."""
    def refuse(value):
        raise AssertionError(f"{type(value).__name__} judged again")

    monkeypatch.setattr(PureState, "__post_init__", refuse)
    monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)


class TestDerivedValuesAreNotJudgedAgain:
    def test_density_matrix_of_a_pure_state_at_the_norm_gate(self):
        psi = PureState(SpinLabel(2), [1 + 0.9e-12, 0, 0])
        rho = psi.density_matrix()  # its trace, 1 + 1.8e-12, is past TRACE_TOL
        assert rho.matrix[0, 0] == (1 + 0.9e-12) ** 2
        assert not rho.matrix.flags.writeable

    def test_load_state_of_a_pure_file_at_the_norm_gate(self, tmp_path):
        path = tmp_path / "pure.json"
        save_state(path, PureState(SpinLabel(2), [1 + 0.9e-12, 0, 0]))
        assert load_state(path).matrix[0, 0] == (1 + 0.9e-12) ** 2

    def test_reduced_states_of_the_band_state(self):
        rho = band_state()
        for t in range(1, 20):
            rt = reduced_state(rho, t)
            assert rt.spin == SpinLabel(t)
            assert np.abs(rt.matrix - np.eye(t + 1) / (t + 1)).max() < 1e-10
        report = anticoherence_report(rho)
        assert report.certified_order == 19

    def test_mixture_of_a_state_at_the_norm_gate(self):
        psi = PureState(SpinLabel(2), [1 + 0.9e-12, 0, 0])
        rho = DensityMatrix.from_mixture([1.0], [psi])  # its trace, 1 + 1.8e-12, is past TRACE_TOL
        assert rho.matrix.tobytes() == mixture_matrices(np.ones((1, 1)), [psi])[0].tobytes()
        assert not rho.matrix.flags.writeable

    def test_certify_of_a_mixed_eigen_file_at_the_norm_gate(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"two_j": 2, "kind": "mixed-eigen", "weights": [1.0],
                                    "states": [[[1 + 0.9e-12, 0.0], [0.0, 0.0], [0.0, 0.0]]]}))
        assert main(["certify", str(path)]) == 3  # a coherent state: graded, not an invalid file
        assert json.loads(capsys.readouterr().out)["is_oqr_qcrb"] is False

    def test_suite_of_a_frame_at_the_norm_gate(self):
        frame = catalog()["(2,2,1)"].frame
        scaled = SubspaceFrame(frame.spin, [PureState(frame.spin, s.amplitudes * (1 + 0.9e-12)) for s in frame.basis])
        assert protected_negativity_suite(scaled, 1, 20, 5).all_pass

    def test_the_same_matrix_from_a_caller_is_still_checked(self):
        with pytest.raises(ValueError, match=re.escape("not Hermitian: max |M - M^dag| = 7.708e-12")):
            DensityMatrix(SpinLabel(1), reduced_state(band_state(), 1).matrix)


class TestDerivedValuesKeepTheirBits:
    """On valid input each derived value holds the bytes the checked constructor gives it, read-only."""

    @pytest.mark.parametrize("two_j", [2, 5, 12])
    def test_reduced_state(self, rng, two_j):
        rho = random_density(SpinLabel(two_j), rng)
        for t in range(1, two_j):
            rt = reduced_state(rho, t)
            assert rt.matrix.tobytes() == _partial_trace(rho.matrix, t).tobytes()
            assert rt.matrix.tobytes() == DensityMatrix(SpinLabel(t), _partial_trace(rho.matrix, t)).matrix.tobytes()
            assert rt.matrix.flags.c_contiguous and not rt.matrix.flags.writeable

    def test_from_unnormalized(self, rng, monkeypatch):
        amp = rng.normal(size=7) + 1j * rng.normal(size=7)
        checked = PureState(SpinLabel(6), amp / np.linalg.norm(amp))
        refuse_checks(monkeypatch)
        psi = PureState.from_unnormalized(SpinLabel(6), amp)
        assert psi.amplitudes.tobytes() == checked.amplitudes.tobytes()
        assert not psi.amplitudes.flags.writeable

    @pytest.mark.parametrize("k", [1, 3])
    def test_from_mixture(self, rng, monkeypatch, k):
        states = [PureState.from_unnormalized(SpinLabel(6), rng.normal(size=7) + 1j * rng.normal(size=7))
                  for _ in range(k)]
        weights = rng.dirichlet(np.ones(k))
        checked = DensityMatrix(SpinLabel(6), mixture_matrices(weights[None], states)[0])
        refuse_checks(monkeypatch)
        rho = DensityMatrix.from_mixture(weights, states)
        assert rho.matrix.tobytes() == checked.matrix.tobytes()
        assert rho.matrix.flags.c_contiguous and not rho.matrix.flags.writeable

    def test_density_matrix(self, rng):
        amp = rng.normal(size=7) + 1j * rng.normal(size=7)
        psi = PureState.from_unnormalized(SpinLabel(6), amp)
        checked = DensityMatrix(psi.spin, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        assert psi.density_matrix().matrix.tobytes() == checked.matrix.tobytes()

    @pytest.mark.parametrize("rank", [1, 3, 7])
    def test_eigen_mixture_and_certify_frame(self, rng, rank):
        rho = random_density(SpinLabel(6), rng, rank=rank)
        mixture = eigen_mixture(rho)
        lam, vec = rho.spectrum
        order = np.argsort(lam)[::-1]
        keep = lam[order] >= DEFAULT_RANK_TOL
        states = tuple(PureState.from_unnormalized(rho.spin, vec[:, i]) for i in order[keep])
        checked = EigenMixture(rho.spin, lam[order][keep], states)
        assert mixture.rank == rank and mixture.weights.tobytes() == checked.weights.tobytes()
        assert [s.amplitudes.tobytes() for s in mixture.states] == [s.amplitudes.tobytes() for s in checked.states]
        assert not mixture.weights.flags.writeable
        assert all(not s.amplitudes.flags.writeable for s in mixture.states)
        frame = certify(rho).image_frame
        assert type(frame) is SubspaceFrame and frame.k == rank
        assert frame.matrix().tobytes() == SubspaceFrame(rho.spin, checked.states).matrix().tobytes()

    def test_expand(self, rng):
        rho = random_density(SpinLabel(5), rng)
        expansion = expand(rho)
        checked = MultipoleExpansion(rho.spin, expansion.coefficients)
        assert expansion == checked
        assert np.array(list(expansion.coefficients.values())).tobytes() == \
            np.array(list(checked.coefficients.values())).tobytes()


def test_trace_gate_message_shows_why_the_matrix_failed():
    m = np.diag([0.5 + 2e-12, 0.5]).astype(complex)  # trace 1 + 2e-12
    with pytest.raises(ValueError) as info:
        DensityMatrix(SpinLabel(1), m)
    message = str(info.value)
    assert message.startswith("trace is (1.000000000002+0j)")
    assert "|trace - 1| = 2.000e-12" in message
