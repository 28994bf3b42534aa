import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rotosense import cli
from rotosense import io as rio
from rotosense.anticoherence import ANTICOHERENCE_TOL
from rotosense.cli import main
from rotosense.oqr import spin2_family, spin32_ghz, spin3_oqr_family
from rotosense.spin_core import DensityMatrix, PureState, SpinLabel
from rotosense.subspaces import SUCCESS_THRESHOLD, verify_subspace


@pytest.fixture
def state_files(tmp_path):
    paths = {}
    paths["xi07"] = tmp_path / "xi07.json"
    rio.save_state(paths["xi07"], spin2_family(0.7))
    paths["ghz"] = tmp_path / "ghz.json"
    rio.save_state(paths["ghz"], spin32_ghz())
    paths["coherent"] = tmp_path / "coherent.json"
    rio.save_state(paths["coherent"], PureState.basis_state(SpinLabel(6), 6))
    paths["mixed"] = tmp_path / "mixed.json"
    rio.save_state(paths["mixed"], DensityMatrix.maximally_mixed(SpinLabel(4)))
    paths["spin3"] = tmp_path / "spin3.json"
    rio.save_state(paths["spin3"], spin3_oqr_family(0.2))
    paths["qubit"] = tmp_path / "qubit.json"
    rio.save_state(paths["qubit"], PureState.basis_state(SpinLabel(1), 1))
    paths["near_singular"] = tmp_path / "near_singular.json"
    rio.save_state(paths["near_singular"], PureState.from_unnormalized(
        SpinLabel(4), np.array([1.0, 3e-3, 0.0, 0.0, 0.0], dtype=complex)))
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStartup:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # a child interpreter, so that no module this test session loaded counts
        code = ("import sys, rotosense, rotosense.cli; "
                "print([m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse') if m in sys.modules])")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(rio.__file__)),
                                                          env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_import_and_multipole_round_trip_leave_scipy_special_and_numpy_ma_unloaded(self):
        # metrology binds scipy's compiled R_F without scipy.special's __init__, and
        # MultipoleExpansion.operator avoids np.unique, which imports numpy.ma
        code = ("import sys, rotosense, rotosense.cli; "
                "unloaded = lambda: [m for m in ('scipy.special', 'numpy.ma') if m in sys.modules]; "
                "print(unloaded()); "
                "from rotosense.multipole import expand, reconstruct; "
                "from rotosense.oqr import spin3_oqr_family; "
                "reconstruct(expand(spin3_oqr_family(0.3))); "
                "print(unloaded())")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(rio.__file__)),
                                                          env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["[]", "[]"]


class TestStateIo:
    def test_round_trip_kinds(self, tmp_path, rng):
        rho = spin2_family(0.65)
        p = tmp_path / "a.json"
        rio.save_state(p, rho)
        back = rio.load_state(p)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-14

        psi = spin32_ghz()
        p2 = tmp_path / "b.json"
        rio.save_state(p2, psi)
        back2 = rio.load_state(p2)
        assert np.abs(back2.matrix - psi.density_matrix().matrix).max() < 1e-14

    def test_mixed_eigen_kind(self, tmp_path):
        payload = {
            "two_j": 3,
            "kind": "mixed-eigen",
            "weights": [0.5, 0.5],
            "states": [
                [[1 / math.sqrt(2), 0], [0, 0], [1 / math.sqrt(2), 0], [0, 0]],
                [[0, 0], [-1 / math.sqrt(2), 0], [0, 0], [1 / math.sqrt(2), 0]],
            ],
        }
        p = tmp_path / "eig.json"
        p.write_text(json.dumps(payload))
        rho = rio.load_state(p)
        assert rho.purity == pytest.approx(0.5, abs=1e-12)

    def test_invalid_payload_diagnostics(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"two_j": 2, "kind": "pure", "amplitudes": [[1, 0], [1, 0], [0, 0]]}))
        with pytest.raises(ValueError, match="not normalized"):
            rio.load_state(p)
        p.write_text("{broken")
        with pytest.raises(ValueError, match="JSON"):
            rio.load_state(p)

    @pytest.mark.parametrize("payload, message", [
        ({"kind": "pure", "amplitudes": [[1, 0], [0, 0]]}, "missing field 'two_j'"),
        ({"two_j": 1, "amplitudes": [[1, 0], [0, 0]]}, "missing field 'kind'"),
        ({"two_j": 1, "kind": "pure"}, "missing field 'amplitudes'"),
        ({"two_j": 1, "kind": "mixed-eigen", "states": [[[1, 0], [0, 0]]]}, "missing field 'weights'"),
        ({"two_j": 1, "kind": "mixed-eigen", "weights": [1.0]}, "missing field 'states'"),
        ({"two_j": 1, "kind": "mixed-matrix"}, "missing field 'matrix'"),
        ({"two_j": 1, "kind": "pure", "amplitudes": 5}, "field 'amplitudes'"),
        ({"two_j": 1, "kind": "mixed-eigen", "weights": "x", "states": [[[1, 0], [0, 0]]]}, "field 'weights'"),
        ({"two_j": 1, "kind": "mixed-eigen", "weights": [1.0], "states": {"a": 1}}, "field 'states'"),
        ({"two_j": 1, "kind": "mixed-matrix", "matrix": [[1, 0], [0, 0]]}, "field 'matrix'"),
        ([{"two_j": 1, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]}], "JSON object"),
    ])
    def test_missing_or_ill_typed_field_named(self, tmp_path, payload, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            rio.load_state(p)


class TestSubspaceIo:
    @pytest.fixture
    def plane_payload(self, tmp_path):
        from rotosense.subspaces import spin2_plane

        p = tmp_path / "plane.json"
        rio.save_subspace(p, spin2_plane(), 1, 0.0, 3)
        return json.loads(p.read_text())

    @pytest.mark.parametrize("key, value, message", [
        ("t", 1.7, "t must be an integer"), ("t", True, "t must be an integer"),
        ("t", 0, "t must be an integer"), ("t", -3, "t must be an integer"),
        ("t", None, "t must be an integer"), ("t", "1", "t must be an integer"),
        ("k", 2.9, "k must be an integer"), ("k", 2.0, "k must be an integer"),
        ("k", 0, "k must be an integer"), ("k", 3, "declared k=3"),
        ("objective", None, "objective must be a number"), ("objective", "0", "objective must be a number"),
        ("objective", False, "objective must be a number"),
        ("seed", "x", "seed must be an integer"), ("seed", -1, "seed must be an integer"),
        ("seed", 1.5, "seed must be an integer"), ("seed", True, "seed must be an integer"),
        ("seed", [3], "seed must be an integer"),
    ])
    def test_malformed_counts_and_objective_rejected(self, tmp_path, plane_payload, key, value, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**plane_payload, key: value}))
        with pytest.raises(ValueError, match=message):
            rio.load_subspace(p)

    @pytest.mark.parametrize("key", ["two_j", "k", "t", "basis", "objective"])
    def test_missing_field_named(self, tmp_path, plane_payload, key):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({name: value for name, value in plane_payload.items() if name != key}))
        with pytest.raises(ValueError, match=f"missing field '{key}'"):
            rio.load_subspace(p)

    @pytest.mark.parametrize("value", [5, "x", [[1, 0], [0, 0]], {"a": 1}])
    def test_ill_typed_basis_named(self, tmp_path, plane_payload, value):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**plane_payload, "basis": value}))
        with pytest.raises(ValueError, match="field 'basis'"):
            rio.load_subspace(p)

    @pytest.mark.parametrize("seed", [None, 0, 3])
    def test_seed_null_or_count_loaded(self, tmp_path, plane_payload, seed):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({**plane_payload, "seed": seed}))
        assert rio.load_subspace(p).seed == seed
        del plane_payload["seed"]
        p.write_text(json.dumps(plane_payload))
        assert rio.load_subspace(p).seed is None

    @pytest.mark.parametrize("t, seed", [(1.9, 3), (True, 3), (1, True), (1, 1.5)])
    def test_save_rejects_what_load_rejects(self, tmp_path, t, seed):
        # t = 1.9 was written as 1, and seed = True as a file that does not load
        from rotosense.subspaces import spin2_plane

        with pytest.raises(ValueError, match="must be an integer"):
            rio.save_subspace(tmp_path / "bad.json", spin2_plane(), t, 0.0, seed)
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("objective", [math.nan, -1.0, math.inf])
    def test_objective_must_be_finite_and_non_negative(self, tmp_path, plane_payload, objective):
        # G_t is a finite sum of squares; save rejects what load rejects
        from rotosense.subspaces import spin2_plane

        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**plane_payload, "objective": objective}))
        with pytest.raises(ValueError, match="objective must be a number, finite and >= 0"):
            rio.load_subspace(p)
        with pytest.raises(ValueError, match="objective must be a number, finite and >= 0"):
            rio.save_subspace(tmp_path / "saved.json", spin2_plane(), 1, objective, None)
        assert not (tmp_path / "saved.json").exists()

    def test_save_writes_numpy_counts_as_ints(self, tmp_path, plane_payload):
        from rotosense.subspaces import spin2_plane

        p = tmp_path / "np.json"
        rio.save_subspace(p, spin2_plane(), np.int64(1), 0.0, np.int64(3))
        assert json.loads(p.read_text()) == plane_payload

    def test_top_level_list_rejected(self, tmp_path, plane_payload):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([plane_payload]))
        with pytest.raises(ValueError, match="JSON object"):
            rio.load_subspace(p)


class TestQfiCommand:
    def test_averaged_inverse_of_plane_mixture(self, state_files, capsys):
        code, out, _ = run(capsys, "qfi", str(state_files["xi07"]), "--averaged-inverse")
        assert code == 0
        data = json.loads(out)
        assert data["averaged_inverse_qfi"] == pytest.approx(0.125, abs=1e-9)
        assert data["manifest"]["command"] == "qfi"
        env = data["manifest"]["environment"]
        assert set(env) == {"python", "numpy", "scipy", "cpu_count", "blas_threads"}
        assert env["numpy"] == np.__version__
        assert set(env["blas_threads"]) <= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_manifest_stores_no_tool_version(self):
        assert rio.RunManifest(command="x").to_dict()["tool_version"] == rio.TOOL_VERSION
        with pytest.raises(TypeError):
            rio.RunManifest(command="x", tool_version="y")

    @pytest.mark.parametrize("name", ["wall_time_s", "input_hashes", "_started"])
    def test_manifest_takes_only_what_the_run_was_asked(self, name):
        # the run time is read off the clock when the manifest is written
        with pytest.raises(TypeError):
            rio.RunManifest(command="x", **{name: 1.0})
        assert not hasattr(rio.RunManifest, "finish")

    def test_axis_qfi_of_coherent_state_along_z(self, state_files, capsys):
        code, out, _ = run(capsys, "qfi", str(state_files["coherent"]), "--axis", "0,0,1")
        assert code == 0
        assert json.loads(out)["qfi"] == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_reports_infinity(self, state_files, capsys):
        code, out, _ = run(capsys, "qfi", str(state_files["mixed"]), "--averaged-inverse")
        assert code == 0
        assert json.loads(out)["averaged_inverse_qfi"] == math.inf

    def test_near_singular_form_reports_finite_inverse(self, state_files, capsys):
        code, out, err = run(capsys, "qfi", str(state_files["near_singular"]), "--averaged-inverse")
        assert code == 0
        assert "Traceback" not in err
        assert json.loads(out)["averaged_inverse_qfi"] == pytest.approx(3.027, abs=1e-3)

    def test_malformed_file_fails_with_diagnostic(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"two_j": 1, "kind": "mixed-matrix",
                                 "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        code, _, err = run(capsys, "qfi", str(p))
        assert code == 1
        assert "trace" in err


class TestCertifyCommand:
    def test_spin3_family_exit_zero(self, state_files, capsys):
        code, out, _ = run(capsys, "certify", str(state_files["spin3"]))
        assert code == 0
        data = json.loads(out)
        assert data["is_oqr_qcrb"] is True
        assert set(data["tolerances"]) == {"image_g1", "multipole"}
        assert data["tolerances"] == {"image_g1": SUCCESS_THRESHOLD, "multipole": ANTICOHERENCE_TOL}

    def test_ghz_exit_two(self, state_files, capsys):
        code, out, _ = run(capsys, "certify", str(state_files["ghz"]))
        assert code == 2
        data = json.loads(out)
        assert data["is_oqr_fidelity"] is True and data["is_oqr_qcrb"] is False

    def test_spin_half_exit_three(self, state_files, capsys):
        code, _, _ = run(capsys, "certify", str(state_files["qubit"]))
        assert code == 3

    @pytest.mark.parametrize("payload", [
        {"two_j": None, "kind": "pure", "amplitudes": [[1, 0]]},
        {"two_j": 1, "kind": "mixed-eigen", "weights": [1.0], "states": None},
        {"two_j": 1.7, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]},
    ])
    def test_malformed_state_file_exit_one(self, tmp_path, capsys, payload):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        code, out, err = run(capsys, "certify", str(p))
        assert code == 1
        assert out == ""
        assert "error: invalid state file" in err
        assert "Traceback" not in err

    def test_missing_amplitudes_named(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"two_j": 2, "kind": "pure"}))
        code, out, err = run(capsys, "certify", str(p))
        assert (code, out) == (1, "")
        assert f"error: invalid state file {p}: missing field 'amplitudes'" in err

    @pytest.mark.parametrize("command", ["certify", "qfi"])
    def test_boolean_spin_exit_one(self, tmp_path, capsys, command):
        # true is not the integer 1: a JSON boolean is no spin label
        p = tmp_path / "bool.json"
        p.write_text(json.dumps({"two_j": True, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]}))
        code, out, err = run(capsys, command, str(p))
        assert code == 1
        assert out == ""
        assert "error: invalid state file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["certify", "qfi"])
    @pytest.mark.parametrize("payload", [
        {"two_j": 1, "kind": "pure", "amplitudes": [[float("nan"), 0], [0, 0]]},
        {"two_j": 1, "kind": "mixed-matrix",
         "matrix": [[[0.5, 0], [float("inf"), 0]], [[float("inf"), 0], [0.5, 0]]]},
        {"two_j": 1, "kind": "pure", "amplitudes": [[1, 0], [0, float("inf")]]},
    ])
    def test_non_finite_entries_exit_one(self, tmp_path, capsys, command, payload):
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(payload))  # json writes NaN and Infinity literals
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, str(p))
        assert code == 1
        assert out == ""
        assert "not finite" in err
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_near_singular_form_exit_three(self, state_files, capsys):
        # K ~ diag(4.9e-10, 4, 4): a verdict with a finite QCRB, not a traceback
        code, out, err = run(capsys, "certify", str(state_files["near_singular"]))
        assert code == 3
        assert "Traceback" not in err
        assert math.isfinite(json.loads(out)["qcrb"])


class TestSearchCommand:
    def test_finds_spin2_plane_and_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "found.json"
        code, out, _ = run(capsys, "search", "--j", "2", "--k", "2", "--t", "1",
                           "--seed", "42", "--restarts", "8", "--out", str(out_file))
        assert code == 0
        data = json.loads(out)
        assert data["found"] is True
        assert sum(data["stop_reasons"].values()) == 8
        assert data["stop_reasons"]["gate"] == data["converged_restarts"]
        # every restart of this cell converges, so no miss has an objective
        assert data["best_miss_objective"] is None
        content = rio.load_subspace(out_file)
        cert = verify_subspace(content.frame, content.t)
        assert cert.verified
        assert abs(cert.objective_value - content.objective) < 1e-12
        # the file's manifest is written after the search, so it records the search's run time
        assert json.loads(out_file.read_text())["manifest"]["wall_time_s"] > 0

    def test_within_bound_but_absent_exit_four(self, capsys):
        code, out, _ = run(capsys, "search", "--j", "4", "--k", "2", "--t", "2",
                           "--seed", "42", "--restarts", "8")
        assert code == 4
        data = json.loads(out)
        assert data["found"] is False
        # every restart misses; the best of them stops at a positive minimum
        assert data["converged_restarts"] == 0
        assert data["best_miss_objective"] > 1e-3

    def test_stationary_misses_exit_four(self, capsys):
        # (4,4,1): every restart stops at a positive first-order stationary point
        code, out, err = run(capsys, "search", "--j", "4", "--k", "4", "--t", "1",
                             "--seed", "42", "--restarts", "8")
        assert code == 4
        assert err == ""
        data = json.loads(out)
        assert data["found"] is False
        assert set(data["stop_reasons"]) == {"gate", "stall", "stationary", "iteration_cap", "backtrack_exhausted"}
        assert data["stop_reasons"]["stationary"] == sum(data["stop_reasons"].values()) == 8
        assert data["best_miss_objective"] > SUCCESS_THRESHOLD

    def test_bound_violation_exit_five(self, capsys):
        code, _, err = run(capsys, "search", "--j", "2", "--k", "3", "--t", "1", "--seed", "1")
        assert code == 5
        assert "bound" in err
        # (3/2, 2, 1) also exceeds the bound floor(3/2) = 1
        code2, _, err2 = run(capsys, "search", "--j", "1.5", "--k", "2", "--t", "1", "--seed", "1")
        assert code2 == 5
        assert "bound" in err2

    def test_out_of_memory_exit_one(self, monkeypatch, capsys):
        def search_subspace(*args):
            raise MemoryError("Unable to allocate 1.07 GiB for an array with shape (12002, 12002) "
                              "and data type float64")

        monkeypatch.setattr(cli, "search_subspace", search_subspace)
        code, out, err = run(capsys, "search", "--j", "3000", "--k", "1", "--t", "1", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory: Unable to allocate 1.07 GiB")
        assert "Traceback" not in err

    def test_bare_out_of_memory_exit_one(self, monkeypatch, capsys):
        # a bare MemoryError, as a big-int factorial table raises, has no message to show
        def search_subspace(*args):
            raise MemoryError()

        monkeypatch.setattr(cli, "search_subspace", search_subspace)
        code, out, err = run(capsys, "search", "--j", "100000", "--k", "1", "--t", "1", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == "error: out of memory\n"
        assert "Traceback" not in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["certify"],
        ["search", "--j", "0.3", "--k", "1", "--t", "1", "--seed", "1"],
        ["search", "--j", "1/0", "--k", "1", "--t", "1", "--seed", "1"],
    ])
    def test_usage_error_exit_one(self, capsys, argv):
        # exit 2 is the fidelity-grade verdict of certify, so a usage error may not use it
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: rotosense")
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, reason", [
        (["search", "--j", "-1", "--k", "1", "--t", "1", "--seed", "1"], "argument --j: j must be >= 0, got '-1'"),
        (["search", "--j", "0.3", "--k", "1", "--t", "1", "--seed", "1"],
         "argument --j: j must be an integer or half-integer, got '0.3'"),
        (["reproduce", "--target", "tables", "--out", "unused", "--max-j=-1/2"],
         "argument --max-j: j must be >= 0, got '-1/2'"),
    ])
    def test_spin_usage_error_gives_the_reason(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: rotosense")
        assert reason in err
        assert "_parse_spin" not in err

    def test_help_exit_zero(self, capsys):
        code, out, _ = run(capsys, "certify", "--help")
        assert code == 0
        assert out.startswith("usage: rotosense certify")

    def test_parser_reused_across_calls(self, capsys):
        # one parser per process: a usage error leaves it fit for the next call
        code, _, err = run(capsys, "search", "--j", "0.3", "--k", "1", "--t", "1", "--seed", "1")
        assert code == 1
        assert "error:" in err
        code, out, _ = run(capsys, "catalog", "--list")
        assert code == 0
        assert json.loads(out)["entries"]
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: rotosense")
        assert cli._parser() is cli._parser()


class TestCatalogCommand:
    def test_listing_has_all_entries(self, capsys):
        code, out, _ = run(capsys, "catalog", "--list")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert len(entries) >= 7
        assert all(e["verified"] for e in entries)

    def test_get_writes_verifying_file(self, tmp_path, capsys):
        out_file = tmp_path / "c1.json"
        code, _, _ = run(capsys, "catalog", "--get", "(7/2,2,2)", "--out", str(out_file))
        assert code == 0
        content = rio.load_subspace(out_file)
        assert content.t == 2
        assert verify_subspace(content.frame, 2).verified

    def test_unwritable_out_exit_one(self, capsys):
        code, out, err = run(capsys, "catalog", "--get", "(2,2,1)", "--out", "/nonexistent/dir/x.json")
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_unknown_name_exit_one(self, capsys):
        code, _, err = run(capsys, "catalog", "--get", "nope")
        assert code == 1
        assert "unknown" in err

    def test_out_without_get_is_a_usage_error(self, tmp_path, capsys):
        out_file = tmp_path / "c.json"
        for argv in (["--out", str(out_file)], ["--list", "--out", str(out_file)]):
            code, out, err = run(capsys, "catalog", *argv)
            assert code == 1
            assert out == ""
            assert "error: catalog --out needs --get" in err
        assert not out_file.exists()

    def test_list_and_get_are_exclusive(self, tmp_path, capsys):
        out_file = tmp_path / "c.json"
        code, out, err = run(capsys, "catalog", "--list", "--get", "(2,2,1)", "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert "not allowed with argument --list" in err
        assert not out_file.exists()


class TestReproduceCommand:
    def test_fig1_csv(self, tmp_path, capsys):
        code, _, _ = run(capsys, "reproduce", "--target", "fig1", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "fig1.csv").read_text().strip().split("\n")
        assert lines[0] == "xi,purity,inv_qfi,purity_closed_form,inv_qfi_closed_form"
        assert len(lines) == 201
        rows = [line.split(",") for line in lines[1:]]
        # the plateau makes every xi >= 1/2 row carry 1/8 exactly
        near_075 = min(rows, key=lambda r: abs(float(r[0]) - 0.75))
        assert float(near_075[2]) == pytest.approx(0.125, abs=1e-9)
        sidecar = json.loads((tmp_path / "fig1.csv.manifest.json").read_text())
        assert sidecar["command"] == "reproduce --target fig1"
        assert {"python", "numpy", "scipy", "cpu_count", "blas_threads"} <= set(sidecar["environment"])

    def test_fig1_determinism(self, tmp_path, capsys):
        a_dir = tmp_path / "a"; b_dir = tmp_path / "b"
        run(capsys, "reproduce", "--target", "fig1", "--out", str(a_dir))
        run(capsys, "reproduce", "--target", "fig1", "--out", str(b_dir))
        assert (a_dir / "fig1.csv").read_bytes() == (b_dir / "fig1.csv").read_bytes()

    def test_negativity_csv(self, tmp_path, capsys):
        code, _, _ = run(capsys, "reproduce", "--target", "negativity", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "negativity.csv").read_text().strip().split("\n")
        assert lines[0] == "frame,lam1,purity,N1,N2"
        plane_rows = [line.split(",") for line in lines[1:] if line.startswith("(2;2;1)")]
        pair_rows = [line.split(",") for line in lines[1:] if line.startswith("(7/2;2;2)")]
        assert len(plane_rows) == 101 and len(pair_rows) == 101
        for row in plane_rows:
            assert float(row[3]) == pytest.approx(0.5, abs=1e-9)
        for row in pair_rows:
            assert float(row[3]) == pytest.approx(0.5, abs=1e-9)
            assert float(row[4]) == pytest.approx(1.0, abs=1e-9)

    def test_tables_target(self, tmp_path, capsys):
        code, _, _ = run(capsys, "reproduce", "--target", "tables", "--out", str(tmp_path))
        assert code == 0
        content = rio.load_subspace(tmp_path / "two_ac_j10over2.json")
        assert content.frame.k == 1
        assert verify_subspace(content.frame, 2).verified

    def test_kmax_target_capped(self, tmp_path, capsys):
        code, _, err = run(capsys, "reproduce", "--target", "kmax", "--out", str(tmp_path),
                           "--max-j", "2", "--restarts", "8", "--seed", "5")
        assert code == 0
        # one progress line per (j, t) scan; (3/2, t=2) has bound 0, so its scan runs no search
        progress = err.strip().split("\n")
        assert [line.split(" k_max=")[0] for line in progress] == [
            "kmax: j=1 t=1", "kmax: j=3/2 t=1", "kmax: j=3/2 t=2", "kmax: j=2 t=1", "kmax: j=2 t=2"]
        assert "kmax: j=3/2 t=2 k_max=0 bound=0 (" in err
        assert "kmax: j=2 t=1 k_max=2 bound=2 (" in err
        lines = (tmp_path / "kmax.csv").read_text().strip().split("\n")
        assert lines[0] == "j,t,k_found,bound"
        rows = {(r[0], r[1]): (int(r[2]), int(r[3])) for r in (line.split(",") for line in lines[1:])}
        assert rows[("2", "1")] == (2, 2)
        assert rows[("1", "1")][0] <= 1
        dims = (tmp_path / "construction_dims.csv").read_text().strip().split("\n")
        assert dims[0] == "j,k1,k2"

    def test_kmax_target_spin_half_cap(self, tmp_path, capsys):
        # below j = 1 no scan runs and no construction dimension is tabulated
        code, _, err = run(capsys, "reproduce", "--target", "kmax", "--out", str(tmp_path),
                           "--max-j", "1/2", "--restarts", "8", "--seed", "5")
        assert code == 0
        assert err == ""
        assert (tmp_path / "kmax.csv").read_text() == "j,t,k_found,bound\n"
        assert (tmp_path / "construction_dims.csv").read_text() == "j,k1,k2\n"


class TestAxisOption:
    @pytest.mark.parametrize("axis", ["nan,0,1", "inf,0,0", "0,0,0", "1e308,1e308,0", "1,2"])
    def test_non_finite_or_zero_axis_exits_one_without_warning(self, state_files, capsys, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "qfi", str(state_files["xi07"]), f"--axis={axis}")
        assert code == 1
        assert out == ""
        assert "--axis" in err
        assert "Traceback" not in err

    def test_axis_qfi_is_the_library_qfi(self, state_files, capsys):
        from rotosense import qfi
        from rotosense.spin_core import direction

        code, out, _ = run(capsys, "qfi", str(state_files["spin3"]), "--axis=0.3,0.4,1.2")
        assert code == 0
        rho = rio.load_state(state_files["spin3"])
        assert json.loads(out)["qfi"] == qfi(rho, direction([0.3, 0.4, 1.2]))

    def test_axis_is_normalized(self, state_files, capsys):
        code, out, _ = run(capsys, "qfi", str(state_files["xi07"]), "--axis=3,-4,12")
        assert code == 0
        data = json.loads(out)
        v = np.array([3.0, -4.0, 12.0])
        assert data["axis"] == list(v / np.linalg.norm(v))
        assert data["qfi"] == pytest.approx(8.0, abs=1e-9)
