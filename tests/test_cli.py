import json
import math
import warnings

import numpy as np
import pytest

from rotosense import cli
from rotosense import io as rio
from rotosense.cli import main
from rotosense.oqr import spin2_family, spin32_ghz, spin3_oqr_family
from rotosense.spin_core import DensityMatrix, PureState, SpinLabel
from rotosense.subspaces import verify_subspace


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

    def test_within_bound_but_absent_exit_four(self, capsys):
        code, out, _ = run(capsys, "search", "--j", "4", "--k", "2", "--t", "2",
                           "--seed", "42", "--restarts", "8")
        assert code == 4
        data = json.loads(out)
        assert data["found"] is False
        # every restart misses; the best of them stops at a positive minimum
        assert data["converged_restarts"] == 0
        assert data["best_miss_objective"] > 1e-3

    def test_bound_violation_exit_five(self, capsys):
        code, _, err = run(capsys, "search", "--j", "2", "--k", "3", "--t", "1", "--seed", "1")
        assert code == 5
        assert "bound" in err
        # (3/2, 2, 1) also exceeds the bound floor(3/2) = 1
        code2, _, err2 = run(capsys, "search", "--j", "1.5", "--k", "2", "--t", "1", "--seed", "1")
        assert code2 == 5
        assert "bound" in err2


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["certify"],
        ["search", "--j", "0.3", "--k", "1", "--t", "1", "--seed", "1"],
    ])
    def test_usage_error_exit_one(self, capsys, argv):
        # exit 2 is the fidelity-grade verdict of certify, so a usage error may not use it
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: rotosense")
        assert "error:" in err
        assert "Traceback" not in err

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
        # one progress line per (j, t) scan; (3/2, t=2) has bound 0 and no scan
        progress = err.strip().split("\n")
        assert [line.split(" k_max=")[0] for line in progress] == [
            "kmax: j=1 t=1", "kmax: j=3/2 t=1", "kmax: j=2 t=1", "kmax: j=2 t=2"]
        assert "kmax: j=2 t=1 k_max=2 bound=2 (" in err
        lines = (tmp_path / "kmax.csv").read_text().strip().split("\n")
        assert lines[0] == "j,t,k_found,bound"
        rows = {(r[0], r[1]): (int(r[2]), int(r[3])) for r in (line.split(",") for line in lines[1:])}
        assert rows[("2", "1")] == (2, 2)
        assert rows[("1", "1")][0] <= 1
        dims = (tmp_path / "construction_dims.csv").read_text().strip().split("\n")
        assert dims[0] == "j,k1,k2"


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

    def test_axis_is_normalized(self, state_files, capsys):
        code, out, _ = run(capsys, "qfi", str(state_files["xi07"]), "--axis=3,-4,12")
        assert code == 0
        data = json.loads(out)
        v = np.array([3.0, -4.0, 12.0])
        assert data["axis"] == list(v / np.linalg.norm(v))
        assert data["qfi"] == pytest.approx(8.0, abs=1e-9)
