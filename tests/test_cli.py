import json

import numpy as np
import pytest

from twistgrip import expio
from twistgrip.cli import main
from twistgrip.spring import PayloadCurve, SkinSpec, predict_load


@pytest.fixture
def synthetic_csv(tmp_path):
    spec = SkinSpec.from_slopes(100.0, 400.0, 0.4)
    strains = np.linspace(0.0, 1.0, 50)
    loads = [predict_load(s, spec) for s in strains]
    curve = PayloadCurve(strains=tuple(strains), loads=tuple(loads))
    path = tmp_path / "curve.csv"
    expio.write_payload_csv(curve, path)
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPressureCommand:
    def test_durability_ball(self, capsys):
        code, out, _ = run(capsys, ["pressure", "--mass", "0.21", "--radius", "0.025", "--k", "0.5"])
        assert code == 0
        assert "524.6" in out
        assert "relative difference" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, ["pressure", "--mass", "0.21", "--radius", "0.025",
                                    "--k", "0.5", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["closed_form_n_per_m"] == pytest.approx(524.6, abs=0.05)
        assert doc["relative_difference"] < 1e-6

    def test_invalid_friction_exits_2(self, capsys):
        code, _, err = run(capsys, ["pressure", "--mass", "1", "--radius", "0.05", "--k", "1.5"])
        assert code == 2
        assert "error" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pressure", "--mass", "1", "--radius", "0.05", "--k", "0.2", "--bogus"])
        assert exc.value.code == 2


class TestSpringCommands:
    def test_fit_echoes_parameters(self, capsys, synthetic_csv):
        code, out, _ = run(capsys, ["spring", "fit", "--in", str(synthetic_csv), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["slope1_n_per_strain"] == pytest.approx(100.0, rel=1e-6)
        assert doc["slope2_n_per_strain"] == pytest.approx(400.0, rel=1e-6)
        assert doc["breakpoint_strain"] == pytest.approx(0.4, rel=1e-6)

    def test_fit_writes_json_artifact(self, capsys, synthetic_csv, tmp_path):
        out_path = tmp_path / "fit.json"
        code, _, _ = run(capsys, ["spring", "fit", "--in", str(synthetic_csv),
                                  "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["degenerate"] is False

    def test_predict_load(self, capsys):
        code, out, _ = run(capsys, ["spring", "predict", "--slope1", "100", "--slope2", "400",
                                    "--breakpoint", "0.4", "--strain", "0.5", "--json"])
        assert code == 0
        assert json.loads(out)["load_n"] == pytest.approx(80.0)

    def test_predict_strain_from_load(self, capsys):
        code, out, _ = run(capsys, ["spring", "predict", "--slope1", "100", "--slope2", "400",
                                    "--breakpoint", "0.4", "--load", "80", "--json"])
        assert code == 0
        assert json.loads(out)["strain"] == pytest.approx(0.5)

    def test_predict_softening_slopes_exit_2_naming_slopes(self, capsys):
        code, _, err = run(capsys, ["spring", "predict", "--slope1", "400", "--slope2", "100",
                                    "--breakpoint", "0.4", "--strain", "0.5"])
        assert code == 2
        assert "slope1" in err and "slope2" in err
        assert "zone" not in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["spring", "fit", "--in", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error" in err


class TestGraspCommands:
    def test_validate_table2(self, capsys):
        code, out, _ = run(capsys, ["grasp", "validate", "--dataset", "table2"])
        assert code == 0
        assert "8/8" in out

    def test_validate_table3_json(self, capsys):
        code, out, _ = run(capsys, ["grasp", "validate", "--dataset", "table3", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] == "4/4"

    def test_simulate_scenario(self, capsys, tmp_path):
        scenario = {
            "gripper": "4in",
            "object": {"shape_class": "cylinder", "height_m": 0.105,
                       "diameter_m": 0.053, "mass_kg": 0.216, "label": "coffee can"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run(capsys, ["grasp", "simulate", "--scenario", str(path),
                                    "--k", "0.5", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Feasible"
        assert doc["phase_trace"][-1]["coverage"] == 1.0
        assert doc["holding_pressure_n_per_m"] > 0

    def test_simulate_flat_object(self, capsys, tmp_path):
        scenario = {
            "gripper": "8in",
            "object": {"shape_class": "flat", "height_m": 0.0012,
                       "diameter_m": 0.12, "mass_kg": 0.015, "label": "disc"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run(capsys, ["grasp", "simulate", "--scenario", str(path), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Infeasible"
        assert doc["reason"] == "FlatObject"

    @pytest.mark.parametrize("text,key", [
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "diameter_m": 0.05,'
         ' "mass_kg": 0.1}}', "object.height_m"),
        ('{"gripper": "4in", "object": {', "invalid JSON"),
        ('{"gripper": "4in", "object": {"shape_class": "blob", "height_m": 0.05,'
         ' "diameter_m": 0.05, "mass_kg": 0.1}}', "object.shape_class"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": "tall",'
         ' "diameter_m": 0.05, "mass_kg": 0.1}}', "not supported"),
    ], ids=["missing-key", "invalid-json", "unknown-shape-class", "wrong-type"])
    def test_malformed_scenario_exits_2_naming_file_and_key(self, capsys, tmp_path, text, key):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run(capsys, ["grasp", "simulate", "--scenario", str(path)])
        assert code == 2
        assert out == ""
        assert str(path) in err and key in err
        assert "internal error" not in err


class TestTactileCommands:
    def test_render_detect_track_summarize(self, capsys, tmp_path):
        f0 = tmp_path / "f0.pgm"
        f1 = tmp_path / "f1.pgm"
        code, _, _ = run(capsys, ["tactile", "render", "--grid", "5x5", "--out", str(f0),
                                  "--sidecar", str(tmp_path / "gt0.json")])
        assert code == 0
        code, _, _ = run(capsys, ["tactile", "render", "--grid", "5x5", "--out", str(f1),
                                  "--shift", "3", "-2"])
        assert code == 0

        code, out, _ = run(capsys, ["tactile", "detect", "--in", str(f0), "--json"])
        assert code == 0
        assert json.loads(out)["count"] == 25

        code, out, _ = run(capsys, ["tactile", "track", "--prev", str(f0), "--curr", str(f1),
                                    "--gate", "10", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["matches"]) == 25
        assert doc["matches"][0]["dx"] == pytest.approx(3.0, abs=0.5)

        code, out, _ = run(capsys, ["tactile", "summarize", "--prev", str(f0), "--curr", str(f1),
                                    "--air-support", "3", "--json"])
        assert code == 0
        assert json.loads(out)["label"] == "contact-with-air"

    @pytest.mark.parametrize("grid", ["5x", "x5", "5", "0x5", "5x5x5", "axb"])
    def test_render_malformed_grid_exits_2(self, capsys, tmp_path, grid):
        code, _, err = run(capsys, ["tactile", "render", "--grid", grid,
                                    "--out", str(tmp_path / "f.pgm")])
        assert code == 2
        assert "--grid" in err and "CxR" in err
        assert not (tmp_path / "f.pgm").exists()

    def test_render_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        for path in (a, b):
            run(capsys, ["tactile", "render", "--grid", "4x4", "--out", str(path),
                         "--noise", "8", "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()


class TestReportCommand:
    def test_end_to_end_report(self, capsys, synthetic_csv, tmp_path):
        out_dir = tmp_path / "report"
        code, out, _ = run(capsys, ["report", "--curve", str(synthetic_csv),
                                    "--out-dir", str(out_dir)])
        assert code == 0
        doc = json.loads((out_dir / "report.json").read_text())
        titles = [s["title"] for s in doc["sections"]]
        assert "Two-zone spring fit" in titles
        assert (out_dir / "payload_fit.svg").exists()


class TestDeterminism:
    def test_repeated_invocations_identical_stdout(self, capsys, synthetic_csv):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, ["spring", "fit", "--in", str(synthetic_csv), "--json"])
            outputs.append(out)
        assert outputs[0] == outputs[1]
