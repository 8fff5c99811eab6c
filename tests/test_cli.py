import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
         ' "diameter_m": 0.05, "mass_kg": 0.1}}', "height"),
        ('{"gripper": {"aperture_diameter": 0.1, "rotation_speed": NaN}, "object": {"shape_class":'
         ' "sphere", "height_m": 0.05, "diameter_m": 0.04, "mass_kg": 0.1}}', "rotation_speed"),
        ('{"gripper": {"aperture_diameter": 0.1, "full_close_angle": Infinity}, "object":'
         ' {"shape_class": "sphere", "height_m": 0.05, "diameter_m": 0.04, "mass_kg": 0.1}}',
         "full_close_angle"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": NaN,'
         ' "diameter_m": NaN, "mass_kg": 0.1}}', "height"),
    ], ids=["missing-key", "invalid-json", "unknown-shape-class", "wrong-type",
            "nan-rotation-speed", "infinite-close-angle", "nan-object"])
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

    @pytest.mark.parametrize("text,key", [
        ('{"markers": [', "invalid JSON"),
        ('{"marker_diameter_m": 0.002}', "'markers'"),
        ('{"markers": []}', "'marker_diameter_m'"),
        ('{"marker_diameter_m": 0.002, "markers": [{"u": 0.5, "v": 0.5}]}', "'markers.0.id'"),
        ('{"marker_diameter_m": 0.002, "markers": [{"id": 0, "u": 0.5, "v": 0.5},'
         ' {"id": 1, "v": 0.5}]}', "'markers.1.u'"),
        ('{"marker_diameter_m": 0.002, "markers": [{"id": 0, "u": 0.5}]}', "'markers.0.v'"),
        ('{"marker_diameter_m": NaN, "markers": []}', "marker_diameter"),
        ('{"marker_diameter_m": 0.002, "markers": [{"id": 0, "u": "a", "v": 0.5}]}', "marker 0 u"),
    ], ids=["invalid-json", "no-markers", "no-diameter", "no-id", "no-u", "no-v", "nan-diameter",
            "string-u"])
    def test_render_malformed_layout_exits_2_naming_file_and_key(self, capsys, tmp_path,
                                                                   text, key):
        layout = tmp_path / "layout.json"
        layout.write_text(text)
        code, _, err = run(capsys, ["tactile", "render", "--layout", str(layout),
                                    "--out", str(tmp_path / "f.pgm")])
        assert code == 2
        assert str(layout) in err and key in err
        assert not (tmp_path / "f.pgm").exists()

    @pytest.mark.parametrize("corrupt", [
        lambda frame: frame[:100],
        lambda frame: b"P5\n",
        lambda frame: frame.replace(b"640", b"six", 1),
    ], ids=["truncated", "header-only", "non-numeric-header"])
    def test_detect_malformed_pgm_exits_2_naming_file(self, capsys, tmp_path, corrupt):
        frame = tmp_path / "f.pgm"
        run(capsys, ["tactile", "render", "--grid", "2x2", "--out", str(frame)])
        frame.write_bytes(corrupt(frame.read_bytes()))
        code, out, err = run(capsys, ["tactile", "detect", "--in", str(frame)])
        assert code == 2
        assert out == ""
        assert str(frame) in err and "internal error" not in err

    def test_render_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        for path in (a, b):
            run(capsys, ["tactile", "render", "--grid", "4x4", "--out", str(path),
                         "--noise", "8", "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv,field", [
    (["tactile", "track", "--gate", "nan"], "gate"),
    (["tactile", "summarize", "--air-support", "nan"], "air_support_kpa"),
    (["tactile", "summarize", "--air-support", "-1"], "air_support_kpa"),
    (["tactile", "render", "--grid", "2x2", "--view-width", "nan"], "view_width"),
    (["tactile", "render", "--grid", "2x2", "--noise", "nan"], "noise_sigma"),
    (["tactile", "render", "--grid", "2x2", "--noise", "-1"], "noise_sigma"),
    (["spring", "predict", "--slope1", "100", "--slope2", "400", "--breakpoint", "0.4",
      "--strain", "0.5", "--g", "nan"], "g"),
], ids=["gate-nan", "air-support-nan", "air-support-negative", "view-width-nan", "noise-nan",
        "noise-negative", "predict-g-nan"])
def test_out_of_domain_number_flag_exits_2_naming_field(capsys, tmp_path, argv, field):
    frame = tmp_path / "f.pgm"
    if argv[1] in ("track", "summarize"):
        run(capsys, ["tactile", "render", "--grid", "2x2", "--out", str(frame)])
        argv = [*argv, "--prev", str(frame), "--curr", str(frame)]
    elif argv[1] == "render":
        argv = [*argv, "--out", str(frame)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"error: {field} must" in err


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


VALID_FILES = {
    "csv": b"strain,force_n\n0.0,0.0\n0.2,20.0\n0.4,40.0\n0.6,100.0\n0.8,160.0\n",
    "pgm": b"P5\n6 4\n255\n" + bytes([0, 0, 255, 255, 0, 0] * 4),
    "scenario": json.dumps({
        "gripper": {"aperture_diameter": 0.1, "full_close_angle": 6.0, "rotation_speed": 1.5},
        "object": {"shape_class": "sphere", "height_m": 0.05, "diameter_m": 0.04,
                   "mass_kg": 0.1, "label": "ball"},
        "submersion_fraction": 0.1, "inside_petal_region": True, "agitated_approach": False,
    }).encode(),
    "layout": json.dumps({"marker_diameter_m": 0.002, "markers": [
        {"id": 0, "u": 0.2, "v": 0.3}, {"id": 1, "u": 0.7, "v": 0.6}]}).encode(),
}
DELETE = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=4)


def _key_paths(doc, prefix=()):
    if not isinstance(doc, (dict, list)):
        return []
    children = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return [path for key, value in children
            for path in [(*prefix, key), *_key_paths(value, (*prefix, key))]]


def _edit_json(text, path, value):
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode()  # writes NaN and Infinity as bare tokens


def _splice(data, start, length, insert):
    return data[:start] + insert + data[start + length:]


def malformed(kind):
    """Malformed `kind` file contents: noise, a cut, a byte splice or, for JSON, one edited key."""
    valid = VALID_FILES[kind]
    bytewise = st.one_of(
        st.binary(max_size=64),
        st.integers(0, len(valid)).map(lambda cut: valid[:cut]),
        st.builds(_splice, st.just(valid), st.integers(0, len(valid)), st.integers(0, 4),
                  st.binary(max_size=4)),
    )
    if kind == "csv":
        number = st.floats().map(repr) | st.text("0123456789.-e", max_size=6)
        rows = st.lists(st.tuples(number, number).map(",".join), max_size=6)
        return bytewise | rows.map(lambda lines: "\n".join(["strain,force_n", *lines]).encode())
    if kind in ("scenario", "layout"):
        paths = _key_paths(json.loads(valid))
        return bytewise | st.builds(_edit_json, st.just(valid), st.sampled_from(paths),
                                    json_values | st.just(DELETE))
    return bytewise


def fuzz_argv(kind, path):
    out = path.with_suffix(".out")
    return {
        "csv": ["spring", "fit", "--in", str(path)],
        "pgm": ["tactile", "detect", "--in", str(path)],
        "scenario": ["grasp", "simulate", "--scenario", str(path), "--k", "0.5"],
        # fixed small frame: size flags allocate without bound, so they are not fuzzed
        "layout": ["tactile", "render", "--layout", str(path), "--out", str(out),
                   "--width", "64", "--height", "48"],
    }[kind]


@pytest.mark.parametrize("kind", sorted(VALID_FILES))
def test_fuzz_malformed_file_exits_0_or_2(kind, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(f"fuzz-{kind}")

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(contents=malformed(kind))
    def check(contents):
        path = workdir / f"input.{kind}"
        path.write_bytes(contents)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(fuzz_argv(kind, path))
        assert code in (0, 2), err.getvalue()
        assert "internal error" not in err.getvalue()

    check()
