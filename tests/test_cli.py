import argparse
import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
import twistgrip
from twistgrip import expio
from twistgrip.cli import Result, build_parser, cmd_report, main
from twistgrip.spring import PayloadCurve, SkinSpec, predict_load


@pytest.fixture
def synthetic_csv(tmp_path):
    """Criterion 7's payload curve: slopes 100 and 400 N per strain, breakpoint 0.4."""
    golden.criterion7_invocations(tmp_path)  # writes its input files into tmp_path
    return tmp_path / "curve.csv"


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

    def test_json_mode(self, capsys, tmp_path):
        code, out, _ = run(capsys, _base_argv(tmp_path, "pressure"))
        assert code == 0
        doc = json.loads(out)
        assert doc["closed_form_n_per_m"] == pytest.approx(524.6, abs=0.05)
        assert doc["relative_difference"] < 1e-6

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    def test_residual_comes_from_the_quadrature_grid(self, capsys, n):
        code, out, _ = run(capsys, ["pressure", "--mass", "0.21", "--radius", "0.025", "--k", "0.5",
                                    "--n-intervals", str(n), "--json"])
        assert code == 0
        doc = json.loads(out)
        closed, quad = doc["closed_form_n_per_m"], doc["quadrature_n_per_m"]
        # one trapezoid I: quad = mg / (4 pi I), so the residual mg - 4 pi I closed is this
        expected = 0.21 * 9.81 * (quad - closed) / quad
        assert doc["equilibrium_residual_n"] == pytest.approx(expected, rel=1e-6)

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pressure", "--mass", "1", "--radius", "0.05", "--k", "0.2", "--bogus"])
        assert exc.value.code == 2


class TestSpringCommands:
    def test_fit_echoes_parameters(self, capsys, tmp_path):
        code, out, _ = run(capsys, _base_argv(tmp_path, "spring fit"))
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
        code, out, _ = run(capsys, ["spring", "fit", "--in", str(synthetic_csv), "--json"])
        assert code == 0
        assert out_path.read_bytes() == out.encode()

    def test_predict_strain_from_load(self, capsys):
        code, out, _ = run(capsys, ["spring", "predict", "--slope1", "100", "--slope2", "400",
                                    "--breakpoint", "0.4", "--load", "80", "--json"])
        assert code == 0
        assert json.loads(out)["strain"] == pytest.approx(0.5)

    def test_fit_skin_height_reads_deflection(self, capsys, tmp_path):
        height = 0.05
        deflections = np.linspace(0.0, 0.04, 30)
        loads = tuple(predict_load(d / height, SkinSpec(100.0, 400.0, 0.4))
                      for d in deflections)
        absolute, fraction = tmp_path / "deflection.csv", tmp_path / "strain.csv"
        expio.write_payload_csv(PayloadCurve(strains=tuple(deflections), loads=loads), absolute)
        expio.write_payload_csv(PayloadCurve(strains=tuple(deflections / height), loads=loads),
                                fraction)
        code, out, _ = run(capsys, ["spring", "fit", "--in", str(absolute),
                                    "--skin-height", repr(height), "--json"])
        assert code == 0
        assert run(capsys, ["spring", "fit", "--in", str(fraction), "--json"]) == (0, out, "")

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["spring", "fit", "--in", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error" in err


class TestGraspCommands:
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

    def test_simulate_sphere_too_small_for_pressure_exits_2_naming_radius(self, capsys, tmp_path):
        scenario = {"gripper": "4in", "object": {"shape_class": "sphere", "height_m": 1e-170,
                                                 "diameter_m": 1e-170, "mass_kg": 0.1}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(capsys, ["grasp", "simulate", "--scenario", str(path), "--k", "0.5"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: radius must")

    def test_simulate_holding_pressure_overflow_exits_2_naming_mass(self, capsys, tmp_path):
        scenario = {"gripper": "4in", "object": {"shape_class": "sphere", "height_m": 2e-150,
                                                 "diameter_m": 2e-150, "mass_kg": 1e300}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(capsys, ["grasp", "simulate", "--scenario", str(path), "--k", "0.5"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: mass must") and "p_bottom" not in err

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
         ' "diameter_m": 0.05, "mass_kg": 0.1}}', "shape_class 'blob'"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": "tall",'
         ' "diameter_m": 0.05, "mass_kg": 0.1}}', "height"),
        ('{"gripper": {"aperture_diameter": NaN}, "object": {"shape_class": "sphere",'
         ' "height_m": 0.05, "diameter_m": 0.04, "mass_kg": 0.1}}', "aperture_diameter"),
        ('{"gripper": {"aperture_diameter": 0.1, "rotation_speed": 1.0}, "object": {"shape_class":'
         ' "sphere", "height_m": 0.05, "diameter_m": 0.04, "mass_kg": 0.1}}', "rotation_speed"),
        ('{"gripper": {"aperture_diameter": 0.1, "full_close_angle": Infinity}, "object":'
         ' {"shape_class": "sphere", "height_m": 0.05, "diameter_m": 0.04, "mass_kg": 0.1}}',
         "full_close_angle"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": NaN,'
         ' "diameter_m": NaN, "mass_kg": 0.1}}', "height"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": 0.05,'
         ' "diameter_m": 0.04, "mass_kg": 0.1}, "submersion_fraction": 0.7,'
         ' "agitated_approach": "no"}', "agitated_approach"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": 0.05,'
         ' "diameter_m": 0.04, "mass_kg": 0.1}, "inside_petal_region": 0}',
         "inside_petal_region"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": 0.05,'
         ' "diameter_m": 0.04, "mass_kg": 0.1}, "submersion_fraction": "0.5"}',
         "submersion_fraction must lie in [0, 1]"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": 0.05,'
         ' "diameter_m": 0.04, "mass_kg": 0.1}, "submersion_fraction": true}',
         "submersion_fraction must lie in [0, 1]"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": 0.05,'
         f' "diameter_m": 0.04, "mass_kg": {10**400}}}}}', "mass"),
        ('{"gripper": "4in", "object": {"shape_class": "sphere", "height_m": true,'
         ' "diameter_m": 0.04, "mass_kg": 0.1}}', "height"),
    ], ids=["missing-key", "invalid-json", "unknown-shape-class", "wrong-type",
            "nan-aperture-diameter", "unknown-gripper-key", "infinite-close-angle", "nan-object",
            "string-agitated-flag", "number-petal-flag", "string-submersion-fraction",
            "bool-submersion-fraction", "mass-past-float-range", "bool-height"])
    def test_malformed_scenario_exits_2_naming_file_and_key(self, capsys, tmp_path, text, key):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run(capsys, ["grasp", "simulate", "--scenario", str(path)])
        assert (code, out) == (2, "")
        assert str(path) in err and key in err
        assert "internal error" not in err


class TestTactileCommands:
    def test_render_detect_track_summarize(self, capsys, tmp_path):
        """Criterion 7's tactile invocations: a noisy 5x5 frame, then one shifted by (3, -2)."""
        outs = {}
        for name, _, argv, _ in golden.criterion7_invocations(tmp_path):
            if name.startswith("tactile"):
                code, outs[name], _ = run(capsys, [str(a) for a in argv])
                assert code == 0, name
        assert json.loads(outs["tactile_detect"])["count"] == 25
        doc = json.loads(outs["tactile_track"])
        assert len(doc["matches"]) == 25
        assert doc["matches"][0]["dx"] == pytest.approx(3.0, abs=0.5)
        assert json.loads(outs["tactile_summarize"])["label"] == "contact-with-air"

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
        *((f'{{"marker_diameter_m": 0.002, "markers": [{{"id": 0, "u": 0.2, "v": 0.2}},'
           f' {{"id": {mid}, "u": 0.5, "v": 0.5}}]}}', "marker id must be an integer")
          for mid in ('"a"', "1.0", "null", "true")),
        (f'{{"marker_diameter_m": {10**400}, "markers": []}}', "marker_diameter"),
        ('{"marker_diameter_m": 0.002, "markers": [{"id": 0, "u": true, "v": 0.5}]}', "marker 0 u"),
    ], ids=["invalid-json", "no-markers", "no-diameter", "no-id", "no-u", "no-v", "nan-diameter",
            "string-u", "string-id", "float-id", "null-id", "bool-id", "diameter-past-float-range",
            "bool-u"])
    def test_render_malformed_layout_exits_2_naming_file_and_key(self, capsys, tmp_path,
                                                                   text, key):
        layout = tmp_path / "layout.json"
        layout.write_text(text)
        # the shift clips every marker, which once sorted the mixed clipped ids
        code, _, err = run(capsys, ["tactile", "render", "--layout", str(layout),
                                    "--out", str(tmp_path / "f.pgm"), "--shift", "100000", "0"])
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

    def test_render_radius_far_beyond_the_frame(self, capsys, tmp_path):
        # 6.4e7 px discs light every pixel; an offset array that grew with r would not fit
        frame, sidecar = tmp_path / "f.pgm", tmp_path / "f.json"
        code, out, _ = run(capsys, ["tactile", "render", "--grid", "2x2", "--width", "64",
                                    "--height", "48", "--view-width", "1e-9", "--out", str(frame),
                                    "--sidecar", str(sidecar)])
        assert code == 0
        assert out == f"wrote {frame} (64x48, 4 markers visible)\n"
        assert frame.read_bytes() == b"P5\n64 48\n255\n" + b"\xff" * (64 * 48)
        assert json.loads(sidecar.read_text()) == {
            "clipped": [], "marker_radius_px": 63999999.99999999, "noise_sigma": 0.0,
            "occluded": [], "seed": 0, "timestamp": 0,
            "visible": [{"id": 0, "x": 6.300000000000001, "y": 4.7},
                        {"id": 1, "x": 56.7, "y": 4.7},
                        {"id": 2, "x": 6.300000000000001, "y": 42.300000000000004},
                        {"id": 3, "x": 56.7, "y": 42.300000000000004}]}

    def test_render_default_view_width_overflow_names_its_value(self, capsys, tmp_path):
        # --view-width is not given, so the message must show the default it stood for
        layout = tmp_path / "layout.json"
        layout.write_text('{"marker_diameter_m": 1e306,'
                          ' "markers": [{"id": 0, "u": 0.5, "v": 0.5}]}')
        code, out, err = run(capsys, ["tactile", "render", "--layout", str(layout),
                                      "--out", str(tmp_path / "f.pgm")])
        assert code == 2 and out == ""
        assert err == ("error: --view-width must leave the marker radius positive and finite in "
                       "pixels; 0.05 m with 1e+306 m markers gives inf px\n")
        assert not (tmp_path / "f.pgm").exists()


def _commands(parser, words=()):
    """(words, parser) of the program and of each subcommand, depth first."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, (*words, name))


# "spring fit" -> its parser, for each command that runs (sets func)
COMMANDS = {" ".join(words): parser for words, parser in _commands(build_parser())
            if parser.get_default("func")}


READS_FRAMES = {"tactile detect", "tactile track", "tactile summarize"}


def _base_argv(tmp_path, command):
    """argv of criterion 7's first invocation of command, its inputs in tmp_path: the renders
    run only for a command in READS_FRAMES; report does not run, so there is no --out-dir."""
    bases = {}
    for _, _, argv, _ in golden.criterion7_invocations(tmp_path):
        argv = [str(a) for a in argv]
        name = " ".join(a for a in argv[:2] if not a.startswith("-"))
        if name == "tactile render" and command in READS_FRAMES:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        bases.setdefault(name, argv)
    return bases[command]


def _override(command, base, args):
    """base, then args, whose values argparse keeps; a flag of args in a mutually exclusive
    group drops the group's flags from base, each with its one value."""
    parser = COMMANDS[command]
    given = {parser._option_string_actions[a.partition("=")[0]] for a in args if a[:2] == "--"}
    dropped = {flag for group in parser._mutually_exclusive_groups
               if given.intersection(group._group_actions)
               for action in group._group_actions for flag in action.option_strings}
    return [*(a for a, before in zip(base, [None, *base]) if dropped.isdisjoint((a, before))),
            *args]


@pytest.mark.parametrize("command, args, prefix", [
    ("tactile track", ["--gate", "nan"], "gate must"),
    ("tactile summarize", ["--air-support", "nan"], "air_support_kpa must"),
    ("tactile summarize", ["--air-support", "-1"], "air_support_kpa must"),
    ("tactile detect", ["--min-area", "-3"], "min_area must be >= 0"),
    ("tactile render", ["--view-width", "nan"], "view_width must"),
    ("tactile render", ["--view-width", "1e-320"], "--view-width must"),
    ("tactile render", ["--shift", "nan", "0"], "--shift must"),
    ("tactile render", ["--noise", "nan"], "noise_sigma must"),
    ("tactile render", ["--noise", "-1"], "noise_sigma must"),
    ("tactile render", ["--seed", "-1"], "seed must"),
    ("tactile render", ["--noise", "0", "--seed", "-3"], "seed must"),
    ("spring predict", ["--g", "nan"], "g must"),
    ("pressure", ["--mass", "1", "--radius", "1e-170"], "radius must"),
    ("pressure", ["--mass", "1", "--radius", "1e300"], "radius must"),
    ("pressure", ["--radius", "1e154"], "radius must"),
    ("pressure", ["--mass", "0", "--radius", "1e154"], "radius must"),
    ("pressure", ["--mass", "1e300", "--radius", "1e-150"], "mass must"),
    ("spring predict", ["--g", "1e-320"], "g must"),
    ("spring predict", ["--strain", "1e307"], "strain must"),
    ("spring predict", ["--slope1", "1e-310", "--slope2", "1e-309", "--load", "1e300"],
     "load must"),
    ("report", ["--radius", "1e154"], "radius must"),
    ("spring fit", ["--skin-height", "1e-320"], "skin_height must"),
], ids=["gate-nan", "air-support-nan", "air-support-negative", "min-area-negative",
        "view-width-nan", "view-width-overflows-radius", "shift-nan", "noise-nan",
        "noise-negative", "noisy-seed-negative", "seed-negative", "predict-g-nan",
        "radius-square-underflows", "radius-square-overflows", "pressure-support-overflows",
        "massless-support-overflows", "pressure-overflows", "predict-mass-overflows",
        "predict-strain-overflows", "predict-load-overflows", "report-support-overflows",
        "skin-height-overflows-strain"])
def test_out_of_domain_number_flag_exits_2_naming_field(capsys, tmp_path, command, args, prefix):
    code, out, err = run(capsys, _override(command, _base_argv(tmp_path, command), args))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {prefix}")
    assert not (tmp_path / "report").exists()  # report writes nothing before every section holds


class TestReportCommand:
    def test_end_to_end_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, _base_argv(tmp_path, "report"))
        assert code == 0
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        titles = [s["title"] for s in doc["sections"]]
        assert "Two-zone spring fit" in titles
        assert (tmp_path / "report" / "payload_fit.svg").exists()

    # --json key -> report metric name, spelled out apart from cli's field tables
    FIT_NAMES = {
        "slope1_n_per_strain": "slope1", "slope2_n_per_strain": "slope2",
        "breakpoint_strain": "breakpoint", "rms_relative_error": "rms_relative_error",
        "degenerate": "degenerate", "max_fitted_strain": "max_fitted_strain",
    }
    PRESSURE_NAMES = {
        "closed_form_n_per_m": "closed_form", "quadrature_n_per_m": "quadrature",
        "relative_difference": "relative_difference",
        "equilibrium_residual_n": "equilibrium_residual", "n_intervals": "n_intervals",
    }

    def _report_metrics(self, capsys, tmp_path, *args):
        """{title: metrics} of criterion 7's report in tmp_path, args overriding its flags."""
        code, _, _ = run(capsys, _override("report", _base_argv(tmp_path, "report"), [*args]))
        assert code == 0
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        return {s["title"]: s["metrics"] for s in doc["sections"]}

    @pytest.mark.parametrize("title, names, command", [
        ("Two-zone spring fit", FIT_NAMES, "spring fit"),
        ("Line pressure cross-check", PRESSURE_NAMES, "pressure"),
    ])
    def test_report_section_holds_every_json_field(self, capsys, tmp_path, title, names, command):
        code, out, _ = run(capsys, _base_argv(tmp_path, command))  # criterion 7's, with --json
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == set(names)
        metrics = self._report_metrics(capsys, tmp_path)[title]
        for key, value in payload.items():
            assert metrics[names[key]]["value"] == value, key

    def test_single_slope_report_flags_degenerate(self, capsys, tmp_path):
        strains = np.linspace(0.0, 1.0, 20)
        curve = PayloadCurve(strains=tuple(strains), loads=tuple(150.0 * strains))
        path = tmp_path / "line.csv"
        expio.write_payload_csv(curve, path)
        metrics = self._report_metrics(capsys, tmp_path, "--curve", str(path))
        assert metrics["Two-zone spring fit"]["degenerate"] == {"value": True, "unit": ""}


def _tree(root):
    """{path: bytes, or None for a directory} of everything under root."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestResultContract:
    """Each command computes one Result and touches no file; main alone writes and prints."""

    def test_command_returns_result_and_main_writes_exactly_its_files(self, capsys, tmp_path):
        for name, _, argv, _ in golden.criterion7_invocations(tmp_path):
            argv = [str(a) for a in argv]
            before = _tree(tmp_path)
            args = build_parser().parse_args(argv)
            result = args.func(args)
            assert isinstance(result, Result), name
            out_dir = {Path(args.out_dir): None} if name == "report" else {}
            assert _tree(tmp_path) == {**before, **out_dir}, name  # report makes --out-dir only
            assert capsys.readouterr().out == "", name
            assert main(argv) == result.code == 0, name
            capsys.readouterr()
            after = _tree(tmp_path)
            written = {p for p, data in after.items() if data is not None and p not in before}
            assert written == {Path(path) for path, _ in result.files}, name

    def test_report_payload_is_the_written_document(self, capsys, tmp_path):
        argv = _base_argv(tmp_path, "report")
        payload = cmd_report(build_parser().parse_args(argv)).payload
        assert main(argv) == 0
        assert payload == json.loads((tmp_path / "report" / "report.json").read_text())

    @pytest.mark.parametrize("command, flag, path", [
        ("spring fit", "--out", "absent/fit.json"),
        ("tactile render", "--out", "absent/frame.pgm"),
        ("tactile render", "--sidecar", "absent/gt.json"),
        ("report", None, "report/report.json"),  # criterion 7's own --out-dir
    ], ids=["spring-fit-out", "tactile-render-out", "tactile-render-sidecar", "report-json"])
    def test_failing_write_exits_2_naming_path_with_nothing_on_stdout(
            self, capsys, tmp_path, command, flag, path):
        (tmp_path / "report" / "report.json").mkdir(parents=True)  # a directory in the way
        path = str(tmp_path / path)
        argv = _base_argv(tmp_path, command)
        before = _tree(tmp_path)
        code, out, err = run(capsys, _override(command, argv, [flag, path]) if flag else argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and path in err
        assert _tree(tmp_path) == before  # no file is written before every destination holds

    class FullStdout(io.StringIO):
        def write(self, text):  # a full disk or a closed pipe
            raise OSError(28, "No space left on device")

    @pytest.mark.parametrize("stdout, err", [
        (None, "error: stdout is closed\n"),  # >&-: checked with the destinations
        (FullStdout(), "error: [Errno 28] No space left on device\n"),  # fails after the files
    ], ids=["closed", "failing"])
    def test_stdout_that_takes_no_output_exits_2(self, capsys, monkeypatch, tmp_path, stdout, err):
        out = tmp_path / "fit.json"
        argv = _override("spring fit", _base_argv(tmp_path, "spring fit"), ["--out", str(out)])
        before = _tree(tmp_path)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 2
        assert capsys.readouterr().err == err
        assert set(_tree(tmp_path)) == set(before) | ({out} if stdout else set())


VALID_FILES = {
    "csv": b"strain,force_n\n0.0,0.0\n0.2,20.0\n0.4,40.0\n0.6,100.0\n0.8,160.0\n",
    "pgm": b"P5\n6 4\n255\n" + bytes([0, 0, 255, 255, 0, 0] * 4),
    "scenario": json.dumps({
        "gripper": {"aperture_diameter": 0.1, "full_close_angle": 6.0},
        "object": {"shape_class": "sphere", "height_m": 0.05, "diameter_m": 0.04,
                   "mass_kg": 0.1, "label": "ball"},
        "submersion_fraction": 0.1, "inside_petal_region": True, "agitated_approach": False,
    }).encode(),
    "layout": json.dumps({"marker_diameter_m": 0.002, "markers": [
        {"id": 0, "u": 0.2, "v": 0.3}, {"id": 1, "u": 0.7, "v": 0.6}]}).encode(),
}
DELETE = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400]) | st.floats()
    | st.text(max_size=4),
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


# file kind -> the command and the flag that reads it
READERS = {"csv": ("spring fit", "--in"), "pgm": ("tactile detect", "--in"),
           "scenario": ("grasp simulate", "--scenario"), "layout": ("tactile render", "--layout")}


@pytest.mark.parametrize("kind", sorted(VALID_FILES))
def test_fuzz_malformed_file_exits_0_or_2(kind, tmp_path_factory):
    """Criterion 7's invocation of the command that reads kind, on each malformed file."""
    workdir = tmp_path_factory.mktemp(f"fuzz-{kind}")
    path = workdir / f"input.{kind}"
    command, flag = READERS[kind]
    argv = _override(command, _base_argv(workdir, command), [flag, str(path)])

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(contents=malformed(kind))
    def check(contents):
        path.write_bytes(contents)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), err.getvalue()
        assert "internal error" not in err.getvalue()

    check()


# A child process that runs the CLI from this checkout's src/, with no user site, and turns
# any warning into an exception, so a numpy overflow warning exits 1, not 2. It runs main(argv),
# then prints the twistgrip modules loaded by then as stderr's last line.
CHILD_ENV = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONNOUSERSITE": "1",
             "PYTHONPATH": str(Path(twistgrip.__file__).resolve().parents[1]),
             "PYTHONWARNINGS": "error"}
LOADED_AT_EXIT = """import json, sys
from twistgrip.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "twistgrip")),
      file=sys.stderr)
sys.exit(code)
"""


def test_tactile_command_loads_no_grasp(tmp_path):
    argv = _base_argv(tmp_path, "tactile detect")
    child = subprocess.run([sys.executable, "-c", LOADED_AT_EXIT, *argv], env=CHILD_ENV,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0 and json.loads(child.stdout)["count"] == 25
    loaded = json.loads(child.stderr.splitlines()[-1])
    assert "twistgrip.tactile" in loaded and "twistgrip.grasp" not in loaded


HELP_FIXTURE = Path(__file__).with_name("fixtures") / "cli_help.json"


def test_help_text_unchanged(capsys, monkeypatch):
    """--help of the program and of every subcommand, against the recorded text (80 columns)."""
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(HELP_FIXTURE.read_text(encoding="utf-8"))
    paths = [" ".join(words) for words, _ in _commands(build_parser())]
    assert sorted(paths) == sorted(expected)
    for path in paths:
        with pytest.raises(SystemExit) as exc:
            main([*path.split(), "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected[path], path


ADDRESS_SPACE_CAP = 3 * 2**30  # bytes; set in the child only, never in this process


def _main_in_child(argv):
    """(exit code, stdout, stderr) of main(argv) in a child forked from this process, which has
    60 s, ADDRESS_SPACE_CAP and every warning as an error (a numpy overflow exits 1, not 2)."""
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns that a child forked from a threaded process may deadlock. The other
        # threads are numpy's BLAS pool; the child calls no BLAS routine and ends in os._exit.
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child, which must never return into the test run
        try:
            signal.alarm(60)
            resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
            warnings.simplefilter("error")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejected argv
                    code = exc.code
            with os.fdopen(write, "w") as pipe:
                json.dump([code, out.getvalue(), err.getvalue()], pipe)
        except BaseException:  # into the test's captured stderr; the parent sees no result
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        result = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert result, f"child died without a result, wait status {status:#x}: {argv}"
    return tuple(json.loads(result))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_base_argv_exits_0_in_child(command, tmp_path):  # a cap that starves a child fails here
    assert _main_in_child(_base_argv(tmp_path, command))[::2] == (0, "")


@pytest.mark.parametrize("argv, command", [  # argv is added to criterion 7's invocation
    (["--width", "40000", "--height", "40000"], "tactile render"),
    (["--n-intervals", "2000000000"], "pressure"),
    (["--width", str(2**63)], "tactile render"),
    (["--n-intervals", str(10**30)], "pressure"),
])
def test_input_too_large_to_serve_exits_2_naming_subcommand(tmp_path, argv, command):
    code, _, err = _main_in_child(_override(command, _base_argv(tmp_path, command), argv))
    assert code == 2, err
    assert err.startswith(f"error: {command}: ")
    assert "internal error" not in err


FUZZ_VALUES = {
    float: st.floats() | st.sampled_from([-1.0, 1e-170, 1e-300, 1e300]),
    # sizes are small or beyond any array, so no child fills memory before it fails
    int: st.integers(-1000, 1000) | st.sampled_from([10**12, 2**60, 2**63, 10**30, 10**400]),
}
# numbers that once exited 1 or printed a non-finite number, always tried first
REGRESSIONS = {
    "pressure": [("--radius", 1e-170), ("--radius", 1e300), ("--n-intervals", 2**60),
                 ("--radius", 1e154), ("--mass", 1e306)],
    "spring fit": [("--skin-height", 1e-320)],
    "spring predict": [("--g", 1e-320), ("--strain", 1e307)],
    "tactile render": [("--height", 2**60), ("--noise", 1e308), ("--width", 10**400)],
    "tactile detect": [("--min-area", -3), ("--threshold", 256)],
    "tactile track": [("--gate", 1e-300), ("--gate", 1e300)],
    "tactile summarize": [("--min-area", -3)],
}


# command -> {flag: action} of each flag whose value argparse converts to a number
TYPED = {command: {a.option_strings[0]: a for a in parser._actions if a.type is not None}
         for command, parser in COMMANDS.items()}


@pytest.mark.parametrize("command", sorted(command for command, flags in TYPED.items() if flags))
def test_fuzz_number_flag_exits_0_or_2(command, tmp_path):
    """Each typed flag of the parser, one at a time, added to criterion 7's invocation."""
    base = _base_argv(tmp_path, command)
    flags = TYPED[command]
    flag_values = st.one_of([st.tuples(st.just(flag), FUZZ_VALUES[action.type])  # or KeyError
                             for flag, action in sorted(flags.items())])

    @settings(max_examples=8, derandomize=True, database=None, deadline=None)
    @given(flag_value=flag_values)
    def check(flag_value):
        flag, value = flag_value
        nargs = flags[flag].nargs  # n values go spaced, where argparse reads "-1e-9" as a flag
        args = ([flag, repr(abs(value)), *["0"] * (nargs - 1)] if isinstance(nargs, int)
                else [f"{flag}={value!r}"])
        argv = _override(command, base, args)
        code, out, err = _main_in_child(argv)
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert err.startswith("error: ") and "Warning" not in err, (argv, err)
        elif "--json" in argv:
            json.loads(out, parse_constant=lambda token: pytest.fail(f"stdout holds {token}"))

    for flag_value in [*REGRESSIONS.get(command, []), *((flag, -1) for flag in sorted(flags))]:
        check = example(flag_value=flag_value)(check)  # tried before the draws
    check()
