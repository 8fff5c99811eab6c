"""Acceptance suite: one test per release criterion, each printing a PASS line
(run with -s to see them)."""
import json
import time

import numpy as np
import pytest

from twistgrip import expio
from twistgrip.cli import main
from twistgrip.grasp import (
    GraspScenario,
    GripperGeometry,
    ObjectDescriptor,
    Reason,
    ShapeClass,
    Verdict,
    grasp_feasibility,
    validate_against_reference,
)
from twistgrip.pressure import (
    FrictionModel,
    PressureDistribution,
    SphericalObject,
    equilibrium_residual,
    line_pressure_closed_form,
    line_pressure_quadrature,
)
from twistgrip.spring import PayloadCurve, SkinSpec, fit_zones, predict_load
from twistgrip.tactile import (
    CameraModel,
    Deformation,
    MarkerLayout,
    binarize,
    detect_markers,
    render_frame,
    track,
)

GRID = [
    (m, r, k)
    for m in np.linspace(0.01, 5.0, 10)
    for r in np.linspace(0.005, 0.1, 10)
    for k in np.linspace(0.0, 0.9, 10)
]


def report(n, text):
    print(f"[acceptance] criterion {n}: PASS - {text}")


def test_criterion_1_closed_form_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for m, r, k in GRID:
        obj = SphericalObject(m, r)
        fric = FrictionModel(k)
        closed = line_pressure_closed_form(obj, fric)
        quad = line_pressure_quadrature(obj, fric, n_intervals=100_000)
        worst = max(worst, abs(quad - closed) / closed)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    report(1, f"closed form vs quadrature on 10x10x10 grid, worst rel diff "
              f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_equilibrium_residual():
    worst = 0.0
    for m, r, k in GRID:
        obj = SphericalObject(m, r)
        fric = FrictionModel(k)
        p = line_pressure_closed_form(obj, fric)
        residual = equilibrium_residual(obj, fric, PressureDistribution(p_bottom=p))
        mg = m * 9.81
        worst = max(worst, abs(residual) / mg)
    assert worst < 1e-6
    report(2, f"closed-form pressure balances gravity, worst |residual|/mg {worst:.2e}")


def test_criterion_3_unit_cross_check():
    kgf = expio.newtons_to_kgf(328.7)
    assert abs(kgf - 33.51) < 0.01
    computed = expio.payload_to_weight_ratio(33.51, 0.491)
    recorded = expio.load_reference_dataset("table1_payload")["rows"][0]["reported_ratio_percent"]
    rel = abs(computed - recorded) / recorded
    assert rel < 0.005
    report(3, f"328.7 N = {kgf:.4f} kgf; computed ratio {computed:.1f}% vs recorded "
              f"{recorded:.0f}% (rel diff {rel:.2%}, discrepancy reported, not adopted)")


def test_criterion_4_spring_fit_round_trip():
    strains = np.linspace(0.0, 1.0, 50)
    slow = 120.0
    for ratio in (1.5, 4.0, 10.0):
        spec = SkinSpec(slow, slow * ratio, 0.4)
        loads = np.array([predict_load(s, spec) for s in strains])

        start = time.perf_counter()
        fit = fit_zones(PayloadCurve(strains=tuple(strains), loads=tuple(loads)))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert fit.slope1 == pytest.approx(slow, rel=1e-6)
        assert fit.slope2 == pytest.approx(slow * ratio, rel=1e-6)
        assert fit.breakpoint == pytest.approx(0.4, rel=1e-6)

        rng = np.random.default_rng(2024)
        noisy = np.maximum.accumulate(np.abs(loads * (1 + 0.02 * rng.standard_normal(50))))
        start = time.perf_counter()
        noisy_fit = fit_zones(PayloadCurve(strains=tuple(strains), loads=tuple(noisy)))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert noisy_fit.slope1 == pytest.approx(slow, rel=0.05)
        assert noisy_fit.slope2 == pytest.approx(slow * ratio, rel=0.05)
        assert noisy_fit.breakpoint == pytest.approx(0.4, rel=0.05)
        assert noisy_fit.rms_relative_error < 0.10
    report(4, "slopes and breakpoint recovered to 1e-6 exact / 5% noisy for "
              "stiffness ratios 1.5, 4, 10; rms prediction error < 10%")


def test_criterion_5_reference_table_agreement():
    table2 = validate_against_reference("table2_objects")
    assert table2.n_agree == 8 and table2.n_total == 8
    table3 = validate_against_reference("table3_submersion")
    assert table3.n_agree == 4 and table3.n_total == 4
    assert [row.predicted for row in table3.rows] == [
        Verdict.FEASIBLE, Verdict.FEASIBLE, Verdict.INFEASIBLE, Verdict.INFEASIBLE]

    gripper = GripperGeometry.from_name("8in")
    disc = ObjectDescriptor(ShapeClass.FLAT, height=0.0012, diameter=0.12, mass=0.015)
    assert grasp_feasibility(GraspScenario(gripper=gripper, obj=disc)).reason_code \
        is Reason.FLAT_OBJECT
    ball = ObjectDescriptor(ShapeClass.SPHERE, height=0.25, diameter=0.25, mass=1.0)
    assert grasp_feasibility(GraspScenario(gripper=gripper, obj=ball)).reason_code \
        is Reason.OVERSIZED
    report(5, "object table 8/8, submersion table 4/4, flat disc -> FlatObject, "
              "oversized sphere -> Oversized")


def test_criterion_6_tactile_pipeline():
    layout = MarkerLayout.grid(5, 5)
    camera = CameraModel()
    rng = np.random.default_rng(31415)
    start = time.perf_counter()

    def run_frame(deformation, noise, seed):
        frame, sidecar = render_frame(layout, deformation, camera,
                                      noise_sigma=noise, seed=seed)
        markers = detect_markers(binarize(frame), min_area=5)
        detections = markers.xy
        errors = []
        for truth in sidecar["visible"]:
            dists = np.linalg.norm(detections - [truth["x"], truth["y"]], axis=1)
            errors.append(float(dists.min()) if len(dists) else np.inf)
        return markers, errors

    # 50 noiseless frames with random per-marker displacements
    hits = total = 0
    worst = 0.0
    for i in range(50):
        displacements = {mid: tuple(rng.uniform(-4, 4, 2)) for mid, _ in layout.markers}
        _, errors = run_frame(Deformation(displacements=displacements), 0.0, i)
        hits += sum(1 for e in errors if e <= 0.5)
        total += len(errors)
        worst = max(worst, max(errors))
    noiseless_recall = hits / total
    assert noiseless_recall >= 0.99
    assert worst <= 0.5

    # 50 frames with 20% occlusion and sigma=8 noise
    hits = total = 0
    for i in range(50):
        occluded = set(rng.choice(25, size=5, replace=False).tolist())
        _, errors = run_frame(Deformation(occluded=occluded), 8.0, i)
        hits += sum(1 for e in errors if e <= 0.5)
        total += len(errors)
    noisy_recall = hits / total
    assert noisy_recall >= 0.95

    # uniform shift tracked within 0.5 px on every match
    frame0, _ = render_frame(layout, Deformation(), camera)
    frame1, _ = render_frame(layout, Deformation.uniform_shift(layout, 3.0, -2.0), camera)
    prev = detect_markers(binarize(frame0), min_area=5)
    curr = detect_markers(binarize(frame1), min_area=5)
    field = track(prev, curr, gate=10.0)
    assert len(field.prev_index) == 25
    assert np.abs(field.shifts - [3.0, -2.0]).max() <= 0.5

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, f"recall {noiseless_recall:.1%} noiseless (err <= {worst:.2f} px), "
              f"{noisy_recall:.1%} with occlusion+noise, shift tracked on all 25 "
              f"matches, {elapsed:.1f}s for 100 frames")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    spec = SkinSpec(100.0, 400.0, 0.4)
    strains = np.linspace(0.0, 1.0, 50)
    curve = PayloadCurve(
        strains=tuple(strains),
        loads=tuple(predict_load(s, spec) for s in strains),
    )
    csv_path = tmp_path / "curve.csv"
    expio.write_payload_csv(curve, csv_path)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "gripper": "4in",
        "object": {"shape_class": "sphere", "height_m": 0.052,
                   "diameter_m": 0.045, "mass_kg": 0.057},
        "submersion_fraction": 0.3,
    }))

    def files(run_dir):
        run_dir.mkdir(parents=True, exist_ok=True)
        return {
            "frame": run_dir / "frame.pgm",
            "shifted": run_dir / "shifted.pgm",
            "sidecar": run_dir / "gt.json",
            "fit": run_dir / "fit.json",
            "report": run_dir / "report",
        }

    def invocations(paths):
        return [
            ["pressure", "--mass", "0.21", "--radius", "0.025", "--k", "0.5", "--json"],
            ["spring", "fit", "--in", str(csv_path), "--out", str(paths["fit"]), "--json"],
            ["spring", "predict", "--slope1", "100", "--slope2", "400",
             "--breakpoint", "0.4", "--strain", "0.5", "--json"],
            ["grasp", "simulate", "--scenario", str(scenario_path), "--k", "0.5", "--json"],
            ["grasp", "validate", "--dataset", "table2", "--json"],
            ["grasp", "validate", "--dataset", "table3", "--json"],
            ["tactile", "render", "--grid", "5x5", "--out", str(paths["frame"]),
             "--sidecar", str(paths["sidecar"]), "--noise", "8", "--seed", "0"],
            ["tactile", "render", "--grid", "5x5", "--out", str(paths["shifted"]),
             "--shift", "3", "-2", "--seed", "0"],
            ["tactile", "detect", "--in", str(paths["frame"]), "--json"],
            ["tactile", "track", "--prev", str(paths["frame"]),
             "--curr", str(paths["shifted"]), "--gate", "10", "--json"],
            ["tactile", "summarize", "--prev", str(paths["frame"]),
             "--curr", str(paths["shifted"]), "--air-support", "3", "--json"],
            ["report", "--curve", str(csv_path), "--out-dir", str(paths["report"])],
        ]

    outputs = []
    artifacts = []
    for run_id in ("run1", "run2"):
        paths = files(tmp_path / run_id)
        stdout_chunks = []
        for argv in invocations(paths):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{argv} exited {code}: {captured.err}"
            # strip per-run tmp paths so the streams compare equal
            stdout_chunks.append(captured.out.replace(str(tmp_path / run_id), "<run>"))
        outputs.append("".join(stdout_chunks))
        artifacts.append({
            name: (path.read_bytes() if path.is_file()
                   else {f.name: f.read_bytes() for f in sorted(path.iterdir())})
            for name, path in paths.items()
        })
    assert outputs[0] == outputs[1]
    assert artifacts[0] == artifacts[1]
    report(7, "12 CLI invocations repeated: stdout and all artifacts byte-identical")
