"""Batch command-line interface for the models, fitting, simulation, and
tactile pipeline.

All flags use SI units; inch-version gripper presets expand to metric
apertures at the boundary. Every subcommand is deterministic for a fixed
seed, takes no configuration from the environment, and offers a
machine-readable JSON mode next to the human-readable default.

Exit codes: 0 success, 2 input/validation error, 1 internal error.

Each command computes its whole result first; `main` then checks every file's
destination, writes the files in order and prints stdout last, so a failing
write exits 2 with nothing on stdout, and a destination whose parent is no
directory, or that is one, fails before the first file is written.

Each command imports the modules it runs when it runs, so `spring predict`,
`grasp simulate` and `grasp validate` never load numpy, and only the tactile
commands load `tactile`. `pressure` is imported here for the parser's
defaults; it loads numpy on its first quadrature only.
"""
from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import pressure
from .errors import DomainError, ParseError, TwistgripError, ValidationError, require_key

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

# A command's outcome: the --json payload, the human lines, the (path, writer) pairs that
# main calls in order as writer(path), and the exit code.
Result = collections.namedtuple("Result", "payload human files code", defaults=((), EXIT_OK))


def _from_json_file(path, build):
    """build(doc) for the JSON document in path; a malformed file raises an error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, deep nesting, oversized integer
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    try:
        return build(doc)
    except (TwistgripError, TypeError) as exc:  # missing key, out-of-range or wrongly typed value
        raise ValidationError(f"{path}: {exc}") from exc


def _scenario_from_json(doc):
    from . import grasp
    gripper = require_key(doc, "gripper")
    shape, height, diameter, mass = (require_key(doc, "object", key) for key in
                                     ("shape_class", "height_m", "diameter_m", "mass_kg"))
    shapes = [c.value for c in grasp.ShapeClass]
    if shape not in shapes:
        raise ValidationError(f"object.shape_class {shape!r} is not one of {shapes}")
    return grasp.GraspScenario(
        gripper=(grasp.GripperGeometry.from_name(gripper) if isinstance(gripper, str)
                 else grasp.GripperGeometry(**gripper)),
        obj=grasp.ObjectDescriptor(shape, height, diameter, mass),
        submersion_fraction=doc.get("submersion_fraction", 0.0),
        inside_petal_region=doc.get("inside_petal_region", True),
        agitated_approach=doc.get("agitated_approach", False),
    )


# (report metric name, --json key, unit) of each field of a command's result
_FIT_FIELDS = (
    ("slope1", "slope1_n_per_strain", "N/strain"),
    ("slope2", "slope2_n_per_strain", "N/strain"),
    ("breakpoint", "breakpoint_strain", "strain"),
    ("rms_relative_error", "rms_relative_error", "1"),
    ("degenerate", "degenerate", ""),
    ("max_fitted_strain", "max_fitted_strain", "strain"),
)
_PRESSURE_FIELDS = (
    ("closed_form", "closed_form_n_per_m", "N/m"),
    ("quadrature", "quadrature_n_per_m", "N/m"),
    ("relative_difference", "relative_difference", "1"),
    ("equilibrium_residual", "equilibrium_residual_n", "N"),
    ("n_intervals", "n_intervals", "1"),
)

# `grasp validate --dataset` choice -> the bundled table it replays; `report` replays each
_REPLAY_TABLES = {"table2": "table2_objects", "table3": "table3_submersion"}


def _tabulate(fields, values):
    """The --json payload and the report metrics of one result, from its field table."""
    rows = tuple(zip(fields, values, strict=True))
    return ({key: value for (_, key, _), value in rows},
            {name: {"value": value, "unit": unit} for (name, _, unit), value in rows})


def _fit_result(fit):
    """(payload, metrics, human lines) of a two-zone fit."""
    payload, metrics = _tabulate(_FIT_FIELDS, (
        fit.slope1, fit.slope2, fit.breakpoint, fit.rms_relative_error,
        fit.degenerate, fit.max_fitted_strain))
    human = [
        f"soft-zone slope:  {fit.slope1:.6g} N/strain",
        f"stiff-zone slope: {fit.slope2:.6g} N/strain",
        f"breakpoint:       {fit.breakpoint:.6g} strain",
        f"rms relative error: {fit.rms_relative_error:.3e}",
    ]
    if fit.degenerate:
        human.append("warning: single slope fits the data; breakpoint is unreliable")
    return payload, metrics, human


def _pressure_result(args, g, n_intervals):
    """(payload, metrics, human lines) of the line-pressure cross-check for the args' sphere."""
    obj = pressure.SphericalObject(mass=args.mass, radius=args.radius)
    fric = pressure.FrictionModel(k=args.k)
    closed = pressure.line_pressure_closed_form(obj, fric, g=g)
    quad = pressure.line_pressure_quadrature(obj, fric, g=g, n_intervals=n_intervals)
    rel = abs(quad - closed) / closed if closed else 0.0
    residual = pressure.equilibrium_residual(
        obj, fric, pressure.PressureDistribution(p_bottom=closed), g=g, n_intervals=n_intervals)
    payload, metrics = _tabulate(_PRESSURE_FIELDS, (closed, quad, rel, residual, n_intervals))
    return payload, metrics, [
        f"line pressure (closed form): {closed:.6g} N/m",
        f"line pressure (quadrature, n={n_intervals}): {quad:.6g} N/m",
        f"relative difference: {rel:.3e}",
        f"equilibrium residual: {residual:.3e} N",
    ]


def cmd_pressure(args):
    payload, _, human = _pressure_result(args, args.g, args.n_intervals)
    return Result(payload, human)


def cmd_spring_fit(args):
    from . import expio, spring
    curve = expio.read_payload_csv(args.infile, skin_height=args.skin_height)
    payload, _, human = _fit_result(spring.fit_zones(curve))
    return Result(payload, human,
                  [(args.out, functools.partial(expio.write_json, payload))] if args.out else ())


def cmd_spring_predict(args):
    from . import spring
    spec = spring.SkinSpec(args.slope1, args.slope2, args.breakpoint)
    if args.strain is not None:
        load = spring.predict_load(args.strain, spec)
        mass = spring.estimate_object_mass(args.strain, spec, g=args.g)
        payload = {"strain": args.strain, "load_n": load, "estimated_mass_kg": mass}
        human = [f"load at strain {args.strain:.6g}: {load:.6g} N "
                 f"(object mass {mass:.6g} kg at g={args.g})"]
    else:
        strain = spring.predict_strain(args.load, spec)
        payload = {"load_n": args.load, "strain": strain}
        human = [f"strain at load {args.load:.6g} N: {strain:.6g}"]
    return Result(payload, human)


def cmd_grasp_simulate(args):
    from . import grasp
    scenario = _from_json_file(args.scenario, _scenario_from_json)
    outcome = grasp.grasp_feasibility(scenario)
    payload = {
        "verdict": outcome.verdict.value,
        "reason": outcome.reason_code.value,
        "phase_trace": [
            {"phase": phase, "angle_rad": angle, "coverage": cov}
            for phase, angle, cov in outcome.phase_trace
        ],
    }
    human = [f"verdict: {outcome.verdict.value} ({outcome.reason_code.value})"]
    if args.k is not None and outcome.verdict is grasp.Verdict.FEASIBLE:
        p = grasp.holding_pressure(scenario, pressure.FrictionModel(k=args.k))
        payload["holding_pressure_n_per_m"] = p
        human.append(f"holding line pressure: {p:.6g} N/m (k={args.k})")
    return Result(payload, human)


def cmd_grasp_validate(args):
    from . import grasp
    report = grasp.validate_against_reference(_REPLAY_TABLES[args.dataset])
    payload = {
        "dataset": report.dataset_id,
        "agreement": f"{report.n_agree}/{report.n_total}",
        "rows": [
            {
                "label": row.label,
                "predicted": row.predicted.value,
                "expected": row.expected.value,
                "success_rate": row.success_rate,
                "agrees": row.agrees,
            }
            for row in report.rows
        ],
    }
    human = [f"{report.dataset_id}: {report.n_agree}/{report.n_total} rows agree"]
    for row in report.rows:
        mark = "ok " if row.agrees else "MISMATCH"
        human.append(
            f"  [{mark}] {row.label}: predicted {row.predicted.value}, "
            f"recorded success {row.success_rate:.0%}"
        )
    return Result(payload, human, code=EXIT_OK if report.n_agree == report.n_total else EXIT_USAGE)


def _load_layout(args):
    from . import tactile
    if args.layout:
        return _from_json_file(args.layout, tactile.MarkerLayout.from_json)
    cols, _, rows = args.grid.partition("x")
    if not (cols.isdecimal() and rows.isdecimal() and int(cols) > 0 and int(rows) > 0):
        raise ValidationError(f"--grid must have the form CxR with positive integers, "
                              f"e.g. 5x5; got {args.grid!r}")
    return tactile.MarkerLayout.grid(int(cols), int(rows))


def cmd_tactile_render(args):
    from . import expio, tactile
    if args.shift and not all(map(math.isfinite, args.shift)):
        raise DomainError(f"--shift must be finite, got {' '.join(map(repr, args.shift))}")
    layout = _load_layout(args)
    view_width = tactile.VIEW_WIDTH_DEFAULT if args.view_width is None else args.view_width
    camera = tactile.CameraModel(width=args.width, height=args.height, view_width=view_width)
    radius_px = layout.marker_diameter / 2.0 * camera.pixels_per_meter
    if not 0 < radius_px < math.inf:  # a finite view width can still overflow the pixel scale
        raise DomainError(f"--view-width must leave the marker radius positive and finite in "
                          f"pixels; {view_width!r} m with {layout.marker_diameter!r} m "
                          f"markers gives {radius_px!r} px")
    deformation = (tactile.Deformation.uniform_shift(layout, *args.shift) if args.shift
                   else tactile.Deformation())
    deformation = dataclasses.replace(deformation, occluded=frozenset(args.occlude or []))
    frame, sidecar = tactile.render_frame(
        layout, deformation, camera, noise_sigma=args.noise, seed=args.seed
    )
    files = [(args.out, functools.partial(tactile.write_pgm, frame))]
    if args.sidecar:
        files.append((args.sidecar, functools.partial(expio.write_json, sidecar)))
    return Result(sidecar, [f"wrote {args.out} ({frame.width}x{frame.height}, "
                            f"{len(sidecar['visible'])} markers visible)"], files)


def _detect_file(path, args):
    from . import tactile
    threshold = tactile.BINARIZE_THRESHOLD_DEFAULT if args.threshold is None else args.threshold
    binary = tactile.binarize(tactile.read_pgm(path), threshold=threshold)
    return tactile.detect_markers(binary, min_area=args.min_area)


def cmd_tactile_detect(args):
    markers = _detect_file(args.infile, args)
    rows = list(zip(markers.xy.tolist(), markers.areas.tolist(), markers.merged.tolist()))
    payload = {
        "count": len(markers),
        "detections": [
            {"x": x, "y": y, "area": area, "merged": merged} for (x, y), area, merged in rows
        ],
    }
    human = [f"{len(markers)} markers detected"]
    for (x, y), area, merged in rows:
        human.append(f"  ({x:.2f}, {y:.2f}) area={area}" + (" merged" if merged else ""))
    return Result(payload, human)


def _track_from_files(args):
    from . import tactile
    return tactile.track(_detect_file(args.prev, args), _detect_file(args.curr, args),
                         gate=args.gate)


def cmd_tactile_track(args):
    field = _track_from_files(args)
    matches = list(zip(field.prev_index.tolist(), field.curr_index.tolist(),
                       field.shifts.tolist()))
    payload = {
        "matches": [{"prev": i, "curr": j, "dx": dx, "dy": dy} for i, j, (dx, dy) in matches],
        "unmatched_previous": field.lost.tolist(),
        "unmatched_current": field.appeared.tolist(),
    }
    human = [f"{len(matches)} matched, {len(field.lost)} lost, {len(field.appeared)} new"]
    for i, j, (dx, dy) in matches:
        human.append(f"  {i} -> {j}: ({dx:+.2f}, {dy:+.2f}) px")
    return Result(payload, human)


def cmd_tactile_summarize(args):
    from . import tactile
    field = _track_from_files(args)
    summary = tactile.contact_summary(field, air_support_kpa=args.air_support)
    payload = {
        "mean_displacement_px": summary.mean_displacement,
        "displacement_variance_px2": summary.displacement_variance,
        "visible_count": summary.visible_count,
        "air_support_kpa": summary.air_support_kpa,
        "label": summary.label,
    }
    return Result(payload, [
        f"label: {summary.label}",
        f"mean displacement: {summary.mean_displacement:.3f} px",
        f"displacement variance: {summary.displacement_variance:.3f} px^2",
        f"visible markers: {summary.visible_count}",
    ])


def cmd_report(args):
    """The payload is the report.json document; the one effect here is mkdir of --out-dir."""
    from . import expio, grasp, spring
    curve = expio.read_payload_csv(args.curve)
    fit = spring.fit_zones(curve)
    strains = list(curve.strains)
    series = [(strains, list(curve.loads), "measured"),
              (strains, [fit.predict(s) for s in strains], "fitted")]
    plot_name = "payload_fit.svg"
    sections = [expio.ReportSection("Two-zone spring fit", _fit_result(fit)[1], plot_name)]
    _, metrics, _ = _pressure_result(args, pressure.G_DEFAULT, pressure.N_INTERVALS_DEFAULT)
    sections.append(expio.ReportSection("Line pressure cross-check", metrics))

    payload_ref = expio.load_reference_dataset("table1_payload")["rows"][0]
    computed_ratio = expio.payload_to_weight_ratio(
        payload_ref["max_payload_kgf"], payload_ref["weight_kg"]
    )
    sections.append(expio.ReportSection("Payload-to-weight ratio", {
        "computed_ratio": {"value": computed_ratio, "unit": "%"},
        "recorded_ratio": {"value": payload_ref["reported_ratio_percent"], "unit": "%"},
        "note": {
            "value": "computed from recorded payload and weight; differs from the recorded ratio",
            "unit": "",
        },
    }))

    for dataset in _REPLAY_TABLES.values():
        rep = grasp.validate_against_reference(dataset)
        sections.append(expio.ReportSection(
            f"Feasibility replay: {dataset}",
            {"agreement": {"value": f"{rep.n_agree}/{rep.n_total}", "unit": "rows"}}))
    doc = expio.Report(sections=tuple(sections)).to_json()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return Result(doc, [f"report written to {out_dir / 'report.json'}"], [
        (out_dir / plot_name, functools.partial(
            expio.emit_plot, series, title="Payload curve: measured vs fitted",
            x_label="strain", y_label="load [N]")),
        (out_dir / "report.json", functools.partial(expio.write_json, doc)),
    ])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistgrip",
        description="Soft-gripper models, fitting, grasp simulation, and tactile pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure", help="line pressure on a gripped sphere, with quadrature cross-check")
    p.add_argument("--mass", type=float, required=True, help="object mass [kg]")
    p.add_argument("--radius", type=float, required=True, help="object radius [m]")
    p.add_argument("--k", type=float, required=True, help="friction coefficient (0 <= k < 1)")
    p.add_argument("--g", type=float, default=pressure.G_DEFAULT, help="gravity [m/s^2]")
    p.add_argument("--n-intervals", type=int, default=pressure.N_INTERVALS_DEFAULT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("spring", help="two-zone skin spring model")
    spring_sub = p.add_subparsers(dest="spring_command", required=True)
    pf = spring_sub.add_parser("fit", help="fit zone slopes and breakpoint from a payload CSV")
    pf.add_argument("--in", dest="infile", required=True, help="payload CSV (strain,force_n)")
    pf.add_argument("--skin-height", type=float, default=None,
                    help="skin height [m]; when given, the CSV's strain column holds deflection [m]")
    pf.add_argument("--out", default=None, help="also write the fit as JSON")
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=cmd_spring_fit)
    pp = spring_sub.add_parser("predict", help="predict load from strain or strain from load")
    pp.add_argument("--slope1", type=float, required=True, help="soft-zone slope [N/strain]")
    pp.add_argument("--slope2", type=float, required=True, help="stiff-zone slope [N/strain]")
    pp.add_argument("--breakpoint", type=float, required=True, help="transition strain")
    group = pp.add_mutually_exclusive_group(required=True)
    group.add_argument("--strain", type=float, default=None)
    group.add_argument("--load", type=float, default=None, help="load [N]")
    pp.add_argument("--g", type=float, default=pressure.G_DEFAULT)
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=cmd_spring_predict)

    p = sub.add_parser("grasp", help="grasp phase simulation and feasibility")
    grasp_sub = p.add_subparsers(dest="grasp_command", required=True)
    gs = grasp_sub.add_parser("simulate", help="evaluate a scenario JSON document")
    gs.add_argument("--scenario", required=True, help="scenario JSON path")
    gs.add_argument("--k", type=float, default=None, help="friction coefficient for holding pressure")
    gs.add_argument("--json", action="store_true")
    gs.set_defaults(func=cmd_grasp_simulate)
    gv = grasp_sub.add_parser("validate", help="replay a bundled reference table")
    gv.add_argument("--dataset", choices=tuple(_REPLAY_TABLES), required=True)
    gv.add_argument("--json", action="store_true")
    gv.set_defaults(func=cmd_grasp_validate)

    p = sub.add_parser("tactile", help="synthetic tactile sensing pipeline")
    tac_sub = p.add_subparsers(dest="tactile_command", required=True)
    tr = tac_sub.add_parser("render", help="render a synthetic marker frame to PGM")
    tr.add_argument("--layout", default=None, help="marker layout JSON")
    tr.add_argument("--grid", default="5x5", help="fallback grid layout, e.g. 5x5")
    tr.add_argument("--out", required=True, help="output PGM path")
    tr.add_argument("--sidecar", default=None, help="ground-truth sidecar JSON path")
    tr.add_argument("--width", type=int, default=640)
    tr.add_argument("--height", type=int, default=480)
    # None stands for the tactile defaults, read when a tactile command runs
    tr.add_argument("--view-width", type=float, default=None,
                    help="physical width of the imaged wall [m]")
    tr.add_argument("--shift", type=float, nargs=2, default=None, metavar=("DX", "DY"),
                    help="uniform marker displacement [px]")
    tr.add_argument("--occlude", type=int, nargs="*", default=None, help="marker ids to occlude")
    tr.add_argument("--noise", type=float, default=0.0, help="Gaussian pixel noise sigma")
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(func=cmd_tactile_render)
    detection = argparse.ArgumentParser(add_help=False)
    detection.add_argument("--threshold", type=int, default=None)
    detection.add_argument("--min-area", type=int, default=5)
    detection.add_argument("--json", action="store_true")
    td = tac_sub.add_parser("detect", parents=[detection],
                            help="detect marker centroids in a PGM frame")
    td.add_argument("--in", dest="infile", required=True)
    td.set_defaults(func=cmd_tactile_detect)
    frame_pair = argparse.ArgumentParser(add_help=False, parents=[detection])
    frame_pair.add_argument("--prev", required=True)
    frame_pair.add_argument("--curr", required=True)
    frame_pair.add_argument("--gate", type=float, default=60.0, help="matching gate radius [px]")
    tt = tac_sub.add_parser("track", parents=[frame_pair],
                            help="track marker displacements between two frames")
    tt.set_defaults(func=cmd_tactile_track)
    ts = tac_sub.add_parser("summarize", parents=[frame_pair],
                            help="contact summary from a frame pair")
    ts.add_argument("--air-support", type=float, default=0.0, help="air support [kPa]")
    ts.set_defaults(func=cmd_tactile_summarize)

    p = sub.add_parser("report", help="end-to-end report with plots from a payload curve")
    p.add_argument("--curve", required=True, help="payload CSV path")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mass", type=float, default=0.21, help="report sphere mass [kg]")
    p.add_argument("--radius", type=float, default=0.025, help="report sphere radius [m]")
    p.add_argument("--k", type=float, default=0.5, help="friction coefficient")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        out = (json.dumps(result.payload, indent=2, sort_keys=True, allow_nan=False)
               if getattr(args, "json", False) else "\n".join(result.human))
        for path, _ in result.files:
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or os.curdir):
                open(path, "rb+").close()  # raises the OSError the write would, creating nothing
        for path, write in result.files:
            write(path)
        print(out)
        return result.code
    except (TwistgripError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a well-formed input too large to serve
        command = " ".join(filter(None, (args.command,
                                          getattr(args, f"{args.command}_command", None))))
        print(f"error: {command}: input too large to serve: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
