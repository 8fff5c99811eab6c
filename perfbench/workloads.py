"""The three benchmark workloads: set-up, one op, and the check of its output.

Each workload runs as a closed loop with one client. An op is the unit timed
from call to result; `check` runs outside the timed region and returns
(passed, counts). Every call into a twistgrip public function goes through
`tracer.call`, so the traced run records one span per layer call.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.spatial import cKDTree

from twistgrip import expio, grasp, pressure, spring, tactile

import inputs

RECALL_FLOOR = 0.95  # acceptance criterion 6
RECALL_TOLERANCE_PX = 0.5
SSE_RTOL = 1e-9
QUAD_GAP_TOL = 1e-6  # acceptance criterion 1
TABLES = {"table2": "table2_objects", "table3": "table3_submersion"}
CLI_TIMEOUT_S = 120
# Same entry point as the installed `twistgrip` console script.
CLI_ENTRY = "import sys; from twistgrip.cli import main; sys.exit(main())"


class TactileDense:
    """640x480 frame pairs on a 40x40 grid: render, binarize, detect, track, summarize."""

    name = "tactile-dense"
    cycle_len = 1

    def setup(self, seed, size, work_dir):
        gen = inputs.tactile_inputs(seed, size)
        layout = tactile.MarkerLayout(markers=gen.markers, marker_diameter=gen.marker_diameter)
        camera = tactile.CameraModel(width=inputs.IMAGE_WIDTH, height=inputs.IMAGE_HEIGHT)
        radius_px = layout.marker_diameter / 2.0 * camera.pixels_per_meter
        return SimpleNamespace(
            gen=gen, layout=layout, camera=camera, radius_px=radius_px,
            rest=tactile.Deformation(),
            deformed=[tactile.Deformation(displacements=p.displacements, occluded=p.occluded)
                      for p in gen.pairs],
            gate=tactile.default_gate(layout, camera),
            expected_area=np.pi * radius_px ** 2,
        )

    def run_op(self, st, n, tr):
        k = n % len(st.deformed)
        pair = st.gen.pairs[k]
        frames = [
            tr.call("tactile.render", tactile.render_frame, st.layout, deformation, st.camera,
                    noise_sigma=inputs.NOISE_SIGMA, seed=seed)
            for deformation, seed in ((st.rest, pair.rest_seed),
                                      (st.deformed[k], pair.deformed_seed))
        ]
        sets = []
        for frame, _ in frames:
            binary = tr.call("tactile.binarize", tactile.binarize, frame)
            sets.append(tr.call("tactile.detect", tactile.detect_markers, binary, min_area=5,
                                expected_area=st.expected_area))
        field = tr.call("tactile.track", tactile.track, sets[0], sets[1], st.gate)
        summary = tr.call("tactile.summarize", tactile.contact_summary, field)
        return SimpleNamespace(pair=pair, truths=[t for _, t in frames], sets=sets,
                               field=field, summary=summary)

    def check(self, st, n, r):
        """Recall: visible truth markers matched with a displacement within 0.5 px of the truth."""
        rest_truth, deformed_truth = r.truths
        in_both = {v["id"] for v in deformed_truth["visible"]}
        truth = [(v["id"], v["x"], v["y"]) for v in rest_truth["visible"] if v["id"] in in_both]
        prev_pts = r.sets[0].centroids()
        hits = 0
        if truth and len(prev_pts):
            dist, nearest = cKDTree(prev_pts).query([(x, y) for _, x, y in truth])
            vector_of = {i: v for i, _, v in r.field.matches}
            for (mid, _, _), d, i in zip(truth, dist, nearest):
                vec = vector_of.get(int(i))
                if d <= st.radius_px and vec is not None:
                    dx, dy = r.pair.displacements[mid]
                    hits += np.hypot(vec[0] - dx, vec[1] - dy) <= RECALL_TOLERANCE_PX
        recall = hits / len(truth) if truth else 0.0
        n_prev, n_curr = len(r.sets[0]), len(r.sets[1])
        counts = {
            "visible": len(truth), "hits": int(hits),
            "detected": n_prev + n_curr,
            "merged": sum(d.merged for s in r.sets for d in s.detections),
            "matches": len(r.field.matches),
            "unmatched": len(r.field.unmatched_previous) + len(r.field.unmatched_current),
            "match_ratio": len(r.field.matches) / max(min(n_prev, n_curr), 1),
            "pixels": 2 * st.camera.width * st.camera.height,
        }
        return recall >= RECALL_FLOOR, counts


def _predict_all(fit, strains):
    return [fit.predict(s) for s in strains]


class PayloadReport:
    """The in-process `report` composition for one payload curve, n = 20 / 200 / 2000 in turn."""

    name = "payload-report"
    cycle_len = len(inputs.CURVE_SIZES)

    def setup(self, seed, size, work_dir):
        work_dir.mkdir(parents=True, exist_ok=True)
        curves = []
        for c in inputs.payload_inputs(seed, size):
            curves.append(SimpleNamespace(
                gen=c,
                curve=spring.PayloadCurve(strains=tuple(c.strains), loads=tuple(c.loads)),
                obj=pressure.SphericalObject(mass=c.mass, radius=c.radius),
                fric=pressure.FrictionModel(k=c.k),
            ))
        # Warm the quadrature cache: this workload measures the cached path.
        pressure.line_pressure_quadrature(curves[0].obj, curves[0].fric)
        return SimpleNamespace(
            curves=curves, csv=work_dir / "curve.csv", svg=work_dir / "payload_fit.svg",
            report=work_dir / "report.json",
        )

    def run_op(self, st, n, tr):
        c = st.curves[n % len(st.curves)]
        tr.call("expio.csv_write", expio.write_payload_csv, c.curve, st.csv)
        curve = tr.call("expio.csv_read", expio.read_payload_csv, st.csv)
        fit = tr.call(f"spring.fit.n{len(curve)}", spring.fit_zones, curve)
        strains = list(curve.strains)
        fitted = tr.call("spring.predict", _predict_all, fit, strains)
        tr.call("expio.plot", expio.emit_plot,
                [(strains, list(curve.loads), "measured"), (strains, fitted, "fitted")],
                st.svg, title="Payload curve: measured vs fitted",
                x_label="strain", y_label="load [N]")
        closed = tr.call("pressure.closed_form", pressure.line_pressure_closed_form, c.obj, c.fric)
        quad = tr.call("pressure.quadrature_warm", pressure.line_pressure_quadrature, c.obj, c.fric)
        replays = [tr.call("grasp.validate", grasp.validate_against_reference, t)
                   for t in TABLES.values()]
        sections = [
            expio.ReportSection(title="Two-zone spring fit", plot=st.svg.name, metrics={
                "slope1": {"value": fit.slope1, "unit": "N/strain"},
                "slope2": {"value": fit.slope2, "unit": "N/strain"},
                "breakpoint": {"value": fit.breakpoint, "unit": "strain"},
                "rms_relative_error": {"value": fit.rms_relative_error, "unit": "1"},
            }),
            expio.ReportSection(title="Line pressure cross-check", metrics={
                "closed_form": {"value": closed, "unit": "N/m"},
                "quadrature": {"value": quad, "unit": "N/m"},
            }),
        ] + [
            expio.ReportSection(title=f"Feasibility replay: {rep.dataset_id}", metrics={
                "agreement": {"value": f"{rep.n_agree}/{rep.n_total}", "unit": "rows"},
            })
            for rep in replays
        ]
        tr.call("expio.report_write", expio.write_report_json,
                expio.Report(sections=tuple(sections)), st.report)
        return SimpleNamespace(c=c, curve=curve, fit=fit, closed=closed, quad=quad,
                               replays=replays)

    def check(self, st, n, r):
        """Fit no worse than the generating parameters; both tables replay in full."""
        gen = r.c.gen
        loads = np.asarray(gen.loads)

        def sse(s1, s2, bp):
            resid = loads - inputs.two_zone_load(gen.strains, s1, s2, bp)
            return float(resid @ resid)

        fit_sse = sse(r.fit.slope1, r.fit.slope2, r.fit.breakpoint)
        gap = abs(r.quad - r.closed) / r.closed
        agree = [(rep.n_agree, rep.n_total) for rep in r.replays]
        passed = (
            r.curve.strains == r.c.curve.strains and r.curve.loads == r.c.curve.loads
            and fit_sse <= sse(gen.slope1, gen.slope2, gen.breakpoint) * (1.0 + SSE_RTOL)
            and agree == [(8, 8), (4, 4)]
            and gap < QUAD_GAP_TOL
        )
        counts = {
            "n": len(r.curve),
            "bytes_written": sum(p.stat().st_size for p in (st.csv, st.svg, st.report)),
            "degenerate": int(r.fit.degenerate),
            "rows_agree": sum(a for a, _ in agree),
            "quad_rel_gap": gap,
        }
        return passed, counts


class CliSession:
    """One `twistgrip` subprocess per op, cycling through the twelve invocation kinds."""

    name = "cli-session"
    cycle_len = len(inputs.CLI_KINDS)

    def setup(self, seed, size, work_dir):
        session = inputs.cli_session(seed, work_dir)
        env = {"PATH": os.environ.get("PATH", os.defpath),
               "PYTHONPATH": str(Path(tactile.__file__).parents[1]), "PYTHONNOUSERSITE": "1"}
        # The children must import the same twistgrip tree as this process.
        probe = subprocess.run(
            [sys.executable, "-c", "import twistgrip.cli, twistgrip; print(twistgrip.__file__)"],
            env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
        if Path(probe.stdout.strip()) != Path(tactile.__file__).with_name("__init__.py"):
            raise RuntimeError(f"CLI children import twistgrip from {probe.stdout.strip()}")
        return SimpleNamespace(session=session, env=env, expected={}, work_dir=work_dir,
                               cold_intervals=pressure.N_INTERVALS_DEFAULT)

    def _run(self, st, argv):
        return subprocess.run([sys.executable, *argv], env=st.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)

    def run_op(self, st, n, tr):
        kind, argv = st.session.argv[n % self.cycle_len]
        return kind, tr.call(f"cli.{kind}", self._run, st, ["-c", CLI_ENTRY, *argv])

    def probe(self, st, tr):
        """Per traced cycle: bare interpreter, package import, and one cold quadrature."""
        tr.call("cli.interpreter", self._run, st, ["-c", "pass"])
        tr.call("cli.import", self._run, st, ["-c", "import twistgrip.cli"])
        # A grid resolution not yet used in this process misses the quadrature cache,
        # as every CLI process does.
        st.cold_intervals += 1
        p = st.session.params
        tr.call("pressure.quadrature_cold", pressure.line_pressure_quadrature,
                pressure.SphericalObject(mass=p["mass"], radius=p["radius"]),
                pressure.FrictionModel(k=p["k"]), n_intervals=st.cold_intervals)

    def check(self, st, n, r):
        """Exit 0, and every field the library computes equals the in-process result."""
        kind, proc = r
        if proc.returncode != 0:
            print(f"cli-session: {kind} exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            return False, {}
        if kind not in st.expected:
            st.expected[kind] = _normalise(self._expected(st, kind))
        expected = st.expected[kind]
        files = st.session.files
        if kind == "report":
            got = {}
            doc = json.loads((files["report"] / "report.json").read_text(encoding="utf-8"))
            for section in doc["sections"]:
                for name, metric in section["metrics"].items():
                    got.setdefault(name, []).append(metric["value"])
        elif kind.startswith("tactile_render"):
            out = files["frame"] if kind == "tactile_render_noise" else files["shifted"]
            got = {"pgm": out.read_bytes()}
            if kind == "tactile_render_noise":
                got["sidecar"] = json.loads(files["sidecar"].read_text(encoding="utf-8"))
        else:
            got = json.loads(proc.stdout)
            if kind == "spring_fit" and json.loads(files["fit"].read_text(encoding="utf-8")) != got:
                return False, {}
        return all(got.get(key) == value for key, value in expected.items()), {}

    def _expected(self, st, kind):
        p, files = st.session.params, st.session.files
        obj = pressure.SphericalObject(mass=p["mass"], radius=p["radius"])
        fric = pressure.FrictionModel(k=p["k"])
        if kind == "pressure":
            closed = pressure.line_pressure_closed_form(obj, fric)
            return {
                "closed_form_n_per_m": closed,
                "quadrature_n_per_m": pressure.line_pressure_quadrature(obj, fric),
                "equilibrium_residual_n": pressure.equilibrium_residual(
                    obj, fric, pressure.PressureDistribution(p_bottom=closed)),
            }
        if kind in ("spring_fit", "report"):
            fit = spring.fit_zones(expio.read_payload_csv(files["curve"]))
            if kind == "spring_fit":
                return {
                    "slope1_n_per_strain": fit.slope1, "slope2_n_per_strain": fit.slope2,
                    "breakpoint_strain": fit.breakpoint,
                    "rms_relative_error": fit.rms_relative_error,
                    "degenerate": fit.degenerate, "max_fitted_strain": fit.max_fitted_strain,
                }
            replays = [grasp.validate_against_reference(t) for t in TABLES.values()]
            return {
                "slope1": [fit.slope1], "slope2": [fit.slope2], "breakpoint": [fit.breakpoint],
                "rms_relative_error": [fit.rms_relative_error],
                "closed_form": [pressure.line_pressure_closed_form(obj, fric)],
                "quadrature": [pressure.line_pressure_quadrature(obj, fric)],
                "agreement": [f"{rep.n_agree}/{rep.n_total}" for rep in replays],
            }
        if kind == "spring_predict":
            spec = spring.SkinSpec.from_slopes(p["slope1"], p["slope2"], p["breakpoint"])
            return {
                "strain": p["strain"],
                "load_n": spring.predict_load(p["strain"], spec),
                "estimated_mass_kg": spring.estimate_object_mass(p["strain"], spec),
            }
        if kind == "grasp_simulate":
            scenario = grasp.GraspScenario(
                gripper=grasp.GripperGeometry.from_name("4in"),
                obj=grasp.ObjectDescriptor(
                    shape_class=grasp.ShapeClass.SPHERE, height=p["diameter"],
                    diameter=p["diameter"], mass=p["object_mass"]),
                submersion_fraction=p["submersion"],
            )
            outcome = grasp.grasp_feasibility(scenario)
            return {
                "verdict": outcome.verdict.value,
                "reason": outcome.reason_code.value,
                "phase_trace": [{"phase": ph, "angle_rad": a, "coverage": cov}
                                for ph, a, cov in outcome.phase_trace],
                "holding_pressure_n_per_m": grasp.holding_pressure(scenario, fric),
            }
        if kind.startswith("grasp_validate"):
            rep = grasp.validate_against_reference(TABLES[kind.rsplit("_", 1)[1]])
            return {
                "dataset": rep.dataset_id,
                "agreement": f"{rep.n_agree}/{rep.n_total}",
                "rows": [{"label": row.label, "predicted": row.predicted.value,
                          "expected": row.expected.value, "success_rate": row.success_rate,
                          "agrees": row.agrees}
                         for row in rep.rows],
            }

        layout = tactile.MarkerLayout.grid(5, 5)
        camera = tactile.CameraModel()
        noisy, sidecar = tactile.render_frame(layout, tactile.Deformation(), camera,
                                              noise_sigma=inputs.NOISE_SIGMA,
                                              seed=p["render_seed"])
        shift = tactile.Deformation.uniform_shift(layout, *p["shift"])
        shifted, _ = tactile.render_frame(layout, shift, camera, seed=p["render_seed"])
        if kind.startswith("tactile_render"):
            frame = noisy if kind == "tactile_render_noise" else shifted
            path = st.work_dir / f"expected_{kind}.pgm"
            tactile.write_pgm(frame, path)
            out = {"pgm": path.read_bytes()}
            if kind == "tactile_render_noise":
                out["sidecar"] = sidecar
            return out
        prev, curr = (tactile.detect_markers(tactile.binarize(f), min_area=5)
                      for f in (noisy, shifted))
        if kind == "tactile_detect":
            return {
                "count": len(prev),
                "detections": [{"x": d.centroid[0], "y": d.centroid[1], "area": d.area,
                                "merged": d.merged} for d in prev.detections],
            }
        field = tactile.track(prev, curr, gate=p["gate"])
        if kind == "tactile_track":
            return {
                "matches": [{"prev": i, "curr": j, "dx": v[0], "dy": v[1]}
                            for i, j, v in field.matches],
                "unmatched_previous": list(field.unmatched_previous),
                "unmatched_current": list(field.unmatched_current),
            }
        summary = tactile.contact_summary(field, air_support_kpa=p["air_support"])
        return {
            "mean_displacement_px": summary.mean_displacement,
            "displacement_variance_px2": summary.displacement_variance,
            "visible_count": summary.visible_count,
            "air_support_kpa": summary.air_support_kpa,
            "label": summary.label,
        }


def _normalise(expected):
    """Round-trip through JSON so tuples compare equal to the lists the CLI prints."""
    return {key: value if isinstance(value, bytes) else json.loads(json.dumps(value))
            for key, value in expected.items()}


WORKLOADS = {w.name: w for w in (TactileDense(), PayloadReport(), CliSession())}
