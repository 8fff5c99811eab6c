"""Golden corpus: SHA-256 digests of what the CLI prints and writes, and of the benchmark's frames.

Each row digests one behaviour:
- cli.*: exit code, stdout, stderr and written files of one of the twelve
  invocations of acceptance criterion 7;
- human.*: a `grasp validate` table in human mode;
- exit2.*: exit code and stderr of one exit-2 case per boundary message family;
- bench.*: frames and sidecars of one frame pair of the benchmark's tactile
  inputs (perfbench/inputs.py, loaded by path), seeds 1 and 2.

The temporary directory is replaced by "<tmp>" in every stream. A row whose
command loads numpy is marked so: its bytes may change with the numpy
version, and tests/test_golden.py skips it on another numpy minor version.

    python tests/golden.py --check   # print the rows whose digest differs; exit 1 if any
    python tests/golden.py --write   # rewrite tests/fixtures/golden.json

A change that moves a digest rewrites the fixture in the same change and says why.
"""
import argparse
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "golden.json"
BENCH_SEEDS = (1, 2)
SCENARIO = {
    "gripper": "4in",
    "object": {"shape_class": "sphere", "height_m": 0.052, "diameter_m": 0.045, "mass_kg": 0.057},
    "submersion_fraction": 0.3,
}


def _digest(*parts):
    """SHA-256 of str or bytes parts, each length-prefixed so no two splits collide."""
    sha = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        sha.update(b"%d:" % len(data))
        sha.update(data)
    return sha.hexdigest()


def _written(path):
    """Name and bytes of a written file, or of each file of a written directory."""
    if path.is_dir():
        return [part for f in sorted(path.iterdir()) for part in (f.name, f.read_bytes())]
    return [path.name, path.read_bytes() if path.is_file() else b"<missing>"]


def _run(argv, tmp, outputs=()):
    """Digest of main(argv), run in this process: exit code, stdout, stderr, written files."""
    from twistgrip.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    streams = (s.getvalue().replace(str(tmp), "<tmp>") for s in (out, err))
    return _digest(str(code), *streams, *(part for path in outputs for part in _written(path)))


def _criterion7_rows(tmp, with_numpy):
    """(name, loads numpy, digest) of criterion 7's invocations, in its order."""
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    csv, fit, frame, shifted, sidecar, report = (
        tmp / name for name in ("curve.csv", "fit.json", "frame.pgm", "shifted.pgm", "gt.json",
                                "report"))
    if with_numpy:
        import numpy as np
        from twistgrip import expio
        from twistgrip.spring import PayloadCurve, SkinSpec, predict_load
        spec, strains = SkinSpec(100.0, 400.0, 0.4), np.linspace(0.0, 1.0, 50)
        expio.write_payload_csv(PayloadCurve(strains=tuple(strains),
                                             loads=tuple(predict_load(s, spec) for s in strains)),
                                csv)
    invocations = [
        ("pressure", True, ["pressure", "--mass", "0.21", "--radius", "0.025", "--k", "0.5",
                            "--json"], []),
        ("spring_fit", True, ["spring", "fit", "--in", csv, "--out", fit, "--json"], [fit]),
        ("spring_predict", False, ["spring", "predict", "--slope1", "100", "--slope2", "400",
                                   "--breakpoint", "0.4", "--strain", "0.5", "--json"], []),
        ("grasp_simulate", False, ["grasp", "simulate", "--scenario", scenario, "--k", "0.5",
                                   "--json"], []),
        ("grasp_validate_table2", False, ["grasp", "validate", "--dataset", "table2", "--json"], []),
        ("grasp_validate_table3", False, ["grasp", "validate", "--dataset", "table3", "--json"], []),
        ("tactile_render_noise", True, ["tactile", "render", "--grid", "5x5", "--out", frame,
                                        "--sidecar", sidecar, "--noise", "8", "--seed", "0"],
         [frame, sidecar]),
        ("tactile_render_shift", True, ["tactile", "render", "--grid", "5x5", "--out", shifted,
                                        "--shift", "3", "-2", "--seed", "0"], [shifted]),
        ("tactile_detect", True, ["tactile", "detect", "--in", frame, "--json"], []),
        ("tactile_track", True, ["tactile", "track", "--prev", frame, "--curr", shifted,
                                 "--gate", "10", "--json"], []),
        ("tactile_summarize", True, ["tactile", "summarize", "--prev", frame, "--curr", shifted,
                                     "--air-support", "3", "--json"], []),
        ("report", True, ["report", "--curve", csv, "--out-dir", report], [report]),
    ]
    for name, numpy, argv, outputs in invocations:
        if with_numpy or not numpy:
            yield f"cli.{name}", numpy, _run(argv, tmp, outputs)
    for table in ("table2", "table3"):
        yield f"human.grasp_validate_{table}", False, _run(
            ["grasp", "validate", "--dataset", table], tmp)


# family -> (loads numpy, argv with {tmp} for the directory, files to write first)
EXIT2 = {
    "positive": (False, ["spring", "predict", "--slope1", "nan", "--slope2", "400",
                         "--breakpoint", "0.4", "--strain", "0.5"], {}),
    "non_negative": (False, ["spring", "predict", "--slope1", "100", "--slope2", "400",
                             "--breakpoint", "0.4", "--strain", "-1"], {}),
    "slope_order": (False, ["spring", "predict", "--slope1", "400", "--slope2", "100",
                            "--breakpoint", "0.4", "--strain", "0.5"], {}),
    "integer": (False, ["pressure", "--mass", "0.21", "--radius", "0.025", "--k", "0.5",
                        "--n-intervals", "1"], {}),
    "friction": (False, ["pressure", "--mass", "0.21", "--radius", "0.025", "--k", "1.5"], {}),
    "unit_range": (False, ["grasp", "simulate", "--scenario", "{tmp}/s.json"],
                   {"s.json": json.dumps({**SCENARIO, "submersion_fraction": 2})}),
    "missing_key": (False, ["grasp", "simulate", "--scenario", "{tmp}/s.json"], {"s.json": "{}"}),
    "shape_class": (False, ["grasp", "simulate", "--scenario", "{tmp}/s.json"],
                    {"s.json": json.dumps({**SCENARIO, "object": {**SCENARIO["object"],
                                                                  "shape_class": "cube"}})}),
    "invalid_json": (False, ["grasp", "simulate", "--scenario", "{tmp}/s.json"], {"s.json": "{"}),
    "missing_file": (False, ["grasp", "simulate", "--scenario", "{tmp}/absent.json"], {}),
    "csv_header": (True, ["spring", "fit", "--in", "{tmp}/c.csv"], {"c.csv": "a,b\n0,0\n"}),
    "csv_fields": (True, ["spring", "fit", "--in", "{tmp}/c.csv"],
                   {"c.csv": "strain,force_n\n0,0,0\n"}),
    "csv_number": (True, ["spring", "fit", "--in", "{tmp}/c.csv"], {"c.csv": "strain,force_n\n0,x\n"}),
    "curve_order": (True, ["spring", "fit", "--in", "{tmp}/c.csv"],
                    {"c.csv": "strain,force_n\n0.5,0\n0.1,1\n"}),
    "fit_samples": (True, ["spring", "fit", "--in", "{tmp}/c.csv"],
                    {"c.csv": "strain,force_n\n0,0\n0.1,1\n0.2,2\n"}),
    "pgm_header": (True, ["tactile", "detect", "--in", "{tmp}/f.pgm"], {"f.pgm": "P6\n1 1\n255\n"}),
    "pgm_size": (True, ["tactile", "detect", "--in", "{tmp}/f.pgm"], {"f.pgm": "P5\n4 4\n255\n\0"}),
    "threshold": (True, ["tactile", "detect", "--in", "{tmp}/f.pgm", "--threshold", "300"],
                  {"f.pgm": "P5\n1 1\n255\n\0"}),
    "grid": (True, ["tactile", "render", "--grid", "5", "--out", "{tmp}/o.pgm"], {}),
    "shift": (True, ["tactile", "render", "--shift", "nan", "0", "--out", "{tmp}/o.pgm"], {}),
    "layout_value": (True, ["tactile", "render", "--layout", "{tmp}/l.json", "--out", "{tmp}/o.pgm"],
                     {"l.json": json.dumps({"marker_diameter_m": 0.002,
                                            "markers": [{"id": 0, "u": True, "v": 0.5}]})}),
    "view_width": (True, ["tactile", "render", "--view-width", "1e-320", "--out", "{tmp}/o.pgm"],
                   {}),
    "too_large": (True, ["tactile", "render", "--width", str(2**63), "--out", "{tmp}/o.pgm"], {}),
}


def _exit2_rows(tmp, with_numpy):
    """(name, loads numpy, digest) of each EXIT2 case, its files written into tmp first."""
    for family, (numpy, argv, files) in EXIT2.items():
        if with_numpy or not numpy:
            for name, text in files.items():
                (tmp / name).write_text(text, encoding="latin-1")
            yield f"exit2.{family}", numpy, _run([a.format(tmp=tmp) for a in argv], tmp)


def _load_bench_inputs():
    """perfbench/inputs.py as a module, loaded by path under its own name."""
    spec = importlib.util.spec_from_file_location("golden_bench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _bench_rows():
    """Frames and sidecars of each frame pair, rendered as the tactile-dense workload does."""
    from twistgrip import tactile
    inputs = _load_bench_inputs()
    camera = tactile.CameraModel(width=inputs.IMAGE_WIDTH, height=inputs.IMAGE_HEIGHT)
    for seed in BENCH_SEEDS:
        gen = inputs.tactile_inputs(seed)
        layout = tactile.MarkerLayout(markers=gen.markers, marker_diameter=gen.marker_diameter)
        for k, pair in enumerate(gen.pairs):
            parts = []
            for deformation, render_seed in (
                    (tactile.Deformation(), pair.rest_seed),
                    (tactile.Deformation(displacements=pair.displacements, occluded=pair.occluded),
                     pair.deformed_seed)):
                frame, sidecar = tactile.render_frame(layout, deformation, camera,
                                                      noise_sigma=inputs.NOISE_SIGMA,
                                                      seed=render_seed)
                parts += [str(frame.pixels.shape), frame.pixels.tobytes(),
                          json.dumps(sidecar, sort_keys=True, allow_nan=False)]
            yield f"bench.seed{seed}.pair{k}", True, _digest(*parts)


def digests(with_numpy=True):
    """{row: {"numpy": loads numpy, "sha256": digest}}; with_numpy=False keeps the other rows."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        found = [*_criterion7_rows(tmp, with_numpy), *_exit2_rows(tmp, with_numpy)]
    if with_numpy:
        found += _bench_rows()
    return {name: {"numpy": numpy, "sha256": sha} for name, numpy, sha in found}


def versions():
    """The Python and numpy versions the digests are computed with."""
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Check or rewrite the golden corpus fixture.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="print the rows whose digest differs")
    mode.add_argument("--write", action="store_true", help=f"rewrite {FIXTURE.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    rows = digests()
    if args.write:
        FIXTURE.write_text(json.dumps({**versions(), "rows": rows}, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
        print(f"wrote {len(rows)} rows to {FIXTURE.relative_to(ROOT)}")
        return 0
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    here = versions()
    print(f"fixture: Python {fixture['python']}, numpy {fixture['numpy']}; "
          f"here: Python {here['python']}, numpy {here['numpy']}")
    differ = sorted(name for name in fixture["rows"].keys() | rows.keys()
                    if fixture["rows"].get(name) != rows.get(name))
    for name in differ:
        old, new = fixture["rows"].get(name), rows.get(name)
        numpy = " (loads numpy)" if (old or new)["numpy"] else ""
        print(f"differs: {name}{numpy}: fixture {old and old['sha256'][:16]}, "
              f"here {new and new['sha256'][:16]}")
    print(f"{len(differ)} of {len(fixture['rows'].keys() | rows.keys())} rows differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
