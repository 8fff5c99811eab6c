"""Seeded input generator for the benchmark workloads.

Every input is a pure function of the seed and the size preset: the same seed
gives the same marker layouts, deformations, payload curves, scenario file and
CLI argument lists. The library and the CLI only receive what this module
produces; nothing here calls into twistgrip.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The dense skin is a 40x40 grid of 0.5 mm markers on the default 640x480
# camera spanning 50 mm (12.8 px/mm): discs 6.4 px wide on a 9.8 px row pitch,
# so neighbouring discs never touch. "tiny" only shrinks the inputs for the
# smoke test; curve sizes stay fixed because they name per-layer metrics.
SIZES = {
    "full": {"grid": 40, "pairs": 8, "curves_per_size": 4},
    "tiny": {"grid": 10, "pairs": 2, "curves_per_size": 1},
}
CURVE_SIZES = (20, 200, 2000)
IMAGE_WIDTH, IMAGE_HEIGHT = 640, 480
MARKER_DIAMETER_M = 0.0005
GRID_MARGIN = 0.1
OCCLUDED_FRACTION = 0.1
NOISE_SIGMA = 8.0
CURVE_NOISE = 0.02


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


@dataclass(frozen=True)
class FramePair:
    """One rest/deformed frame pair on the dense layout.

    displacements maps marker id to the (dx, dy) pixel shift in the deformed
    frame; occluded ids are hidden in the deformed frame only.
    """

    displacements: dict
    occluded: frozenset
    rest_seed: int
    deformed_seed: int


@dataclass(frozen=True)
class TactileInputs:
    markers: tuple  # ((id, (u, v)), ...)
    marker_diameter: float
    pairs: tuple


def tactile_inputs(seed, size="full"):
    """Dense marker grid plus frame pairs with a smooth bulge and a shear.

    The bulge pushes markers radially away from a random indentation centre,
    A * (d / s) * exp(-|d|^2 / 2 s^2), which peaks at 0.61 A; with the shear
    the largest shift stays under 3.9 px, well inside half the row pitch, so
    the true partner is always the nearest candidate.
    """
    grid = SIZES[size]["grid"]
    rng = _rng(seed, 1)
    coords = np.linspace(GRID_MARGIN, 1.0 - GRID_MARGIN, grid)
    markers = tuple(
        (row * grid + col, (float(u), float(v)))
        for row, v in enumerate(coords) for col, u in enumerate(coords)
    )
    ids = np.array([mid for mid, _ in markers])
    px = np.array([(u * (IMAGE_WIDTH - 1), v * (IMAGE_HEIGHT - 1)) for _, (u, v) in markers])

    pairs = []
    for _ in range(SIZES[size]["pairs"]):
        centre = rng.uniform([0.3 * IMAGE_WIDTH, 0.3 * IMAGE_HEIGHT],
                             [0.7 * IMAGE_WIDTH, 0.7 * IMAGE_HEIGHT])
        amplitude = rng.uniform(2.0, 4.0)
        spread = rng.uniform(60.0, 120.0)
        shear = rng.uniform(-1.0, 1.0, size=2)
        offset = px - centre
        falloff = np.exp(-(offset ** 2).sum(axis=1) / (2.0 * spread ** 2))
        shift = amplitude * offset / spread * falloff[:, None] + shear
        n_hidden = int(round(OCCLUDED_FRACTION * len(ids)))
        hidden = rng.choice(ids, size=n_hidden, replace=False)
        rest_seed, deformed_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        pairs.append(FramePair(
            displacements={int(mid): (float(dx), float(dy)) for mid, (dx, dy) in zip(ids, shift)},
            occluded=frozenset(int(mid) for mid in hidden),
            rest_seed=rest_seed,
            deformed_seed=deformed_seed,
        ))
    return TactileInputs(markers=markers, marker_diameter=MARKER_DIAMETER_M, pairs=tuple(pairs))


def two_zone_load(strains, slope1, slope2, breakpoint):
    """Continuous two-zone spring load, evaluated independently of the library."""
    strains = np.asarray(strains, dtype=float)
    return slope1 * np.minimum(strains, breakpoint) + slope2 * np.maximum(strains - breakpoint, 0.0)


@dataclass(frozen=True)
class CurveInputs:
    """A noisy payload curve and the parameters that generated it."""

    strains: np.ndarray
    loads: np.ndarray
    slope1: float
    slope2: float
    breakpoint: float
    mass: float  # report sphere, kg
    radius: float  # m
    k: float


def _curve(rng, n):
    """Criterion-4 recipe: slope ratio 1.5-10, breakpoint 0.2-0.7, 2 % noise made monotone."""
    slope1 = rng.uniform(50.0, 200.0)
    slope2 = slope1 * rng.uniform(1.5, 10.0)
    breakpoint = rng.uniform(0.2, 0.7)
    strains = np.linspace(0.0, 1.0, n)
    clean = two_zone_load(strains, slope1, slope2, breakpoint)
    noisy = np.maximum.accumulate(np.abs(clean * (1.0 + CURVE_NOISE * rng.standard_normal(n))))
    return CurveInputs(
        strains=strains, loads=noisy, slope1=float(slope1), slope2=float(slope2),
        breakpoint=float(breakpoint), mass=float(rng.uniform(0.05, 2.0)),
        radius=float(rng.uniform(0.01, 0.06)), k=float(rng.uniform(0.0, 0.9)),
    )


def payload_inputs(seed, size="full"):
    """Curves in equal thirds of n = 20, 200 and 2000, ordered as one cycle per index."""
    rng = _rng(seed, 2)
    per_size = SIZES[size]["curves_per_size"]
    return tuple(_curve(rng, n) for _ in range(per_size) for n in CURVE_SIZES)


def write_curve_csv(curve, path):
    """Canonical payload CSV (`strain,force_n`), written without the library."""
    lines = ["strain,force_n"]
    lines += [f"{float(s)!r},{float(y)!r}" for s, y in zip(curve.strains, curve.loads)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


CLI_KINDS = (
    "pressure", "spring_fit", "spring_predict", "grasp_simulate",
    "grasp_validate_table2", "grasp_validate_table3", "tactile_render_noise",
    "tactile_render_shift", "tactile_detect", "tactile_track", "tactile_summarize",
    "report",
)


@dataclass(frozen=True)
class CliSession:
    """Parameters of the twelve CLI invocations and the files they read or write."""

    params: dict
    argv: tuple  # ((kind, [args...]), ...) in CLI_KINDS order
    files: dict


def cli_session(seed, work_dir):
    """Write the session's input files under work_dir and build its argument lists.

    The mix mirrors the twelve invocations of the CLI determinism criterion,
    with every numeric argument drawn from the seed.
    """
    rng = _rng(seed, 3)
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    slope1 = float(rng.uniform(50.0, 200.0))
    p = {
        "mass": float(rng.uniform(0.05, 2.0)),
        "radius": float(rng.uniform(0.01, 0.06)),
        "k": float(rng.uniform(0.0, 0.9)),
        "slope1": slope1,
        "slope2": slope1 * float(rng.uniform(1.5, 10.0)),
        "breakpoint": float(rng.uniform(0.2, 0.7)),
        "strain": float(rng.uniform(0.05, 1.0)),
        "diameter": float(rng.uniform(0.02, 0.09)),
        "object_mass": float(rng.uniform(0.02, 1.0)),
        "submersion": float(rng.uniform(0.0, 0.5)),
        "render_seed": int(rng.integers(0, 2**31)),
        "shift": tuple(float(v) for v in rng.uniform(-4.0, 4.0, size=2)),
        "air_support": float(rng.uniform(0.5, 5.0)),
        "gate": 10.0,
    }
    files = {
        "curve": work_dir / "curve.csv",
        "scenario": work_dir / "scenario.json",
        "fit": work_dir / "fit.json",
        "frame": work_dir / "frame.pgm",
        "sidecar": work_dir / "truth.json",
        "shifted": work_dir / "shifted.pgm",
        "report": work_dir / "report",
    }
    write_curve_csv(_curve(rng, 50), files["curve"])
    files["scenario"].write_text(json.dumps({
        "gripper": "4in",
        "object": {"shape_class": "sphere", "height_m": p["diameter"],
                   "diameter_m": p["diameter"], "mass_kg": p["object_mass"],
                   "label": "benchmark sphere"},
        "submersion_fraction": p["submersion"],
    }, indent=2) + "\n", encoding="utf-8")

    f = {name: str(path) for name, path in files.items()}
    r = repr
    argv = (
        ("pressure", ["pressure", "--mass", r(p["mass"]), "--radius", r(p["radius"]),
                      "--k", r(p["k"]), "--json"]),
        ("spring_fit", ["spring", "fit", "--in", f["curve"], "--out", f["fit"], "--json"]),
        ("spring_predict", ["spring", "predict", "--slope1", r(p["slope1"]),
                            "--slope2", r(p["slope2"]), "--breakpoint", r(p["breakpoint"]),
                            "--strain", r(p["strain"]), "--json"]),
        ("grasp_simulate", ["grasp", "simulate", "--scenario", f["scenario"],
                            "--k", r(p["k"]), "--json"]),
        ("grasp_validate_table2", ["grasp", "validate", "--dataset", "table2", "--json"]),
        ("grasp_validate_table3", ["grasp", "validate", "--dataset", "table3", "--json"]),
        ("tactile_render_noise", ["tactile", "render", "--grid", "5x5", "--out", f["frame"],
                                  "--sidecar", f["sidecar"], "--noise", r(NOISE_SIGMA),
                                  "--seed", str(p["render_seed"])]),
        ("tactile_render_shift", ["tactile", "render", "--grid", "5x5", "--out", f["shifted"],
                                  "--shift", r(p["shift"][0]), r(p["shift"][1]),
                                  "--seed", str(p["render_seed"])]),
        ("tactile_detect", ["tactile", "detect", "--in", f["frame"], "--json"]),
        ("tactile_track", ["tactile", "track", "--prev", f["frame"], "--curr", f["shifted"],
                           "--gate", r(p["gate"]), "--json"]),
        ("tactile_summarize", ["tactile", "summarize", "--prev", f["frame"],
                               "--curr", f["shifted"], "--gate", r(p["gate"]),
                               "--air-support", r(p["air_support"]), "--json"]),
        ("report", ["report", "--curve", f["curve"], "--out-dir", f["report"],
                    "--mass", r(p["mass"]), "--radius", r(p["radius"]), "--k", r(p["k"])]),
    )
    return CliSession(params=p, argv=argv, files=files)
