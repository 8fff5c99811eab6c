"""Data ingestion, bundled reference tables, unit conversions, and reports.

Payload curves travel as CSV (`strain,force_n`, strain as a 0-1 fraction,
`#` comments). Reference measurement tables ship as versioned JSON resources
inside the package. Plots are emitted as minimal self-generated SVG so
byte-level determinism stays testable.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

from .errors import DomainError, ParseError, ValidationError, require_non_negative, require_positive
from .pressure import G_DEFAULT
from .spring import PayloadCurve

DATASET_IDS = ("table1_payload", "table2_objects", "table3_submersion")

CSV_HEADER = "strain,force_n"


@dataclass(frozen=True)
class ReportSection:
    title: str
    metrics: dict  # name -> {"value": ..., "unit": ...}
    plot: str | None = None  # relative path


@dataclass(frozen=True)
class Report:
    sections: tuple

    def to_json(self):
        return {
            "format_version": 1,
            "sections": [
                {"title": s.title, "metrics": s.metrics, "plot": s.plot}
                for s in self.sections
            ],
        }


def load_reference_dataset(dataset_id):
    """A bundled reference table's parsed JSON document: "id", "rows" and, optionally, "meta"."""
    if dataset_id not in DATASET_IDS:
        raise DomainError(f"unknown dataset {dataset_id!r}; choose from {DATASET_IDS}")
    return json.loads(_dataset_bytes(dataset_id))


@functools.cache
def _dataset_bytes(dataset_id):
    """The packaged table's bytes, read once per process; callers parse their own copy."""
    return resources.files("twistgrip.data").joinpath(f"{dataset_id}.json").read_bytes()


def read_payload_csv(path, skin_height=None):
    """Parse a payload curve CSV into a validated PayloadCurve.

    The first column is strain as a 0-1 fraction, or, when skin_height (m) is
    given, deflection in meters that is normalized by it.
    """
    # undecodable bytes survive as escapes, so they fail the header or number parse below;
    # text mode has already turned \r\n and \r into \n
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.read().split("\n")
    rows = [(lineno, line) for lineno, line in enumerate(map(str.strip, lines), start=1)
            if line and not line.startswith("#")]
    if not rows:
        raise ParseError(f"{path}: missing header {CSV_HEADER!r}")
    lineno, line = rows[0]
    if line != CSV_HEADER:
        raise ParseError(f"{path}:{lineno}: expected header {CSV_HEADER!r}, got {line!r}")
    strains, loads = [], []
    for lineno, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            strains.append(float(parts[0]))
            loads.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric field in {line!r}") from None

    try:
        if skin_height is not None:
            return PayloadCurve.from_absolute(strains, loads, skin_height)
        return PayloadCurve(strains=tuple(strains), loads=tuple(loads))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_payload_csv(curve, path):
    """Write a payload curve in the canonical CSV format (round-trip exact)."""
    rows = "".join([f"{strain!r},{load!r}\n" for strain, load in zip(curve.strains, curve.loads)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n" + rows)


def payload_to_weight_ratio(max_payload_kgf, gripper_weight_kg):
    """Payload-to-weight ratio in percent: 100 * payload / weight."""
    require_positive(gripper_weight_kg=gripper_weight_kg)
    require_non_negative(max_payload_kgf=max_payload_kgf)
    return 100.0 * max_payload_kgf / gripper_weight_kg


def newtons_to_kgf(value):
    return value / G_DEFAULT


_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_SVG_MARGIN = 60
_SERIES_COLORS = ("#1f6fb4", "#d1495b", "#3a7d44", "#8d6a9f", "#c98a1b", "#4a4a4a")


def emit_plot(series, path, *, title, x_label, y_label):
    """Write a deterministic SVG line plot.

    series is a list of (xs, ys, label). The output depends only on the
    inputs (fixed canvas, fixed float formatting), so identical calls produce
    byte-identical files.
    """
    if not series:
        raise DomainError("emit_plot requires at least one series")
    all_x = [x for xs, _, _ in series for x in xs]
    all_y = [y for _, ys, _ in series for y in ys]
    if not all_x:
        raise DomainError("series must contain at least one point")
    x_min, x_max = min(all_x), max(all_x)
    y_min, y_max = min(all_y), max(all_y)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    inner_w = _SVG_WIDTH - 2 * _SVG_MARGIN
    inner_h = _SVG_HEIGHT - 2 * _SVG_MARGIN

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_HEIGHT - _SVG_MARGIN}" '
        f'x2="{_SVG_WIDTH - _SVG_MARGIN}" y2="{_SVG_HEIGHT - _SVG_MARGIN}" stroke="black"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_MARGIN}" '
        f'x2="{_SVG_MARGIN}" y2="{_SVG_HEIGHT - _SVG_MARGIN}" stroke="black"/>',
        f'<text x="{_SVG_WIDTH // 2}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<text x="{_SVG_WIDTH // 2}" y="{_SVG_HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="18" y="{_SVG_HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_SVG_HEIGHT // 2})">{y_label}</text>',
    ]
    for i, (xs, ys, label) in enumerate(series):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        # pixel x, y of each zipped pair, flat; one % formats them all, as f"{v:.3f}" does floats
        coords = [v for x, y in zip(xs, ys)
                  for v in (_SVG_MARGIN + (x - x_min) / x_span * inner_w,
                            _SVG_HEIGHT - _SVG_MARGIN - (y - y_min) / y_span * inner_h)]
        points = " ".join(["%.3f,%.3f"] * (len(coords) // 2)) % tuple(coords)
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = _SVG_MARGIN + 16 * (i + 1)
        lines.append(
            f'<line x1="{_SVG_WIDTH - _SVG_MARGIN - 120}" y1="{ly - 4}" '
            f'x2="{_SVG_WIDTH - _SVG_MARGIN - 100}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{_SVG_WIDTH - _SVG_MARGIN - 94}" y="{ly}" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(doc, path):
    """Write doc as key-sorted JSON indented by 2, with a final newline; NaN and inf raise."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_report_json(report, path):
    write_json(report.to_json(), path)
