"""Data ingestion, bundled reference tables, unit conversions, and reports.

Payload curves travel as CSV (`strain,force_n`, strain as a 0-1 fraction,
`#` comments). Reference measurement tables ship as versioned JSON resources
inside the package. Plots are emitted as minimal self-generated SVG so
byte-level determinism stays testable.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from itertools import chain, repeat

from .errors import (DomainError, ParseError, ValidationError, array, real, require_non_negative,
                     require_path, require_positive)
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
    if not isinstance(dataset_id, str) or dataset_id not in DATASET_IDS:  # arrays compare elementwise
        raise DomainError(f"unknown dataset {dataset_id!r}; choose from {DATASET_IDS}")
    return json.loads(resources.files("twistgrip.data").joinpath(f"{dataset_id}.json").read_bytes())


def read_payload_csv(path, skin_height=None):
    """Parse a payload curve CSV into a validated PayloadCurve.

    The first column is strain as a 0-1 fraction, or, when skin_height (m) is
    given, deflection in meters that is normalized by it.
    """
    # undecodable bytes survive as escapes, so they fail the header or number parse below;
    # text mode has already turned \r\n and \r into \n
    with open(require_path(path), "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    rows = [line for line in lines if line and line[0] != "#"]
    if not rows:
        raise ParseError(f"{path}: missing header {CSV_HEADER!r}")
    values = _csv_numbers(rows[1:]) if rows[0] == CSV_HEADER else None
    if values is None:  # walk the lines again to name the first bad one
        _raise_first_csv_error(path, lines)
    strains, loads = values[0::2], values[1::2]
    try:
        if skin_height is not None:
            return PayloadCurve.from_absolute(strains, loads, skin_height)
        return PayloadCurve(strains=strains, loads=loads)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _csv_numbers(body):
    """The body rows' numbers in file order, or None unless each row is two numbers."""
    if not body:
        return []
    if set(map(str.count, body, repeat(","))) != {1}:
        return None
    try:  # one split and one parse for the whole body
        return list(map(float, ",".join(body).split(",")))
    except ValueError:
        return None


def _raise_first_csv_error(path, lines):
    """Raise the ParseError naming the first line of a payload CSV that fails."""
    rows = [(lineno, line) for lineno, line in enumerate(lines, start=1)
            if line and line[0] != "#"]
    lineno, line = rows[0]
    if line != CSV_HEADER:
        raise ParseError(f"{path}:{lineno}: expected header {CSV_HEADER!r}, got {line!r}")
    for lineno, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric field in {line!r}") from None


def write_payload_csv(curve, path):
    """Write a payload curve in the canonical CSV format (round-trip exact)."""
    rows = ("%r,%r\n" * len(curve)) % tuple(chain.from_iterable(zip(curve.strains, curve.loads)))
    with open(require_path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n" + rows)


def payload_to_weight_ratio(max_payload_kgf, gripper_weight_kg):
    """Payload-to-weight ratio in percent: 100 * payload / weight."""
    require_positive(gripper_weight_kg=gripper_weight_kg)
    require_non_negative(max_payload_kgf=max_payload_kgf)
    ratio = 100.0 * float(max_payload_kgf) / float(gripper_weight_kg)  # np.float64 would warn
    if ratio > sys.float_info.max:
        raise DomainError(f"gripper_weight_kg must give a finite ratio, got {gripper_weight_kg!r}")
    return ratio


def newtons_to_kgf(value):
    require_non_negative(value=value)  # a payload or a load: finite and >= 0
    return real(value) / G_DEFAULT


_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_SVG_MARGIN = 60
_SERIES_COLORS = ("#1f6fb4", "#d1495b", "#3a7d44", "#8d6a9f", "#c98a1b", "#4a4a4a")


def emit_plot(series, path, *, title, x_label, y_label):
    """Write a deterministic SVG line plot.

    series is a list of (xs, ys, label) triples, else ValidationError names series;
    each xs and ys is a sequence of finite numbers, the two of equal length. NaN or
    inf samples, unequal lengths and a range whose span overflows raise it naming
    xs or ys. The title, axis and series labels are written with &, < and >
    escaped. The output depends only on the inputs (fixed canvas, fixed float
    formatting), so identical calls produce byte-identical files.
    """
    import numpy as np
    try:
        series = [(xs, ys, label) for xs, ys, label in series]
    except (TypeError, ValueError):
        raise ValidationError("series must be a sequence of (xs, ys, label) triples") from None
    if not series:
        raise DomainError("emit_plot requires at least one series")
    arrays = [(array("xs", xs, float), array("ys", ys, float), label) for xs, ys, label in series]
    for xs, ys, _ in arrays:
        if len(ys) != len(xs):
            raise ValidationError(f"ys must have as many samples as xs, got {len(ys)} and {len(xs)}")
    all_x = np.concatenate([xs for xs, _, _ in arrays])
    if not all_x.size:
        raise DomainError("series must contain at least one point")
    x_min, x_max = _bounds("xs", all_x)
    y_min, y_max = _bounds("ys", np.concatenate([ys for _, ys, _ in arrays]))
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
        f'font-family="sans-serif" font-size="16">{_xml_text(title)}</text>',
        f'<text x="{_SVG_WIDTH // 2}" y="{_SVG_HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_xml_text(x_label)}</text>',
        f'<text x="18" y="{_SVG_HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_SVG_HEIGHT // 2})">{_xml_text(y_label)}</text>',
    ]
    for i, (xs, ys, label) in enumerate(arrays):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        # pixel x, y of each pair, interleaved; one % formats them all, as f"{v:.3f}" does floats
        coords = np.empty(2 * len(xs))
        coords[0::2] = _SVG_MARGIN + (xs - x_min) / x_span * inner_w
        coords[1::2] = _SVG_HEIGHT - _SVG_MARGIN - (ys - y_min) / y_span * inner_h
        points = " ".join(["%.3f,%.3f"] * len(xs)) % tuple(coords.tolist())
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = _SVG_MARGIN + 16 * (i + 1)
        lines.append(
            f'<line x1="{_SVG_WIDTH - _SVG_MARGIN - 120}" y1="{ly - 4}" '
            f'x2="{_SVG_WIDTH - _SVG_MARGIN - 100}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{_SVG_WIDTH - _SVG_MARGIN - 94}" y="{ly}" '
            f'font-family="sans-serif" font-size="12">{_xml_text(label)}</text>'
        )
    lines.append("</svg>")
    with open(require_path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _xml_text(text):
    """text with &, < and > escaped, for an SVG text element."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(name, samples):
    """Smallest and largest sample as floats; ValidationError if their difference overflows."""
    low, high = float(samples.min()), float(samples.max())
    if high - low == math.inf:
        raise ValidationError(f"{name} must span a finite range, got {low!r} to {high!r}")
    return low, high


def write_json(doc, path):
    """Write doc as key-sorted JSON indented by 2, with a final newline; NaN and inf raise."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"  # raises before open
    with open(require_path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_report_json(report, path):
    write_json(report.to_json(), path)
