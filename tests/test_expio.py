import hashlib
import json
import math
import tempfile
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistgrip import expio
from twistgrip.errors import DomainError, ParseError, ValidationError
from twistgrip.spring import PayloadCurve

# sha256 of the bundled dataset files, pinned so silent edits fail loudly
DATASET_CHECKSUMS = {
    "table1_payload": "acc904eb606886d750bdb3a2828ab50eb9f66742cbe1e9ee19697751a6637841",
    "table2_objects": "b2cc7aec4386909adf99069edbe1e1876985fa4aa6a90d2d42c23e7547f9fbbc",
    "table3_submersion": "f02e1861f7dde14c8776b627b72034838d60f20d92b620510dc3089117145e77",
}
PACKAGED = resources.files("twistgrip.data")


class TestReferenceDatasets:
    def test_every_shipped_dataset_is_pinned(self):
        shipped = {f.name.removesuffix(".json") for f in PACKAGED.iterdir()
                   if f.name.endswith(".json")}
        assert shipped == set(expio.DATASET_IDS) == set(DATASET_CHECKSUMS)

    @pytest.mark.parametrize("dataset_id", expio.DATASET_IDS)
    def test_checksums_pinned(self, dataset_id):
        data = PACKAGED.joinpath(f"{dataset_id}.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == DATASET_CHECKSUMS[dataset_id]

    def test_payload_row_values(self):
        row = expio.load_reference_dataset("table1_payload")["rows"][0]
        assert row["weight_kg"] == 0.491
        assert row["max_payload_kgf"] == 33.51
        assert row["max_payload_n"] == 328.7
        assert row["reported_ratio_percent"] == 6812.0

    def test_object_table_shape(self):
        dataset = expio.load_reference_dataset("table2_objects")
        assert len(dataset["rows"]) == 8
        assert all(row["success_rate"] == 1.0 for row in dataset["rows"])

    def test_submersion_table_shape(self):
        dataset = expio.load_reference_dataset("table3_submersion")
        fractions = [row["submersion_fraction"] for row in dataset["rows"]]
        rates = [row["success_rate"] for row in dataset["rows"]]
        assert fractions == [0.0, 0.3, 0.6, 0.9]
        assert rates == [1.0, 1.0, 0.08, 0.0]

    @pytest.mark.parametrize("dataset_id", expio.DATASET_IDS)
    def test_mutating_a_returned_document_leaves_the_next_one_as_shipped(self, dataset_id):
        first = expio.load_reference_dataset(dataset_id)
        first["rows"].clear()
        first["id"] = "changed"
        shipped = json.loads(PACKAGED.joinpath(f"{dataset_id}.json").read_bytes())
        assert expio.load_reference_dataset(dataset_id) == shipped


class TestPayloadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("strain,force_n\n0,0\n0.5,40\n")
        curve = expio.read_payload_csv(path)
        assert len(curve) == 2
        assert (curve.strains, curve.loads) == ((0.0, 0.5), (0.0, 40.0))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("# gauge export\nstrain,force_n\n\n0,0\n# mid comment\n0.5,40\n")
        assert len(expio.read_payload_csv(path)) == 2

    def test_duplicated_strain_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("strain,force_n\n0,0\n0.5,40\n0.5,41\n")
        with pytest.raises(ValidationError):
            expio.read_payload_csv(path)

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("strain,force_n\n0,0\n0.5,forty\n")
        with pytest.raises(ParseError, match=":3:"):
            expio.read_payload_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("x,y\n0,0\n")
        with pytest.raises(ParseError):
            expio.read_payload_csv(path)

    def test_round_trip_exact(self, tmp_path):
        curve = PayloadCurve(
            strains=(0.0, 0.123456789, 0.4, 0.97),
            loads=(0.0, 12.25, 40.0, 181.5),
        )
        path = tmp_path / "curve.csv"
        expio.write_payload_csv(curve, path)
        back = expio.read_payload_csv(path)
        assert back.strains == curve.strains
        assert back.loads == curve.loads

    def test_skin_height_normalizes_deflection(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("strain,force_n\n0,0\n0.025,40\n")
        curve = expio.read_payload_csv(path, skin_height=0.05)
        assert curve.strains == pytest.approx((0.0, 0.5))


class TestRatiosAndConversions:
    def test_recorded_payload_ratio(self):
        ratio = expio.payload_to_weight_ratio(33.51, 0.491)
        assert ratio == pytest.approx(6824.8, abs=0.1)
        # the bundled table records 6812%; the computed value sits within 0.5%
        assert abs(ratio - 6812.0) / 6812.0 < 0.005

    def test_unit_ratio(self):
        assert expio.payload_to_weight_ratio(1.0, 1.0) == 100.0

    def test_ratio_from_newtons_agrees(self):
        from_newtons = expio.payload_to_weight_ratio(expio.newtons_to_kgf(328.7), 0.491)
        from_kgf = expio.payload_to_weight_ratio(33.51, 0.491)
        assert from_newtons == pytest.approx(from_kgf, rel=1e-3)

    def test_newtons_to_kgf_cross_check(self):
        assert round(expio.newtons_to_kgf(328.7), 2) == 33.51

    def test_zero_converts_to_zero(self):
        assert expio.newtons_to_kgf(0.0) == 0.0


LABELS = {"title": "t", "x_label": "x", "y_label": "y"}


class TestPlots:
    def test_single_series_polyline(self, tmp_path):
        path = tmp_path / "plot.svg"
        expio.emit_plot([([0.0, 1.0], [0.0, 2.0], "line")], path, **LABELS)
        content = path.read_text()
        assert content.count("<polyline") == 1
        assert "line" in content

    def test_labels_are_escaped(self, tmp_path):
        path = tmp_path / "plot.svg"
        label = "R&D <fit>"
        expio.emit_plot([([0.0, 1.0], [0.0, 2.0], label)], path, title=label, x_label=label,
                        y_label=label)
        texts = [e.text for e in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
        assert texts == [label] * 4

    def test_deterministic_output(self, tmp_path):
        series = [([0.0, 0.5, 1.0], [0.0, 30.0, 100.0], "measured"),
                  ([0.0, 0.5, 1.0], [0.0, 32.0, 98.0], "fitted")]
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        expio.emit_plot(series, p1, **LABELS)
        expio.emit_plot(series, p2, **LABELS)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fit_vs_raw_two_series(self, tmp_path):
        import numpy as np
        from twistgrip.spring import SkinSpec, fit_zones, predict_load

        spec = SkinSpec(100.0, 400.0, 0.4)
        strains = np.linspace(0.0, 1.0, 20)
        loads = [predict_load(s, spec) for s in strains]
        curve = PayloadCurve(strains=tuple(strains), loads=tuple(loads))
        fit = fit_zones(curve)
        fitted = [fit.predict(s) for s in strains]
        path = tmp_path / "fit.svg"
        expio.emit_plot(
            [(list(strains), loads, "measured"), (list(strains), fitted, "fitted")], path,
            **LABELS)
        content = path.read_text()
        assert content.count("<polyline") == 2
        assert "measured" in content and "fitted" in content

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            expio.emit_plot([], tmp_path / "x.svg", **LABELS)

    def test_series_without_points_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="at least one point"):
            expio.emit_plot([([], [], "a"), ([], [], "b")], tmp_path / "x.svg", **LABELS)
        assert not (tmp_path / "x.svg").exists()

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            expio.emit_plot([([0.0], [0.0], "p")], tmp_path / "missing" / "x.svg", **LABELS)


class TestReport:
    def test_report_json_round_trip(self, tmp_path):
        report = expio.Report(sections=(
            expio.ReportSection(
                title="fit",
                metrics={"slope1": {"value": 100.0, "unit": "N/strain"}},
                plot="fit.svg",
            ),
        ))
        path = tmp_path / "report.json"
        expio.write_report_json(report, path)
        import json
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["sections"][0]["metrics"]["slope1"]["unit"] == "N/strain"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_value_is_not_written(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            expio.write_json({"a": 1, "b": [1.0, value]}, path)
        assert not path.exists()  # no truncated file left behind


# The parent's payload CSV and plot writers and reader, kept verbatim (names qualified) as the
# oracle for the one-format-call versions: files must be byte-identical, results equal.

def _read_payload_csv_reference(path, skin_height=None):
    strains, loads = [], []
    header_seen = False
    # undecodable bytes survive as escapes, so they fail the header or number parse below
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != expio.CSV_HEADER:
                    raise ParseError(f"{path}:{lineno}: expected header {expio.CSV_HEADER!r}, got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
            try:
                strain = float(parts[0])
                load = float(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field in {line!r}") from None
            strains.append(strain)
            loads.append(load)
    if not header_seen:
        raise ParseError(f"{path}: missing header {expio.CSV_HEADER!r}")

    try:
        if skin_height is not None:
            return PayloadCurve.from_absolute(strains, loads, skin_height)
        return PayloadCurve(strains=tuple(strains), loads=tuple(loads))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _write_payload_csv_reference(curve, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(expio.CSV_HEADER + "\n")
        for strain, load in zip(curve.strains, curve.loads):
            fh.write(f"{strain!r},{load!r}\n")


def _fmt(x):
    return f"{x:.3f}"


def _emit_plot_reference(series, path, *, title, x_label, y_label):
    _SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN = expio._SVG_WIDTH, expio._SVG_HEIGHT, expio._SVG_MARGIN
    _SERIES_COLORS = expio._SERIES_COLORS
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

    def to_px(x, y):
        px = _SVG_MARGIN + (x - x_min) / x_span * inner_w
        py = _SVG_HEIGHT - _SVG_MARGIN - (y - y_min) / y_span * inner_h
        return px, py

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
        points = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(x, y) for x, y in zip(xs, ys))
        )
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


def _outcome(call, *args, **kwargs):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# sign, subnormal and huge edge values, ints, numpy scalars and any float, nan and inf included
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.0005,
               2.0005, 1e-3]
SAMPLES = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats().map(np.float64),
                    st.integers(-10**6, 10**6), st.integers(-2**70, 2**70))


# a series as (xs, ys) of equal length
PAIRED = st.lists(st.tuples(SAMPLES, SAMPLES), max_size=12).map(
    lambda pairs: ([x for x, _ in pairs], [y for _, y in pairs]))


def _plot_rejection(series):
    """The start of emit_plot's error for series of floats, or None where it plots them."""
    for xs, ys, _ in series:
        for name, values in (("xs", xs), ("ys", ys)):
            if not all(map(math.isfinite, values)):
                return f"{name} must be a 1-D array of finite numbers"
    if any(len(xs) != len(ys) for xs, ys, _ in series):
        return "ys must have as many samples as xs"
    all_x = [x for xs, _, _ in series for x in xs]
    all_y = [y for _, ys, _ in series for y in ys]
    if not all_x:
        return "series must contain at least one point"
    for name, values in (("xs", all_x), ("ys", all_y)):
        if max(values) - min(values) == math.inf:
            return f"{name} must span a finite range"
    return None


class TestMatchesReference:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(series=st.lists(PAIRED, min_size=1, max_size=7), ragged=st.booleans())
    def test_plot_is_byte_identical(self, series, ragged):
        if ragged:  # the last series loses its last y
            series[-1] = (series[-1][0], series[-1][1][:-1])
        series = [(xs, ys, f"s{i}") for i, (xs, ys) in enumerate(series)]
        # the reference sees each sample as the float it is plotted at (ints past 2**53 round)
        as_floats = [([float(x) for x in xs], [float(y) for y in ys], label)
                     for xs, ys, label in series]
        rejection = _plot_rejection(as_floats)
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = Path(tmp, "new.svg"), Path(tmp, "ref.svg")
            outcome = _outcome(expio.emit_plot, series, new, **LABELS)
            if rejection is None:
                _emit_plot_reference(as_floats, ref, **LABELS)
                assert outcome is None and new.read_bytes() == ref.read_bytes()
            else:
                error = DomainError if rejection.startswith("series") else ValidationError
                assert outcome[0] is error and outcome[1].startswith(rejection)
                assert not new.exists()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(strains=st.lists(SAMPLES, max_size=30), loads=st.lists(SAMPLES, max_size=30))
    def test_csv_written_and_read_back_identically(self, strains, loads):
        def ordered(values):
            finite = {float(v): v for v in values if abs(float(v)) < float("inf")}
            return [finite[k] for k in sorted(finite)]  # float keys: -0.0 and 0.0 collide

        strains = ordered(strains)
        loads = [abs(v) for v in ordered(loads)][:len(strains)]
        loads = sorted(loads, key=float)
        strains = strains[:len(loads)]
        curve = PayloadCurve(strains=tuple(strains), loads=tuple(loads))
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = Path(tmp, "new.csv"), Path(tmp, "ref.csv")
            expio.write_payload_csv(curve, new)
            _write_payload_csv_reference(curve, ref)
            assert new.read_bytes() == ref.read_bytes()
            back, ref_back = expio.read_payload_csv(new), _read_payload_csv_reference(new)
        assert (back.strains, back.loads) == (ref_back.strains, ref_back.loads)
        assert (back.strains, back.loads) == (curve.strains, curve.loads)
        assert {type(v) for v in back.strains + back.loads} <= {float}

    @pytest.mark.parametrize("content", [
        b"strain,force_n\r\n0,0\r\n0.5,40\r\n",
        b"strain,force_n\r0,0\r0.5,40\r",
        b"strain,force_n\n0,0\n0.5,40",
        b"\n# export\n  \nstrain,force_n\n\n# mid\n0,0\n \t\n0.5,40\n\n",
        b"strain,force_n\n0,0\n0.5,40,1\n",
        b"strain;force_n\n0,0\n",
        b"# only a comment\n\n",
        b"strain,force_n\n0,0\n0.5,4\xff0\n",
        b"strain,force_n\n\x0c0,0\n0.5,\x0c40\x0c\n",
        b"strain,force_n\n0,0\xc2\x850.5,40\n",
        b"strain,force_n\n0,0,1\n0.5\n",
        b"strain,force_n\n",
        b"# export\nstrain,force_n\n\n",
        b"strain,force_n\n0,0\n0.5,x\n1,2,3\n",
        b"strain,force_n\n0,0\n1,2,3\n0.5,x\n",
        b"strain,force_n\n0,0\n# mid\n\n0.5,4O\n",
        b"strain,force_n\n0,0\n0.5,40\nstrain,force_n\n",
    ], ids=["crlf", "bare-cr", "no-final-newline", "blank-and-comment-lines", "ragged-row",
            "bad-header", "no-header", "undecodable-byte", "form-feed", "next-line-char",
            "balanced-ragged-rows", "header-only", "header-and-comment-only",
            "bad-number-before-ragged-row", "ragged-row-before-bad-number",
            "bad-number-after-comment", "header-repeated"])
    def test_csv_edge_file_read_as_before(self, tmp_path, content):
        path = tmp_path / "curve.csv"
        path.write_bytes(content)
        outcome = _outcome(expio.read_payload_csv, path)
        ref = _outcome(_read_payload_csv_reference, path)
        if isinstance(ref, PayloadCurve):
            assert (outcome.strains, outcome.loads) == (ref.strains, ref.loads)
        else:
            assert outcome == ref
