import hashlib
from importlib import resources

import pytest

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

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DomainError):
            expio.load_reference_dataset("table9")


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

    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError):
            expio.payload_to_weight_ratio(33.51, 0.0)

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
        with pytest.raises(ValueError, match="JSON compliant"):
            expio.write_json({"value": value}, tmp_path / "doc.json")
