import math

import numpy as np
import pytest

from twistgrip.errors import DomainError, ParseError, ValidationError
from twistgrip.tactile import (
    CameraModel,
    Deformation,
    MarkerLayout,
    TactileFrame,
    binarize,
    contact_summary,
    default_gate,
    detect_markers,
    read_pgm,
    render_frame,
    track,
    write_pgm,
)

CAMERA = CameraModel(width=640, height=480, view_width=0.05)
LAYOUT = MarkerLayout.grid(5, 5)
EXPECTED_AREA = math.pi * (0.001 * CAMERA.pixels_per_meter) ** 2


def detect_pipeline(frame, min_area=5, **kwargs):
    return detect_markers(binarize(frame), min_area=min_area, **kwargs)


def match_errors(markers, sidecar):
    """Distance from each ground-truth marker to its nearest detection."""
    detections = markers.centroids()
    errors = []
    for truth in sidecar["visible"]:
        dists = np.linalg.norm(detections - [truth["x"], truth["y"]], axis=1)
        errors.append(float(dists.min()))
    return errors


class TestLayoutAndFrame:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            MarkerLayout(markers=((0, (0.1, 0.1)), (0, (0.2, 0.2))))

    def test_position_outside_unit_square_rejected(self):
        with pytest.raises(ValidationError):
            MarkerLayout(markers=((0, (1.5, 0.1)),))

    def test_layout_json_round_trip(self):
        doc = LAYOUT.to_json()
        assert MarkerLayout.from_json(doc) == LAYOUT

    def test_empty_pixels_rejected(self):
        with pytest.raises(ValidationError):
            TactileFrame(pixels=np.zeros((0, 0)))


class TestRenderer:
    def test_empty_layout_uniform_background(self):
        layout = MarkerLayout(markers=())
        frame, sidecar = render_frame(layout, Deformation(), CAMERA)
        assert (frame.pixels == 0).all()
        assert sidecar["visible"] == []

    def test_center_marker_centroid_matches_truth(self):
        layout = MarkerLayout(markers=((0, (0.5, 0.5)),))
        frame, sidecar = render_frame(layout, Deformation(), CAMERA)
        markers = detect_pipeline(frame)
        assert len(markers) == 1
        truth = sidecar["visible"][0]
        cx, cy = markers.detections[0].centroid
        assert cx == pytest.approx(truth["x"], abs=0.1)
        assert cy == pytest.approx(truth["y"], abs=0.1)

    def test_same_seed_bit_identical(self):
        f1, _ = render_frame(LAYOUT, Deformation(), CAMERA, noise_sigma=8.0, seed=3)
        f2, _ = render_frame(LAYOUT, Deformation(), CAMERA, noise_sigma=8.0, seed=3)
        assert (f1.pixels == f2.pixels).all()

    def test_different_seed_differs(self):
        f1, _ = render_frame(LAYOUT, Deformation(), CAMERA, noise_sigma=8.0, seed=3)
        f2, _ = render_frame(LAYOUT, Deformation(), CAMERA, noise_sigma=8.0, seed=4)
        assert (f1.pixels != f2.pixels).any()

    def test_fully_clipped_marker_recorded(self):
        layout = MarkerLayout(markers=((0, (0.5, 0.5)), (1, (0.5, 0.5))))
        deformation = Deformation(displacements={1: (5000.0, 0.0)})
        frame, sidecar = render_frame(layout, deformation, CAMERA)
        assert sidecar["clipped"] == [1]
        assert len(sidecar["visible"]) == 1
        assert len(detect_pipeline(frame)) == 1

    def test_occluded_marker_omitted(self):
        deformation = Deformation(occluded={0, 1})
        frame, sidecar = render_frame(LAYOUT, deformation, CAMERA)
        assert sidecar["occluded"] == [0, 1]
        assert len(detect_pipeline(frame)) == len(LAYOUT.markers) - 2


class TestBinarize:
    def test_all_zero_stays_zero(self):
        frame = TactileFrame(pixels=np.zeros((10, 10)))
        assert (binarize(frame, threshold=1).pixels == 0).all()

    def test_zero_threshold_all_white(self):
        frame = TactileFrame(pixels=np.zeros((10, 10)))
        assert (binarize(frame, threshold=0).pixels == 255).all()

    def test_threshold_out_of_range_rejected(self):
        frame = TactileFrame(pixels=np.zeros((10, 10)))
        with pytest.raises(DomainError):
            binarize(frame, threshold=300)

    def test_disc_pixel_count_matches_geometry(self):
        layout = MarkerLayout(markers=((0, (0.5, 0.5)),))
        frame, sidecar = render_frame(layout, Deformation(), CAMERA)
        binary = binarize(frame, threshold=128)
        area = int((binary.pixels > 0).sum())
        nominal = math.pi * sidecar["marker_radius_px"] ** 2
        assert abs(area - nominal) < 0.1 * nominal


class TestDetection:
    def test_empty_frame_empty_set(self):
        frame = TactileFrame(pixels=np.zeros((32, 32)))
        assert len(detect_markers(frame)) == 0

    def test_all_grid_markers_found(self):
        frame, sidecar = render_frame(LAYOUT, Deformation(), CAMERA)
        markers = detect_pipeline(frame)
        assert len(markers) == 25
        assert max(match_errors(markers, sidecar)) <= 0.5

    def test_min_area_filters_specks(self):
        pixels = np.zeros((32, 32))
        pixels[5, 5] = 255  # single-pixel speck
        pixels[15:20, 15:20] = 255
        markers = detect_markers(TactileFrame(pixels=pixels), min_area=5)
        assert len(markers) == 1
        assert markers.detections[0].area == 25

    def test_adjacent_markers_merge_into_one_component(self):
        layout = MarkerLayout(markers=((0, (0.5, 0.5)), (1, (0.5, 0.5))))
        frame, _ = render_frame(layout, Deformation(displacements={1: (1.0, 0.0)}), CAMERA)
        markers = detect_pipeline(frame)
        assert len(markers) == 1

    def test_oversized_component_flagged_merged(self):
        # a blob well beyond 2.5x the nominal disc area
        pixels = np.zeros((64, 64))
        pixels[10:50, 10:50] = 255
        markers = detect_markers(TactileFrame(pixels=pixels), min_area=5, expected_area=100.0)
        assert len(markers) == 1
        assert markers.detections[0].merged

    def test_single_disc_not_flagged(self):
        layout = MarkerLayout(markers=((0, (0.5, 0.5)),))
        frame, sidecar = render_frame(layout, Deformation(), CAMERA)
        nominal = math.pi * sidecar["marker_radius_px"] ** 2
        markers = detect_pipeline(frame, expected_area=nominal)
        assert not markers.detections[0].merged


class TestTracking:
    def test_identity_field(self):
        frame, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        markers = detect_pipeline(frame)
        field = track(markers, markers, gate=default_gate(LAYOUT, CAMERA))
        assert len(field.matches) == 25
        assert not field.unmatched_previous and not field.unmatched_current
        assert np.abs(field.vectors()).max() == 0.0

    def test_uniform_shift_recovered(self):
        frame0, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        frame1, _ = render_frame(LAYOUT, Deformation.uniform_shift(LAYOUT, 3.0, -2.0), CAMERA)
        prev = detect_pipeline(frame0)
        curr = detect_pipeline(frame1)
        field = track(prev, curr, gate=10.0)
        assert len(field.matches) == 25
        vectors = field.vectors()
        assert np.abs(vectors - [3.0, -2.0]).max() <= 0.5

    def test_occlusion_leaves_unmatched_previous(self):
        frame0, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        frame1, _ = render_frame(LAYOUT, Deformation(occluded={12}), CAMERA)
        field = track(detect_pipeline(frame0), detect_pipeline(frame1),
                      gate=default_gate(LAYOUT, CAMERA))
        assert len(field.unmatched_previous) == 1
        assert len(field.unmatched_current) == 0

    def test_symmetry_up_to_reversal(self):
        frame0, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        frame1, _ = render_frame(LAYOUT, Deformation.uniform_shift(LAYOUT, 4.0, 1.0),
                                 CAMERA)
        prev = detect_pipeline(frame0)
        curr = detect_pipeline(frame1)
        forward = track(prev, curr, gate=12.0)
        backward = track(curr, prev, gate=12.0)
        fwd_pairs = {(i, j) for i, j, _ in forward.matches}
        bwd_pairs = {(j, i) for i, j, _ in backward.matches}
        assert fwd_pairs == bwd_pairs

    def test_non_positive_gate_rejected(self):
        frame, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        markers = detect_pipeline(frame)
        with pytest.raises(DomainError):
            track(markers, markers, gate=0.0)


class TestContactSummary:
    def _field(self, shift):
        frame0, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        frame1, _ = render_frame(LAYOUT, Deformation.uniform_shift(LAYOUT, *shift), CAMERA)
        return track(detect_pipeline(frame0), detect_pipeline(frame1), gate=20.0)

    def test_zero_field_is_idle(self):
        summary = contact_summary(self._field((0.0, 0.0)))
        assert summary.label == "idle"
        assert summary.mean_displacement == 0.0
        assert summary.visible_count == 25

    def test_displacement_is_contact(self):
        summary = contact_summary(self._field((5.0, 0.0)))
        assert summary.label == "contact"
        assert summary.mean_displacement == pytest.approx(5.0, abs=0.5)

    def test_air_support_changes_label(self):
        summary = contact_summary(self._field((5.0, 0.0)), air_support_kpa=3.0)
        assert summary.label == "contact-with-air"


class TestPgmRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        frame, _ = render_frame(LAYOUT, Deformation(), CAMERA, noise_sigma=8.0, seed=11)
        path = tmp_path / "frame.pgm"
        write_pgm(frame, path)
        back = read_pgm(path)
        assert back.width == frame.width and back.height == frame.height
        assert (back.pixels == frame.pixels).all()

    def test_rejects_non_p5(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ParseError, match="bad.pgm"):
            read_pgm(path)


class TestRecallSuite:
    def test_noiseless_recall_and_accuracy(self):
        rng = np.random.default_rng(99)
        hits = 0
        total = 0
        worst = 0.0
        for trial in range(10):
            displacements = {
                mid: tuple(rng.uniform(-4.0, 4.0, size=2)) for mid, _ in LAYOUT.markers
            }
            frame, sidecar = render_frame(LAYOUT, Deformation(displacements=displacements),
                                          CAMERA, seed=trial)
            markers = detect_pipeline(frame)
            errors = match_errors(markers, sidecar)
            hits += sum(1 for e in errors if e <= 0.5)
            total += len(errors)
            worst = max(worst, max(errors))
        assert hits / total >= 0.99
        assert worst <= 0.5

    def test_recall_with_occlusion_and_noise(self):
        rng = np.random.default_rng(7)
        hits = 0
        total = 0
        n_markers = len(LAYOUT.markers)
        for trial in range(10):
            occluded = set(rng.choice(n_markers, size=n_markers // 5, replace=False).tolist())
            frame, sidecar = render_frame(LAYOUT, Deformation(occluded=occluded), CAMERA,
                                          noise_sigma=8.0, seed=trial)
            markers = detect_pipeline(frame)
            errors = match_errors(markers, sidecar)
            hits += sum(1 for e in errors if e <= 1.0)
            total += len(errors)
        assert hits / total >= 0.95
