import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from twistgrip import tactile
from twistgrip.errors import ParseError
from twistgrip.tactile import (
    CHUNK_PIXELS,
    MARKER_DIAMETER_DEFAULT,
    MERGED_AREA_FACTOR,
    CameraModel,
    Deformation,
    DisplacementField,
    MarkerLayout,
    MarkerSet,
    TactileFrame,
    _label_runs,
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
    detections = markers.xy
    errors = []
    for truth in sidecar["visible"]:
        dists = np.linalg.norm(detections - [truth["x"], truth["y"]], axis=1)
        errors.append(float(dists.min()))
    return errors


class TestLayoutAndFrame:
    def test_layout_json_round_trip(self):
        doc = {"marker_diameter_m": LAYOUT.marker_diameter,
               "markers": [{"id": mid, "u": u, "v": v} for mid, (u, v) in LAYOUT.markers]}
        assert MarkerLayout.from_json(doc) == LAYOUT

    def test_layout_arrays_are_read_only_and_not_fields(self):
        layout = MarkerLayout.grid(5, 5)
        text = repr(layout)
        assert layout.ids == tuple(mid for mid, _ in layout.markers)
        assert layout.uv.tolist() == [list(pos) for _, pos in layout.markers]
        with pytest.raises(ValueError):
            layout.uv[0] = 0
        assert layout == MarkerLayout.grid(5, 5)
        assert hash(layout) == hash(MarkerLayout.grid(5, 5))
        assert repr(layout) == text == (f"MarkerLayout(markers={layout.markers!r}, "
                                        f"marker_diameter={layout.marker_diameter!r})")

    def test_float32_marker_diameter_computes_in_float64(self):
        diameter = np.float32(MARKER_DIAMETER_DEFAULT)
        layouts = [MarkerLayout(LAYOUT.markers, marker_diameter=d) for d in (diameter, float(diameter))]
        gates = [default_gate(layout, CAMERA) for layout in layouts]
        assert type(gates[0]) is float and gates[0] == gates[1]
        sidecars = [render_frame(layout, Deformation(), CAMERA)[1] for layout in layouts]
        assert sidecars[0]["marker_radius_px"] == sidecars[1]["marker_radius_px"]

    def test_uint8_pixels_kept_and_others_converted_exactly(self):
        pixels = np.arange(6, dtype=np.uint8).reshape(2, 3)
        assert TactileFrame(pixels=pixels).pixels is pixels
        for other in ([[0.0, 128.0, 255.0]], [[0, 128, 255]], np.array([[0, 128, 255]], np.int16)):
            converted = TactileFrame(pixels=other).pixels
            assert converted.dtype == np.uint8 and converted.tolist() == [[0, 128, 255]]


def test_record_views_hold_python_values_equal_to_the_arrays():
    frame, _ = render_frame(LAYOUT, Deformation(occluded={3}), CAMERA)
    prev = detect_pipeline(frame, expected_area=EXPECTED_AREA)
    curr = detect_pipeline(render_frame(LAYOUT, Deformation.uniform_shift(LAYOUT, 2.0, 1.0),
                                        CAMERA)[0])
    field = track(prev, curr, gate=default_gate(LAYOUT, CAMERA))
    records = [(d.centroid, d.area, d.merged) for d in prev.detections]
    assert records == list(zip(map(tuple, prev.xy.tolist()), prev.areas.tolist(),
                               prev.merged.tolist()))
    assert {type(v) for r in records for v in (*r[0], *r[1:])} == {float, int, bool}
    assert dict(((i, j), v) for i, j, v in field.matches) == _pairs(field)
    assert field.unmatched_previous == tuple(field.lost.tolist()) == ()
    assert field.unmatched_current == tuple(field.appeared.tolist())
    assert len(field.appeared) == 1  # the marker occluded in the previous frame


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
        cx, cy = markers.xy[0]
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

    def test_displacements_are_a_frozen_copy_of_float_pairs(self):
        layout, camera = MarkerLayout.grid(2, 1), CameraModel(width=64, height=48)
        given = {0: (1, 2)}
        deformation = Deformation(displacements=given)
        with pytest.raises(TypeError):
            deformation.displacements[1] = (1.0, 2.0, 3.0)
        frame, sidecar = render_frame(layout, deformation, camera)
        given[0], given[1] = (20.0, 0.0), (1.0, 2.0, 3.0)
        again, again_sidecar = render_frame(layout, deformation, camera)
        assert np.array_equal(again.pixels, frame.pixels) and again_sidecar == sidecar
        assert dict(deformation.displacements) == {0: (1.0, 2.0)}
        assert {type(v) for v in deformation.displacements[0]} == {float}


class TestBinarize:
    def test_all_zero_stays_zero(self):
        frame = TactileFrame(pixels=np.zeros((10, 10)))
        assert (binarize(frame, threshold=1).pixels == 0).all()

    def test_zero_threshold_all_white(self):
        frame = TactileFrame(pixels=np.zeros((10, 10)))
        assert (binarize(frame, threshold=0).pixels == 255).all()

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
        assert markers.areas.tolist() == [25]

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
        assert markers.merged.tolist() == [True]

    def test_single_disc_not_flagged(self):
        layout = MarkerLayout(markers=((0, (0.5, 0.5)),))
        frame, sidecar = render_frame(layout, Deformation(), CAMERA)
        nominal = math.pi * sidecar["marker_radius_px"] ** 2
        markers = detect_pipeline(frame, expected_area=nominal)
        assert markers.merged.tolist() == [False]


class TestTracking:
    def test_identity_field(self):
        frame, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        markers = detect_pipeline(frame)
        field = track(markers, markers, gate=default_gate(LAYOUT, CAMERA))
        assert len(field.prev_index) == 25
        assert len(field.lost) == 0 and len(field.appeared) == 0
        assert np.abs(field.shifts).max() == 0.0

    def test_uniform_shift_recovered(self):
        frame0, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        frame1, _ = render_frame(LAYOUT, Deformation.uniform_shift(LAYOUT, 3.0, -2.0), CAMERA)
        prev = detect_pipeline(frame0)
        curr = detect_pipeline(frame1)
        field = track(prev, curr, gate=10.0)
        assert len(field.prev_index) == 25
        vectors = field.shifts
        assert np.abs(vectors - [3.0, -2.0]).max() <= 0.5

    def test_occlusion_leaves_unmatched_previous(self):
        frame0, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        frame1, _ = render_frame(LAYOUT, Deformation(occluded={12}), CAMERA)
        field = track(detect_pipeline(frame0), detect_pipeline(frame1),
                      gate=default_gate(LAYOUT, CAMERA))
        assert len(field.lost) == 1
        assert len(field.appeared) == 0

    def test_symmetry_up_to_reversal(self):
        frame0, _ = render_frame(LAYOUT, Deformation(), CAMERA)
        frame1, _ = render_frame(LAYOUT, Deformation.uniform_shift(LAYOUT, 4.0, 1.0),
                                 CAMERA)
        prev = detect_pipeline(frame0)
        curr = detect_pipeline(frame1)
        forward = track(prev, curr, gate=12.0)
        backward = track(curr, prev, gate=12.0)
        assert set(_pairs(forward)) == {(j, i) for i, j in _pairs(backward)}


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

    def test_field_without_matches_is_idle(self):
        field = track(_marker_set([]), _marker_set([(5.0, 5.0), (50.0, 5.0)]), gate=10.0)
        summary = contact_summary(field, air_support_kpa=3.0)
        assert (summary.label, summary.mean_displacement, summary.displacement_variance) == (
            "idle", 0.0, 0.0)
        assert summary.visible_count == len(field.appeared) == 2

    def test_shifts_whose_squares_overflow(self):
        # a shift of 1e200 squares past the largest float; the suite's filter turns
        # numpy's overflow warning into an error
        origin = _marker_set([(0.0, 0.0), (0.0, 1e250)])
        one = contact_summary(track(origin, _marker_set([(1e200, 0.0)]), 1e300))
        assert one.mean_displacement == 1e200 and one.displacement_variance == 0.0
        two = contact_summary(track(origin, _marker_set([(1e200, 0.0), (3e200, 1e250)]), 1e300))
        assert two.mean_displacement == 2e200


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

    @pytest.mark.parametrize("data", [b"P5\n2 1\n65535\n\0\0\0\0", b"P5\n2 1\n15\n\0\0",
                                      b"P5\n0 3\n255\n", b"P5\n4 0\n255\n"],
                             ids=["maxval-65535", "maxval-15", "zero-width", "zero-height"])
    def test_rejects_other_maxval_or_empty_frame(self, tmp_path, data):
        path = tmp_path / "odd.pgm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="odd.pgm: expected a non-empty frame with maxval 255"):
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


# Reference implementations: the straightforward per-marker / per-pair forms the
# vectorised library functions must reproduce exactly.

def _render_reference(layout, deformation, camera, noise_sigma=0.0, seed=0):
    """render_frame with one clipped np.maximum patch per marker."""
    radius_px = layout.marker_diameter / 2.0 * camera.pixels_per_meter
    image = np.zeros((camera.height, camera.width), dtype=float)
    visible, occluded_ids, clipped_ids = [], [], []
    for mid, pos in layout.markers:
        if mid in deformation.occluded:
            occluded_ids.append(mid)
            continue
        dx, dy = deformation.displacements.get(mid, (0.0, 0.0))
        u, v = pos
        cx, cy = u * (camera.width - 1) + dx, v * (camera.height - 1) + dy
        if (cx < -radius_px or cx > camera.width - 1 + radius_px
                or cy < -radius_px or cy > camera.height - 1 + radius_px):
            clipped_ids.append(mid)
            continue
        x0 = max(int(np.floor(cx - radius_px - 1)), 0)
        x1 = min(int(np.ceil(cx + radius_px + 1)), camera.width - 1)
        y0 = max(int(np.floor(cy - radius_px - 1)), 0)
        y1 = min(int(np.ceil(cy + radius_px + 1)), camera.height - 1)
        ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
        dist = np.hypot(xs - cx, ys - cy)
        disc = np.clip(radius_px + 0.5 - dist, 0.0, 1.0) * 255.0
        patch = image[y0:y1 + 1, x0:x1 + 1]
        np.maximum(patch, disc, out=patch)
        visible.append({"id": mid, "x": float(cx), "y": float(cy)})
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        image = image + rng.normal(0.0, noise_sigma, size=image.shape)
    frame = TactileFrame(pixels=np.clip(np.rint(image), 0, 255))
    sidecar = {
        "timestamp": 0,
        "marker_radius_px": float(radius_px),
        "visible": visible,
        "occluded": sorted(occluded_ids),
        "clipped": sorted(clipped_ids),
        "noise_sigma": float(noise_sigma),
        "seed": int(seed),
    }
    return frame, sidecar


def _detect_reference(binary, min_area=5, expected_area=None):
    """detect_markers through ndimage.sum_labels and ndimage.center_of_mass."""
    mask = binary.pixels > 0
    labels, n_components = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    detections = []
    if n_components:
        areas = ndimage.sum_labels(mask, labels, index=range(1, n_components + 1))
        centroids = ndimage.center_of_mass(mask, labels, index=range(1, n_components + 1))
        for (cy, cx), area in zip(centroids, areas):
            area = int(area)
            if area < min_area:
                continue
            merged = expected_area is not None and area > MERGED_AREA_FACTOR * expected_area
            detections.append(((float(cx), float(cy)), area, merged))
    detections.sort(key=lambda d: (d[0][1], d[0][0]))
    return MarkerSet(xy=[d[0] for d in detections], areas=[d[1] for d in detections],
                     merged=[d[2] for d in detections])


def _track_reference(prev, curr, gate):
    """track over the full N x M distance matrix, walked in stable flat argsort order."""
    prev_pts = prev.centroids()
    curr_pts = curr.centroids()
    if len(prev_pts) == 0 or len(curr_pts) == 0:
        return DisplacementField(prev_index=[], curr_index=[], shifts=[],
                                 lost=range(len(prev_pts)), appeared=range(len(curr_pts)))
    gaps = prev_pts[:, None, :] - curr_pts[None, :, :]
    with np.errstate(over="ignore"):
        dists = np.linalg.norm(gaps, axis=2)
        squared = np.sum(gaps * gaps, axis=2)
    # the one documented change: a squared gap below the smallest normal float or
    # above the largest is measured with hypot, so a gap that squares to 0 is not a
    # distance of 0 and one that squares to inf is not infinitely far
    exact = (squared < np.finfo(float).tiny) | (squared == np.inf)
    dists[exact] = np.hypot(gaps[..., 0], gaps[..., 1])[exact]
    order = np.argsort(dists, axis=None, kind="stable")
    used_prev, used_curr, matches = set(), set(), []
    for flat in order:
        i, j = np.unravel_index(flat, dists.shape)
        if dists[i, j] > gate:
            break
        if i in used_prev or j in used_curr:
            continue
        used_prev.add(int(i))
        used_curr.add(int(j))
        vector = tuple((curr_pts[j] - prev_pts[i]).tolist())
        matches.append((int(i), int(j), vector))
    matches.sort(key=lambda m: m[0])
    return DisplacementField(
        prev_index=[m[0] for m in matches], curr_index=[m[1] for m in matches],
        shifts=[m[2] for m in matches],
        lost=[i for i in range(len(prev_pts)) if i not in used_prev],
        appeared=[j for j in range(len(curr_pts)) if j not in used_curr],
    )


def _marker_set(points):
    n = len(points)
    return MarkerSet(xy=points, areas=np.ones(n), merged=np.zeros(n, dtype=bool))


def _pairs(field):
    """{(prev_idx, curr_idx): (dx, dy)} of a field's matches."""
    return {(i, j): tuple(v) for i, j, v in zip(field.prev_index.tolist(),
                                                field.curr_index.tolist(), field.shifts.tolist())}


def _layout(positions, diameter=MARKER_DIAMETER_DEFAULT):
    return MarkerLayout(markers=tuple(enumerate(positions)), marker_diameter=diameter)


GRID = MarkerLayout.grid(5, 5)
RAGGED_GRID = MarkerLayout.grid(20, 5)
RENDER_CASES = {
    "border-and-partly-clipped": (
        _layout([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.0), (0.0, 0.5)]),
        Deformation(displacements={0: (-3.0, -2.5), 3: (4.2, 3.7), 4: (0.3, -6.1)}),
        CAMERA),
    "fully-clipped": (
        _layout([(0.5, 0.5), (0.0, 0.0), (1.0, 1.0)]),
        Deformation(displacements={0: (5000.0, 0.0), 1: (-40.0, 0.0), 2: (0.0, 60.0)}),
        CAMERA),
    "overlapping-discs": (
        MarkerLayout(markers=GRID.markers, marker_diameter=0.015),
        Deformation(displacements={7: (31.5, -12.25)}, occluded={3}),
        CAMERA),
    "one-pixel-camera": (
        _layout([(0.0, 0.0), (1.0, 1.0)], diameter=0.4), Deformation(displacements={1: (0.3, 0.2)}),
        CameraModel(width=1, height=1, view_width=1.0)),
    "non-square-camera": (
        GRID, Deformation.uniform_shift(GRID, 0.37, -0.61), CameraModel(width=37, height=5, view_width=0.2)),
    "discs-larger-than-frame": (
        MarkerLayout(markers=GRID.markers, marker_diameter=0.3),
        Deformation.uniform_shift(GRID, 2.5, 1.25), CameraModel(width=20, height=9, view_width=0.1)),
    # r = 1e9 px: a window that grew with r would not fit in memory
    "huge-radius": (
        MarkerLayout(markers=GRID.markers, marker_diameter=1e7),
        Deformation.uniform_shift(GRID, 2.5, 1.25), CameraModel(width=20, height=9, view_width=0.1)),
    # a numpy r near the largest float: the window side 2m + 2 overflows if computed in numpy
    "largest-radius": (
        MarkerLayout(markers=GRID.markers, marker_diameter=np.float64(1.797693134e306)),
        Deformation.uniform_shift(GRID, 2.5, 1.25), CameraModel(width=20, height=9, view_width=0.1)),
    # the two below span several disc batches and noise chunks, the last chunk partial
    "dense-benchmark-grid": (
        MarkerLayout(markers=MarkerLayout.grid(40, 40).markers, marker_diameter=0.0005),
        Deformation(displacements={mid: (0.01 * (mid % 7) - 0.03, 0.02 * (mid % 5))
                                   for mid in range(1600)}, occluded=set(range(0, 1600, 10))),
        CAMERA),
    "ragged-frame": (
        RAGGED_GRID, Deformation.uniform_shift(RAGGED_GRID, 0.37, -0.61),
        CameraModel(width=641, height=37)),
}


@pytest.mark.parametrize("case", ["dense-benchmark-grid", "ragged-frame"])
def test_render_case_spans_several_batches_and_chunks(case):
    layout, _, camera = RENDER_CASES[case]
    pixels = camera.width * camera.height
    assert pixels > CHUNK_PIXELS and pixels % CHUNK_PIXELS  # the last noise chunk is partial
    radius_px = layout.marker_diameter / 2 * camera.pixels_per_meter
    side = 2 * math.ceil(radius_px + 0.5)  # the window's, as _stamp_discs sets it
    assert side <= min(camera.width, camera.height)  # not cut to the frame
    assert len(layout.markers) > 2 * (CHUNK_PIXELS // side**2)  # three batches or more


def _window_edge_radius(n, above):
    """A radius r with r + 0.5, as computed, one ulp above or below the integer n."""
    toward = math.inf if above else -math.inf
    r = n - 0.5
    while r + 0.5 != math.nextafter(n, toward):
        r = math.nextafter(r, toward)
    return r


@pytest.mark.parametrize("shape", ["footprint-narrowest", "footprint-lowest", "capped-width",
                                   "capped-height", "window-cut-width", "window-cut-height"])
@pytest.mark.parametrize("radius", [2.5, 3.5, 12.5, math.hypot(3, 1) - 0.5 + 1e-9,
                                    math.hypot(8, 9) - 0.5 + 1e-9, _window_edge_radius(4, False),
                                    _window_edge_radius(4, True), _window_edge_radius(13, False),
                                    _window_edge_radius(13, True)],
                         ids=["2.5", "3.5", "12.5", "edge-above-sqrt10", "edge-above-sqrt145",
                              "window-edge-below-4", "window-edge-above-4",
                              "window-edge-below-13", "window-edge-above-13"])
def test_render_footprint_boundaries_match_per_marker_loop(radius, shape):
    """Single discs where the stamping window is tight, whole or cut to the frame.

    Either r + 0.5 is an integer, so lattice pixels fall exactly on the end
    of the ramp, or it lies just above the length of a lattice vector, so that
    pixel gets a value below one rounding step, which the frames cannot show
    and the float stamp must, or r + 0.5 lies one ulp below or above an
    integer, where the window's half-width m changes. Centres sit on
    integers and one ulp below them, on every edge and corner and in the
    middle. The frame's smaller side is 2 * ceil(r) + 3 or 2 * ceil(r) + 2,
    which holds the window of 2 * m + 2 pixels, or 2 * m + 1, which cuts it.
    """
    side = 2 * (math.ceil(radius) + 1) + 1
    window = 2 * math.ceil(radius + 0.5)
    width, height = {"footprint-narrowest": (side, side + 4),
                     "footprint-lowest": (side + 4, side),
                     "capped-width": (side - 1, side + 3),
                     "capped-height": (side + 3, side - 1),
                     "window-cut-width": (window - 1, window + 3),
                     "window-cut-height": (window + 3, window - 1)}[shape]
    camera = CameraModel(width=width, height=height, view_width=float(width))  # 1 px per m
    layout = _layout([(0.0, 0.0)], diameter=2 * radius)  # the centre is the displacement
    ys, xs = np.mgrid[0:height, 0:width]
    for x0 in (0, width // 2, width - 1):
        for y0 in (0, height // 2, height - 1):
            for cx in (float(x0), np.nextafter(x0, -np.inf)):
                for cy in (float(y0), np.nextafter(y0, -np.inf)):
                    deformation = Deformation(displacements={0: (cx, cy)})
                    frame, sidecar = render_frame(layout, deformation, camera)
                    ref_frame, ref_sidecar = _render_reference(layout, deformation, camera)
                    assert np.array_equal(frame.pixels, ref_frame.pixels), (cx, cy)
                    assert sidecar == ref_sidecar
                    image = np.zeros((height, width))
                    tactile._stamp_discs(image, np.array([[cx, cy]]), radius)
                    dense = np.clip(radius + 0.5 - np.hypot(xs - cx, ys - cy), 0.0, 1.0) * 255.0
                    assert np.array_equal(image, dense), (cx, cy)


@pytest.mark.parametrize("radius, side", [(2.5, 6), (3.5, 8), (12.5, 26), (3.2, 8),
                                          (_window_edge_radius(4, False), 8),
                                          (_window_edge_radius(4, True), 10)],
                         ids=["2.5", "3.5", "12.5", "benchmark-3.2", "window-edge-below-4",
                              "window-edge-above-4"])
def test_stamping_window_is_the_least_that_holds_the_disc(radius, side, monkeypatch):
    """Where r + 0.5 is an integer n, or just below it, a disc is evaluated on (2n)^2 pixels."""
    shapes, hypot = [], np.hypot

    def recording_hypot(*args, **kwargs):
        disc = hypot(*args, **kwargs)
        shapes.append(disc.shape)
        return disc

    monkeypatch.setattr(np, "hypot", recording_hypot)
    tactile._stamp_discs(np.zeros((64, 64)), np.array([[31.5, 30.25]]), radius)
    assert shapes == [(1, side, side)]


class TestVectorisedMatchesReference:
    # at sigma 1e308, s * z overflows to +/-inf: the frame saturates, and the suite's
    # filter would turn an overflow warning into an error
    @pytest.mark.parametrize("noise_sigma", [0.0, 8.0, 1e308])
    @pytest.mark.parametrize("case", sorted(RENDER_CASES))
    def test_render_matches_per_marker_loop(self, case, noise_sigma):
        layout, deformation, camera = RENDER_CASES[case]
        frame, sidecar = render_frame(layout, deformation, camera, noise_sigma=noise_sigma, seed=5)
        ref_frame, ref_sidecar = _render_reference(layout, deformation, camera,
                                                   noise_sigma=noise_sigma, seed=5)
        assert np.array_equal(frame.pixels, ref_frame.pixels)
        assert sidecar == ref_sidecar

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(positions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=12),
           shifts=st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)), max_size=12),
           diameter=st.floats(1e-4, 0.05), width=st.integers(1, 48), height=st.integers(1, 48))
    def test_render_matches_per_marker_loop_on_random_layouts(self, positions, shifts, diameter,
                                                              width, height):
        layout = _layout(positions, diameter=diameter)
        deformation = Deformation(displacements=dict(enumerate(shifts)))
        camera = CameraModel(width=width, height=height, view_width=0.05)
        frame, sidecar = render_frame(layout, deformation, camera)
        ref_frame, ref_sidecar = _render_reference(layout, deformation, camera)
        assert np.array_equal(frame.pixels, ref_frame.pixels)
        assert sidecar == ref_sidecar

    @pytest.mark.parametrize("seed", range(6))
    def test_detect_matches_ndimage_on_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 90, size=2))
        mask = rng.random(shape) < rng.uniform(0.05, 0.6)
        binary = TactileFrame(pixels=mask * 255)
        for min_area, expected_area in [(1, None), (5, None), (2, 3.0)]:
            assert (detect_markers(binary, min_area=min_area, expected_area=expected_area)
                    == _detect_reference(binary, min_area=min_area, expected_area=expected_area))


coordinates = st.floats(min_value=-50.0, max_value=700.0, allow_subnormal=False)
random_points = st.lists(st.tuples(coordinates, coordinates), max_size=25)


@st.composite
def point_sets(draw):
    """Random centroids with duplicates, or integer lattices half a pitch apart (exact ties)."""
    if draw(st.booleans()):
        prev = draw(random_points)
        curr = draw(random_points)
        pool = prev + curr
        if pool:
            curr = curr + draw(st.lists(st.sampled_from(pool), max_size=5))
            prev = prev + draw(st.lists(st.sampled_from(pool), max_size=5))
        return prev, draw(st.permutations(curr))
    pitch = draw(st.sampled_from([1.0, 2.0, 10.0, 13.0]))
    cols, rows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lattice = [(c * pitch, r * pitch) for r in range(rows) for c in range(cols)]
    shift = draw(st.sampled_from([(0.5, 0.5), (0.5, 0.0), (0.0, 0.5), (0.0, 0.0)]))
    curr = [(x + shift[0] * pitch, y + shift[1] * pitch) for x, y in lattice]
    prev = draw(st.lists(st.sampled_from(lattice), max_size=len(lattice), unique=True))
    curr = draw(st.lists(st.sampled_from(curr), max_size=len(curr), unique=True))
    return prev, curr


@st.composite
def gates(draw, prev, curr):
    """From below the nearest distance to above the frame diagonal, and exact pair distances."""
    options = [st.floats(min_value=1e-6, max_value=2000.0)]
    if prev and curr:
        dists = np.linalg.norm(np.array(prev)[:, None] - np.array(curr)[None], axis=-1)
        exact = dists[dists > 0].tolist()
        if exact:
            options.append(st.sampled_from(exact))
    return draw(st.one_of(options))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_track_matches_dense_reference(data):
    prev_points, curr_points = data.draw(point_sets())
    gate = data.draw(gates(prev_points, curr_points))
    prev, curr = _marker_set(prev_points), _marker_set(curr_points)
    forward = track(prev, curr, gate)
    assert forward == _track_reference(prev, curr, gate)
    backward = track(curr, prev, gate)
    assert backward == _track_reference(curr, prev, gate)
    assert ({(j, i): (-dx, -dy) for (i, j), (dx, dy) in _pairs(backward).items()}
            == _pairs(forward))


def test_track_keeps_pair_whose_x_gap_rounds_onto_the_gate():
    # 2**-53 - (1 + 2**-52) rounds to -1.0, so the reference matches at distance == gate
    prev, curr = _marker_set([(1.0 + 2.0**-52, 0.0)]), _marker_set([(2.0**-53, 0.0)])
    assert len(track(prev, curr, 1.0).prev_index) == 1
    assert track(prev, curr, 1.0) == _track_reference(prev, curr, 1.0)


def test_track_tiny_gate_measures_gaps_that_square_to_zero():
    # the x-gap is inside the window, the y-gap of 1e-170 squares to 0
    prev, far = _marker_set([(0.0, 0.0)]), _marker_set([(1e-200, 1e-170)])
    assert _pairs(track(prev, far, 1e-200)) == {}
    assert track(prev, far, 1e-200) == _track_reference(prev, far, 1e-200)
    near = _marker_set([(1e-201, 0.0)])
    assert _pairs(track(prev, near, 1e-200)) == {(0, 0): (1e-201, 0.0)}
    assert track(prev, near, 1e-200) == _track_reference(prev, near, 1e-200)


def test_track_huge_gate_measures_gaps_that_square_to_inf():
    # a gap of 1e200 squares past the largest float; the suite's filter turns
    # numpy's overflow warning into an error
    prev = _marker_set([(0.0, 0.0)])
    inside, outside = _marker_set([(1e200, 0.0)]), _marker_set([(3e200, 4e200)])
    assert _pairs(track(prev, inside, 1e300)) == {(0, 0): (1e200, 0.0)}
    assert track(prev, inside, 1e300) == _track_reference(prev, inside, 1e300)
    assert _pairs(track(prev, outside, 4e200)) == {}
    assert _pairs(track(prev, outside, 5e200)) == {(0, 0): (3e200, 4e200)}
    assert track(prev, outside, 5e200) == _track_reference(prev, outside, 5e200)


# Cell lists: the cell map must stay monotone and in range however far apart the
# points are, or pairs inside the gate are lost or the int64 cast overflows.

def assert_track_matches_reference(prev_points, curr_points, gate):
    prev, curr = _marker_set(prev_points), _marker_set(curr_points)
    forward, backward = track(prev, curr, gate), track(curr, prev, gate)
    with np.errstate(over="ignore"):  # the reference's N x M gaps may overflow; track's may not
        assert forward == _track_reference(prev, curr, gate)
        assert backward == _track_reference(curr, prev, gate)


def test_track_tiny_gate_over_a_wide_spread():
    # 700 / 1e-200 cells would overflow int64
    prev = [(0.0, 0.0), (700.0, 0.0), (700.0, 5.0)]
    curr = [(0.0, 0.0), (700.0, 1e-201), (1e-201, 0.0), (700.0, 5.0 + 1e-14)]
    assert_track_matches_reference(prev, curr, 1e-200)
    assert len(track(_marker_set(prev), _marker_set(curr), 1e-200).prev_index) == 2


@pytest.mark.parametrize("gate", [1.0, 1e-300, 1e300, 1e308])
def test_track_coordinates_whose_difference_overflows(gate):
    # 1e308 - (-1e308) is inf, and so is a window edge at 1e308 + 1e308
    prev = [(-1e308, 0.0), (1e308, 0.0), (1e308, -1e308), (0.0, 1e308)]
    curr = [(1e308, 1e-300), (-1e308, 0.0), (1e308, -1e308), (-1e308, 1e308), (5e307, 1e308)]
    assert_track_matches_reference(prev, curr, gate)


def test_track_dense_lattice_with_a_sub_pitch_shift():
    # the dense benchmark's 40 x 40 grid on a 640 x 480 frame; the gate of 19.2 px
    # spans about three columns and four rows
    coords = np.linspace(0.1, 0.9, 40)
    prev = [(u * 639, v * 479) for v in coords for u in coords]
    curr = [(x + 3.7, y - 2.9) for x, y in prev]
    assert_track_matches_reference(prev, curr, 19.2)
    assert len(track(_marker_set(prev), _marker_set(curr), 19.2).prev_index) == 1600


# Locally dominant pairs: they must be exactly pairs the (d, i, j) walk keeps,
# and the walk must finish what they leave.

@pytest.fixture
def walks(monkeypatch):
    """Record how many pairs each call hands to the walk."""
    calls = []
    walk = tactile._greedy_walk

    def counted(*args):
        calls.append(len(args[0]))
        return walk(*args)

    monkeypatch.setattr(tactile, "_greedy_walk", counted)
    return calls


def test_track_walks_a_chain_with_one_locally_dominant_pair(walks):
    # gaps grow along the line, so the only locally dominant pair is the first
    x = np.concatenate(([0.0], np.cumsum(1.0 + 1e-4 * np.arange(399))))
    prev, curr = [(v, 0.0) for v in x[0::2]], [(v, 0.0) for v in x[1::2]]
    assert_track_matches_reference(prev, curr, 1.5)
    assert walks == [397, 397]  # both orders: of 399 pairs, one is kept and one dropped
    assert len(track(_marker_set(prev), _marker_set(curr), 1.5).prev_index) == 200


def test_track_matches_a_jittered_dense_grid_with_dropped_markers(walks):
    coords = np.linspace(0.1, 0.9, 40)
    grid = np.array([(u * 639, v * 479) for v in coords for u in coords])
    rng = np.random.default_rng(13)
    moved = grid + (3.7, -2.9) + rng.normal(0.0, 2.0, grid.shape)
    prev = grid[rng.permutation(len(grid))[:1440]]
    curr = moved[rng.permutation(len(grid))[:1440]]
    assert_track_matches_reference(prev.tolist(), curr.tolist(), 19.2)
    assert walks == [681, 681]  # 2 px of jitter leaves pairs to the walk in both orders


def test_track_ties_at_one_end_break_by_the_other_index():
    # every pair lies 1 apart: at P0 the tie goes to C0 (lower current index),
    # at C0 to P0 (lower previous index), and the walk then gives C2 to P1
    prev, curr = [(0.0, 0.0), (2.0, 0.0)], [(1.0, 0.0), (-1.0, 0.0), (3.0, 0.0)]
    assert_track_matches_reference(prev, curr, 1.0)
    assert _pairs(track(_marker_set(prev), _marker_set(curr), 1.0)) == {(0, 0): (1.0, 0.0),
                                                                        (1, 2): (1.0, 0.0)}
    assert _pairs(track(_marker_set(curr), _marker_set(prev), 1.0)) == {(0, 0): (-1.0, 0.0),
                                                                        (2, 1): (-1.0, 0.0)}


# Run-based labelling: detect_markers against the ndimage oracle, and the
# component of every pixel against ndimage.label's.

def _label_image(mask):
    """Per-pixel component numbers (0 for background, 1, 2, ... in raster order) from the runs."""
    rows, starts, ends, component = _label_runs(mask)
    labels = np.zeros(mask.shape, dtype=int)
    for row, start, end, number in zip(rows, starts, ends, component):
        labels[row, start:end] = number + 1
    return labels


def assert_labels_match_ndimage(mask):
    binary = TactileFrame(pixels=mask * 255)
    assert detect_markers(binary, min_area=1) == _detect_reference(binary, min_area=1)
    expected, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    assert np.array_equal(_label_image(mask), expected)


def _spiral(height, width):
    """One 1-px path winding inward, a 1-px gap between its turns."""
    mask = np.zeros((height, width), dtype=bool)
    y = x = 0
    mask[0, 0] = True
    # legs of w-1, h-1, w-1, h-3, w-3, h-5, ... turning clockwise from the top-left corner
    for k, (dy, dx) in enumerate([(0, 1), (1, 0), (0, -1), (-1, 0)] * max(height, width)):
        length = (width - 1 if k % 2 == 0 else height - 1) - 2 * max((k - 1) // 2, 0)
        if length <= 0:
            break
        mask[min(y, y + dy * length):max(y, y + dy * length) + 1,
             min(x, x + dx * length):max(x, x + dx * length) + 1] = True
        y, x = y + dy * length, x + dx * length
    return mask


YY, XX = np.mgrid[:37, :53]
LABEL_CASES = {
    "all-on": np.ones((37, 53), dtype=bool),
    "all-off": np.zeros((37, 53), dtype=bool),
    "one-row": np.random.default_rng(1).random((1, 90)) < 0.5,
    "one-column": np.random.default_rng(2).random((90, 1)) < 0.5,
    "checkerboard": (YY + XX) % 2 == 0,  # every link is diagonal
    "comb": (XX % 2 == 0) | (YY == 36),  # teeth joined only by the last row
    "spiral": _spiral(37, 53),
    "anti-diagonal-staircases": (XX + 3 * YY) // 3 % 4 == 0,  # 3-px steps touching corner to corner
}


@pytest.mark.parametrize("case", sorted(LABEL_CASES))
def test_labels_match_ndimage_on_fixed_masks(case):
    assert_labels_match_ndimage(LABEL_CASES[case])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(height=st.integers(1, 48), width=st.integers(1, 48), density=st.floats(0.05, 0.95),
       seed=st.integers(0, 2**32 - 1))
def test_labels_match_ndimage_on_random_masks(height, width, density, seed):
    assert_labels_match_ndimage(np.random.default_rng(seed).random((height, width)) < density)
