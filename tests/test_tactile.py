import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from twistgrip.errors import DomainError, ParseError, ValidationError
from twistgrip.tactile import (
    MARKER_DIAMETER_DEFAULT,
    MERGED_AREA_FACTOR,
    CameraModel,
    Deformation,
    Detection,
    DisplacementField,
    MarkerLayout,
    MarkerSet,
    TactileFrame,
    binarize,
    contact_summary,
    default_gate,
    detect_markers,
    marker_pixel_position,
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
        cx, cy = marker_pixel_position(pos, camera)
        cx, cy = cx + dx, cy + dy
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
            detections.append(Detection(centroid=(float(cx), float(cy)), area=area, merged=merged))
    detections.sort(key=lambda d: (d.centroid[1], d.centroid[0]))
    return MarkerSet(detections=tuple(detections))


def _track_reference(prev, curr, gate):
    """track over the full N x M distance matrix, walked in stable flat argsort order."""
    prev_pts = prev.centroids()
    curr_pts = curr.centroids()
    if len(prev_pts) == 0 or len(curr_pts) == 0:
        return DisplacementField(
            matches=(),
            unmatched_previous=tuple(range(len(prev_pts))),
            unmatched_current=tuple(range(len(curr_pts))),
        )
    dists = np.linalg.norm(prev_pts[:, None, :] - curr_pts[None, :, :], axis=2)
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
        matches=tuple(matches),
        unmatched_previous=tuple(i for i in range(len(prev_pts)) if i not in used_prev),
        unmatched_current=tuple(j for j in range(len(curr_pts)) if j not in used_curr),
    )


def _marker_set(points):
    return MarkerSet(detections=tuple(Detection(centroid=(float(x), float(y)), area=1)
                                      for x, y in points))


def _layout(positions, diameter=MARKER_DIAMETER_DEFAULT):
    return MarkerLayout(markers=tuple(enumerate(positions)), marker_diameter=diameter)


GRID = MarkerLayout.grid(5, 5)
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
}


class TestVectorisedMatchesReference:
    @pytest.mark.parametrize("noise_sigma", [0.0, 8.0])
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
    assert ({(j, i): (-dx, -dy) for i, j, (dx, dy) in backward.matches}
            == {(i, j): v for i, j, v in forward.matches})


def test_track_keeps_pair_whose_x_gap_rounds_onto_the_gate():
    # 2**-53 - (1 + 2**-52) rounds to -1.0, so the reference matches at distance == gate
    prev, curr = _marker_set([(1.0 + 2.0**-52, 0.0)]), _marker_set([(2.0**-53, 0.0)])
    assert len(track(prev, curr, 1.0).matches) == 1
    assert track(prev, curr, 1.0) == _track_reference(prev, curr, 1.0)
