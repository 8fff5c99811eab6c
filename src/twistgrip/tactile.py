"""Synthetic marker-based tactile sensing pipeline.

Renders grayscale frames of bright marker discs on the inner skin wall under
a prescribed deformation (per-marker pixel displacement plus occlusion),
then runs the perception chain: binarize, connected-component marker
detection with sub-pixel centroids, and greedy nearest-pair displacement
tracking between frames. Every stage is deterministic for a fixed seed, so
the renderer's ground truth doubles as a test oracle.
"""
from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import (DomainError, ParseError, ValidationError, require_key, require_non_negative,
                     require_positive)

MARKER_DIAMETER_DEFAULT = 0.002  # m
GRID_MARGIN = 0.1  # unit-square border left free by MarkerLayout.grid
VIEW_WIDTH_DEFAULT = 0.05  # m of inner wall spanned by the image width
BINARIZE_THRESHOLD_DEFAULT = 128
MERGED_AREA_FACTOR = 2.5
GATE_DIAMETER_FACTOR = 3.0
CONTACT_THRESHOLD_PX = 1.0
MIN_VISIBLE = 1

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


@dataclass(frozen=True)
class MarkerLayout:
    """Marker ids and normalized positions on the inner wall, plus disc size."""

    markers: tuple  # ((id, (u, v)), ...) with u, v in [0, 1]
    marker_diameter: float = MARKER_DIAMETER_DEFAULT

    def __post_init__(self):
        ids = [mid for mid, _ in self.markers]
        if len(ids) != len(set(ids)):
            raise ValidationError("marker ids must be unique")
        for mid, position in self.markers:
            for axis, value in zip("uv", position):
                if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
                    raise ValidationError(f"marker {mid!r} {axis} must lie in [0, 1], got {value!r}")
        require_positive(marker_diameter=self.marker_diameter)
        object.__setattr__(
            self, "markers", tuple((mid, (float(u), float(v))) for mid, (u, v) in self.markers)
        )

    @classmethod
    def grid(cls, n_cols, n_rows):
        """Regular n_cols x n_rows grid of default-size markers inside the unit square."""
        us = np.linspace(GRID_MARGIN, 1.0 - GRID_MARGIN, n_cols)
        vs = np.linspace(GRID_MARGIN, 1.0 - GRID_MARGIN, n_rows)
        return cls(markers=tuple(enumerate((float(u), float(v)) for v in vs for u in us)))

    def to_json(self):
        return {
            "marker_diameter_m": self.marker_diameter,
            "markers": [{"id": mid, "u": u, "v": v} for mid, (u, v) in self.markers],
        }

    @classmethod
    def from_json(cls, doc):
        """Inverse of to_json; a missing key raises ValidationError naming its path."""
        markers = tuple((require_key(doc, "markers", i, "id"),
                         tuple(require_key(doc, "markers", i, axis) for axis in "uv"))
                        for i in range(len(require_key(doc, "markers"))))
        return cls(markers=markers, marker_diameter=require_key(doc, "marker_diameter_m"))


@dataclass(frozen=True)
class CameraModel:
    """Synthetic single camera: image size in pixels and physical view width."""

    width: int = 640
    height: int = 480
    view_width: float = VIEW_WIDTH_DEFAULT

    def __post_init__(self):
        require_positive(width=self.width, height=self.height, view_width=self.view_width)

    @property
    def pixels_per_meter(self):
        return self.width / self.view_width


@dataclass(frozen=True)
class Deformation:
    """Per-marker pixel displacements plus the set of occluded marker ids."""

    displacements: dict = field(default_factory=dict)  # id -> (dx, dy) px
    occluded: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for mid, (dx, dy) in self.displacements.items():
            if not (np.isfinite(dx) and np.isfinite(dy)):
                raise DomainError(f"displacement of marker {mid!r} must be finite")
        object.__setattr__(self, "occluded", frozenset(self.occluded))

    @classmethod
    def uniform_shift(cls, layout, dx, dy):
        return cls(displacements={mid: (dx, dy) for mid, _ in layout.markers})


@dataclass
class TactileFrame:
    """Single-channel frame; pixels is a (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 2 or pixels.size == 0:
            raise ValidationError("pixels must be a non-empty 2-D array")
        self.pixels = pixels.astype(np.uint8)

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def height(self):
        return self.pixels.shape[0]


@dataclass(frozen=True)
class Detection:
    centroid: tuple  # (x, y) sub-pixel
    area: int
    merged: bool = False


@dataclass(frozen=True)
class MarkerSet:
    detections: tuple

    def __len__(self):
        return len(self.detections)

    def centroids(self):
        return np.array([d.centroid for d in self.detections], dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class DisplacementField:
    """Matched detection index pairs with pixel vectors, plus leftovers."""

    matches: tuple  # ((prev_idx, curr_idx, (dx, dy)), ...)
    unmatched_previous: tuple
    unmatched_current: tuple

    def vectors(self):
        return np.array([v for _, _, v in self.matches], dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class ContactSummary:
    mean_displacement: float
    displacement_variance: float
    visible_count: int
    air_support_kpa: float
    label: str


def marker_pixel_position(layout_pos, camera):
    """Map a normalized (u, v) wall position to pixel coordinates (x, y)."""
    u, v = layout_pos
    return u * (camera.width - 1), v * (camera.height - 1)


def render_frame(layout, deformation, camera, noise_sigma=0.0, seed=0):
    """Render one frame; returns (frame, ground_truth_sidecar).

    Markers are bright anti-aliased discs on a dark background, displaced per
    the deformation and omitted when occluded. A marker pushed fully outside
    the image is silently clipped but recorded in the sidecar. Gaussian pixel
    noise is seeded, so identical inputs give bit-identical frames.
    """
    require_non_negative(noise_sigma=noise_sigma)
    radius_px = layout.marker_diameter / 2.0 * camera.pixels_per_meter
    require_positive(marker_radius_px=radius_px)  # a finite diameter and scale can overflow
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
        visible.append({"id": mid, "x": float(cx), "y": float(cy)})

    _stamp_discs(image, np.array([(m["x"], m["y"]) for m in visible]).reshape(-1, 2), radius_px)
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


def _stamp_discs(image, centres, radius_px):
    """Max-composite one anti-aliased disc per (x, y) centre into image, in place.

    Each disc is evaluated on the window floor(c) +/- (ceil(r) + 2) per axis,
    clipped to the image; this covers [floor(c - r - 1), ceil(c + r + 1)],
    outside which the disc value is 0. Discs are stamped in batches whose
    windows hold at most one image's worth of pixels, so memory stays bounded
    for any radius and marker count.
    """
    height, width = image.shape
    reach = int(np.ceil(radius_px)) + 2
    span_x, span_y = min(2 * reach + 1, width), min(2 * reach + 1, height)
    starts = np.maximum(np.floor(centres) - reach, 0).astype(int)
    xs = starts[:, 0, None] + np.arange(span_x)
    ys = starts[:, 1, None] + np.arange(span_y)
    batch = max(image.size // (span_x * span_y), 1)
    for b in range(0, len(centres), batch):
        bx, by = xs[b:b + batch, None, :], ys[b:b + batch, :, None]
        dist = np.hypot(bx - centres[b:b + batch, 0, None, None],
                        by - centres[b:b + batch, 1, None, None])
        # 1-px linear edge ramp: symmetric coverage keeps the binary centroid unbiased
        disc = np.clip(radius_px + 0.5 - dist, 0.0, 1.0) * 255.0
        inside = (disc > 0) & (bx < width) & (by < height)
        np.maximum.at(image.reshape(-1), (by * width + bx)[inside], disc[inside])


def binarize(frame, threshold=BINARIZE_THRESHOLD_DEFAULT):
    """Threshold to a binary frame: pixel >= threshold maps to 255, else 0."""
    if not 0 <= threshold <= 255:
        raise DomainError(f"threshold must lie in [0, 255], got {threshold}")
    binary = np.where(frame.pixels >= threshold, 255, 0).astype(np.uint8)
    return TactileFrame(pixels=binary)


def detect_markers(binary, min_area=5, expected_area=None):
    """Extract marker blobs from a binary frame.

    8-connected component labeling; the centroid is the mean of member pixel
    coordinates (sub-pixel). Components below min_area are dropped;
    components above MERGED_AREA_FACTOR * expected_area (when given) are
    flagged merged.
    """
    mask = binary.pixels > 0
    labels, n_components = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    ys, xs = np.nonzero(labels)
    members = labels[ys, xs]
    areas = np.bincount(members, minlength=n_components + 1)[1:]
    # integer coordinate sums are exact in float64, so the means match center_of_mass
    mean_x = np.bincount(members, weights=xs, minlength=n_components + 1)[1:] / areas
    mean_y = np.bincount(members, weights=ys, minlength=n_components + 1)[1:] / areas
    detections = []
    for cx, cy, area in zip(mean_x.tolist(), mean_y.tolist(), areas.tolist()):
        if area < min_area:
            continue
        merged = expected_area is not None and area > MERGED_AREA_FACTOR * expected_area
        detections.append(Detection(centroid=(cx, cy), area=area, merged=merged))
    detections.sort(key=lambda d: (d.centroid[1], d.centroid[0]))
    return MarkerSet(detections=tuple(detections))


def track(prev, curr, gate):
    """Greedy nearest-pair matching within the gate radius (px).

    Candidate pairs (i, j) of a previous detection i and a current detection j
    at Euclidean distance d <= gate are taken in the order (d, i, j): by
    increasing distance, ties broken by the previous index and then by the
    current index. A pair is kept when neither detection is used yet;
    leftovers are reported unmatched (marker appearance or disappearance).
    Matches are listed by previous index. Symmetric: swapping the arguments
    pairs the same detections with reversed vectors.
    """
    require_positive(gate=gate)
    prev_pts = prev.centroids()
    curr_pts = curr.centroids()
    # x-window per previous detection over the current ones sorted by x; the
    # reach is one ulp past the gate, so a difference that rounds onto the
    # gate is still a candidate and the distance test below decides.
    reach = np.nextafter(gate, np.inf)
    by_x = np.argsort(curr_pts[:, 0], kind="stable")
    sorted_x = curr_pts[by_x, 0]
    lo = np.searchsorted(sorted_x, prev_pts[:, 0] - reach, side="left")
    counts = np.searchsorted(sorted_x, prev_pts[:, 0] + reach, side="right") - lo
    i = np.repeat(np.arange(len(prev_pts)), counts)
    ranks = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    j = by_x[np.repeat(lo, counts) + ranks]
    dist = np.linalg.norm(prev_pts[i] - curr_pts[j], axis=1)
    in_gate = dist <= gate
    i, j, dist = i[in_gate], j[in_gate], dist[in_gate]
    order = np.lexsort((j, i, dist))
    i, j = i[order], j[order]
    used_prev, used_curr = [False] * len(prev_pts), [False] * len(curr_pts)
    taken = []
    for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        if used_prev[a] or used_curr[b]:
            continue
        used_prev[a] = used_curr[b] = True
        taken.append(k)
    taken = np.array(taken, dtype=int)
    taken = taken[np.argsort(i[taken])]  # each previous index is matched at most once
    i, j = i[taken], j[taken]
    vectors = (curr_pts[j] - prev_pts[i]).tolist()
    return DisplacementField(
        matches=tuple(zip(i.tolist(), j.tolist(), map(tuple, vectors))),
        unmatched_previous=tuple(np.flatnonzero(np.logical_not(used_prev)).tolist()),
        unmatched_current=tuple(np.flatnonzero(np.logical_not(used_curr)).tolist()),
    )


def contact_summary(field, air_support_kpa=0.0):
    """Displacement statistics plus a coarse contact label.

    Label is idle below CONTACT_THRESHOLD_PX mean displacement (or with fewer
    than MIN_VISIBLE visible markers), contact above it, and contact-with-air
    when air support is active.
    """
    require_non_negative(air_support_kpa=air_support_kpa)
    vectors = field.vectors()
    visible = len(field.matches) + len(field.unmatched_current)
    if len(vectors):
        magnitudes = np.linalg.norm(vectors, axis=1)
        mean_mag = float(np.mean(magnitudes))
        variance = float(np.var(magnitudes))
    else:
        mean_mag = 0.0
        variance = 0.0
    in_contact = mean_mag >= CONTACT_THRESHOLD_PX and visible >= MIN_VISIBLE
    if not in_contact:
        label = "idle"
    elif air_support_kpa > 0:
        label = "contact-with-air"
    else:
        label = "contact"
    return ContactSummary(
        mean_displacement=mean_mag,
        displacement_variance=variance,
        visible_count=visible,
        air_support_kpa=float(air_support_kpa),
        label=label,
    )


def default_gate(layout, camera):
    """Default matching gate: 3x the marker pixel diameter."""
    return GATE_DIAMETER_FACTOR * layout.marker_diameter * camera.pixels_per_meter


def write_pgm(frame, path):
    """Write a binary portable graymap (P5, maxval 255)."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frame.pixels.tobytes())


# Whitespace and '#' comment lines separate the header fields; nine digits bound int().
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d{1,9})" * 3 + rb"\s")


def read_pgm(path):
    """Read a binary graymap written by write_pgm; a malformed file raises ParseError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ParseError(f"{path}: not a binary graymap (header 'P5 width height maxval')")
    width, height, maxval = (int(f) for f in header.groups())
    if maxval != 255 or not width * height:
        raise ParseError(f"{path}: expected a non-empty frame with maxval 255, "
                         f"got {width}x{height} with maxval {maxval}")
    if len(data) - header.end() < width * height:
        raise ParseError(f"{path}: {width}x{height} frame needs {width * height} pixel bytes, "
                         f"got {len(data) - header.end()}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=header.end())
    return TactileFrame(pixels=pixels.reshape(height, width).copy())


def write_sidecar(sidecar, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
