"""Synthetic marker-based tactile sensing pipeline.

Renders grayscale frames of bright marker discs on the inner skin wall under
a prescribed deformation (per-marker pixel displacement plus occlusion),
then runs the perception chain: binarize, connected-component marker
detection with sub-pixel centroids, and greedy nearest-pair displacement
tracking between frames. Every stage is deterministic for a fixed seed, so
the renderer's ground truth doubles as a test oracle.
"""
from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType, SimpleNamespace

import numpy as np

from .errors import (DomainError, ParseError, ValidationError, array, is_integer, real,
                     require_integer, require_key, require_non_negative, require_path,
                     require_positive, within)

MARKER_DIAMETER_DEFAULT = 0.002  # m
GRID_MARGIN = 0.1  # unit-square border left free by MarkerLayout.grid
VIEW_WIDTH_DEFAULT = 0.05  # m of inner wall spanned by the image width
BINARIZE_THRESHOLD_DEFAULT = 128
MERGED_AREA_FACTOR = 2.5
GATE_DIAMETER_FACTOR = 3.0
CONTACT_THRESHOLD_PX = 1.0
CHUNK_PIXELS = 2**14  # bound on the pixels of each render temporary


@dataclass(frozen=True)
class MarkerLayout:
    """Marker ids and normalized positions on the inner wall, plus disc size."""

    markers: tuple  # ((id, (u, v)), ...) with u, v in [0, 1]
    marker_diameter: float = MARKER_DIAMETER_DEFAULT

    def __post_init__(self):
        try:
            entries = [(mid, position) for mid, position in self.markers]
        except (TypeError, ValueError):
            raise ValidationError("markers must be a sequence of (id, (u, v)) pairs") from None
        markers = []
        for mid, position in entries:
            if not is_integer(mid):
                raise ValidationError(f"marker id must be an integer, got {mid!r}")
            try:
                u, v = position
            except (TypeError, ValueError):
                raise ValidationError(f"marker {mid!r} needs a pair (u, v), got {position!r}") from None
            for axis, value in zip("uv", (u, v)):
                if not within(0, 1, value):
                    raise ValidationError(f"marker {mid!r} {axis} must lie in [0, 1], got {value!r}")
            markers.append((int(mid), (real(u), real(v))))
        if len({mid for mid, _ in markers}) != len(markers):
            raise ValidationError("marker ids must be unique")
        require_positive(marker_diameter=self.marker_diameter)
        object.__setattr__(self, "markers", tuple(markers))
        # a float32 diameter would compute in float32
        object.__setattr__(self, "marker_diameter", real(self.marker_diameter))

    @classmethod
    def grid(cls, n_cols, n_rows):
        """Regular n_cols x n_rows grid of default-size markers inside the unit square."""
        require_integer(1, n_cols=n_cols, n_rows=n_rows)
        us = np.linspace(GRID_MARGIN, 1.0 - GRID_MARGIN, n_cols)
        vs = np.linspace(GRID_MARGIN, 1.0 - GRID_MARGIN, n_rows)
        return cls(markers=tuple(enumerate((float(u), float(v)) for v in vs for u in us)))

    @classmethod
    def from_json(cls, doc):
        """Build from {"marker_diameter_m": d, "markers": [{"id", "u", "v"}, ...]}.

        A missing key, or markers that are no list, raises ValidationError naming it.
        """
        entries = require_key(doc, "markers")
        if not isinstance(entries, (list, tuple)):
            raise ValidationError(f"markers must be a list of {{id, u, v}}, got {entries!r}")
        markers = tuple((require_key(doc, "markers", i, "id"),
                         tuple(require_key(doc, "markers", i, axis) for axis in "uv"))
                        for i in range(len(entries)))
        return cls(markers=markers, marker_diameter=require_key(doc, "marker_diameter_m"))

    # built once per layout, not fields, so ==, hash and repr read the markers alone
    @cached_property
    def ids(self):
        """Marker ids as Python ints, in layout order."""
        return tuple(mid for mid, _ in self.markers)

    @cached_property
    def uv(self):
        """Read-only (N, 2) normalized positions (u, v), in layout order."""
        uv = np.array([pos for _, pos in self.markers], dtype=float).reshape(-1, 2)
        uv.setflags(write=False)
        return uv


@dataclass(frozen=True)
class CameraModel:
    """Synthetic single camera: image size in pixels and physical view width."""

    width: int = 640
    height: int = 480
    view_width: float = VIEW_WIDTH_DEFAULT

    def __post_init__(self):
        require_integer(1, width=self.width, height=self.height)
        require_positive(view_width=self.view_width)

    @property
    def pixels_per_meter(self):
        return real(self.width) / real(self.view_width)  # a width past the float range gives inf


@dataclass(frozen=True)
class Deformation:
    """Per-marker pixel displacements plus the occluded marker ids, both frozen at construction."""

    displacements: MappingProxyType = field(default_factory=dict)  # id -> (dx, dy) px
    occluded: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.displacements, Mapping):
            raise ValidationError("displacements must map marker ids to (dx, dy) pairs")
        try:
            occluded = frozenset(self.occluded)
        except TypeError:  # not iterable, or an entry that cannot be hashed
            raise ValidationError("occluded must be a collection of marker ids") from None
        pairs = {}
        for mid, displacement in self.displacements.items():
            try:
                dx, dy = displacement  # real() returns a plain float as it is
                dx, dy = (dx, dy) if type(dx) is type(dy) is float else (real(dx), real(dy))
            except (TypeError, ValueError):
                raise ValidationError(f"displacement of marker {mid!r} must be a pair of real "
                                      f"numbers (dx, dy), got {displacement!r}") from None
            if not (math.isfinite(dx) and math.isfinite(dy)):
                raise DomainError(f"displacement of marker {mid!r} must be finite")
            pairs[mid] = (dx, dy)
        object.__setattr__(self, "displacements", MappingProxyType(pairs))
        object.__setattr__(self, "occluded", occluded)

    @classmethod
    def uniform_shift(cls, layout, dx, dy):
        return cls(displacements={mid: (dx, dy) for mid, _ in layout.markers})


@dataclass
class TactileFrame:
    """Single-channel frame; pixels is a non-empty (height, width) uint8 array.

    A uint8 array is kept as given; anything else must hold integers in [0, 255] (errors.array).
    """

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = array("pixels", self.pixels, np.uint8, (None, None))
        if not self.pixels.size:
            raise ValidationError("pixels must be a non-empty 2-D array")

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def height(self):
        return self.pixels.shape[0]


def _arrays_equal(a, b):
    """Same type, and every field array_equal: the == of the array-backed results."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


@dataclass(frozen=True, eq=False)
class MarkerSet:
    """Detected blobs, one row per marker, ordered by centroid (y, x)."""

    xy: np.ndarray  # (N, 2) sub-pixel centroids (x, y)
    areas: np.ndarray  # (N,) int64 pixel counts
    merged: np.ndarray  # (N,) bool, area above MERGED_AREA_FACTOR * expected area

    def __post_init__(self):
        object.__setattr__(self, "xy", array("xy", self.xy, float, (None, 2)))
        object.__setattr__(self, "areas", array("areas", self.areas, np.int64))
        object.__setattr__(self, "merged", array("merged", self.merged, bool))
        if not len(self.xy) == len(self.areas) == len(self.merged):
            raise ValidationError("xy, areas and merged must hold one entry per marker")

    __eq__ = _arrays_equal

    def __len__(self):
        return len(self.xy)

    def centroids(self):
        """The same array as xy; perfbench is its only reader."""
        return self.xy

    @property
    def detections(self):
        """(centroid, area, merged) records in Python types; perfbench is its only reader."""
        return tuple(SimpleNamespace(centroid=(x, y), area=area, merged=flag)
                     for (x, y), area, flag in zip(self.xy.tolist(), self.areas.tolist(),
                                                   self.merged.tolist()))


@dataclass(frozen=True, eq=False)
class DisplacementField:
    """Matched detection index pairs with pixel vectors, plus leftovers.

    Match k moves previous detection prev_index[k] to current detection
    curr_index[k] by shifts[k]; matches are ordered by previous index. lost and
    appeared are the unmatched previous and current indices, increasing.
    """

    prev_index: np.ndarray  # (K,) int64
    curr_index: np.ndarray  # (K,) int64
    shifts: np.ndarray  # (K, 2) (dx, dy) px
    lost: np.ndarray  # int64
    appeared: np.ndarray  # int64

    def __post_init__(self):
        for name in ("prev_index", "curr_index", "lost", "appeared"):
            object.__setattr__(self, name, array(name, getattr(self, name), np.int64))
        object.__setattr__(self, "shifts", array("shifts", self.shifts, float, (None, 2)))
        if not len(self.prev_index) == len(self.curr_index) == len(self.shifts):
            raise ValidationError("prev_index, curr_index and shifts must hold one entry per match")

    __eq__ = _arrays_equal

    @property
    def matches(self):
        """((prev_idx, curr_idx, (dx, dy)), ...) in Python types; perfbench is its only reader."""
        return tuple(zip(self.prev_index.tolist(), self.curr_index.tolist(),
                         map(tuple, self.shifts.tolist())))

    @property
    def unmatched_previous(self):
        """lost as a tuple; perfbench is its only reader."""
        return tuple(self.lost.tolist())

    @property
    def unmatched_current(self):
        """appeared as a tuple; perfbench is its only reader."""
        return tuple(self.appeared.tolist())


@dataclass(frozen=True)
class ContactSummary:
    mean_displacement: float
    displacement_variance: float
    visible_count: int
    air_support_kpa: float
    label: str


def render_frame(layout, deformation, camera, noise_sigma=0.0, seed=0):
    """Render one frame; returns (frame, ground_truth_sidecar).

    Markers are bright anti-aliased discs on a dark background, displaced per
    the deformation and omitted when occluded. A marker pushed fully outside
    the image is silently clipped but recorded in the sidecar. Gaussian pixel
    noise is seeded, so identical inputs give bit-identical frames. The discs
    are stamped into a float64 image, which is then finished in chunks of
    CHUNK_PIXELS pixels: noise added, rounded, clipped to [0, 255] and written
    into the uint8 frame while the chunk is in cache. Besides the image and the
    frame, every temporary holds at most CHUNK_PIXELS pixels, or one window if
    that is larger (see _stamp_discs).
    """
    require_non_negative(noise_sigma=noise_sigma)
    require_integer(0, seed=seed)
    radius_px = layout.marker_diameter / 2.0 * camera.pixels_per_meter
    require_positive(marker_radius_px=radius_px)  # a finite diameter and scale can overflow
    try:
        image = np.zeros((camera.height, camera.width), dtype=float)
    except ValueError as exc:  # more pixels than an array can index
        raise MemoryError(f"{camera.width}x{camera.height} frame: {exc}") from None
    ids = layout.ids
    occluded = np.array([mid in deformation.occluded for mid in ids], dtype=bool)
    # Deformation holds only pairs, so the flat stream has exactly 2 N values
    shifts = np.fromiter(chain.from_iterable(map(deformation.displacements.get, ids,
                                                 repeat((0.0, 0.0)))),
                         float, 2 * len(ids)).reshape(-1, 2)
    cx = layout.uv[:, 0] * (camera.width - 1) + shifts[:, 0]
    cy = layout.uv[:, 1] * (camera.height - 1) + shifts[:, 1]
    clipped = ~occluded & ((cx < -radius_px) | (cx > camera.width - 1 + radius_px)
                           | (cy < -radius_px) | (cy > camera.height - 1 + radius_px))
    shown = np.flatnonzero(~(occluded | clipped))
    visible = [{"id": ids[k], "x": x, "y": y}
               for k, x, y in zip(shown.tolist(), cx[shown].tolist(), cy[shown].tolist())]

    _stamp_discs(image, np.column_stack((cx[shown], cy[shown])), radius_px)
    pixels = np.empty(image.shape, dtype=np.uint8)
    flat, out = image.reshape(-1), pixels.reshape(-1)
    # normal(0, s) draws 0.0 + s * z element by element from the same stream as
    # standard_normal, so chunked draws scaled in place give the same sums
    if noise_sigma > 0:
        rng, noise = np.random.default_rng(seed), np.empty(min(CHUNK_PIXELS, flat.size))
    with np.errstate(over="ignore"):  # a huge sigma saturates, as normal() does
        for start in range(0, flat.size, CHUNK_PIXELS):
            chunk = flat[start:start + CHUNK_PIXELS]
            if noise_sigma > 0:
                draw = noise[:len(chunk)]
                rng.standard_normal(out=draw)
                draw *= real(noise_sigma)  # a Fraction sigma would make an object array
                chunk += draw
            np.rint(chunk, out=chunk)
            np.clip(chunk, 0, 255, out=chunk)
            out[start:start + len(chunk)] = chunk
    frame = TactileFrame(pixels=pixels)
    sidecar = {
        "timestamp": 0,
        "marker_radius_px": float(radius_px),
        "visible": visible,
        "occluded": sorted(ids[k] for k in np.flatnonzero(occluded).tolist()),
        "clipped": sorted(ids[k] for k in np.flatnonzero(clipped).tolist()),
        "noise_sigma": float(noise_sigma),
        "seed": int(seed),
    }
    return frame, sidecar


def _stamp_discs(image, centres, radius_px):
    """Max-composite one anti-aliased disc per (x, y) centre into image, in place.

    A pixel p takes 255 * clip(fl(r + 0.5) - hypot(p - c), 0, 1), which is
    non-zero iff hypot(p - c) < fl(r + 0.5): a 1-px linear edge ramp, whose
    symmetric coverage keeps the binary centroid unbiased.

    Each disc is evaluated on one square window: per axis, the offsets -m ...
    m + 1 from f = floor(c), with m = ceil(fl(r + 0.5)) - 1. A pixel past them
    lies at least the integer m + 1 >= fl(r + 0.5) from every centre in
    [f, f + 1) along one axis, so its rounded gap (monotone) and the hypot, no
    shorter, reach fl(r + 0.5): its value is 0, leaving the non-negative image
    as is. Cut to the frame's size and moved inside it at an edge, the
    window keeps every frame pixel of the uncut window.

    Gaps are computed once per window column and row and broadcast, in batches
    of CHUNK_PIXELS // (window size) discs (one, if a single window is
    larger), so the temporaries stay small for any radius and marker count.
    """
    height, width = image.shape
    # in Python floats, 2m + 2 reads inf near the largest float instead of overflowing
    m = float(np.ceil(float(radius_px) + 0.5)) - 1
    span_x, span_y = int(min(2 * m + 2, width)), int(min(2 * m + 2, height))
    base = np.clip(np.floor(centres) - m, 0, [width - span_x, height - span_y]).astype(np.int64)
    batch = max(CHUNK_PIXELS // (span_x * span_y), 1)
    for b in range(0, len(centres), batch):
        c = centres[b:b + batch]
        x = base[b:b + batch, 0, None] + np.arange(span_x)
        y = base[b:b + batch, 1, None] + np.arange(span_y)
        disc = np.hypot((x - c[:, 0, None])[:, None, :], (y - c[:, 1, None])[:, :, None])
        np.subtract(radius_px + 0.5, disc, out=disc)
        np.clip(disc, 0.0, 1.0, out=disc)
        disc *= 255.0
        index = (y * width)[:, :, None] + x[:, None, :]
        np.maximum.at(image.reshape(-1), index.reshape(-1), disc.reshape(-1))


def binarize(frame, threshold=BINARIZE_THRESHOLD_DEFAULT):
    """Threshold to a binary frame: pixel >= threshold maps to 255, else 0."""
    if not within(0, 255, threshold):
        raise DomainError(f"threshold must lie in [0, 255], got {threshold}")
    binary = (frame.pixels >= threshold).view(np.uint8)
    binary *= 255
    return TactileFrame(pixels=binary)


def _expand_ranges(lo, counts):
    """Owner k and index of every element of the ranges [lo[k], lo[k] + counts[k])."""
    owner = np.repeat(np.arange(len(lo)), counts)
    ranks = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, np.repeat(lo, counts) + ranks


def _label_runs(mask):
    """8-connected components of a 2-D boolean mask, as row runs.

    Returns rows, starts, ends (exclusive) and component numbers of the runs,
    in raster order. A run touches the runs of the row above that overlap
    [start - 1, end]; touching runs are merged by min-label hooking plus
    pointer jumping, so each component's root is its first run. Components
    are numbered 0, 1, ... in the order of their first runs, which is the
    raster order ndimage.label numbers them in (He, Chao and Suzuki, IEEE TIP
    17(5), 2008; Shiloach and Vishkin, J. Algorithms 3(1), 1982).
    """
    # in each row of the column-padded mask the changes alternate start, end
    changes = np.diff(np.pad(mask, ((0, 0), (1, 1))), axis=1)
    rows, cols = np.divmod(np.flatnonzero(changes), changes.shape[1])  # np.nonzero's indices
    rows, starts, ends = rows[0::2], cols[0::2], cols[1::2]
    # keys order the runs by (row, column); ends <= width < stride keeps rows apart
    stride = mask.shape[1] + 1
    above = (rows - 1) * stride
    lo = np.searchsorted(rows * stride + ends, above + starts, side="left")
    counts = np.searchsorted(rows * stride + starts, above + ends, side="right") - lo
    run, touched = _expand_ranges(lo, counts)
    parent = np.arange(len(rows))
    while True:
        root_a, root_b = parent[run], parent[touched]
        differ = root_a != root_b
        if not differ.any():
            break
        root_a, root_b = root_a[differ], root_b[differ]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):  # until every run points at its root
            parent, jumped = jumped, jumped[jumped]
    is_root = parent == np.arange(len(rows))
    return rows, starts, ends, (np.cumsum(is_root) - 1)[parent]


def detect_markers(binary, min_area=5, expected_area=None):
    """Extract marker blobs from a binary frame.

    8-connected component labeling over row runs; the centroid is the mean of
    member pixel coordinates (sub-pixel). Components below min_area are
    dropped; components above MERGED_AREA_FACTOR * expected_area (when given)
    are flagged merged. min_area must be >= 0 and expected_area positive, both
    finite.
    """
    require_non_negative(min_area=min_area)
    if expected_area is not None:
        require_positive(expected_area=expected_area)
    rows, starts, ends, component = _label_runs(binary.pixels > 0)
    lengths = ends - starts
    areas = np.bincount(component, weights=lengths).astype(np.int64)
    # per-run coordinate sums are integers, exact in float64, so the means match center_of_mass
    mean_x = np.bincount(component, weights=(starts + ends - 1) * lengths // 2) / areas
    mean_y = np.bincount(component, weights=rows * lengths) / areas
    kept = np.flatnonzero(areas >= min_area)
    kept = kept[np.lexsort((mean_x[kept], mean_y[kept]))]  # stable, by (y, x)
    areas = areas[kept]
    merged = (np.zeros(len(kept), dtype=bool) if expected_area is None
              else areas > MERGED_AREA_FACTOR * real(expected_area))
    return MarkerSet(xy=np.column_stack((mean_x[kept], mean_y[kept])), areas=areas, merged=merged)


def _cell_candidates(prev_pts, curr_pts, reach):
    """Candidate pairs (i, j) of a previous point i and a current point j.

    Cell lists (Hockney and Eastwood, "Computer Simulation Using Particles",
    1981): the current points are bucketed into x-cells at least reach wide
    and keyed by (cell, rank of y), so each previous point reads the y-window
    [y - reach, y + reach] of the cells from cell(x - reach) to cell(x + reach)
    with two searchsorted calls per cell. The cell map is monotone, so these
    cells hold the whole x-window [x - reach, x + reach]: the candidates hold
    every pair inside both windows. With the reach one ulp past the gate, a
    gap that rounds onto the gate is still a candidate and the distance test
    decides.
    """
    n_curr = len(curr_pts)
    if not n_curr:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    # halved coordinates: x / 2 - x0 cannot overflow for finite x, and clipping
    # to [0, span] bounds the cell number by about n_curr for any query
    half_x = curr_pts[:, 0] / 2
    x0 = half_x.min()
    span = half_x.max() - x0
    width = max(reach / 2, span / n_curr)

    def cell(x):
        return (np.clip(x / 2 - x0, 0.0, span) / width).astype(np.int64)

    by_y = np.argsort(curr_pts[:, 1], kind="stable")
    rank = np.empty(n_curr, dtype=np.int64)
    rank[by_y] = np.arange(n_curr)
    stride = n_curr + 1
    keys = cell(curr_pts[:, 0]) * stride + rank
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    sorted_y = curr_pts[by_y, 1]
    with np.errstate(over="ignore"):  # a window edge past the largest float is +/-inf
        (x_lo, y_lo), (x_hi, y_hi) = (prev_pts - reach).T, (prev_pts + reach).T
    first = cell(x_lo)
    owner, cells = _expand_ranges(first, cell(x_hi) - first + 1)
    y_lo = np.searchsorted(sorted_y, y_lo, side="left")[owner]
    y_hi = np.searchsorted(sorted_y, y_hi, side="right")[owner]
    lo = np.searchsorted(sorted_keys, cells * stride + y_lo)
    k, ranked = _expand_ranges(lo, np.searchsorted(sorted_keys, cells * stride + y_hi) - lo)
    return owner[k], by_key[ranked]


def track(prev, curr, gate):
    """Greedy nearest-pair matching within the gate radius (px).

    Candidate pairs (i, j) of a previous detection i and a current detection j
    at Euclidean distance d <= gate are taken in the order (d, i, j): by
    increasing distance, ties broken by the previous index and then by the
    current index. A pair is kept when neither detection is used yet;
    leftovers are reported unmatched (marker appearance or disappearance).
    Matches are listed by previous index. Symmetric: swapping the arguments
    pairs the same detections with reversed vectors.

    Locally dominant pairs (R. Preis, STACS 1999) are kept first: a pair that
    comes first among the pairs of its previous detection, in the order
    (d, j), and first among those of its current detection, in the order
    (d, i), precedes every other pair that touches either end, so the walk
    keeps it. All such pairs are kept at once, the pairs that touch a matched
    detection are dropped, and the rest is walked in (d, i, j) order, so the
    worst case stays O(E log E) for E pairs in the gate. A chain can hold a
    single locally dominant pair; on the benchmark's jittered 40x40 lattices
    they are every match, and nothing is left to walk.
    """
    require_positive(gate=gate)
    prev_pts, curr_pts = prev.xy, curr.xy
    i, j = _cell_candidates(prev_pts, curr_pts, np.nextafter(real(gate), np.inf))
    with np.errstate(over="ignore"):  # a coordinate gap past the largest float is inf
        dist = _lengths(prev_pts[:, 0][i] - curr_pts[:, 0][j],
                        prev_pts[:, 1][i] - curr_pts[:, 1][j])
    in_gate = dist <= gate
    i, j, dist = i[in_gate], j[in_gate], dist[in_gate]
    partner = np.full(len(prev_pts), -1)  # the current index matched to each previous one
    free_curr = np.ones(len(curr_pts), dtype=bool)
    first = _first_at(i, j, dist, len(prev_pts)) & _first_at(j, i, dist, len(curr_pts))
    partner[i[first]] = j[first]
    free_curr[j[first]] = False
    left = (partner[i] < 0) & free_curr[j]
    for a, b in _greedy_walk(i[left], j[left], dist[left], len(prev_pts), len(curr_pts)):
        partner[a] = b
        free_curr[b] = False
    i = np.flatnonzero(partner >= 0)
    j = partner[i]
    return DisplacementField(prev_index=i, curr_index=j, shifts=curr_pts[j] - prev_pts[i],
                             lost=np.flatnonzero(partner < 0), appeared=np.flatnonzero(free_curr))


def _lengths(dx, dy):
    """Euclidean lengths sqrt(dx*dx + dy*dy), the bits np.linalg.norm gives.

    A length below about 1e-154 squares to a subnormal or 0, one above about
    1e154 to inf, where the norm reads 0 or inf; hypot measures both instead,
    and only a length past the largest float is inf.
    """
    with np.errstate(over="ignore"):
        squares = dx * dx + dy * dy
    lengths = np.sqrt(squares)
    exact = (squares < np.finfo(float).tiny) | (squares == np.inf)
    lengths[exact] = np.hypot(dx[exact], dy[exact])
    return lengths


def _first_at(end, other, dist, n_ends):
    """Mask of the pairs that come first among the pairs of their end, in the order (dist, other).

    dist holds no NaN, and each (end, other) pair occurs once.
    """
    nearest = np.full(n_ends, np.inf)
    np.minimum.at(nearest, end, dist)
    tied = dist == nearest[end]
    lowest = np.full(n_ends, np.iinfo(np.int64).max)
    np.minimum.at(lowest, end[tied], other[tied])
    return tied & (other == lowest[end])


def _greedy_walk(i, j, dist, n_prev, n_curr):
    """Yield the pairs (i, j) the greedy walk keeps, taking the pairs in (dist, i, j) order."""
    # the key i * M + j is exact, unique and ordered as (i, j), and dist holds no
    # NaN, so a stable sort by dist of the pairs in key order is the (d, i, j) order
    order = np.argsort(i * n_curr + j)
    order = order[np.argsort(dist[order], kind="stable")]
    used_prev, used_curr = [False] * n_prev, [False] * n_curr
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if not (used_prev[a] or used_curr[b]):
            used_prev[a] = used_curr[b] = True
            yield a, b


def contact_summary(field, air_support_kpa=0.0):
    """Displacement statistics plus a coarse contact label.

    Label is idle below CONTACT_THRESHOLD_PX mean displacement, contact above
    it, and contact-with-air when air support is active.
    """
    require_non_negative(air_support_kpa=air_support_kpa)
    vectors = field.shifts
    visible = len(vectors) + len(field.appeared)
    if len(vectors):
        magnitudes = _lengths(vectors[:, 0], vectors[:, 1])
        with np.errstate(over="ignore"):  # a sum or a square past the largest float is inf
            mean_mag = float(np.mean(magnitudes))
            variance = float(np.var(magnitudes))
    else:
        mean_mag = 0.0
        variance = 0.0
    if mean_mag < CONTACT_THRESHOLD_PX:
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
    with open(require_path(path), "wb") as fh:
        fh.write(header)
        fh.write(frame.pixels.tobytes())


# Whitespace and '#' comment lines separate the header fields; nine digits bound int().
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d{1,9})" * 3 + rb"\s")


def read_pgm(path):
    """Read a binary graymap written by write_pgm; a malformed file raises ParseError naming it."""
    with open(require_path(path), "rb") as fh:
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
