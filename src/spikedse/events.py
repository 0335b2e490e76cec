"""Event-camera stream handling: parsing, synthesis, cropping and binning.

Samples are collections of (t, x, y, polarity) events recorded over a fixed
duration (100 ms for NCARS-style recordings). Two on-disk formats are
supported:

  DAT  binary: optional ASCII header lines starting with '%', then 8-byte
       records of two little-endian 32-bit words. Word 0 is the timestamp
       in microseconds; word 1 packs x in bits 0-13, y in bits 14-27 and
       the polarity in bit 28 (bits 29-31 are reserved and written as 0).
       Recognised header keys: width, height, duration, label.
  CSV  text: one "t_us,x,y,p" row per event, optional column-name header.

Binning produces binary spike frames of shape (T, 2, W, W): channel 0
carries negative-polarity spikes, channel 1 positive ones. Accumulation is
a logical OR, never a count, so every element stays in {0, 1}.

All functions here are pure with respect to their inputs and safe to call
from multiple threads.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    BadRow,
    ConfigError,
    CoordinateOutOfRange,
    MalformedHeader,
    MissingManifest,
    SpikeDseError,
    TruncatedRecord,
    UnreadableFile,
    UnsortedEvents,
    WindowTooLarge,
)

# Default sensor geometry used when neither the file header nor the caller
# declares one (matches the ATIS sensor the NCARS recordings come from).
DEFAULT_SENSOR_WIDTH = 304
DEFAULT_SENSOR_HEIGHT = 240
DEFAULT_DURATION_US = 100_000

EVENT_DTYPE = np.dtype([("t", "<i8"), ("x", "<i4"), ("y", "<i4"), ("p", "<i1")])

_X_BITS = 14
_Y_BITS = 14
_X_MASK = (1 << _X_BITS) - 1
_Y_MASK = (1 << _Y_BITS) - 1

_HEADER_KEYS = {"width", "height", "duration", "label"}


@dataclass(frozen=True)
class EventSample:
    """A labeled, time-sorted event recording.

    Attributes:
        events: structured array with fields t, x, y, p, sorted by t.
        sensor_width: sensor columns; every x is < sensor_width.
        sensor_height: sensor rows; every y is < sensor_height.
        duration_us: recording length; every t is in [0, duration_us).
        label: class index (0 = background, 1 = car for NCARS-style data).
    """

    events: np.ndarray
    sensor_width: int
    sensor_height: int
    duration_us: int = DEFAULT_DURATION_US
    label: int = 0

    @property
    def n_events(self) -> int:
        return int(self.events.shape[0])

    def validate(self) -> None:
        """Check the container invariants; raises a typed error on violation."""
        ev = self.events
        if ev.dtype != EVENT_DTYPE:
            raise ValueError(f"expected EVENT_DTYPE events, got {ev.dtype}")
        if ev.shape[0] == 0:
            return
        if np.any(np.diff(ev["t"]) < 0):
            raise UnsortedEvents("event timestamps are not non-decreasing")
        _check_bounds(
            ev, self.sensor_width, self.sensor_height, self.duration_us
        )


@dataclass(frozen=True)
class AttentionWindow:
    """A square region of the sensor where events concentrate."""

    x0: int
    y0: int
    size: int


@dataclass(frozen=True)
class SpikeFrames:
    """Binary spike tensor of shape (timesteps, 2, window, window)."""

    data: np.ndarray
    timesteps: int
    window: int

    def __post_init__(self):
        expected = (self.timesteps, 2, self.window, self.window)
        if self.data.shape != expected:
            raise ValueError(f"frame tensor {self.data.shape} != {expected}")


def events_from_arrays(t, x, y, p) -> np.ndarray:
    """Pack parallel coordinate arrays into the structured event layout."""
    out = np.empty(len(t), dtype=EVENT_DTYPE)
    out["t"] = t
    out["x"] = x
    out["y"] = y
    out["p"] = p
    return out


def _check_bounds(events: np.ndarray, width: int, height: int, duration: int):
    if events.shape[0] == 0:
        return
    t, x, y, p = events["t"], events["x"], events["y"], events["p"]
    if np.any((x < 0) | (x >= width)) or np.any((y < 0) | (y >= height)):
        bad = np.flatnonzero((x < 0) | (x >= width) | (y < 0) | (y >= height))[0]
        raise CoordinateOutOfRange(
            f"event {bad}: pixel ({int(x[bad])}, {int(y[bad])}) outside "
            f"{width}x{height} sensor"
        )
    if np.any((t < 0) | (t >= duration)):
        bad = np.flatnonzero((t < 0) | (t >= duration))[0]
        raise CoordinateOutOfRange(
            f"event {bad}: timestamp {int(t[bad])} outside [0, {duration})"
        )
    if np.any((p < 0) | (p > 1)):
        bad = np.flatnonzero((p < 0) | (p > 1))[0]
        raise CoordinateOutOfRange(f"event {bad}: polarity {int(p[bad])} not in {{0, 1}}")


# ---------------------------------------------------------------------------
# DAT binary format
# ---------------------------------------------------------------------------

def _split_dat_header(data: bytes) -> tuple[dict, int]:
    """Consume leading '%' lines; returns (header fields, event offset)."""
    fields: dict[str, int] = {}
    offset = 0
    while offset < len(data) and data[offset : offset + 1] == b"%":
        end = data.find(b"\n", offset)
        if end == -1:
            end = len(data)
            line_bytes = data[offset:end]
        else:
            line_bytes = data[offset:end]
            end += 1
        try:
            line = line_bytes.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedHeader(f"non-ASCII header line at byte {offset}") from exc
        parts = line[1:].strip().split()
        if len(parts) >= 2 and parts[0].lower() in _HEADER_KEYS:
            try:
                fields[parts[0].lower()] = int(parts[1])
            except ValueError as exc:
                raise MalformedHeader(f"bad header value in {line!r}") from exc
        offset = end
    return fields, offset


def parse_dat(
    data: bytes,
    *,
    sensor_width: int | None = None,
    sensor_height: int | None = None,
    duration_us: int | None = None,
    label: int | None = None,
) -> EventSample:
    """Parse a DAT byte string into an EventSample.

    Header fields override the keyword defaults; explicit keyword arguments
    are used only when the header does not declare the value. Any byte
    sequence either parses or raises a typed error, never crashes.

    Raises:
        MalformedHeader, TruncatedRecord, CoordinateOutOfRange, UnsortedEvents.
    """
    fields, offset = _split_dat_header(data)
    width = fields.get("width", sensor_width or DEFAULT_SENSOR_WIDTH)
    height = fields.get("height", sensor_height or DEFAULT_SENSOR_HEIGHT)
    duration = fields.get("duration", duration_us or DEFAULT_DURATION_US)
    lab = fields.get("label", label or 0)

    body = data[offset:]
    if len(body) % 8 != 0:
        raise TruncatedRecord(
            f"event section is {len(body)} bytes, not a multiple of 8"
        )
    words = np.frombuffer(body, dtype="<u4")
    w0 = words[0::2]
    w1 = words[1::2]
    events = events_from_arrays(
        t=w0.astype(np.int64),
        x=(w1 & _X_MASK).astype(np.int32),
        y=((w1 >> _X_BITS) & _Y_MASK).astype(np.int32),
        p=((w1 >> (_X_BITS + _Y_BITS)) & 0x1).astype(np.int8),
    )
    _check_bounds(events, width, height, duration)
    if events.shape[0] and np.any(np.diff(events["t"]) < 0):
        raise UnsortedEvents("DAT records are not sorted by timestamp")
    return EventSample(events, width, height, duration, lab)


def write_dat(sample: EventSample) -> bytes:
    """Serialise a sample to DAT bytes; round-trips through parse_dat."""
    header = (
        f"% width {sample.sensor_width}\n"
        f"% height {sample.sensor_height}\n"
        f"% duration {sample.duration_us}\n"
        f"% label {sample.label}\n"
    ).encode("ascii")
    ev = sample.events
    w0 = ev["t"].astype("<u4")
    w1 = (
        ev["x"].astype("<u4")
        | (ev["y"].astype("<u4") << _X_BITS)
        | (ev["p"].astype("<u4") << (_X_BITS + _Y_BITS))
    )
    body = np.empty(2 * len(ev), dtype="<u4")
    body[0::2] = w0
    body[1::2] = w1
    return header + body.tobytes()


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def parse_csv(
    text: str,
    *,
    sensor_width: int = DEFAULT_SENSOR_WIDTH,
    sensor_height: int = DEFAULT_SENSOR_HEIGHT,
    duration_us: int = DEFAULT_DURATION_US,
    label: int = 0,
) -> EventSample:
    """Parse "t_us,x,y,p" rows. An optional column-name header is skipped.

    Raises:
        BadRow: with the 1-based line number of the first offending row.
        UnsortedEvents: if timestamps decrease.
    """
    ts, xs, ys, ps = [], [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if lineno == 1 and not parts[0].strip().lstrip("-").isdigit():
            continue  # column-name header
        if len(parts) != 4:
            raise BadRow(lineno, f"expected 4 fields, got {len(parts)}")
        try:
            t, x, y, p = (int(v.strip()) for v in parts)
        except ValueError:
            raise BadRow(lineno, f"non-integer field in {line!r}") from None
        if p not in (0, 1):
            raise BadRow(lineno, f"polarity {p} not in {{0, 1}}")
        if not (0 <= x < sensor_width and 0 <= y < sensor_height):
            raise BadRow(
                lineno,
                f"pixel ({x}, {y}) outside {sensor_width}x{sensor_height} sensor",
            )
        if not (0 <= t < duration_us):
            raise BadRow(lineno, f"timestamp {t} outside [0, {duration_us})")
        ts.append(t)
        xs.append(x)
        ys.append(y)
        ps.append(p)
    events = events_from_arrays(ts, xs, ys, ps)
    if events.shape[0] and np.any(np.diff(events["t"]) < 0):
        raise UnsortedEvents("CSV rows are not sorted by timestamp")
    return EventSample(events, sensor_width, sensor_height, duration_us, label)


def write_csv(sample: EventSample) -> str:
    """Serialise events as normalized CSV rows (no header, \\n endings)."""
    ev = sample.events
    lines = [
        f"{int(t)},{int(x)},{int(y)},{int(p)}"
        for t, x, y, p in zip(ev["t"], ev["x"], ev["y"], ev["p"])
    ]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Attention window, cropping, binning
# ---------------------------------------------------------------------------

def occupancy_map(sample: EventSample) -> np.ndarray:
    """Per-pixel event counts, shape (sensor_height, sensor_width)."""
    height, width = sample.sensor_height, sample.sensor_width
    ev = sample.events
    flat = ev["y"].astype(np.int64) * width + ev["x"]
    return np.bincount(flat, minlength=height * width).reshape(height, width)


def _check_fits(sample: EventSample, size: int) -> None:
    if size > min(sample.sensor_width, sample.sensor_height) or size < 1:
        raise WindowTooLarge(
            f"window {size} does not fit a "
            f"{sample.sensor_width}x{sample.sensor_height} sensor"
        )


def find_attention_window(sample: EventSample, size: int) -> AttentionWindow:
    """Exact search for the size x size region holding the most events.

    Uses 2-D prefix sums over the occupancy map, so the scan covers every
    placement in O(sensor area). Ties go to the smallest y0, then the
    smallest x0.

    Raises:
        WindowTooLarge: if size exceeds either sensor dimension.
    """
    _check_fits(sample, size)
    counts = occupancy_map(sample)
    # prefix[i, j] = number of events with y < i and x < j
    prefix = np.zeros((counts.shape[0] + 1, counts.shape[1] + 1), dtype=np.int64)
    prefix[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1)
    k = size
    window_sums = (
        prefix[k:, k:] - prefix[:-k, k:] - prefix[k:, :-k] + prefix[:-k, :-k]
    )
    flat = int(np.argmax(window_sums))  # row-major argmax = smallest y0 then x0
    y0, x0 = divmod(flat, window_sums.shape[1])
    return AttentionWindow(x0=int(x0), y0=int(y0), size=size)


def center_window(sample: EventSample, size: int) -> AttentionWindow:
    """Fixed window centered on the sensor, independent of event content."""
    _check_fits(sample, size)
    return AttentionWindow(
        x0=(sample.sensor_width - size) // 2,
        y0=(sample.sensor_height - size) // 2,
        size=size,
    )


def crop(sample: EventSample, window: AttentionWindow) -> EventSample:
    """Keep events inside the window, re-based to the window origin."""
    if (
        window.x0 < 0
        or window.y0 < 0
        or window.x0 + window.size > sample.sensor_width
        or window.y0 + window.size > sample.sensor_height
    ):
        raise WindowTooLarge(
            f"window {window} exceeds "
            f"{sample.sensor_width}x{sample.sensor_height} sensor"
        )
    ev = sample.events
    keep = (
        (ev["x"] >= window.x0)
        & (ev["x"] < window.x0 + window.size)
        & (ev["y"] >= window.y0)
        & (ev["y"] < window.y0 + window.size)
    )
    kept = ev[keep].copy()
    kept["x"] -= window.x0
    kept["y"] -= window.y0
    return replace(
        sample,
        events=kept,
        sensor_width=window.size,
        sensor_height=window.size,
    )


def bin_to_frames(sample: EventSample, timesteps: int) -> SpikeFrames:
    """Bin a (cropped, square) sample into binary spike frames.

    Bin k covers t in [k * duration / T, (k + 1) * duration / T). An output
    element is 1 iff at least one event of that polarity hits that pixel in
    that bin. Samples shorter than the duration simply leave the trailing
    bins empty.
    """
    if timesteps < 1:
        raise ValueError("timesteps must be >= 1")
    if sample.sensor_width != sample.sensor_height:
        raise ValueError(
            f"binning expects a square sample, got "
            f"{sample.sensor_width}x{sample.sensor_height}"
        )
    w = sample.sensor_width
    data = np.zeros((timesteps, 2, w, w), dtype=np.uint8)
    ev = sample.events
    if ev.shape[0]:
        bins = (ev["t"] * timesteps) // sample.duration_us
        data[bins, ev["p"], ev["y"], ev["x"]] = 1
    return SpikeFrames(data=data, timesteps=timesteps, window=w)


WINDOW_MODES = ("per_sample", "center")


def crop_to_window(
    sample: EventSample, window_size: int, *, window_mode: str = "per_sample"
) -> EventSample:
    """Crop a recording to its window_size x window_size attention window.

    window_mode "per_sample" searches the densest window per recording;
    "center" uses a fixed sensor-centered window instead.
    """
    if window_mode == "per_sample":
        win = find_attention_window(sample, window_size)
    elif window_mode == "center":
        win = center_window(sample, window_size)
    else:
        raise ValueError(f"unknown window_mode {window_mode!r}")
    return crop(sample, win)


def encode_sample(
    sample: EventSample,
    window_size: int,
    timesteps: int,
    *,
    window_mode: str = "per_sample",
) -> SpikeFrames:
    """Crop to the attention window, then bin: the standard input pipeline."""
    return bin_to_frames(
        crop_to_window(sample, window_size, window_mode=window_mode), timesteps
    )


def encode_dataset(
    samples: Iterable[EventSample],
    window_size: int,
    timesteps: int,
    *,
    window_mode: str = "per_sample",
) -> list[tuple[SpikeFrames, int]]:
    """Encode samples into (frames, label) pairs ready for the network."""
    return [
        (encode_sample(s, window_size, timesteps, window_mode=window_mode), s.label)
        for s in samples
    ]


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def generate_synthetic(
    class_id: int,
    seed: int,
    *,
    sensor_width: int = 64,
    sensor_height: int = 64,
    duration_us: int = DEFAULT_DURATION_US,
    noise_events: int = 1024,
) -> EventSample:
    """Deterministic two-class stand-in for an event-camera recording.

    Class 1 is a full-height vertical bar sweeping left to right, emitting
    one positive event per bar pixel per step, plus uniform noise. Class 0
    is uniform noise alone, with its count matched to class 1's total so
    the two classes have the same event rate.
    """
    if class_id not in (0, 1):
        raise ValueError(f"class_id must be 0 or 1, got {class_id}")
    rng = np.random.default_rng(seed)
    n_steps = sensor_width
    n_bar = n_steps * sensor_height

    if class_id == 1:
        step = np.repeat(np.arange(n_steps), sensor_height)
        slot = duration_us // n_steps
        t_bar = step * slot + rng.integers(0, slot, size=n_bar)
        x_bar = step.astype(np.int64)
        y_bar = np.tile(np.arange(sensor_height), n_steps)
        p_bar = np.ones(n_bar, dtype=np.int64)
        n_noise = noise_events
    else:
        t_bar = x_bar = y_bar = p_bar = np.empty(0, dtype=np.int64)
        n_noise = noise_events + n_bar

    t_noise = rng.integers(0, duration_us, size=n_noise)
    x_noise = rng.integers(0, sensor_width, size=n_noise)
    y_noise = rng.integers(0, sensor_height, size=n_noise)
    p_noise = rng.integers(0, 2, size=n_noise)

    t = np.concatenate([t_bar, t_noise])
    order = np.argsort(t, kind="stable")
    events = events_from_arrays(
        t[order],
        np.concatenate([x_bar, x_noise])[order],
        np.concatenate([y_bar, y_noise])[order],
        np.concatenate([p_bar, p_noise])[order],
    )
    return EventSample(events, sensor_width, sensor_height, duration_us, class_id)


def make_synthetic_dataset(
    per_class: int,
    seed: int,
    *,
    test_fraction: float = 1.0 / 3.0,
    **gen_kwargs,
) -> tuple[list[EventSample], list[EventSample]]:
    """Build matched train/test splits of synthetic samples of both classes.

    Per-sample seeds derive from one SeedSequence, so the whole dataset is a
    pure function of (per_class, seed, test_fraction).
    """
    sample_seeds = np.random.SeedSequence(seed).generate_state(2 * per_class)
    n_test = int(round(per_class * test_fraction))
    train, test = [], []
    i = 0
    for class_id in (0, 1):
        for j in range(per_class):
            sample = generate_synthetic(
                class_id, int(sample_seeds[i]), **gen_kwargs
            )
            (test if j < n_test else train).append(sample)
            i += 1
    return train, test


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"


def _load_event_file(path: Path, label: int) -> EventSample:
    # parse failures inside a dataset directory surface as UnreadableFile
    try:
        if path.suffix.lower() == ".csv":
            sample = parse_csv(path.read_text(), label=label)
        else:
            sample = parse_dat(path.read_bytes(), label=label)
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc}") from exc
    except SpikeDseError as exc:
        raise UnreadableFile(f"cannot parse {path}: {exc}") from exc
    return replace(sample, label=label)


def load_dataset(
    path: str | Path, split: str, *, workers: int = 1
) -> list[EventSample]:
    """Load one split of a manifest-described dataset directory.

    The manifest is a JSON array of {"file": ..., "label": ..., "split": ...}
    entries; returned samples follow manifest order regardless of how many
    worker threads read the files.

    Raises:
        MissingManifest, ConfigError (malformed manifest), UnreadableFile.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise MissingManifest(f"no {MANIFEST_NAME} in {root}")
    with ConfigError.guard(f"manifest {manifest_path}"):
        wanted = [
            (root / e["file"], int(e["label"]))
            for e in json.loads(manifest_path.read_text())
            if e["split"] == split
        ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda entry: _load_event_file(*entry), wanted))
    return [_load_event_file(*entry) for entry in wanted]


def write_dataset(
    samples_by_split: dict[str, list[EventSample]], out_dir: str | Path
) -> Path:
    """Write samples as DAT files plus a manifest; returns the manifest path."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for split, samples in samples_by_split.items():
        for i, sample in enumerate(samples):
            name = f"{split}_{i:05d}_c{sample.label}.dat"
            (root / name).write_bytes(write_dat(sample))
            entries.append({"file": name, "label": sample.label, "split": split})
    manifest_path = root / MANIFEST_NAME
    manifest_path.write_text(json.dumps(entries, indent=1) + "\n")
    return manifest_path
