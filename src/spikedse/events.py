"""Event-camera stream handling: parsing, synthesis, cropping and binning.

A sample holds its (t, x, y, polarity) events, sorted by t over a fixed
duration (100 ms for NCARS-style recordings), as four uint32 columns, the
width DAT records store. Two on-disk formats are supported:

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

_X_BITS = 14
_Y_BITS = 14
_X_MASK = (1 << _X_BITS) - 1
_Y_MASK = (1 << _Y_BITS) - 1
_MAX_SIDE = 1 << _X_BITS  # the largest sensor side the x/y fields address
_MAX_DURATION_US = 1 << 32  # every t < duration_us fits the uint32 column

_HEADER_KEYS = {"width", "height", "duration", "label"}


@dataclass(frozen=True)
class EventSample:
    """A labeled, time-sorted event recording in four equal-length 1-D
    uint32 columns, one row per event (other integer inputs are cast).

    Attributes:
        t: timestamps in microseconds, sorted, each in [0, duration_us).
        x: pixel columns, each < sensor_width.
        y: pixel rows, each < sensor_height.
        p: polarities, each 0 (negative) or 1 (positive).
        sensor_width, sensor_height: sensor size in pixels.
        duration_us: recording length.
        label: class index (0 = background, 1 = car for NCARS-style data).
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    sensor_width: int
    sensor_height: int
    duration_us: int = DEFAULT_DURATION_US
    label: int = 0

    def __post_init__(self):
        for name in ("t", "x", "y", "p"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), np.uint32))
        if not len(self.t) == len(self.x) == len(self.y) == len(self.p):
            raise ValueError("event columns differ in length")

    @property
    def n_events(self) -> int:
        return int(self.t.shape[0])


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


def parse_dat(data: bytes) -> EventSample:
    """Parse a DAT byte string into an EventSample.

    Header fields give the sensor size, duration and label; an undeclared
    one takes the ATIS default (304x240, 100 ms, label 0). Any byte
    sequence either parses or raises a typed error, never crashes.

    Raises:
        MalformedHeader (also for a side outside [1, 2**14] or a duration
        outside [1, 2**32]), TruncatedRecord, CoordinateOutOfRange,
        UnsortedEvents.
    """
    fields, offset = _split_dat_header(data)
    width = fields.get("width", DEFAULT_SENSOR_WIDTH)
    height = fields.get("height", DEFAULT_SENSOR_HEIGHT)
    duration = fields.get("duration", DEFAULT_DURATION_US)
    lab = fields.get("label", 0)
    if not (
        1 <= width <= _MAX_SIDE
        and 1 <= height <= _MAX_SIDE
        and 1 <= duration <= _MAX_DURATION_US
    ):
        raise MalformedHeader(
            f"header declares a {width}x{height} sensor and {duration} us; sides "
            f"must be in [1, {_MAX_SIDE}] and the duration >= 1 and <= {_MAX_DURATION_US}"
        )

    body = data[offset:]
    if len(body) % 8 != 0:
        raise TruncatedRecord(
            f"event section is {len(body)} bytes, not a multiple of 8"
        )
    words = np.frombuffer(body, dtype="<u4")
    # contiguous copies: every later pass reads a strided word more slowly
    t, w1 = words[0::2].copy(), words[1::2].copy()
    x, y = w1 & _X_MASK, w1 >> _X_BITS
    y &= _Y_MASK
    # the masks and the uint32 timestamp already rule out negative values
    # and polarities other than 0 or 1; the first offending event is named
    if len(t) and (int(x.max()) >= width or int(y.max()) >= height):
        bad = int(np.argmax((x >= width) | (y >= height)))
        raise CoordinateOutOfRange(
            f"event {bad}: pixel ({int(x[bad])}, {int(y[bad])}) outside "
            f"{width}x{height} sensor"
        )
    if len(t) and int(t.max()) >= duration:
        bad = int(np.argmax(t >= duration))
        raise CoordinateOutOfRange(
            f"event {bad}: timestamp {int(t[bad])} outside [0, {duration})"
        )
    if np.any(t[1:] < t[:-1]):
        raise UnsortedEvents("DAT records are not sorted by timestamp")
    w1 >>= _X_BITS + _Y_BITS  # w1 becomes the polarity column
    w1 &= 1
    return EventSample(t, x, y, w1, width, height, duration, lab)


def write_dat(sample: EventSample) -> bytes:
    """Serialise a sample to DAT bytes; round-trips through parse_dat."""
    header = (
        f"% width {sample.sensor_width}\n"
        f"% height {sample.sensor_height}\n"
        f"% duration {sample.duration_us}\n"
        f"% label {sample.label}\n"
    ).encode("ascii")
    body = np.empty((sample.n_events, 2), dtype="<u4")
    body[:, 0] = sample.t
    body[:, 1] = sample.x | (sample.y << _X_BITS) | (sample.p << (_X_BITS + _Y_BITS))
    return header + body.tobytes()


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> EventSample:
    """Parse "t_us,x,y,p" rows (label 0) of a recording from the default
    ATIS sensor. An optional column-name header is skipped.

    Raises:
        BadRow: with the 1-based line number of the first offending row.
        UnsortedEvents: if timestamps decrease.
    """
    width, height = DEFAULT_SENSOR_WIDTH, DEFAULT_SENSOR_HEIGHT
    duration = DEFAULT_DURATION_US
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
        if not (0 <= x < width and 0 <= y < height):
            raise BadRow(lineno, f"pixel ({x}, {y}) outside {width}x{height} sensor")
        if not (0 <= t < duration):
            raise BadRow(lineno, f"timestamp {t} outside [0, {duration})")
        ts.append(t)
        xs.append(x)
        ys.append(y)
        ps.append(p)
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise UnsortedEvents("CSV rows are not sorted by timestamp")
    return EventSample(ts, xs, ys, ps, width, height, duration)


def write_csv(sample: EventSample) -> str:
    """Serialise events as normalized CSV rows (no header, \\n endings)."""
    cols = (sample.t.tolist(), sample.x.tolist(), sample.y.tolist(), sample.p.tolist())
    return "".join(f"{t},{x},{y},{p}\n" for t, x, y, p in zip(*cols))


# ---------------------------------------------------------------------------
# Attention window, cropping, binning
# ---------------------------------------------------------------------------

def occupancy_map(sample: EventSample) -> np.ndarray:
    """Per-pixel event counts, shape (sensor_height, sensor_width)."""
    height, width = sample.sensor_height, sample.sensor_width
    flat = sample.y.astype(np.intp)  # bincount casts any other index dtype first
    flat *= width
    flat += sample.x
    return np.bincount(flat, minlength=height * width).reshape(height, width)


def _check_fits(sample: EventSample, size: int) -> None:
    if size > min(sample.sensor_width, sample.sensor_height) or size < 1:
        raise WindowTooLarge(
            f"window {size} does not fit a "
            f"{sample.sensor_width}x{sample.sensor_height} sensor"
        )


def find_attention_window(sample: EventSample, size: int) -> AttentionWindow:
    """Exact search for the size x size region holding the most events.

    Running sums of the occupancy map, first down the rows and then along
    them, give every placement's count in O(sensor area). Ties go to the
    smallest y0, then the smallest x0.

    Raises:
        WindowTooLarge: if size exceeds either sensor dimension.
    """
    _check_fits(sample, size)
    counts = occupancy_map(sample)
    height, width = counts.shape
    k = size
    acc = np.int32 if sample.n_events < 2**31 else np.int64  # holds any sum
    rows = np.zeros((height + 1, width), dtype=acc)  # rows[i]: map rows < i
    np.cumsum(counts, axis=0, dtype=acc, out=rows[1:])
    bands = rows[k:] - rows[:-k]  # bands[y0, x] = events in rows y0..y0+k-1
    cols = np.zeros((height - k + 1, width + 1), dtype=acc)
    np.cumsum(bands, axis=1, out=cols[:, 1:])
    window_sums = cols[:, k:] - cols[:, :-k]
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
    # uint32 wraps a coordinate below the origin past any size: one test per axis
    dx, dy = sample.x - window.x0, sample.y - window.y0
    keep = dx < window.size
    keep &= dy < window.size
    rows = np.flatnonzero(keep)
    return replace(
        sample,
        t=sample.t[rows], x=dx[rows], y=dy[rows], p=sample.p[rows],
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
    if sample.n_events:
        bins = (sample.t.astype(np.int64) * timesteps) // sample.duration_us
        data[bins, sample.p, sample.y, sample.x] = 1
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
    if duration_us < sensor_width:  # the bar needs a time slot >= 1 us per column
        raise ValueError(
            f"duration {duration_us} us is shorter than the {sensor_width} bar steps"
        )
    if duration_us > _MAX_DURATION_US:
        raise ValueError(
            f"duration {duration_us} us exceeds the 2**32 us a DAT timestamp holds"
        )
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

    order = np.argsort(np.concatenate([t_bar, t_noise]), kind="stable")
    # the four columns share one allocation, so that many long-lived samples
    # do not fragment the heap among the int64 temporaries made here
    columns = np.empty((4, len(order)), dtype=np.uint32)
    for row, parts in zip(columns, ((t_bar, t_noise), (x_bar, x_noise),
                                    (y_bar, y_noise), (p_bar, p_noise))):
        row[:] = np.concatenate(parts)[order]
    return EventSample(*columns, sensor_width, sensor_height, duration_us, class_id)


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
    if not 0 <= test_fraction <= 1:  # NaN fails too
        raise ValueError(f"test_fraction must be in [0, 1], got {test_fraction}")
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


def read_event_file(path: str | Path) -> EventSample:
    """Parse one event file: CSV if its suffix is .csv (any case), else DAT."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return parse_csv(path.read_text())
    return parse_dat(path.read_bytes())


def _load_event_file(path: Path, label: int) -> EventSample:
    # parse failures inside a dataset directory surface as UnreadableFile
    try:
        sample = read_event_file(path)
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
        MissingManifest, ConfigError (malformed manifest, a label other
        than 0 or 1), UnreadableFile.
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
        for file, label in wanted:
            if label not in (0, 1):  # the network has one output per class
                raise ValueError(f"{file.name}: label {label} is not 0 or 1")
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
