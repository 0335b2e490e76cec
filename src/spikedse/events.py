"""Event-camera stream handling: parsing, synthesis, cropping and binning.

A sample holds its (t, x, y, polarity) events, sorted by t over a fixed
duration (100 ms for NCARS-style recordings), as four columns at the
widths of their DAT fields: uint32 t, uint16 x and y (14-bit fields) and
uint8 p, 9 bytes per event. Two on-disk formats are supported:

  DAT  binary: optional ASCII header lines starting with '%', then an
       optional event-type byte and event-size byte, then 8-byte records
       of two little-endian 32-bit words. Word 0 is the timestamp in
       microseconds; word 1 packs x in bits 0-13, y in bits 14-27 and the
       polarity in bit 28 (bits 29-31 are reserved and written as 0).
       Recognised header keys: width, height, duration, label. An event
       section of 2 more bytes than a multiple of 8 starts with the type
       (any value) and size (which must be 8) bytes of the Prophesee
       layout; the writer always emits them, type 0 and size 8, so a first
       timestamp whose low byte is '%' cannot be read as a header line.
  CSV  text: one "t_us,x,y,p" row per event, optional column-name header.

Binning produces binary spike frames of shape (T, 2, W, W): channel 0
carries negative-polarity spikes, channel 1 positive ones. Accumulation is
a logical OR, never a count, so every element stays in {0, 1}, and the
frames are stored one bit per element (see SpikeFrames).

All functions here are pure with respect to their inputs and safe to call
from multiple threads.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
# generate_synthetic peaks at about 73 B per event (int64 draws, sort keys,
# gathers), so this cap bounds one recording's generation at about 1.2 GB
_MAX_EVENTS = 1 << 24

# (name, dtype) of each event column: the narrowest unsigned type that holds
# its DAT field
_COLUMNS = (("t", np.uint32), ("x", np.uint16), ("y", np.uint16), ("p", np.uint8))
_MAX_SAMPLE_SIDE = 1 << 16  # the pixels a uint16 x or y column addresses

_HEADER_KEYS = {"width", "height", "duration", "label"}


def _as_column(values, dtype, name: str) -> np.ndarray:
    """values as an array of dtype, kept as is when it already has it.

    Raises:
        ValueError: if the cast would change a value (a negative value, one
        too large for dtype, or a non-integral float) instead of wrapping.
    """
    col = np.asarray(values)
    if col.dtype == dtype:
        return col
    try:
        with np.errstate(invalid="ignore"):  # a float outside dtype fails below
            cast = col.astype(dtype)
        exact = np.array_equal(cast, col)
    except OverflowError:  # a Python int beyond int64 or uint64
        exact = False
    if not exact:
        raise ValueError(f"event column {name} holds a value that is not an "
                         f"integer in the {np.dtype(dtype).name} range")
    return cast


@dataclass(frozen=True)
class EventSample:
    """A labeled, time-sorted event recording in four equal-length 1-D
    columns, one row per event, at the widths of their DAT fields.

    A column that already has its dtype is kept as it is (no copy). Any
    other input is cast, and a cast that would change a value raises
    ValueError: a negative value, one too large for the column, or a
    non-integral float. p stays an integer, not bool, because it indexes
    the polarity channel when binning. A sensor side above 2**16, beyond
    what the x and y columns address, is a ValueError too.

    Attributes:
        t: uint32 timestamps in microseconds, sorted, each in
            [0, duration_us).
        x: uint16 pixel columns, each < sensor_width.
        y: uint16 pixel rows, each < sensor_height.
        p: uint8 polarities, each 0 (negative) or 1 (positive).
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
        for name, dtype in _COLUMNS:
            object.__setattr__(self, name, _as_column(getattr(self, name), dtype, name))
        if not len(self.t) == len(self.x) == len(self.y) == len(self.p):
            raise ValueError("event columns differ in length")
        if max(self.sensor_width, self.sensor_height) > _MAX_SAMPLE_SIDE:
            raise ValueError(
                f"a {self.sensor_width}x{self.sensor_height} sensor has pixels the "
                f"uint16 x and y columns cannot hold; sides must be <= {_MAX_SAMPLE_SIDE}"
            )

    @property
    def n_events(self) -> int:
        return int(self.t.shape[0])


@dataclass(frozen=True)
class AttentionWindow:
    """A square region of the sensor where events concentrate.

    Fields are stored as Python ints (any integer, NumPy scalars included,
    is accepted), so that arithmetic with an event column keeps the
    column's dtype.
    """

    x0: int
    y0: int
    size: int

    def __post_init__(self):
        for name in ("x0", "y0", "size"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))


@dataclass(frozen=True, init=False)
class SpikeFrames:
    """Binary spike tensor of shape (timesteps, 2, window, window), stored
    bit-packed.

    `bits` is the `np.packbits` of the C-order tensor read as one flat bit
    stream: ceil(T * 2 * W**2 / 8) bytes (`packed_bytes`), one eighth of
    the dense uint8 tensor, so a whole encoded split stays small. `data`
    unpacks a fresh, read-only uint8 copy of the tensor on every read, so
    a write to it raises instead of being lost. Both `bits` and the object
    are immutable.

    Raises:
        ValueError: if data does not have shape (timesteps, 2, window,
        window) or holds a value other than 0 and 1 (any dtype).
    """

    bits: np.ndarray
    timesteps: int
    window: int

    def __init__(self, data, timesteps: int, window: int):
        data = np.asarray(data)
        expected = (timesteps, 2, window, window)
        if data.shape != expected:
            raise ValueError(f"frame tensor {data.shape} != {expected}")
        if data.dtype.kind in "bu":  # no negatives: one max() pass (bin_to_frames' uint8)
            binary = data.size == 0 or data.max() <= 1
        else:
            binary = bool(np.all((data == 0) | (data == 1)))
        if not binary:
            raise ValueError("spike frames hold a value other than 0 and 1")
        # packbits reads any non-zero integer as 1; other dtypes go through bool
        bits = np.packbits(data if data.dtype.kind in "biu" else data != 0)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "timesteps", timesteps)
        object.__setattr__(self, "window", window)

    @staticmethod
    def packed_bytes(timesteps: int, window: int) -> int:
        """Bytes of `bits` for one recording's frames at (T, W)."""
        return -(-timesteps * 2 * window * window // 8)

    @property
    def data(self) -> np.ndarray:
        """The unpacked (T, 2, W, W) uint8 tensor, as a read-only copy."""
        T, w = self.timesteps, self.window
        out = np.unpackbits(self.bits, count=T * 2 * w * w).reshape(T, 2, w, w)
        out.flags.writeable = False
        return out


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


def _check_geometry(width: int, height: int, duration: int) -> None:
    """Raise MalformedHeader unless a DAT header can declare this geometry."""
    if not (
        1 <= width <= _MAX_SIDE
        and 1 <= height <= _MAX_SIDE
        and 1 <= duration <= _MAX_DURATION_US
    ):
        raise MalformedHeader(
            f"header declares a {width}x{height} sensor and {duration} us; sides "
            f"must be in [1, {_MAX_SIDE}] and the duration >= 1 and <= {_MAX_DURATION_US}"
        )


def _check_events(t: np.ndarray, x: np.ndarray, y: np.ndarray,
                  width: int, height: int, duration: int) -> None:
    """Raise CoordinateOutOfRange (pixel, then timestamp) or UnsortedEvents
    for event columns that break the declared geometry and duration.

    The unsigned columns already rule out negative values; the first
    offending event is named.
    """
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


def _column_block(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialised (t, x, y, p) columns for n events as views of one
    9n-byte block, so that a long-lived sample is one allocation."""
    block = np.empty(9 * n, dtype=np.uint8)
    return (block[: 4 * n].view(np.uint32), block[4 * n : 6 * n].view(np.uint16),
            block[6 * n : 8 * n].view(np.uint16), block[8 * n :])


def parse_dat(data: bytes) -> EventSample:
    """Parse a DAT byte string into an EventSample.

    Header fields give the sensor size, duration and label; an undeclared
    one takes the ATIS default (304x240, 100 ms, label 0). Any byte
    sequence either parses or raises a typed error, never crashes.

    Raises:
        MalformedHeader (also for a side outside [1, 2**14], a duration
        outside [1, 2**32] or an event-size byte other than 8),
        TruncatedRecord, CoordinateOutOfRange, UnsortedEvents.
    """
    fields, offset = _split_dat_header(data)
    width = fields.get("width", DEFAULT_SENSOR_WIDTH)
    height = fields.get("height", DEFAULT_SENSOR_HEIGHT)
    duration = fields.get("duration", DEFAULT_DURATION_US)
    lab = fields.get("label", 0)
    _check_geometry(width, height, duration)

    size = len(data) - offset
    if size % 8 == 2:  # the event-type byte, then the event-size byte
        if data[offset + 1] != 8:
            raise MalformedHeader(
                f"event size byte at byte {offset + 1} is {data[offset + 1]}, not 8")
        offset += 2
    elif size % 8 != 0:
        raise TruncatedRecord(
            f"event section is {size} bytes, not a multiple of 8 (or 2 more)")
    # read the event section in place: write_dat's header leaves the view
    # unaligned, yet parsing a 74k-event recording this way took 0.20 to
    # 0.35 ms against 0.25 to 0.37 ms through a copy of the section (min of
    # 7 x 300, 6 alternated rounds, 2-vCPU x86-64 host)
    words = np.frombuffer(data, dtype="<u4", offset=offset)
    t, x, y, p = _column_block(len(words) // 2)
    t[:] = words[0::2]
    # a contiguous copy: each of the three passes below reads it once
    w1 = words[1::2].copy()
    np.bitwise_and(w1, _X_MASK, out=x, casting="unsafe")
    np.right_shift(w1, _X_BITS, out=y, casting="unsafe")  # keeps bits 14-29
    y &= _Y_MASK
    _check_events(t, x, y, width, height, duration)
    np.right_shift(w1, _X_BITS + _Y_BITS, out=p, casting="unsafe")  # bits 28-31
    p &= 1
    return EventSample(t, x, y, p, width, height, duration, lab)


def write_dat(sample: EventSample) -> bytes:
    """Serialise a sample to DAT bytes; round-trips through parse_dat.

    Raises:
        ValueError: for a sample parse_dat would refuse to read back (a side
        or duration outside the DAT bounds, an event outside the sensor or
        the duration, unsorted timestamps) or whose polarity field would
        not hold its value (a polarity other than 0 or 1).
    """
    try:
        _check_geometry(sample.sensor_width, sample.sensor_height, sample.duration_us)
        _check_events(sample.t, sample.x, sample.y, sample.sensor_width,
                      sample.sensor_height, sample.duration_us)
    except SpikeDseError as exc:
        raise ValueError(f"cannot write DAT that would not read back: {exc}") from exc
    if sample.n_events and int(sample.p.max()) > 1:
        raise ValueError("cannot write DAT: a polarity is not 0 or 1")
    header = (
        f"% width {sample.sensor_width}\n"
        f"% height {sample.sensor_height}\n"
        f"% duration {sample.duration_us}\n"
        f"% label {sample.label}\n"
    ).encode("ascii") + bytes([0, 8])  # event type 0, event size 8
    body = np.empty((sample.n_events, 2), dtype="<u4")
    body[:, 0] = sample.t
    # widen y and p before shifting: a uint16 y << 14 drops y's high bits
    word = sample.y.astype(np.uint32)
    word <<= _X_BITS
    word |= sample.x
    word |= sample.p.astype(np.uint32) << (_X_BITS + _Y_BITS)
    body[:, 1] = word
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
    """Keep events inside the window, re-based to the window origin.

    One compare per axis, in the uint16 column dtype: a coordinate x left
    of the origin wraps to 2**16 - (x0 - x) >= 2**16 - x0, which is at
    least the window size because the window ends inside a sensor side of
    at most 2**16 (2**14 for any sample a DAT file can hold, so such a
    coordinate wraps to at least 2**16 - 2**14). The same holds above the
    origin.
    """
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
    # window fields are Python ints, so the differences stay uint16 and wrap
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

    The events are scattered into a dense uint8 tensor, which lives only
    for this call: the returned SpikeFrames keeps it bit-packed.
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
        # one flat intp index ((bin * 2 + p) * w + y) * w + x: a single
        # scatter, instead of four narrow index arrays each cast to intp
        flat = sample.t.astype(np.intp)
        flat *= timesteps
        flat //= sample.duration_us
        for col, scale in ((sample.p, 2), (sample.y, w), (sample.x, w)):
            flat *= scale
            flat += col
        data.reshape(-1)[flat] = 1
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
    """Encode samples into (frames, label) pairs ready for the network.

    samples may be any iterable, such as a `Recordings` split: each sample
    is encoded as it arrives, and only the pairs are kept.
    """
    return [
        (encode_sample(s, window_size, timesteps, window_mode=window_mode), s.label)
        for s in samples
    ]


# ---------------------------------------------------------------------------
# Splits read one recording at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recordings:
    """A split whose recordings are made only while it is iterated.

    `len` is the number of entries, known before any recording is made.
    Each iteration yields `read(*entry)` for every entry, in entry order.
    A consumer that drops each sample before asking for the next never
    holds the whole split: at most the recording being read and the one
    it still holds.
    """

    entries: Sequence[tuple]
    read: Callable[..., EventSample]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[EventSample]:
        for entry in self.entries:
            yield self.read(*entry)


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

    Events are sorted by timestamp; equal timestamps keep generation
    order, bar events (column by column, top to bottom) before noise
    events. One sort of unique int64 keys (t << b) | i gives that order,
    where i is the event's generation index and b = n.bit_length() for n
    events: t < 2**32 and n < 2**24 keep every key below 2**63.

    Raises:
        ValueError: class_id not 0 or 1, a side outside [1, 2**14] (so the
        sample can be written as DAT), noise_events < 0 or a total of
        2**24 events or more (checked before anything is allocated), or a
        duration shorter than the sensor width or longer than 2**32 us.
    """
    if class_id not in (0, 1):
        raise ValueError(f"class_id must be 0 or 1, got {class_id}")
    if not (1 <= sensor_width <= _MAX_SIDE and 1 <= sensor_height <= _MAX_SIDE):
        raise ValueError(
            f"sensor {sensor_width}x{sensor_height}: sides must be in [1, {_MAX_SIDE}]"
        )
    n_steps = sensor_width
    n_bar = n_steps * sensor_height
    if n_bar >= _MAX_EVENTS:
        raise ValueError(
            f"sensor {sensor_width}x{sensor_height}: its {n_bar} bar events reach "
            f"the 2**24 events a synthetic recording may hold"
        )
    if not 0 <= noise_events < _MAX_EVENTS - n_bar:
        raise ValueError(
            f"noise_events must be >= 0 and below {_MAX_EVENTS - n_bar} for a "
            f"{sensor_width}x{sensor_height} sensor, got {noise_events}"
        )
    if duration_us < sensor_width:  # the bar needs a time slot >= 1 us per column
        raise ValueError(
            f"duration {duration_us} us is shorter than the {sensor_width} bar steps"
        )
    if duration_us > _MAX_DURATION_US:
        raise ValueError(
            f"duration {duration_us} us exceeds the 2**32 us a DAT timestamp holds"
        )
    rng = np.random.default_rng(seed)

    if class_id == 1:
        step = np.repeat(np.arange(n_steps), sensor_height)
        slot = duration_us // n_steps
        t_bar = step * slot + rng.integers(0, slot, size=n_bar)
        x_bar = step
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

    keys = np.concatenate([t_bar, t_noise])
    n = len(keys)
    b = n.bit_length()
    keys <<= b
    keys |= np.arange(n)
    keys.sort()  # unique keys: any sort gives the stable order
    order = keys & ((1 << b) - 1)
    keys >>= b
    # the four columns share one allocation, so that many long-lived samples
    # do not fragment the heap among the int64 temporaries made here
    t, x, y, p = _column_block(n)
    t[:] = keys
    for col, parts in zip((x, y, p), ((x_bar, x_noise), (y_bar, y_noise),
                                      (p_bar, p_noise))):
        col[:] = np.concatenate(parts)[order]  # every value fits the column
    return EventSample(t, x, y, p, sensor_width, sensor_height, duration_us, class_id)


def synthetic_seeds(
    per_class: int, seed: int, *, test_fraction: float = 1.0 / 3.0
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The (class_id, sample seed) of every train and test recording.

    Per-sample seeds derive from one SeedSequence, so the whole dataset is a
    pure function of (per_class, seed, test_fraction). Each split lists
    class 0's recordings, then class 1's; the first round(per_class *
    test_fraction) of each class go to the test split. Above 2**20
    recordings per class (NCARS has 24,029 in all) it raises ValueError
    before building the lists, which hold about 100 bytes per recording.
    """
    if not 0 <= test_fraction <= 1:  # NaN fails too
        raise ValueError(f"test_fraction must be in [0, 1], got {test_fraction}")
    if per_class > 1 << 20:
        raise ValueError(f"per_class must be <= 2**20, got {per_class}")
    sample_seeds = np.random.SeedSequence(seed).generate_state(2 * per_class)
    n_test = int(round(per_class * test_fraction))
    train, test = [], []
    for class_id in (0, 1):
        for j in range(per_class):
            entry = (class_id, int(sample_seeds[class_id * per_class + j]))
            (test if j < n_test else train).append(entry)
    return train, test


def make_synthetic_dataset(
    per_class: int,
    seed: int,
    *,
    test_fraction: float = 1.0 / 3.0,
    **gen_kwargs,
) -> tuple[list[EventSample], list[EventSample]]:
    """Build matched train/test splits of synthetic samples of both classes:
    `generate_synthetic` of each `synthetic_seeds` entry, read through
    `Recordings` as a streaming split would be."""
    generate = partial(generate_synthetic, **gen_kwargs)
    train, test = (
        list(Recordings(entries, generate))
        for entries in synthetic_seeds(per_class, seed, test_fraction=test_fraction)
    )
    return train, test


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"


def read_event_file(path: str | Path) -> EventSample:
    """Parse one event file: CSV if its suffix is .csv (any case), else DAT.

    A CSV file is decoded as UTF-8.

    Raises:
        BadRow: a CSV file that is not UTF-8, with the 1-based line of its
        first bad byte; any error of `parse_csv` or `parse_dat`.
    """
    path = Path(path)
    data = path.read_bytes()
    if path.suffix.lower() != ".csv":
        return parse_dat(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # parse_csv's line numbers: the lines of the text before the byte
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise BadRow(line, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    return parse_csv(text)


def _load_event_file(path: Path, label: int) -> EventSample:
    """A dataset directory's recording; its failures surface as UnreadableFile."""
    try:
        sample = read_event_file(path)
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc}") from exc
    except SpikeDseError as exc:
        raise UnreadableFile(f"cannot parse {path}: {exc}") from exc
    return replace(sample, label=label)


def dataset_split(path: str | Path, split: str) -> Recordings:
    """One split of a manifest-described dataset directory, read lazily.

    The manifest, a JSON array of {"file": ..., "label": ..., "split": ...}
    entries, is read and checked now, so the split's size is known before
    any event file is read. Its (file, label) entries, in manifest order,
    are the returned split's entries; iterating it reads and parses the
    files, one at a time.

    Raises:
        MissingManifest, ConfigError (malformed manifest, a label that is
        not the JSON integer 0 or 1); while iterating, UnreadableFile at
        the first file that cannot be read or parsed.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise MissingManifest(f"no {MANIFEST_NAME} in {root}")
    with ConfigError.guard(f"manifest {manifest_path}"):
        wanted = [
            (root / e["file"], e["label"])
            for e in json.loads(manifest_path.read_text())
            if e["split"] == split
        ]
        for file, label in wanted:
            # the network has one output per class; a bool or 0.9 is no class
            if type(label) is not int or label not in (0, 1):
                raise ValueError(f"{file.name}: label {json.dumps(label)} is not 0 or 1")
    return Recordings(wanted, _load_event_file)


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
