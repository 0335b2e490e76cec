"""Event parsing, windowing, binning and synthesis."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spikedse as sd
from spikedse.errors import (
    BadRow,
    CoordinateOutOfRange,
    MalformedHeader,
    MissingManifest,
    SpikeDseError,
    TruncatedRecord,
    UnreadableFile,
    UnsortedEvents,
    WindowTooLarge,
)
from spikedse.events import (
    AttentionWindow,
    center_window,
    occupancy_map,
)


def make_sample(rows, width=32, height=32, duration=100_000, label=0):
    t, x, y, p = zip(*rows) if rows else ((), (), (), ())
    return sd.EventSample(t, x, y, p, width, height, duration, label)


def columns(sample):
    """The sample's (t, x, y, p) columns, each checked to be 1-D uint32."""
    cols = (sample.t, sample.x, sample.y, sample.p)
    for col in cols:
        assert col.dtype == np.uint32 and col.shape == (sample.n_events,)
    return cols


def assert_same_events(a, b):
    for col_a, col_b in zip(columns(a), columns(b)):
        assert np.array_equal(col_a, col_b)


HEADER = b"% width 32\n% height 32\n% duration 100000\n% label 1\n"


def pack_record(t, x, y, p):
    return struct.pack("<II", t, x | (y << 14) | (p << 28))


def reference_check(sample):
    """Every bound an EventSample promises, tested on its columns.

    The geometry, then seven conditions, then the order; the first
    offending event is named. parse_dat must raise exactly when this does,
    with the same error.
    """
    width, height = sample.sensor_width, sample.sensor_height
    duration = sample.duration_us
    if not (1 <= width <= 2**14 and 1 <= height <= 2**14 and 1 <= duration <= 2**32):
        raise MalformedHeader(
            f"header declares a {width}x{height} sensor and {duration} us; sides "
            f"must be in [1, {2**14}] and the duration >= 1 and <= {2**32}"
        )
    if sample.n_events == 0:
        return
    t, x, y, p = (col.astype(np.int64) for col in columns(sample))
    off_sensor = (x < 0) | (x >= width) | (y < 0) | (y >= height)
    if np.any(off_sensor):
        bad = np.flatnonzero(off_sensor)[0]
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
    if np.any(np.diff(t) < 0):
        raise UnsortedEvents("DAT records are not sorted by timestamp")


def reference_parse_dat(body, width, height, duration):
    """Decode 8-byte records into a sample without checking them."""
    words = np.frombuffer(body, dtype="<u4")
    w1 = words[1::2]
    return sd.EventSample(
        words[0::2], w1 & 0x3FFF, (w1 >> 14) & 0x3FFF, (w1 >> 28) & 1,
        width, height, duration,
    )


def dat_words(t, x, y, top):
    """(word 0, word 1) of a record; top fills bit 28 and reserved bits 29-31."""
    return t, x | (y << 14) | (top << 28)


# tame fields share their small range with the header values drawn below,
# so events land on every bound; wild records can hold any field value
tame_record = st.builds(dat_words, st.integers(0, 16), st.integers(0, 12),
                        st.integers(0, 12), st.integers(0, 15))
uint32 = st.integers(0, 2**32 - 1)
wild_record = st.tuples(uint32, uint32) | st.builds(
    dat_words, uint32, st.integers(0, 2**14 - 1), st.integers(0, 2**14 - 1),
    st.integers(0, 15))


class TestParseDat:
    def test_empty_event_section(self):
        sample = sd.parse_dat(HEADER)
        assert sample.n_events == 0
        assert sample.sensor_width == 32
        assert sample.label == 1

    def test_single_hand_packed_record(self):
        # word 0 = timestamp, word 1 = x | y<<14 | p<<28
        blob = HEADER + pack_record(1000, 5, 7, 1)
        sample = sd.parse_dat(blob)
        assert_same_events(sample, make_sample([(1000, 5, 7, 1)]))

    def test_truncated_record(self):
        with pytest.raises(TruncatedRecord):
            sd.parse_dat(HEADER + b"\x00" * 12)

    def test_coordinate_out_of_range(self):
        blob = HEADER + pack_record(1000, 32, 0, 0)  # x == width
        with pytest.raises(CoordinateOutOfRange):
            sd.parse_dat(blob)

    def test_timestamp_at_duration_rejected(self):
        blob = HEADER + pack_record(100_000, 1, 1, 0)
        with pytest.raises(CoordinateOutOfRange):
            sd.parse_dat(blob)

    def test_unsorted_rejected(self):
        blob = HEADER + pack_record(2000, 1, 1, 0) + pack_record(1000, 1, 1, 0)
        with pytest.raises(UnsortedEvents):
            sd.parse_dat(blob)

    def test_malformed_header_value(self):
        with pytest.raises(MalformedHeader):
            sd.parse_dat(b"% width abc\n" + pack_record(0, 0, 0, 0))

    @pytest.mark.parametrize("line", [
        b"% width -3\n", b"% width 0\n", b"% width 16385\n", b"% height 0\n",
        b"% height 16385\n", b"% duration 0\n", b"% duration -1\n",
        b"% duration 4294967297\n", b"% duration 99999999999999999999999\n",
    ])
    def test_geometry_outside_the_record_fields_is_malformed(self, line):
        for body in (b"", pack_record(0, 0, 0, 0)):
            with pytest.raises(MalformedHeader, match="sides must be in"):
                sd.parse_dat(line + body)

    def test_largest_geometry_parses(self):
        sample = sd.parse_dat(b"% width 16384\n% height 16384\n% duration 1\n"
                              + pack_record(0, 16383, 16383, 1))
        assert (sample.sensor_width, sample.sensor_height, sample.duration_us) == (
            16384, 16384, 1)
        assert_same_events(sample, make_sample([(0, 16383, 16383, 1)]))

    def test_longest_duration_parses(self):
        sample = sd.parse_dat(b"% duration 4294967296\n" + pack_record(2**32 - 1, 0, 0, 0))
        assert sample.duration_us == 2**32
        assert_same_events(sample, make_sample([(2**32 - 1, 0, 0, 0)]))
        frames = sd.encode_sample(sample, window_size=1, timesteps=4)
        assert frames.data.sum() == 1 and frames.data[3, 0, 0, 0] == 1

    def test_unknown_header_lines_are_comments(self):
        blob = b"% recorded somewhere\n" + HEADER + pack_record(10, 2, 3, 0)
        assert sd.parse_dat(blob).n_events == 1

    def test_headerless_uses_defaults(self):
        sample = sd.parse_dat(pack_record(5, 10, 20, 1))
        assert sample.sensor_width == 304
        assert sample.sensor_height == 240

    def test_round_trip(self):
        sample = sd.generate_synthetic(1, seed=3)
        again = sd.parse_dat(sd.write_dat(sample))
        assert_same_events(sample, again)
        assert again.label == sample.label
        assert again.duration_us == sample.duration_us

    @given(
        records=st.lists(tame_record, max_size=12),
        wild=st.lists(st.tuples(st.integers(0, 11), wild_record), max_size=2),
        sort=st.booleans(),
        width=st.none() | st.integers(-1, 17),
        height=st.none() | st.integers(-1, 17),
        duration=st.none() | st.integers(-1, 17) | st.integers(0, 2**33),
    )
    # each bound hit exactly, and pixel before timestamp before order
    @example([dat_words(3, 1, 1, 0), dat_words(5, 1, 1, 0)], [], False, None, None, 5)
    @example([dat_words(20, 1, 1, 0), dat_words(1, 4, 0, 0)], [], False, 4, None, 10)
    @example([dat_words(0, 0, 2, 0), dat_words(0, 0, 3, 1)], [], False, 8, 3, None)
    @example([dat_words(4, 0, 0, 0), dat_words(3, 0, 0, 14)], [], False, 1, 1, 5)
    @settings(max_examples=400, deadline=None)
    def test_checks_match_reference(self, records, wild, sort, width, height, duration):
        for i, record in wild:
            if records:
                records[i % len(records)] = record
        if sort:
            records.sort()
        declared = {"width": width, "height": height, "duration": duration}
        header = "".join(f"% {k} {v}\n" for k, v in declared.items() if v is not None)
        body = b"".join(struct.pack("<II", *r) for r in records)
        # a body that starts with '%' (first timestamp's low byte 0x25) is
        # read as one more header line, so it is not a record body here
        assume(not body.startswith(b"%"))
        expected = reference_parse_dat(
            body,
            304 if width is None else width,
            240 if height is None else height,
            100_000 if duration is None else duration,
        )
        try:
            reference_check(expected)
        except SpikeDseError as err:
            with pytest.raises(type(err)) as got:
                sd.parse_dat(header.encode("ascii") + body)
            assert str(got.value) == str(err)
        else:
            sample = sd.parse_dat(header.encode("ascii") + body)
            assert_same_events(sample, expected)
            assert (sample.sensor_width, sample.sensor_height, sample.duration_us) == (
                expected.sensor_width, expected.sensor_height, expected.duration_us
            )

    @given(st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_parsing_is_total(self, blob):
        try:
            sample = sd.parse_dat(blob)
            assert isinstance(sample, sd.EventSample)
        except SpikeDseError:
            pass


class TestParseCsv:
    def test_single_row(self):
        sample = sd.parse_csv("1000,5,7,1")
        assert_same_events(sample, make_sample([(1000, 5, 7, 1)]))

    def test_bad_polarity(self):
        with pytest.raises(BadRow) as err:
            sd.parse_csv("1000,5,7,2")
        assert err.value.line == 1

    def test_bad_row_line_number(self):
        with pytest.raises(BadRow) as err:
            sd.parse_csv("10,1,1,0\n20,2,2\n")
        assert err.value.line == 2

    def test_column_header_skipped(self):
        sample = sd.parse_csv("t_us,x,y,p\n1000,5,7,1\n")
        assert sample.n_events == 1

    def test_out_of_bounds_is_bad_row(self):
        with pytest.raises(BadRow):
            sd.parse_csv("10,500,0,1")  # x >= the ATIS sensor's 304 columns

    def test_round_trip_normalized(self):
        text = "1000,5,7,1\n2000,9,3,0\n"
        assert sd.write_csv(sd.parse_csv(text)) == text

    def test_empty_text(self):
        assert sd.parse_csv("").n_events == 0


class TestAttentionWindow:
    def test_degenerate_concentration(self):
        rows = [(i * 10, 0, 0, 1) for i in range(20)]
        win = sd.find_attention_window(make_sample(rows, 64, 64), 50)
        assert (win.x0, win.y0) == (0, 0)

    def test_single_placement_covers_everything(self):
        rows = [(0, x, y, 1) for x in range(0, 32, 8) for y in range(0, 32, 8)]
        win = sd.find_attention_window(make_sample(rows, 32, 32), 32)
        assert (win.x0, win.y0, win.size) == (0, 0, 32)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            sd.find_attention_window(make_sample([], 32, 32), 33)

    def brute_force(self, sample, size):
        counts = occupancy_map(sample)
        best, best_pos = -1, None
        for y0 in range(sample.sensor_height - size + 1):
            for x0 in range(sample.sensor_width - size + 1):
                c = counts[y0 : y0 + size, x0 : x0 + size].sum()
                if c > best:
                    best, best_pos = c, (y0, x0)
        return best, best_pos

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        rows = sorted(
            zip(
                rng.integers(0, 100_000, n),
                rng.integers(0, 60, n),
                rng.integers(0, 60, n),
                rng.integers(0, 2, n),
            )
        )
        sample = make_sample(rows, 60, 60)
        win = sd.find_attention_window(sample, 50)
        best, best_pos = self.brute_force(sample, 50)
        counts = occupancy_map(sample)
        got = counts[win.y0 : win.y0 + 50, win.x0 : win.x0 + 50].sum()
        assert got == best
        assert (win.y0, win.x0) == best_pos  # argmax tie-break: y0 then x0

    def test_window_sums_beyond_16_bits(self):
        # 70_000 events on one pixel outweigh 10_000 on another only if no
        # running sum wraps at 2**16
        x = np.r_[np.full(10_000, 1), np.full(70_000, 30)]
        y = np.r_[np.full(10_000, 1), np.full(70_000, 20)]
        sample = sd.EventSample(np.arange(80_000), x, y, np.ones(80_000), 32, 32)
        win = sd.find_attention_window(sample, 4)
        assert (win.x0, win.y0) == (27, 17)

    def test_center_window(self):
        win = center_window(make_sample([], 64, 64), 50)
        assert (win.x0, win.y0) == (7, 7)


class TestCrop:
    def test_corner_rebase(self):
        sample = make_sample([(10, 5, 6, 1)], 32, 32)
        out = sd.crop(sample, AttentionWindow(5, 6, 10))
        assert_same_events(out, make_sample([(10, 0, 0, 1)]))
        assert out.sensor_width == out.sensor_height == 10

    def test_outside_events_dropped(self):
        sample = make_sample([(10, 1, 1, 1), (20, 30, 30, 0)], 32, 32)
        out = sd.crop(sample, AttentionWindow(0, 0, 8))
        assert out.n_events == 1

    def test_full_sensor_window_is_identity(self):
        sample = sd.generate_synthetic(0, seed=5, sensor_width=32, sensor_height=32)
        out = sd.crop(sample, AttentionWindow(0, 0, 32))
        assert_same_events(out, sample)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 32))
    @settings(max_examples=30, deadline=None)
    def test_count_never_grows(self, seed, size):
        sample = sd.generate_synthetic(0, seed=seed, sensor_width=32, sensor_height=32)
        win = sd.find_attention_window(sample, size)
        out = sd.crop(sample, win)
        assert out.n_events <= sample.n_events
        inside = np.count_nonzero(
            (sample.x >= win.x0)
            & (sample.x < win.x0 + size)
            & (sample.y >= win.y0)
            & (sample.y < win.y0 + size)
        )
        assert out.n_events == inside


class TestBinning:
    def test_no_events_gives_zeros(self):
        frames = sd.bin_to_frames(make_sample([], 16, 16), 5)
        assert frames.data.shape == (5, 2, 16, 16)
        assert frames.data.sum() == 0

    def test_single_event_placement(self):
        sample = make_sample([(0, 3, 4, 1)], 16, 16)
        frames = sd.bin_to_frames(sample, 5)
        assert frames.data.sum() == 1
        assert frames.data[0, 1, 4, 3] == 1

    def test_or_semantics(self):
        rows = [(10, 3, 4, 1), (20, 3, 4, 1), (30, 3, 4, 1)]
        frames = sd.bin_to_frames(make_sample(rows, 16, 16), 5)
        assert frames.data.sum() == 1

    def test_half_open_bin_edges(self):
        # duration 100_000, T=5 -> bin width 20_000; t=20_000 lands in bin 1
        frames = sd.bin_to_frames(make_sample([(20_000, 0, 0, 0)], 8, 8), 5)
        assert frames.data[1, 0, 0, 0] == 1
        assert frames.data[0].sum() == 0

    def test_occupancy_equivalence(self):
        sample = sd.generate_synthetic(1, seed=9, sensor_width=32, sensor_height=32)
        frames = sd.bin_to_frames(sample, 10)
        collapsed = frames.data.sum(axis=(0, 1)) >= 1
        occupancy = occupancy_map(sample) >= 1
        assert np.array_equal(collapsed, occupancy)

    def test_occupancy_exact_counts(self):
        # a 5-wide, 3-tall sensor: repeats on one pixel and on the last
        # row and column must all be counted, at (y, x)
        rows = [(0, 2, 1, 1), (1, 2, 1, 0), (2, 2, 1, 1), (3, 4, 0, 0),
                (4, 0, 2, 1), (5, 4, 2, 0), (6, 4, 2, 1), (7, 4, 1, 0)]
        counts = occupancy_map(make_sample(rows, width=5, height=3))
        expected = np.zeros((3, 5), np.int64)
        expected[1, 2] = 3
        expected[0, 4] = 1
        expected[2, 0] = 1
        expected[2, 4] = 2
        expected[1, 4] = 1
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    def test_occupancy_of_no_events(self):
        counts = occupancy_map(make_sample([], width=5, height=3))
        assert counts.shape == (3, 5)
        assert not counts.any()

    def test_binary_values(self):
        sample = sd.generate_synthetic(1, seed=4)
        frames = sd.bin_to_frames(sample, 10)
        assert set(np.unique(frames.data)) <= {0, 1}


class TestEncodePipeline:
    def test_per_sample_mode_uses_densest_window(self):
        sample = sd.generate_synthetic(1, seed=3)
        frames = sd.encode_sample(sample, 50, 10)
        win = sd.find_attention_window(sample, 50)
        expected = sd.bin_to_frames(sd.crop(sample, win), 10)
        assert np.array_equal(frames.data, expected.data)

    def test_center_mode_ignores_event_density(self):
        sample = sd.generate_synthetic(1, seed=3)
        frames = sd.encode_sample(sample, 50, 10, window_mode="center")
        expected = sd.bin_to_frames(
            sd.crop(sample, center_window(sample, 50)), 10
        )
        assert np.array_equal(frames.data, expected.data)

    def test_unknown_mode(self):
        sample = sd.generate_synthetic(0, seed=1)
        with pytest.raises(ValueError):
            sd.encode_sample(sample, 50, 10, window_mode="best")

    @pytest.mark.parametrize("mode", ["per_sample", "center"])
    def test_crop_once_then_bin_per_timestep_count(self, mode):
        samples = [
            sd.generate_synthetic(c, seed=s, sensor_width=80, sensor_height=60,
                                  noise_events=300)
            for c in (0, 1) for s in (5, 6)
        ]
        for window in (50, 32):
            crops = [sd.crop_to_window(s, window, window_mode=mode) for s in samples]
            for timesteps in (10, 3):
                expected = sd.encode_dataset(
                    samples, window, timesteps, window_mode=mode
                )
                binned = [(sd.bin_to_frames(c, timesteps), c.label) for c in crops]
                assert len(binned) == len(expected)
                for (f, label), (g, want) in zip(binned, expected):
                    assert label == want
                    assert np.array_equal(f.data, g.data)

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_csv_parsing_is_total(self, text):
        try:
            sample = sd.parse_csv(text)
            assert isinstance(sample, sd.EventSample)
        except SpikeDseError:
            pass


class TestSynthetic:
    def test_deterministic(self):
        a = sd.generate_synthetic(1, seed=77)
        b = sd.generate_synthetic(1, seed=77)
        assert_same_events(a, b)

    def test_zero_noise_bar_trajectory(self):
        sample = sd.generate_synthetic(1, seed=5, noise_events=0)
        t, x, _, p = columns(sample)
        n_steps = sample.sensor_width
        slot = sample.duration_us // n_steps
        assert np.array_equal(x, t // slot)
        assert np.all(p == 1)

    def test_class_event_rates_match(self):
        counts = {0: [], 1: []}
        for i in range(100):
            for c in (0, 1):
                counts[c].append(sd.generate_synthetic(c, seed=1000 + i).n_events)
        m0, m1 = np.mean(counts[0]), np.mean(counts[1])
        assert abs(m0 - m1) / max(m0, m1) < 0.10

    def test_events_sorted_and_in_bounds(self):
        for c in (0, 1):
            reference_check(sd.generate_synthetic(c, seed=8))

    def test_duration_past_uint32_timestamps_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            sd.generate_synthetic(0, seed=1, duration_us=2**32 + 1)

    def test_longest_duration_round_trips(self):
        sample = sd.generate_synthetic(1, seed=4, duration_us=2**32, noise_events=50)
        assert int(sample.t[-1]) >= 2**31  # the top timestamp bit is in use
        again = sd.parse_dat(sd.write_dat(sample))
        assert_same_events(sample, again)
        assert again.duration_us == 2**32


# The structured-record front end the column layout replaced, kept as the
# oracle: an int64 2-D prefix-sum window search, a four-comparison crop of
# (int64 t, int32 x, int32 y, int8 p) records, and binning of those records.
ORACLE_DTYPE = np.dtype([("t", "<i8"), ("x", "<i4"), ("y", "<i4"), ("p", "<i1")])


def oracle_records(sample):
    records = np.empty(sample.n_events, dtype=ORACLE_DTYPE)
    for name in ORACLE_DTYPE.names:
        records[name] = getattr(sample, name)
    return records


def oracle_counts(records, width, height):
    counts = np.zeros((height, width), dtype=np.int64)
    np.add.at(counts, (records["y"], records["x"]), 1)
    return counts


def oracle_window(records, width, height, size):
    counts = oracle_counts(records, width, height)
    prefix = np.zeros((height + 1, width + 1), dtype=np.int64)
    prefix[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1)
    k = size
    sums = prefix[k:, k:] - prefix[:-k, k:] - prefix[k:, :-k] + prefix[:-k, :-k]
    y0, x0 = divmod(int(np.argmax(sums)), sums.shape[1])
    return x0, y0


def oracle_crop(records, x0, y0, size):
    keep = (
        (records["x"] >= x0)
        & (records["x"] < x0 + size)
        & (records["y"] >= y0)
        & (records["y"] < y0 + size)
    )
    kept = records[keep].copy()
    kept["x"] -= x0
    kept["y"] -= y0
    return kept


def oracle_frames(kept, size, timesteps, duration):
    data = np.zeros((timesteps, 2, size, size), dtype=np.uint8)
    if kept.shape[0]:
        bins = (kept["t"] * timesteps) // duration
        data[bins, kept["p"], kept["y"], kept["x"]] = 1
    return data


@st.composite
def front_end_cases(draw):
    """(sample, window size, any in-bounds window origin) on a small sensor,
    so that ties, edge windows and border events are common."""
    width, height = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    duration = draw(st.integers(1, 10**6) | st.just(2**32))
    n = draw(st.integers(0, 40))
    # events packed into a sub-rectangle that may sit against any edge
    x_lo = draw(st.integers(0, width - 1))
    y_lo = draw(st.integers(0, height - 1))
    x_hi = draw(st.integers(x_lo, width - 1))
    y_hi = draw(st.integers(y_lo, height - 1))
    rows = sorted(draw(st.lists(
        st.tuples(st.integers(0, duration - 1), st.integers(x_lo, x_hi),
                  st.integers(y_lo, y_hi), st.integers(0, 1)),
        min_size=n, max_size=n)))
    size = draw(st.integers(1, min(width, height)))
    origin = draw(st.integers(0, width - size)), draw(st.integers(0, height - size))
    return make_sample(rows, width, height, duration), size, origin


def corner_case(width, height, size, x, y):
    return make_sample([(0, x, y, 1)], width, height), size, (0, 0)


class TestFrontEndOracle:
    @given(front_end_cases(), st.integers(1, 12), st.sampled_from(sd.events.WINDOW_MODES))
    # empty; the densest window flush to each corner; a tie between two
    # windows; events on all four borders of the window and one step outside
    @example((make_sample([], 7, 5), 3, (4, 2)), 4, "per_sample")
    @example(corner_case(9, 7, 3, 0, 0), 2, "per_sample")
    @example(corner_case(9, 7, 3, 8, 0), 2, "per_sample")
    @example(corner_case(9, 7, 3, 0, 6), 2, "per_sample")
    @example(corner_case(9, 7, 3, 8, 6), 2, "per_sample")
    @example((make_sample([(0, 7, 1, 0), (1, 1, 5, 1)], 9, 7), 2, (1, 4)), 3, "per_sample")
    @example((make_sample([(0, 2, 3, 1), (1, 5, 3, 0), (2, 3, 2, 1), (3, 3, 5, 0),
                           (4, 1, 3, 1), (5, 6, 3, 0), (6, 3, 1, 1), (7, 3, 6, 0)],
                          9, 9), 4, (2, 2)), 2, "center")
    @settings(max_examples=300, deadline=None)
    def test_matches_structured_path(self, case, timesteps, mode):
        sample, size, (ox, oy) = case
        width, height = sample.sensor_width, sample.sensor_height
        records = oracle_records(sample)
        assert np.array_equal(occupancy_map(sample), oracle_counts(records, width, height))
        for name, col in zip(ORACLE_DTYPE.names,
                             columns(sd.crop(sample, AttentionWindow(ox, oy, size)))):
            assert np.array_equal(col, oracle_crop(records, ox, oy, size)[name])
        if mode == "per_sample":
            x0, y0 = oracle_window(records, width, height, size)
            win = sd.find_attention_window(sample, size)
            assert (win.x0, win.y0, win.size) == (x0, y0, size)
        else:
            x0, y0 = (width - size) // 2, (height - size) // 2
        kept = oracle_crop(records, x0, y0, size)
        cropped = sd.crop_to_window(sample, size, window_mode=mode)
        for name, col in zip(ORACLE_DTYPE.names, columns(cropped)):
            assert np.array_equal(col, kept[name])
        frames = sd.encode_sample(sample, size, timesteps, window_mode=mode)
        assert np.array_equal(
            frames.data, oracle_frames(kept, size, timesteps, sample.duration_us)
        )


def pinned_samples():
    """Fixed-seed recordings: a 80x60 dataset, two at ATIS geometry, and one
    whose timestamps fill the uint32 range."""
    train, test = sd.make_synthetic_dataset(per_class=3, seed=2024, sensor_width=80,
                                            sensor_height=60, noise_events=300)
    atis = [sd.generate_synthetic(c, seed=7 + c, sensor_width=304, sensor_height=240)
            for c in (0, 1)]
    wide = [sd.generate_synthetic(1, seed=9, duration_us=2**32, noise_events=200)]
    return train, test + atis + wide


class TestPinnedBytes:
    """SHA-256 of what the event pipeline writes and encodes for fixed seeds.

    The digests were recorded from the structured-record implementation the
    column layout replaced; any change to them changes saved datasets, CSV
    exports or the frames every network sees."""

    def test_dataset_directory(self, tmp_path):
        train, test = pinned_samples()
        sd.write_dataset({"train": train, "test": test}, tmp_path)
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "c2df9509a303f2262ff84ba9209ca0b89e33cdaea4a185bd24167e84b60a4ed6")

    def test_csv_text(self):
        train, test = pinned_samples()
        digest = hashlib.sha256()
        for sample in train + test:
            digest.update(sd.write_csv(sample).encode())
        assert digest.hexdigest() == (
            "f34e8c8aaafcb91afba8e05d02379d1312d2d3e64769610d61ac876861015214")

    def test_encoded_frames(self):
        train, test = pinned_samples()
        digest = hashlib.sha256()
        for mode in sd.events.WINDOW_MODES:
            for window, timesteps in ((50, 10), (32, 3)):
                for frames, label in sd.encode_dataset(
                    train + test, window, timesteps, window_mode=mode
                ):
                    digest.update(frames.data.tobytes() + bytes([label]))
        assert digest.hexdigest() == (
            "b9c47d1782ffa876193ae34906c1e55a7ff5ed939dd0c1bd088eed5d5c295612")


class TestDatasetDirectory:
    def make_dataset(self, tmp_path):
        train, test = sd.make_synthetic_dataset(
            per_class=3, seed=1, test_fraction=1.0 / 3.0,
            sensor_width=32, sensor_height=32,
        )
        sd.write_dataset({"train": train, "test": test}, tmp_path)
        return train, test

    def test_split_loading_in_manifest_order(self, tmp_path):
        train, test = self.make_dataset(tmp_path)
        loaded = sd.load_dataset(tmp_path, "test")
        assert len(loaded) == len(test)
        for a, b in zip(loaded, test):
            assert_same_events(a, b)
            assert a.label == b.label

    def test_parallel_loading_preserves_order(self, tmp_path):
        self.make_dataset(tmp_path)
        seq = sd.load_dataset(tmp_path, "train", workers=1)
        par = sd.load_dataset(tmp_path, "train", workers=4)
        assert [s.label for s in seq] == [p.label for p in par]
        for a, b in zip(seq, par):
            assert_same_events(a, b)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingManifest):
            sd.load_dataset(tmp_path, "train")

    def test_missing_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps([{"file": "gone.dat", "label": 0, "split": "train"}])
        )
        with pytest.raises(UnreadableFile):
            sd.load_dataset(tmp_path, "train")

    def test_unparseable_file(self, tmp_path):
        (tmp_path / "bad.dat").write_bytes(b"\x01\x02\x03")  # truncated record
        (tmp_path / "manifest.json").write_text(
            json.dumps([{"file": "bad.dat", "label": 0, "split": "train"}])
        )
        with pytest.raises(UnreadableFile):
            sd.load_dataset(tmp_path, "train")

    def test_manifest_label_overrides_header(self, tmp_path):
        sample = sd.generate_synthetic(0, seed=2, sensor_width=16, sensor_height=16)
        (tmp_path / "a.dat").write_bytes(sd.write_dat(sample))
        (tmp_path / "manifest.json").write_text(
            json.dumps([{"file": "a.dat", "label": 1, "split": "train"}])
        )
        assert sd.load_dataset(tmp_path, "train")[0].label == 1


@pytest.mark.skipif(
    "NCARS_DIR" not in __import__("os").environ,
    reason="real NCARS dataset not available (set NCARS_DIR to run)",
)
def test_ncars_full_split_counts():
    import os

    root = os.environ["NCARS_DIR"]
    assert len(sd.load_dataset(root, "train")) == 15_422
    assert len(sd.load_dataset(root, "test")) == 8_607
