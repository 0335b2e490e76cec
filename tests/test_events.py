"""Event parsing, windowing, binning and synthesis."""

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
    events_from_arrays,
    occupancy_map,
)


def make_sample(rows, width=32, height=32, duration=100_000, label=0):
    t, x, y, p = zip(*rows) if rows else ((), (), (), ())
    return sd.EventSample(
        events_from_arrays(t, x, y, p), width, height, duration, label
    )


HEADER = b"% width 32\n% height 32\n% duration 100000\n% label 1\n"


def pack_record(t, x, y, p):
    return struct.pack("<II", t, x | (y << 14) | (p << 28))


def reference_check(sample):
    """Every bound an EventSample promises, tested on its packed events.

    Seven conditions, then the order; the first offending event is named.
    parse_dat must raise exactly when this does, with the same error.
    """
    ev = sample.events
    if ev.shape[0] == 0:
        return
    t, x, y, p = ev["t"], ev["x"], ev["y"], ev["p"]
    width, height = sample.sensor_width, sample.sensor_height
    duration = sample.duration_us
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
    events = events_from_arrays(
        words[0::2].astype(np.int64),
        (w1 & 0x3FFF).astype(np.int32),
        ((w1 >> 14) & 0x3FFF).astype(np.int32),
        ((w1 >> 28) & 1).astype(np.int8),
    )
    return sd.EventSample(events, width, height, duration)


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
        assert np.array_equal(sample.events, events_from_arrays([1000], [5], [7], [1]))

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
        assert np.array_equal(sample.events, again.events)
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
            assert sample.events.dtype == expected.events.dtype
            assert np.array_equal(sample.events, expected.events)
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
        assert np.array_equal(sample.events, events_from_arrays([1000], [5], [7], [1]))

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

    def test_center_window(self):
        win = center_window(make_sample([], 64, 64), 50)
        assert (win.x0, win.y0) == (7, 7)


class TestCrop:
    def test_corner_rebase(self):
        sample = make_sample([(10, 5, 6, 1)], 32, 32)
        out = sd.crop(sample, AttentionWindow(5, 6, 10))
        assert np.array_equal(out.events, events_from_arrays([10], [0], [0], [1]))
        assert out.sensor_width == out.sensor_height == 10

    def test_outside_events_dropped(self):
        sample = make_sample([(10, 1, 1, 1), (20, 30, 30, 0)], 32, 32)
        out = sd.crop(sample, AttentionWindow(0, 0, 8))
        assert out.n_events == 1

    def test_full_sensor_window_is_identity(self):
        sample = sd.generate_synthetic(0, seed=5, sensor_width=32, sensor_height=32)
        out = sd.crop(sample, AttentionWindow(0, 0, 32))
        assert np.array_equal(out.events, sample.events)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 32))
    @settings(max_examples=30, deadline=None)
    def test_count_never_grows(self, seed, size):
        sample = sd.generate_synthetic(0, seed=seed, sensor_width=32, sensor_height=32)
        win = sd.find_attention_window(sample, size)
        out = sd.crop(sample, win)
        assert out.n_events <= sample.n_events
        ev = sample.events
        inside = np.count_nonzero(
            (ev["x"] >= win.x0)
            & (ev["x"] < win.x0 + size)
            & (ev["y"] >= win.y0)
            & (ev["y"] < win.y0 + size)
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
        assert np.array_equal(a.events, b.events)

    def test_zero_noise_bar_trajectory(self):
        sample = sd.generate_synthetic(1, seed=5, noise_events=0)
        ev = sample.events
        n_steps = sample.sensor_width
        slot = sample.duration_us // n_steps
        assert np.array_equal(ev["x"], ev["t"] // slot)
        assert np.all(ev["p"] == 1)

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
            assert np.array_equal(a.events, b.events)
            assert a.label == b.label

    def test_parallel_loading_preserves_order(self, tmp_path):
        self.make_dataset(tmp_path)
        seq = sd.load_dataset(tmp_path, "train", workers=1)
        par = sd.load_dataset(tmp_path, "train", workers=4)
        assert [s.label for s in seq] == [p.label for p in par]
        for a, b in zip(seq, par):
            assert np.array_equal(a.events, b.events)

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
