import datetime
import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepattern.errors import (DataQualityError, IngestError, ParseError,
                                 RecordValidationError)
from tracepattern.ingest import (IngestStats, IntervalIndex, ParserConfig,
                                 TraceBatch, assign_interval, day_slot,
                                 open_trace_file, parse_record, read_chunks)


def rows_csv(n, start_ts=1475280000):
    lines = [f"d{i},o{i},{start_ts + i},104.06,30.65" for i in range(n)]
    return "\n".join(lines) + "\n"


def read_all(stream, config=ParserConfig(), stats=None):
    """Every parsed row of a stream as one TraceBatch."""
    return TraceBatch.concat(list(read_chunks(stream, config, stats)))


def as_rows(batch):
    return list(zip(batch.order_id, batch.timestamp.tolist(), batch.lat.tolist(),
                    batch.lon.tolist()))


class TestParseRecord:
    def test_direct_field_mapping(self):
        rec = parse_record("d1,o1,1475280000,104.06,30.65")
        assert (rec.driver_id, rec.order_id) == ("d1", "o1")
        assert rec.timestamp == 1475280000
        assert rec.lat == 30.65 and rec.lon == 104.06

    def test_malformed_timestamp(self):
        with pytest.raises(ParseError):
            parse_record("d1,o1,notatime,104.06,30.65")

    def test_latitude_out_of_range(self):
        with pytest.raises(RecordValidationError):
            parse_record("d1,o1,1475280000,104.06,95.0")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_record("d1,o1,1475280000,104.06")

    def test_empty_order_id(self):
        with pytest.raises(RecordValidationError):
            parse_record("d1,,1475280000,104.06,30.65")

    def test_custom_column_order(self):
        cfg = ParserConfig(columns=("timestamp", "lat", "lon", "driver_id", "order_id"))
        rec = parse_record("1475280000,30.65,104.06,d9,o9", cfg)
        assert rec.driver_id == "d9" and rec.lat == 30.65


class TestReadChunks:
    def test_chunk_sizes(self):
        cfg = ParserConfig(chunk_size=10_000)
        chunks = list(read_chunks(io.StringIO(rows_csv(25_000)), cfg))
        assert [len(c) for c in chunks] == [10_000, 10_000, 5_000]

    def test_empty_file(self):
        assert list(read_chunks(io.StringIO(""))) == []

    def test_source_order_preserved(self):
        records = read_all(io.StringIO(rows_csv(100)), ParserConfig(chunk_size=7))
        assert list(records.order_id) == [f"o{i}" for i in range(100)]

    def test_header_detected_and_skipped(self):
        text = "driver_id,order_id,timestamp,lon,lat\n" + rows_csv(3)
        stats = IngestStats()
        records = read_all(io.StringIO(text), ParserConfig(), stats)
        assert len(records) == 3 and stats.skipped == 0

    def test_count_conservation(self):
        text = rows_csv(10) + "bad,row\n" + "d,o,1,200.0,30.0\n" + rows_csv(5)
        stats = IngestStats()
        records = read_all(io.StringIO(text), ParserConfig(), stats)
        assert stats.parsed == len(records) == 15
        assert stats.parse_errors == 1 and stats.validation_errors == 1
        assert stats.parsed + stats.skipped == stats.total == 17

    def test_error_rate_ceiling_aborts(self):
        bad = "\n".join(["x,y"] * 200)
        text = rows_csv(1000) + bad + "\n"
        with pytest.raises(DataQualityError):
            list(read_chunks(io.StringIO(text), ParserConfig()))

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "traces.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(rows_csv(42))
        with open_trace_file(path) as stream:
            records = read_all(stream)
        assert len(records) == 42

    def test_truncated_gzip_is_ingest_error(self, tmp_path):
        path = tmp_path / "traces.csv.gz"
        data = gzip.compress(rows_csv(5000).encode())
        path.write_bytes(data[:len(data) // 2])
        with open_trace_file(path) as stream, pytest.raises(IngestError):
            read_all(stream)

    def test_non_utf8_byte_is_ingest_error(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_bytes(rows_csv(10).encode() + b"d\xff,o,1475280000,104.06,30.65\n")
        with open_trace_file(path) as stream, pytest.raises(IngestError):
            read_all(stream)

    @given(chunk_size=st.integers(min_value=1, max_value=50),
           n_rows=st.integers(min_value=0, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_chunking_content_invariant(self, chunk_size, n_rows):
        text = rows_csv(n_rows)
        whole = read_all(io.StringIO(text), ParserConfig(chunk_size=10 ** 9))
        chunked = read_all(io.StringIO(text), ParserConfig(chunk_size=chunk_size))
        assert as_rows(whole) == as_rows(chunked)


class TestAssignInterval:
    # 2016-10-01 00:00 local (UTC+8): 1475280000 - 8h
    MIDNIGHT = 1475251200

    def test_local_midnight_slot_0(self):
        iv = assign_interval(self.MIDNIGHT)
        assert iv == IntervalIndex(datetime.date(2016, 10, 1), 0)

    def test_local_8am_slot_32(self):
        assert assign_interval(self.MIDNIGHT + 8 * 3600).slot == 32

    def test_last_second_slot_95(self):
        iv = assign_interval(self.MIDNIGHT + 86399)
        assert iv.slot == 95 and iv.day == datetime.date(2016, 10, 1)

    def test_half_open_boundary(self):
        assert assign_interval(self.MIDNIGHT + 900).slot == 1
        assert assign_interval(self.MIDNIGHT + 899).slot == 0

    def test_tz_offset_changes_day(self):
        iv_utc = assign_interval(self.MIDNIGHT, tz_offset_s=0)
        assert iv_utc.day == datetime.date(2016, 9, 30)

    @given(st.integers(min_value=1, max_value=2 ** 31), st.integers(min_value=0, max_value=86399))
    @settings(max_examples=50, deadline=None)
    def test_monotone_within_day(self, base, delta):
        a = assign_interval(base)
        b = assign_interval(base + delta)
        assert (b.day, b.slot) >= (a.day, a.slot)

    def test_day_slot_arrays_match_calendar_oracle(self):
        ts = self.MIDNIGHT + np.array([-1, 0, 899, 900, 86399, 86400, 7 * 86400 + 12345])
        for tz in (0, 8 * 3600, -5 * 3600):
            day, slot = day_slot(ts, tz)
            for t, d, s in zip(ts.tolist(), day.tolist(), slot.tolist()):
                day_num, sec_of_day = divmod(t + tz, 86400)
                assert datetime.date.fromordinal(d) == \
                    datetime.date(1970, 1, 1) + datetime.timedelta(days=day_num)
                assert s == sec_of_day // 900

    def test_label_round_trip(self):
        iv = IntervalIndex(datetime.date(2016, 10, 5), 33)
        assert iv.label() == "2016-10-05T08:15"
        assert IntervalIndex.from_label(iv.label()) == iv
