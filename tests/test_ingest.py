import csv
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
                                 TraceBatch, TraceRecord, _check_error_rate,
                                 _looks_like_header, assign_interval, day_slot,
                                 open_trace_file, parse_record, read_chunks)


def oracle_parse_record(fields, config=ParserConfig()):
    """The row-at-a-time reference for the row rules of ``read_chunks``."""
    if len(fields) != len(config.columns):
        raise ParseError(f"expected {len(config.columns)} fields, got {len(fields)}")
    row = dict(zip(config.columns, fields))
    try:
        ts = int(row["timestamp"])
        lat = float(row["lat"])
        lon = float(row["lon"])
    except ValueError as exc:
        raise ParseError(f"malformed numeric field: {exc}") from None
    driver, order = row["driver_id"], row["order_id"]
    if not driver or not order:
        raise RecordValidationError("empty driver_id or order_id")
    if ts <= 0:
        raise RecordValidationError(f"non-positive timestamp {ts}")
    if ts >= 253402214400:  # 9999-12-31T00:00Z
        raise RecordValidationError(f"timestamp {ts} past year 9999")
    if not -90.0 <= lat <= 90.0:
        raise RecordValidationError(f"latitude {lat} out of range")
    if not -180.0 <= lon <= 180.0:
        raise RecordValidationError(f"longitude {lon} out of range")
    return TraceRecord(driver, order, ts, lat, lon)


def oracle_read_chunks(source, config=ParserConfig(), stats=None):
    """The row-at-a-time reference for ``read_chunks``."""
    stats = IngestStats() if stats is None else stats
    chunk, first = [], True
    for row_num, fields in enumerate(csv.reader(source, delimiter=config.delimiter), start=1):
        if not fields:
            continue
        if first:
            first = False
            if _looks_like_header(fields, config):
                continue
        try:
            chunk.append(oracle_parse_record(fields, config))
            stats.parsed += 1
        except ParseError as exc:
            stats.parse_errors += 1
            if len(stats.samples) < 10:
                stats.samples.append(f"row {row_num}: {exc}")
        except RecordValidationError as exc:
            stats.validation_errors += 1
            if len(stats.samples) < 10:
                stats.samples.append(f"row {row_num}: {exc}")
        if len(chunk) == config.chunk_size:
            _check_error_rate(stats, config)
            yield TraceBatch.from_records(chunk)
            chunk = []
    _check_error_rate(stats, config)
    if chunk:
        yield TraceBatch.from_records(chunk)


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

    def test_timestamp_past_year_9999(self):
        assert parse_record("d1,o1,253402214399,104.06,30.65").timestamp == 253402214399
        for ts in ("253402214400", "99999999999999", str(10 ** 19)):
            with pytest.raises(RecordValidationError, match="past year 9999"):
                parse_record(f"d1,o1,{ts},104.06,30.65")

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


NUMBER_EDGES = [" 12", "1_000", "+5", "1.5", "nan", "inf", "-inf", "1e400", "", "0",
                "-7", "x", "253402214399", "253402214400", "99999999999999", str(10 ** 19)]
fields = {
    "driver_id": st.sampled_from(["d1", "d,2", ""]),
    "order_id": st.sampled_from(["o1", "o2", 'o"3', ""]),
    "timestamp": st.sampled_from(["1475280000", "1475283600"] + NUMBER_EDGES)
    | st.integers(-10, 2 ** 70).map(str),
    "lon": st.sampled_from(["104.06", "-180", "180.5"] + NUMBER_EDGES)
    | st.floats(-200, 200).map(repr),
    "lat": st.sampled_from(["30.65", "90", "-90.0001"] + NUMBER_EDGES)
    | st.floats(-100, 100).map(repr),
}
trace_rows = st.lists(
    st.fixed_dictionaries(fields).map(lambda r: [r[c] for c in ParserConfig().columns])
    | st.lists(st.sampled_from(["d1", "o1", "1475280000", "30.6"]), max_size=7),
    max_size=60)


def run_reader(reader, text, config):
    """(chunks and any DataQualityError message in order, stats) of one reader."""
    stats, out = IngestStats(), []
    try:
        out.extend(reader(io.StringIO(text), config, stats))
    except DataQualityError as exc:
        out.append(str(exc))
    return out, stats


class TestBlockParserEqualsOracle:
    @given(rows=trace_rows, valid_prefix=st.sampled_from([0, 3, 990, 1100]),
           header=st.booleans(), quote_all=st.booleans(),
           chunk_size=st.integers(min_value=1, max_value=50),
           ceiling=st.sampled_from([0.001, 0.01, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_read_chunks_matches_row_oracle(self, rows, valid_prefix, header, quote_all,
                                            chunk_size, ceiling):
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        if header:
            writer.writerow(ParserConfig().columns)
        buf.write(rows_csv(valid_prefix))
        writer.writerows(rows)
        config = ParserConfig(chunk_size=chunk_size, error_rate_ceiling=ceiling)
        got, got_stats = run_reader(read_chunks, buf.getvalue(), config)
        want, want_stats = run_reader(oracle_read_chunks, buf.getvalue(), config)

        assert got_stats == want_stats
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if isinstance(b, str):
                assert a == b
                continue
            assert len(a) == len(b)
            assert a.order_id.tolist() == b.order_id.tolist()
            for name in ("timestamp", "lat", "lon"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

        for fields in filter(None, rows):
            try:
                want_rec = oracle_parse_record(fields)
            except (ParseError, RecordValidationError) as exc:
                with pytest.raises(type(exc)) as got_exc:
                    parse_record(fields)
                assert str(got_exc.value) == str(exc)
            else:
                assert parse_record(fields) == want_rec


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
