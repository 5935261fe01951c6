import csv
import datetime
import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepattern import ingest
from tracepattern.errors import (DataQualityError, IngestError, ParseError,
                                 RecordValidationError)
from tracepattern.ingest import (DEFAULT_COLUMNS, IngestStats, IntervalIndex,
                                 ParserConfig, TraceBatch, _check_error_rate,
                                 _looks_like_header, _parse_rows, day_slot,
                                 open_trace_file, read_chunks)

from conftest import TraceRecord, assign_interval, batch_from_records


def parse_record(fields, config=ParserConfig()):
    """One delimited row (a string or a pre-split field list) through the
    block parser; raises the error of the first rule it breaks."""
    if isinstance(fields, str):
        fields = fields.rstrip("\r\n").split(config.delimiter)
    batch, errors = _parse_rows([fields], config)
    if errors:
        raise errors[0][1]
    return TraceRecord(fields[config.columns.index("driver_id")], batch.order_id[0],
                       int(batch.timestamp[0]), float(batch.lat[0]), float(batch.lon[0]))


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
            yield batch_from_records(chunk)
            chunk = []
    _check_error_rate(stats, config)
    if chunk:
        yield batch_from_records(chunk)


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


class TestParserConfig:
    @pytest.mark.parametrize("chunk_size", [2.5, "10", True, 0])
    def test_chunk_size_must_be_a_positive_int(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size"):
            ParserConfig(chunk_size=chunk_size)


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

    def test_byte_ranges(self, tmp_path):
        """The ranges cut at any line start read the rows of the whole file;
        the first line of a range past byte 0 is a row, never a header."""
        text = "driver_id,order_id,timestamp,lon,lat\n" + rows_csv(30)
        path = tmp_path / "traces.csv"
        path.write_text(text)
        whole = as_rows(TraceBatch.concat(list(ingest.read_chunks_from_path(path))))
        starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"][:-1]
        for cut in starts[1:]:
            stats = IngestStats()
            parts = [ingest.read_chunks_from_path(path, ParserConfig(chunk_size=7), stats, *span)
                     for span in ((0, cut), (cut, None))]
            assert as_rows(TraceBatch.concat([c for part in parts for c in part])) == whole
            assert stats.total == 30
        bad = "d1,o1,abc,104.0,30.0\n"
        for text, start, want in ((bad + rows_csv(1), 0, (1, 0)),
                                  (rows_csv(1) + bad + rows_csv(1), len(rows_csv(1)), (1, 1))):
            path.write_text(text)
            stats = IngestStats()
            list(ingest.read_chunks_from_path(path, ParserConfig(), stats, start))
            assert (stats.parsed, stats.skipped) == want

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
    "order_id": st.sampled_from(["o1", "o2", 'o"3', "o\n4", ""]),
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


def run_reader(reader, text, config, newline="\n"):
    """(chunks and any DataQualityError message in order, stats) of one reader."""
    stats, out = IngestStats(), []
    try:
        out.extend(reader(io.StringIO(text, newline=newline), config, stats))
    except DataQualityError as exc:
        out.append(str(exc))
    return out, stats


def assert_matches_oracle(text, config, newline="\n"):
    """read_chunks gives the oracle's stats, samples and bit-equal chunks."""
    got, got_stats = run_reader(read_chunks, text, config, newline)
    want, want_stats = run_reader(oracle_read_chunks, text, config, newline)

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
    return want_stats


def valid_lines(n, columns=DEFAULT_COLUMNS, delimiter=","):
    """``n`` valid rows as lines, fields in ``columns`` order, ids with ``#`` and ``'``."""
    lines = []
    for i in range(n):
        row = {"driver_id": f"d'{i % 13}", "order_id": f"o#{i % 17}",
               "timestamp": str(1475280000 + 7 * i), "lat": f"30.{i % 97:02d}",
               "lon": f"104.{i % 89:02d}"}
        lines.append(delimiter.join(row[c] for c in columns) + "\n")
    return lines


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
        assert_matches_oracle(buf.getvalue(), config)

        for fields in filter(None, rows):
            try:
                want_rec = oracle_parse_record(fields)
            except (ParseError, RecordValidationError) as exc:
                with pytest.raises(type(exc)) as got_exc:
                    parse_record(fields)
                assert str(got_exc.value) == str(exc)
            else:
                assert parse_record(fields) == want_rec

    # np.loadtxt loads the lines of a block that it accepts, csv.reader the
    # rest; these put one odd text into an otherwise valid block
    @pytest.mark.parametrize("text", NUMBER_EDGES + ["\u0661\u0662"])
    def test_odd_number_in_a_loaded_block(self, text):
        for column in ("timestamp", "lat", "lon"):
            lines = valid_lines(1100)
            row = lines[500].rstrip("\n").split(",")
            row[DEFAULT_COLUMNS.index(column)] = text
            lines[500] = ",".join(row) + "\n"
            for chunk_size in (10_000, 7):
                assert_matches_oracle("".join(lines), ParserConfig(chunk_size=chunk_size))

    @pytest.mark.parametrize("chunk_size", [10_000, 1000, 7])
    def test_rejected_lines_among_loaded_ones(self, chunk_size):
        # both kinds of np.loadtxt error (a field count, numbered from 1, and
        # a number, numbered from 0), next to each other, to blank lines and
        # to the ends of a block, lines that csv.reader and int() accept, and
        # rows of a loaded run that break a value rule
        lines = valid_lines(2200)
        odd = {1: "d1,o1,1475280000,104.06\n", 2: "d1,o1,1_000,104.06,30.65\n",
               3: "d1,o1,1.5,104.06,30.65\n", 500: "\n", 501: "d1,o1,x,104.06,30.65\n",
               502: "d1,o1,1475280000,104.06,30.65,9\n", 503: "d1,o2,+1_5,104.06,30.65\n",
               504: "\n", 999: "d1,o1,1475280000,104.06,\u0661\n", 1000: "d1,o1,1,2\n",
               2199: "d1,o9,1_475_280_000,104.06,30.65\n",
               10: "d1,o1,1475280000,104.06,95.0\n", 1501: "d1,,1475280000,104.06,30.65\n"}
        odd.update((i, "d1,o1,1475280000,1x4.06,30.65\n") for i in range(1100, 2100, 97))
        for i, line in odd.items():
            lines[i] = line
        stats = assert_matches_oracle("".join(lines), ParserConfig(chunk_size=chunk_size))
        assert (stats.parse_errors, stats.validation_errors, stats.parsed) == (16, 2, 2180)

    def test_csv_error_on_a_rejected_line_stops_the_read(self):
        lines = valid_lines(1100)
        lines[600] = "d1,o1\r1475280000,104.06,30.65\n"  # \r inside a line
        with pytest.raises(csv.Error) as want:
            list(oracle_read_chunks(io.StringIO("".join(lines))))
        with pytest.raises(IngestError) as got:
            list(read_chunks(io.StringIO("".join(lines))))
        assert str(got.value) == f"read failure after row 600: {want.value}"

    def test_quoted_field_spanning_lines_after_three_blocks(self):
        # blocks of 1, 9 and 10 lines, then a record over two lines
        lines = valid_lines(60)
        lines[4] = "d1,o1,1475280000,104.06,95.0\n"
        lines[30] = 'd1,"o\n1",1475280000,104.06,30.65\n'
        lines[33] = "d1,o1,1475280000,104.06\n"
        lines[55] = "d1,o1,1475280000,104.06,95.0\n"
        stats = assert_matches_oracle("".join(lines), ParserConfig(chunk_size=10))
        assert stats.samples == ["row 5: latitude 95.0 out of range",
                                 "row 34: expected 5 fields, got 4",
                                 "row 56: latitude 95.0 out of range"]

    @pytest.mark.parametrize("text, config, newline", [
        ("".join(valid_lines(1100)[:400]) + " \t \n" + "".join(valid_lines(700)),
         ParserConfig(), "\n"),
        ("".join(valid_lines(1100)[:400]) + "d1,o1,1475280000,104.06,30.65\r"
         + "".join(valid_lines(700)), ParserConfig(chunk_size=7), ""),
        ("".join(valid_lines(1100, delimiter="\t")) + "d1\to1\t5\t104.06\t91\n",
         ParserConfig(delimiter="\t"), "\n"),
        ("".join(valid_lines(1100, ("timestamp", "lat", "lon", "driver_id", "order_id")))
         + "1475280000,30.65,104.06,d1,\n",
         ParserConfig(columns=("timestamp", "lat", "lon", "driver_id", "order_id"),
                      chunk_size=7), "\n"),
        ("".join(valid_lines(1100)[:400]) + "\r\r\n" + "".join(valid_lines(700)),
         ParserConfig(), "\n"),
    ], ids=["whitespace-line", "lone-cr-line-end", "tab-delimiter", "order-id-last",
            "cr-only-line"])
    def test_layouts_of_a_loaded_block(self, text, config, newline):
        stats = assert_matches_oracle(text, config, newline)
        assert stats.parsed >= 1099

    @pytest.mark.parametrize("head, loaded", [
        ('"driver_id","order_id","timestamp","lon","lat"\n', 2200),
        ('\n\n"driver_id","order_id","timestamp","lon","lat"\r\n', 2202),
        ('"d""1","o1",1475280000,"104.06",30.65\n', 2200),
        ('"d1","o\n1",1475280000,104.06,30.65\n', 2200),
    ], ids=["quote-all-header", "after-blank-lines", "quoted-first-row",
            "first-record-over-two-lines"])
    def test_quoted_first_line_over_a_plain_body(self, monkeypatch, head, loaded):
        # a quoted first record takes csv.reader alone, also when it runs
        # over two lines; np.loadtxt still reads the plain lines after it
        lines = valid_lines(2200)
        lines[700] = "d1,o1,x,104.06,30.65\n"
        lines[1500] = "d1,o1,1475280000,104.06\n"
        text = head + "".join(lines)
        loaded_lines = []

        def load_lines(block, config):
            loaded_lines.extend(block)
            return load_lines.real(block, config)

        load_lines.real = ingest._load_lines
        monkeypatch.setattr(ingest, "_load_lines", load_lines)
        for chunk_size in (10_000, 1000, 7):
            loaded_lines.clear()
            stats = assert_matches_oracle(text, ParserConfig(chunk_size=chunk_size))
            assert (stats.parse_errors, stats.validation_errors) == (2, 0)
            assert len(loaded_lines) == loaded

    @pytest.mark.parametrize("quoted", ['"d1","o1",1475280000,104.06,30.65\n',
                                        'd1,"o\n1",1475280000,104.06,30.65\n'],
                             ids=["one-line", "over-two-lines"])
    def test_blocks_after_a_quoted_line_are_loaded(self, monkeypatch, quoted):
        # csv.reader takes the block from the quoted line on; every later
        # block is np.loadtxt's again
        lines = valid_lines(5000)
        lines[2500] = quoted
        loaded_lines = []

        def load_lines(block, config):
            loaded_lines.extend(block)
            return load_lines.real(block, config)

        load_lines.real = ingest._load_lines
        monkeypatch.setattr(ingest, "_load_lines", load_lines)
        text = "".join(lines)
        stats = assert_matches_oracle(text, ParserConfig(chunk_size=1000))
        assert stats.parsed == 5000 and stats.skipped == 0
        # blocks of 1 and 999 lines, then of 1000: the quoted line falls in
        # the block of lines 2000-2999
        stream = text.splitlines(keepends=True)
        assert loaded_lines == stream[:2500] + stream[3000:]

    def test_line_over_the_field_limit_stops_the_read(self):
        lines = valid_lines(1100)
        lines[600] = "d" * 200_000 + ",o1,1475280000,104.06,30.65\n"
        with pytest.raises(csv.Error) as want:
            list(oracle_read_chunks(io.StringIO("".join(lines))))
        with pytest.raises(IngestError) as got:
            list(read_chunks(io.StringIO("".join(lines))))
        assert str(got.value) == f"read failure after row 600: {want.value}"

    @pytest.mark.parametrize("cut", [1700, 1602], ids=["between-records", "inside-a-record"])
    def test_read_failure_names_the_last_record_read(self, cut):
        # two records over two lines each, in the block that a failing read
        # cuts short: the rows are counted as csv.reader counts them
        lines = valid_lines(3000)
        lines[1500] = lines[1600] = 'd1,"o\n1",1475280000,104.06,30.65\n'
        stream_lines = "".join(lines).splitlines(keepends=True)

        def stream():
            yield from stream_lines[:cut]
            raise OSError("device error")

        records = 0
        with pytest.raises(OSError):
            for _ in csv.reader(stream()):
                records += 1
        with pytest.raises(IngestError) as got:
            list(read_chunks(stream(), ParserConfig(chunk_size=1000)))
        assert str(got.value) == f"read failure after row {records}: device error"
        assert records == cut - 2

    def test_truncated_gzip_names_the_last_row_read(self, tmp_path):
        path = tmp_path / "traces.csv.gz"
        data = gzip.compress("".join(valid_lines(50_000)).encode())
        path.write_bytes(data[:len(data) // 2])
        rows_read = 0
        with open_trace_file(path) as stream, pytest.raises(EOFError):
            for _ in stream:
                rows_read += 1
        with open_trace_file(path) as stream, pytest.raises(IngestError) as got:
            read_all(stream)
        assert str(got.value).startswith(f"read failure after row {rows_read}: ")


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
