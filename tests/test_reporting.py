"""Histogram CSVs, shares, and the report file envelope."""

import io
import json
import threading

import orjson
import pytest

from ctxlens.errors import DataError, InsufficientData
from ctxlens.reporting import (
    REPORT_SCHEMA,
    aggregate_share,
    append_jsonl,
    histogram_csv,
    read_report,
    write_report,
    write_text,
)


class TestHistogram:
    def test_from_values(self):
        assert histogram_csv([48, 32, 32, 96, 32]) == "ell,count\n32,3\n48,1\n96,1\n"

    def test_csv_format(self):
        assert histogram_csv([32, 32, 48]) == "ell,count\n32,2\n48,1\n"
        assert histogram_csv([]) == "ell,count\n"


class TestAggregateShare:
    def test_exact_ratio(self):
        results = [32] * 8 + [200] * 2
        assert aggregate_share(results, 32) == 0.8
        assert aggregate_share(results, 96) == 0.8
        assert aggregate_share(results, 200) == 1.0
        assert aggregate_share(results, 31) == 0.0

    def test_accepts_plain_integers(self):
        assert aggregate_share([32, 32, 64, 128], 64) == 0.75

    def test_monotone_in_cutoff(self):
        lengths = [32, 48, 48, 64, 208]
        shares = [aggregate_share(lengths, c) for c in (31, 32, 48, 64, 208)]
        assert shares == sorted(shares)

    def test_unresolved_rejected(self):
        with pytest.raises(InsufficientData):
            aggregate_share([32, None], 32)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientData):
            aggregate_share([], 32)


class TestReportFiles:
    def test_round_trip_and_schema(self, tmp_path):
        path = tmp_path / "out" / "report.json"
        write_report(path, {"answer": 42})
        data = read_report(path)
        assert data["answer"] == 42
        assert data["schema"] == REPORT_SCHEMA

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(InsufficientData):
            read_report(path)

    def test_non_rfc8259_report_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"schema": "ctxlens/1", "theta": -Infinity}')
        with pytest.raises(orjson.JSONDecodeError):
            read_report(path)

    def test_stable_serialization(self, tmp_path):
        payload = {"b": 1, "a": {"z": 2, "y": 3}}
        p1 = write_report(tmp_path / "r1.json", payload)
        p2 = write_report(tmp_path / "r2.json", payload)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        write_report(tmp_path / "r.json", {"k": 1})
        write_text(tmp_path / "t.csv", "ell,count\n")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_concurrent_writers_produce_valid_files(self, tmp_path):
        paths = [tmp_path / f"r{i}.json" for i in range(8)]
        threads = [
            threading.Thread(target=write_report, args=(p, {"i": i}))
            for i, p in enumerate(paths)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, p in enumerate(paths):
            assert read_report(p)["i"] == i

    def test_append_jsonl_lines_are_self_contained(self):
        buf = io.StringIO()
        for i in range(3):
            append_jsonl(buf, {"i": i})
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        assert [orjson.loads(line)["i"] for line in lines] == [0, 1, 2]

    # NaN and the infinities have no RFC 8259 form, so both writers refuse all three.
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_write_report_refuses_non_finite_before_writing(self, tmp_path, bad):
        path = tmp_path / "report.json"
        with pytest.raises(DataError, match="report.json"):
            write_report(path, {"trace": [[1, {"x": float(bad)}]]})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_append_jsonl_refuses_non_finite_before_writing(self, tmp_path, bad):
        path = tmp_path / "records.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            append_jsonl(fh, {"i": 0})
            with pytest.raises(DataError, match="records.jsonl"):
                append_jsonl(fh, {"i": 1, "x": (0.5, float(bad))})
        assert path.read_text(encoding="utf-8") == '{"i": 0}\n'
