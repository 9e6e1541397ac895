"""Tests for the plain-text table renderer, the strict JSON serialiser and the
:class:`Report` base."""

from __future__ import annotations

import json
import math

from repro.analysis import Report, format_records, format_series, format_table, strict_json


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["col"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert set(text.splitlines()[1]) == {"="}

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000123], [12345.6], [1.5], [0]])
        assert "0.000123" in text
        assert "1.23e+04" in text
        assert "1.5" in text

    def test_column_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer-name", 22]])
        lines = text.splitlines()
        # All rows have the same width for the first column.
        assert lines[2].index("1") == lines[3].index("22")


class TestFormatRecords:
    def test_uses_first_record_keys(self):
        text = format_records([{"x": 1, "y": 2}, {"x": 3, "y": 4}])
        assert text.splitlines()[0].split() == ["x", "y"]

    def test_empty_records(self):
        assert format_records([], title="Empty") == "Empty"
        assert format_records([]) == "(empty)"

    def test_missing_keys_render_blank(self):
        text = format_records([{"x": 1, "y": 2}, {"x": 3}])
        assert "3" in text


class TestFormatSeries:
    def test_series_layout(self):
        series = {"ResNet": {20: 1.0, 56: 3.0}, "ODENet": {20: 0.7, 56: 0.7}}
        text = format_series(series, x_label="N", title="Sizes")
        lines = text.splitlines()
        assert lines[0] == "Sizes"
        assert "20" in lines[2] and "56" in lines[2]
        assert any(line.startswith("ResNet") for line in lines)

    def test_missing_points_blank(self):
        series = {"A": {20: 1.0}, "B": {56: 2.0}}
        text = format_series(series)
        assert "A" in text and "B" in text


class TestStrictJson:
    def test_non_finite_floats_become_null(self):
        data = {"a": math.inf, "b": [1.5, -math.inf, (math.nan, 2)], "c": "x"}

        def reject(token):
            raise ValueError(token)

        out = json.loads(strict_json(data), parse_constant=reject)
        assert out == {"a": None, "b": [1.5, None, [None, 2]], "c": "x"}

    def test_finite_payload_matches_plain_dumps(self):
        data = {"rows": [{"x": 0.1, "n": 3, "ok": True, "t": None}]}
        assert strict_json(data) == json.dumps(data, indent=2)
        assert strict_json(data, indent=None) == json.dumps(data)


class _Rows(Report):
    """A minimal tabular report: ``rows`` are its records and its columns."""

    def __init__(self, rows):
        self.rows = rows

    def as_dict(self):
        return {"rows": self.rows}

    def records(self):
        return self.rows

    def column(self, name):
        return [row[name] for row in self.rows]

    def take(self, indices):
        return _Rows([self.rows[i] for i in indices])


class TestReportBase:
    def test_to_json_is_strict_json_of_as_dict(self):
        report = _Rows([{"x": math.nan}])
        assert report.to_json() == strict_json({"rows": [{"x": None}]})
        assert report.to_json(indent=None) == '{"rows": [{"x": null}]}'

    def test_to_csv_takes_the_header_from_the_first_record(self):
        assert _Rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]).to_csv() == "a,b\n1,x\n2,y"

    def test_no_records_is_empty_csv(self):
        assert _Rows([]).to_csv() == ""

    def test_pareto_front_goes_through_column_and_take(self):
        rows = [{"t": 3.0, "e": 1.0}, {"t": 1.0, "e": 3.0}, {"t": 2.0, "e": 2.0}, {"t": 3.0, "e": 3.0}]
        front = _Rows(rows).pareto_front("t", "e")
        assert front.rows == [rows[1], rows[2], rows[0]]
        assert _Rows(rows).pareto_front("t", "e", maximize_x=True, maximize_y=True).rows == [rows[3]]
