"""Dataset loading, filtering, and summary behavior."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast._errors import ConfigError, DataError
from defectcast.dataset import (
    Dataset,
    FilterRule,
    VariableSpec,
    apply_filters,
    listwise_complete,
    load_csv,
    serialize_csv,
    summarize,
    utf8_fault,
)

from oracles import load_csv_by_rows, serialize_csv_by_rows

SCHEMA = [
    VariableSpec("defects", "response", "numeric", transform="ln"),
    VariableSpec("fp", "predictor", "numeric", transform="ln"),
    VariableSpec("dev_type", "predictor", "categorical"),
    VariableSpec("quality", "identifier", "categorical", categories=("A", "B")),
]

CSV_TEXT = """defects,fp,dev_type,quality,ignored
12,100,Enhancement,A,x
3,18,New Development,B,y
,250,Re-development,A,z
40,510,Enhancement,B,w
7,,New Development,A,v
"""


def _load():
    return load_csv(io.StringIO(CSV_TEXT), SCHEMA)


class TestLoadCsv:
    def test_shapes_and_values(self):
        ds = _load()
        assert ds.row_count == 5
        np.testing.assert_array_equal(ds.columns["fp"][:4], [100.0, 18.0, 250.0, 510.0])
        assert ds.missing("defects").tolist() == [False, False, True, False, False]
        assert ds.missing("fp").tolist() == [False, False, False, False, True]

    def test_undeclared_categories_sorted(self):
        # in either row order: no code depends on where a label first appears
        header, *rows = CSV_TEXT.splitlines()
        backward = load_csv(io.StringIO("\n".join([header, *rows[::-1]]) + "\n"), SCHEMA)
        for ds in (_load(), backward):
            assert ds.spec("dev_type").categories == (
                "Enhancement",
                "New Development",
                "Re-development",
            )
        assert _load().columns["dev_type"].tolist() == [0, 1, 2, 0, 1]
        assert backward.columns["dev_type"].tolist() == [1, 0, 2, 1, 0]

    def test_declared_order_wins(self):
        schema = [
            VariableSpec("defects", "response", "numeric"),
            VariableSpec("fp", "predictor", "numeric"),
            VariableSpec(
                "dev_type",
                "predictor",
                "categorical",
                categories=("Re-development", "New Development", "Enhancement"),
            ),
            VariableSpec("quality", "identifier", "categorical", categories=("A", "B")),
        ]
        ds = load_csv(io.StringIO(CSV_TEXT), schema)
        assert ds.columns["dev_type"].tolist() == [2, 1, 0, 2, 1]

    def test_unknown_category_with_declared_list_fails(self):
        schema = [
            VariableSpec("defects", "response", "numeric"),
            VariableSpec("fp", "predictor", "numeric"),
            VariableSpec("dev_type", "predictor", "categorical", categories=("Enhancement", "Other")),
            VariableSpec("quality", "identifier", "categorical", categories=("A", "B")),
        ]
        with pytest.raises(DataError, match="unknown category"):
            load_csv(io.StringIO(CSV_TEXT), schema)

    def test_missing_column_fails(self):
        schema = SCHEMA + [VariableSpec("effort", "predictor", "numeric")]
        with pytest.raises(DataError, match="effort"):
            load_csv(io.StringIO(CSV_TEXT), schema)

    def test_malformed_row_reports_row_number(self):
        text = "a,b\n1,2\n3\n"
        with pytest.raises(DataError, match="row 2"):
            load_csv(io.StringIO(text), [VariableSpec("a", "predictor", "numeric"),
                                         VariableSpec("b", "predictor", "numeric")])

    def test_cell_fault_before_a_short_row_wins(self):
        # the first fault in row order, also when a later row of the same
        # chunk has the wrong width
        text = "a,b\n1,2\n3,oops\n4\n"
        schema = [VariableSpec("a", "predictor", "numeric"),
                  VariableSpec("b", "predictor", "numeric")]
        with pytest.raises(DataError, match="^non-numeric value 'oops' for 'b' at data row 2$"):
            load_csv(io.StringIO(text), schema)

    def test_first_fault_in_a_row_follows_schema_order(self):
        text = "a,b\n1,2\noops,x\n"
        schema = [VariableSpec("b", "predictor", "numeric"),
                  VariableSpec("a", "predictor", "numeric")]
        with pytest.raises(DataError, match="^non-numeric value 'x' for 'b' at data row 2$"):
            load_csv(io.StringIO(text), schema)

    def test_non_numeric_cell_reports_location(self):
        text = "a\n1\noops\n"
        with pytest.raises(DataError, match="'oops'.*row 2"):
            load_csv(io.StringIO(text), [VariableSpec("a", "predictor", "numeric")])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_reports_location(self, cell):
        # float() accepts these texts; a row carrying one must not load as
        # complete and fail later in the fit or the tree
        text = f"y,x\n1,0.5\n2,1.5\n3,2.5\n4,{cell}\n5,4.5\n6,5.5\n"
        schema = [VariableSpec("y", "response", "numeric"),
                  VariableSpec("x", "predictor", "numeric")]
        with pytest.raises(DataError, match=f"^non-finite value '{cell}' for 'x' at data row 4$"):
            load_csv(io.StringIO(text), schema)

    def test_quoted_fields_with_commas(self):
        text = 'a,b\n"1,5 stars",2\n"2,0 stars",3\n'
        schema = [VariableSpec("a", "predictor", "categorical"),
                  VariableSpec("b", "predictor", "numeric")]
        ds = load_csv(io.StringIO(text), schema)
        assert ds.spec("a").categories == ("1,5 stars", "2,0 stars")

    def test_binary_third_label_fails(self):
        text = "a\nx\ny\nz\n"
        with pytest.raises(DataError, match="third label"):
            load_csv(io.StringIO(text), [VariableSpec("a", "predictor", "binary")])

    def test_round_trip(self):
        ds = _load()
        buffer = io.StringIO()
        serialize_csv(ds, buffer)
        reloaded = load_csv(io.StringIO(buffer.getvalue()), ds.schema)
        assert reloaded == ds

    def test_round_trip_preserves_awkward_floats(self):
        schema = [VariableSpec("v", "predictor", "numeric")]
        ds = load_csv(io.StringIO("v\n0.1\n1e-17\n123456789.123456789\n"), schema)
        buffer = io.StringIO()
        serialize_csv(ds, buffer)
        again = load_csv(io.StringIO(buffer.getvalue()), schema)
        assert np.array_equal(again.columns["v"], ds.columns["v"])


class TestNotUtf8:
    def test_file_named_with_the_offset_of_the_first_bad_byte(self, tmp_path):
        # past the first chunk a streaming decoder reads, whose offsets
        # count from the start of that chunk
        header, rows = CSV_TEXT.split("\n", 1)
        raw = (header + "\n" + rows * 2000).encode("utf-8") + b"\xc3("
        path = tmp_path / "latin.csv"
        path.write_bytes(raw)
        for source in (path, str(path)):
            with pytest.raises(DataError) as err:
                load_csv(source, SCHEMA)
            assert str(err.value) == (
                f"data file {source} is not valid UTF-8: "
                f"invalid continuation byte at byte {len(raw) - 2}"
            )

    def test_bytes_leave_the_name_to_the_caller(self):
        raw = CSV_TEXT.encode("utf-8") + b"\xff"
        with pytest.raises(UnicodeDecodeError):
            load_csv(raw, SCHEMA)
        assert str(utf8_fault(raw, "upload")) == (
            f"upload is not valid UTF-8: invalid start byte at byte {len(raw) - 1}"
        )


class TestByteOrderMark:
    # Excel's "CSV UTF-8" export starts the file with U+FEFF and ends its
    # lines with CRLF; the mark is no part of the first column's name
    TEXT = "\ufeff" + CSV_TEXT.replace("\n", "\r\n")

    def test_every_source_kind_loads_as_without_the_mark(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(self.TEXT.encode("utf-8"))
        text = io.StringIO(self.TEXT, newline="")
        for source in (path, str(path), self.TEXT.encode("utf-8"), text):
            assert load_csv(source, SCHEMA) == _load()

    def test_only_a_leading_mark_is_dropped(self):
        text = "a,\ufeffb\n1,\ufeffx\n2,y\n"
        schema = [VariableSpec("a", "predictor", "numeric"),
                  VariableSpec("\ufeffb", "predictor", "categorical")]
        assert load_csv(io.StringIO(text), schema).spec("\ufeffb").categories == ("y", "\ufeffx")


class TestNumericText:
    # a numeric cell is read by Python's float, whatever numpy is installed
    @pytest.mark.parametrize("cell", ["1_0", " 1.5 ", "\u0661\u0662", "-0.0", "5e-324", "1E3"])
    def test_cell_reads_as_float_reads_it(self, cell):
        ds = load_csv(io.StringIO(f"v\n{cell}\n"), [VariableSpec("v", "predictor", "numeric")])
        assert ds.columns["v"].tobytes() == np.float64(float(cell)).tobytes()

    @pytest.mark.parametrize(
        "cell, fault", [("1e500", "non-finite"), ("nan", "non-finite"), ("0x10", "non-numeric")]
    )
    def test_rejected_cell(self, cell, fault):
        with pytest.raises(DataError, match=f"^{fault} value '{cell}' for 'v' at data row 2$"):
            load_csv(io.StringIO(f"v\n1\n{cell}\n"), [VariableSpec("v", "predictor", "numeric")])


def test_load_holds_one_chunk_of_cells_at_a_time(tmp_path):
    # the load parses a fixed number of rows at a time, so its traced peak
    # stays a small multiple of the arrays it returns: 3.3x on this file,
    # against 5.5x for a loop over rows and 16x for a load that reads every
    # cell of the file before parsing any
    rng = np.random.default_rng(8000)
    path = tmp_path / "projects.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["defects", "fp", "efforts", "team", "dev_type", "vaf"])
        for values, dev, vaf in zip(
            rng.lognormal(3.0, 1.0, (8000, 4)).tolist(),
            rng.choice(["New Development", "Enhancement", "Re-development"], 8000).tolist(),
            rng.choice(["0.65", "1.00", "1.35"], 8000).tolist(),
        ):
            writer.writerow([*map(repr, values), dev, vaf])
    numeric = ("defects", "fp", "efforts", "team")
    schema = [
        *(VariableSpec(name, "predictor", "numeric") for name in numeric),
        VariableSpec("dev_type", "predictor", "categorical"),
        VariableSpec("vaf", "predictor", "categorical", categories=("0.65", "1.00", "1.35")),
    ]
    load_csv(path, schema)
    tracemalloc.start()
    try:
        ds = load_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    loaded = sum(column.nbytes for column in ds.columns.values())
    assert ds.row_count == 8000
    assert peak < 8 * loaded, peak / loaded


ORACLE_SCHEMA = [
    VariableSpec("x", "predictor", "numeric"),
    VariableSpec("k", "predictor", "categorical", categories=("a", "b,c", 'd"e')),
    VariableSpec("u", "predictor", "categorical"),
    VariableSpec("y", "response", "numeric"),
    VariableSpec("b", "predictor", "binary"),
]
# file order differs from schema order, and one column is not in the schema
ORACLE_HEADER = ["u", "note", "x", "y", "k", "b"]
# a fault replaces one cell with text the load rejects, or cuts a row short
ORACLE_FAULTS = {
    "non-numeric": ("x", "oops"),
    "nan": ("y", "nan"),
    "inf": ("x", "-inf"),
    "unknown label": ("k", "zz"),
    "third binary label": ("b", "maybe"),
    "short row": (None, None),
}


def _oracle_rows(rng, n):
    def pick(labels, empty_share):
        cells = rng.choice(labels, n).tolist()
        return [c if keep else "" for c, keep in zip(cells, rng.random(n) >= empty_share)]

    columns = {
        "u": pick(["p", "q, r", 's "t"', "v"], 0.05),
        "note": pick(["n", "m,m"], 0.0),
        "x": pick([repr(v) for v in rng.normal(0.0, 1e3, 50).tolist()] + ["7", "-0.0"], 0.1),
        "y": [repr(v) for v in rng.lognormal(2.0, 1.0, n).tolist()],
        "k": pick(["a", "b,c", 'd"e'], 0.05),
        "b": pick(["yes", "no"], 0.02),
    }
    return [list(row) for row in zip(*(columns[name] for name in ORACLE_HEADER))]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(257, 640),
    faults=st.lists(
        st.tuples(st.sampled_from(sorted(ORACLE_FAULTS)),
                  st.sampled_from([254, 255, 256, 257, 511, 512])),
        max_size=2,
    ),
)
def test_load_matches_row_loop_oracle(seed, n, faults):
    # tables longer than one chunk of rows, with faults on either side of a
    # chunk boundary: the same Dataset, categories included, or the same
    # DataError message as a loop over rows
    rows = _oracle_rows(np.random.default_rng(seed), n)
    # cut rows short last, so a cell fault never indexes past a cut row
    for fault, index in sorted(faults, key=lambda f: f[0] == "short row"):
        row = rows[min(index, n - 1)]
        column, cell = ORACLE_FAULTS[fault]
        if column is None:
            row.pop()
        else:
            row[ORACLE_HEADER.index(column)] = cell
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(ORACLE_HEADER)
    writer.writerows(rows)
    text = buffer.getvalue()

    def outcome(load, source):
        try:
            return load(source, ORACLE_SCHEMA)
        except DataError as error:
            return f"DataError: {error}"

    expected = outcome(load_csv_by_rows, text)
    got = outcome(load_csv, io.StringIO(text, newline=""))
    assert type(got) is type(expected)
    assert got == expected

class TestSchemaValidation:
    def test_two_responses_rejected(self):
        with pytest.raises(ConfigError, match="multiple responses"):
            Dataset(
                [
                    VariableSpec("a", "response", "numeric"),
                    VariableSpec("b", "response", "numeric"),
                ],
                {"a": np.array([1.0]), "b": np.array([1.0])},
            )

    def test_bad_role_rejected(self):
        with pytest.raises(ConfigError):
            VariableSpec("a", "outcome", "numeric")

    def test_binary_needs_two_categories(self):
        with pytest.raises(ConfigError):
            VariableSpec("a", "predictor", "binary", categories=("x", "y", "z"))

    def test_categorical_transform_rejected(self):
        with pytest.raises(ConfigError):
            VariableSpec("a", "predictor", "categorical", transform="ln")

    def test_columns_are_frozen(self):
        ds = _load()
        with pytest.raises(ValueError):
            ds.columns["fp"][0] = 1.0


class TestFilters:
    def test_in_set(self):
        ds = _load()
        out = apply_filters(ds, [FilterRule("in_set", "dev_type", labels=("Enhancement",))])
        assert out.row_count == 2
        assert set(out.labels("dev_type")) == {"Enhancement"}

    def test_conjunction(self):
        ds = _load()
        rules = [
            FilterRule("in_set", "quality", labels=("A",)),
            FilterRule("non_missing", "defects"),
        ]
        out = apply_filters(ds, rules)
        assert out.row_count == 2
        both = apply_filters(apply_filters(ds, rules[:1]), rules[1:])
        assert both == out

    def test_range_excludes_missing(self):
        ds = _load()
        out = apply_filters(ds, [FilterRule("range", "fp", low=50.0)])
        assert out.row_count == 3

    def test_idempotent(self):
        ds = _load()
        rules = [FilterRule("in_set", "quality", labels=("A", "B")), FilterRule("non_missing", "fp")]
        once = apply_filters(ds, rules)
        twice = apply_filters(once, rules)
        assert once == twice

    def test_unknown_variable_rejected(self):
        with pytest.raises(ConfigError, match="unknown variable"):
            apply_filters(_load(), [FilterRule("non_missing", "nope")])

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigError, match="unknown categories"):
            apply_filters(_load(), [FilterRule("in_set", "quality", labels=("C",))])

    def test_preserves_category_order(self):
        ds = _load()
        out = apply_filters(ds, [FilterRule("in_set", "dev_type", labels=("Re-development",))])
        assert out.spec("dev_type").categories == ds.spec("dev_type").categories


class TestMissingMarker:
    def test_mask_derived_from_nan_and_minus_one(self):
        schema = [
            VariableSpec("v", "predictor", "numeric"),
            VariableSpec("k", "predictor", "categorical", categories=("p", "q")),
        ]
        ds = Dataset(schema, {"v": np.array([1.0, np.nan, 3.0]), "k": np.array([0, 1, -1])})
        assert ds.missing("v").tolist() == [False, True, False]
        assert ds.missing("k").tolist() == [False, False, True]
        assert listwise_complete(ds, ["v", "k"]).row_count == 1
        with pytest.raises(DataError, match="unknown variable 'nope'"):
            ds.missing("nope")


class TestSelect:
    def test_keeps_schema_order_and_values(self):
        ds = _load()
        out = ds.select(["dev_type", "defects"])
        assert out.variable_names == ("defects", "dev_type")
        np.testing.assert_array_equal(out.columns["dev_type"], ds.columns["dev_type"])
        np.testing.assert_array_equal(out.missing("defects"), ds.missing("defects"))
        assert out.spec("dev_type") == ds.spec("dev_type")

    def test_unknown_variable(self):
        with pytest.raises(DataError, match="unknown variable 'nope'"):
            _load().select(["defects", "nope"])


class TestListwise:
    def test_drops_any_missing(self):
        ds = _load()
        out = listwise_complete(ds, ["defects", "fp"])
        assert out.row_count == 3
        assert not out.missing("defects").any()
        assert not out.missing("fp").any()

    def test_scoped_to_requested_variables(self):
        ds = _load()
        out = listwise_complete(ds, ["dev_type"])
        assert out.row_count == 5

    def test_complete_data_returned_itself(self):
        ds = _load()
        assert listwise_complete(ds, ["dev_type", "quality"]) is ds

    def test_subset_arrays_are_frozen(self):
        ds = _load()
        out = listwise_complete(ds, ["fp"])
        assert out is not ds
        assert out.row_count == 4
        for arr in out.columns.values():
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            out.columns["fp"][0] = 1.0


class TestSummaries:
    def test_numeric_summary_uses_sample_sd(self):
        ds = _load()
        entry = summarize(ds)["variables"]["fp"]
        vals = np.array([100.0, 18.0, 250.0, 510.0])
        assert entry["n"] == 4
        assert entry["n_missing"] == 1
        assert abs(entry["mean"] - vals.mean()) < 1e-12
        assert abs(entry["sd"] - vals.std(ddof=1)) < 1e-12

    def test_frequencies(self):
        assert summarize(_load())["variables"]["dev_type"]["frequencies"] == {
            "Enhancement": 2,
            "New Development": 2,
            "Re-development": 1,
        }

    def test_json_ready(self):
        import json

        json.dumps(summarize(_load()))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_numeric_round_trip_property(values):
    schema = [VariableSpec("v", "predictor", "numeric")]
    text = "v\n" + "\n".join(repr(v) for v in values) + "\n"
    ds = load_csv(io.StringIO(text), schema)
    buffer = io.StringIO()
    serialize_csv(ds, buffer)
    again = load_csv(io.StringIO(buffer.getvalue()), schema)
    assert again == ds


def _written(ds, write) -> str:
    buffer = io.StringIO()
    write(ds, buffer)
    return buffer.getvalue()


class TestSerializeCsv:
    def test_matches_row_loop_on_edge_cells(self):
        # missing numeric and categorical cells, signed zero, the smallest
        # subnormal, a huge value, a one-field row, and open-coded labels
        # (one with a comma and a quote) in sorted order
        text = (
            'a,b,c,d\n'
            '-0.0,x,,1\n'
            '5e-324,,"y, ""z"""," "\n'
            '1e300,u,w,\n'
            ',,,\n'
        )
        schema = [
            VariableSpec("a", "predictor", "numeric"),
            VariableSpec("b", "predictor", "categorical"),
            VariableSpec("c", "predictor", "categorical"),
            VariableSpec("d", "predictor", "categorical"),
        ]
        ds = load_csv(io.StringIO(text), schema)
        assert ds.spec("c").categories == ("w", 'y, "z"')
        written = _written(ds, serialize_csv)
        assert written == _written(ds, serialize_csv_by_rows)
        assert written.splitlines()[1:3] == ["-0.0,x,,1", '5e-324,,"y, ""z""", ']
        assert load_csv(io.StringIO(written), ds.schema) == ds

    def test_single_column_with_a_missing_cell(self):
        # a row of one empty field is written quoted, so it reloads as missing
        ds = Dataset(
            [VariableSpec("v", "predictor", "numeric")],
            {"v": np.array([1.5, np.nan, 2.5])},
        )
        written = _written(ds, serialize_csv)
        assert written == _written(ds, serialize_csv_by_rows) == 'v\n1.5\n""\n2.5\n'
        assert load_csv(io.StringIO(written), ds.schema) == ds

    def test_matches_row_loop_on_loaded_fixture(self):
        ds = _load()
        assert _written(ds, serialize_csv) == _written(ds, serialize_csv_by_rows)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
            st.one_of(st.none(), st.sampled_from(["p", "q", "r, s"])),
        ),
        min_size=2,
        max_size=30,
    )
)
def test_serialize_matches_row_loop_property(rows):
    schema = [
        VariableSpec("v", "predictor", "numeric"),
        VariableSpec("k", "predictor", "categorical", categories=("p", "q", "r, s")),
    ]
    columns = {
        "v": np.array([np.nan if v is None else v for v, _ in rows]),
        "k": np.array([-1 if k is None else schema[1].categories.index(k) for _, k in rows]),
    }
    ds = Dataset(schema, columns)
    assert _written(ds, serialize_csv) == _written(ds, serialize_csv_by_rows)
