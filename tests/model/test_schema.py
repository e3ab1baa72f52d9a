"""Tests for schemas, attributes, and type inference."""

import datetime
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datagen.products import generate_world
from repro.errors import SchemaError, TypeInferenceError
from repro.model import schema as schema_module
from repro.model.schema import (
    Attribute,
    Coercibility,
    DataType,
    Schema,
    coerce,
    infer_column_type,
    infer_type,
    static_coercibility,
)


class TestInferType:
    def test_python_natives(self):
        assert infer_type(True) is DataType.BOOLEAN
        assert infer_type(3) is DataType.INTEGER
        assert infer_type(3.5) is DataType.FLOAT
        assert infer_type(datetime.date(2016, 3, 15)) is DataType.DATE

    def test_bool_is_not_integer(self):
        # bool is a subclass of int in Python; inference must not confuse them
        assert infer_type(False) is DataType.BOOLEAN

    def test_string_integer(self):
        assert infer_type("42") is DataType.INTEGER
        assert infer_type("-7") is DataType.INTEGER

    def test_string_float(self):
        assert infer_type("3.14") is DataType.FLOAT
        assert infer_type("-0.5") is DataType.FLOAT
        assert infer_type("1e5") is DataType.FLOAT

    def test_currency(self):
        assert infer_type("$19.99") is DataType.CURRENCY
        assert infer_type("£1,299.00") is DataType.CURRENCY
        assert infer_type("19.99 EUR") is DataType.CURRENCY

    def test_plain_number_is_not_currency(self):
        assert infer_type("19.99") is DataType.FLOAT

    def test_url(self):
        assert infer_type("https://shop.example.com/p/1") is DataType.URL
        assert infer_type("http://a.b/c?d=e") is DataType.URL

    def test_date_formats(self):
        assert infer_type("2016-03-15") is DataType.DATE
        assert infer_type("15/03/2016") is DataType.DATE
        assert infer_type("Mar 15, 2016") is DataType.DATE

    def test_geo(self):
        assert infer_type("51.5074, -0.1278") is DataType.GEO
        assert infer_type((51.5, -0.12)) is DataType.GEO

    def test_boolean_literals(self):
        assert infer_type("true") is DataType.BOOLEAN
        assert infer_type("No") is DataType.BOOLEAN

    def test_fallback_string(self):
        assert infer_type("hello world") is DataType.STRING
        assert infer_type("") is DataType.STRING

    def test_numeric_typing(self):
        assert DataType.CURRENCY.is_numeric()
        assert not DataType.URL.is_numeric()


# -- the reference: type inference as it was before memoisation and the
# -- year gate, kept as the oracle the fast path must agree with.

_ORACLE_DATE_FORMATS = (
    "%Y-%m-%d",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%Y/%m/%d",
    "%d %b %Y",
    "%d %B %Y",
    "%b %d, %Y",
)


def oracle_parse_date(text):
    for fmt in _ORACLE_DATE_FORMATS:
        try:
            return datetime.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def oracle_infer_type(value):
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, (datetime.date, datetime.datetime)):
        return DataType.DATE
    if isinstance(value, tuple) and len(value) == 2 and all(
        isinstance(part, (int, float)) for part in value
    ):
        return DataType.GEO
    if not isinstance(value, str):
        return DataType.STRING
    text = value.strip()
    if not text:
        return DataType.STRING
    if schema_module._URL_RE.match(text):
        return DataType.URL
    if schema_module._GEO_RE.match(text):
        return DataType.GEO
    if oracle_parse_date(text) is not None:
        return DataType.DATE
    if text.lower() in schema_module._BOOL_LITERALS:
        return DataType.BOOLEAN
    if schema_module._INT_RE.match(text):
        return DataType.INTEGER
    if schema_module._FLOAT_RE.match(text):
        return DataType.FLOAT
    match = schema_module._CURRENCY_RE.match(text)
    if match and (match.group("sym") or match.group("sym2")):
        return DataType.CURRENCY
    return DataType.STRING


def assert_agrees_with_oracle(value):
    assert infer_type(value) is oracle_infer_type(value), value
    if isinstance(value, str):
        text = value.strip()
        assert schema_module._parse_date(text) == oracle_parse_date(text), text


_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct",
    "Nov", "Dec", "January", "February", "March", "September", "December",
)

#: Digit scripts that ``\d`` (and so strptime's ``%Y``) accepts, ASCII first.
_DIGIT_SCRIPTS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９")


def _mixed_case(word, flips):
    return "".join(
        ch.upper() if flip else ch.lower() for ch, flip in zip(word, flips)
    )


@st.composite
def date_shaped_text(draw):
    """Strings shaped like every date format, valid or not."""
    year = draw(st.integers(0, 12000))
    month = draw(st.integers(0, 13))
    day = draw(st.integers(0, 32))
    flips = draw(st.lists(st.booleans(), min_size=9, max_size=9))
    name = _mixed_case(draw(st.sampled_from(_MONTHS)), flips)
    y = draw(st.sampled_from((f"{year:04d}", str(year), f"{year % 100:02d}")))
    m = draw(st.sampled_from((f"{month:02d}", str(month))))
    d = draw(st.sampled_from((f"{day:02d}", str(day))))
    shape = draw(st.sampled_from((
        f"{y}-{m}-{d}", f"{d}/{m}/{y}", f"{m}/{d}/{y}", f"{y}/{m}/{d}",
        f"{d} {name} {y}", f"{name} {d}, {y}", f"{name} {d} {y}",
        f"{d}  {name}  {y}", f"{y}{m}{d}",
    )))
    script = draw(st.sampled_from(_DIGIT_SCRIPTS))
    to_script = str.maketrans("0123456789", script)
    if draw(st.booleans()):
        # Only the year may leave ASCII and still parse: strptime spells
        # %m and %d with literal ASCII digit classes.
        shape = shape.replace(y, y.translate(to_script), 1)
    else:
        shape = shape.translate(to_script)
    pad = draw(st.sampled_from(("", " ", "\t", " \n")))
    return pad + shape + pad


@st.composite
def text_with_digit_runs(draw):
    """Product-like text carrying runs of digits, e.g. a model number."""
    words = draw(st.lists(
        st.sampled_from(("Acme", "Camera", "Neo", "Pro", "USD", "$", "k", "-")),
        max_size=4,
    ))
    digits = draw(st.text(alphabet="0123456789٢٠١٦", min_size=1, max_size=8))
    words.insert(draw(st.integers(0, len(words))), digits)
    return " ".join(words)


class TestInferTypeAgainstOracle:
    """The memoised, year-gated inference returns what the plain
    seven-format strptime loop returned, cell for cell."""

    def test_every_cell_of_the_e6_world(self):
        world = generate_world(50, 6, seed=606)
        cells = [
            value
            for rows in world.source_rows.values()
            for row in rows
            for value in row.values()
        ]
        cells += [
            value
            for record in world.ground_truth
            for value in record.to_dict().values()
        ]
        assert any(oracle_infer_type(c) is DataType.DATE for c in cells)
        for value in cells:
            assert_agrees_with_oracle(value)

    @given(date_shaped_text())
    def test_date_shaped_text(self, text):
        assert_agrees_with_oracle(text)

    @given(text_with_digit_runs())
    def test_text_with_digit_runs(self, text):
        assert_agrees_with_oracle(text)

    @given(st.text(max_size=24))
    def test_arbitrary_text(self, text):
        assert_agrees_with_oracle(text)

    def test_named_cases(self):
        for text in (
            "٢٠١٦-٠٣-١٥",
            "٢٠١٦-03-15",
            "15 Mar ２０１６",
            "Acme Camera Neo 2862",
            "mArCh 15, 2016",
            "15 SEPTEMBER 2016",
            "2016",
            "16-03-15",
        ):
            assert_agrees_with_oracle(text)

    def test_native_types_survive_any_call_order(self):
        # Pairs, not a dict: True, 1 and 1.0 are one dict key.
        natives = [(True, DataType.BOOLEAN), (1, DataType.INTEGER),
                   (1.0, DataType.FLOAT)]
        probes = [True, 1, 1.0, "True", "1", "1.0", " 1 "]
        for order in itertools.permutations(probes):
            for value in order:
                assert_agrees_with_oracle(value)
            for value, dtype in natives:
                assert infer_type(value) is dtype

    def test_every_date_format_carries_a_four_digit_year(self):
        # The year gate's premise: strptime compiles %Y to \d\d\d\d, so a
        # string without four digits in a row cannot match any format.
        # The oracle loops over the same formats, or it proves nothing.
        assert schema_module._DATE_FORMATS == _ORACLE_DATE_FORMATS
        for fmt in schema_module._DATE_FORMATS:
            assert "%Y" in fmt
            assert "%y" not in fmt


class TestInferColumnType:
    def test_majority_vote(self):
        assert infer_column_type(["1", "2", "3", "x"], threshold=0.7) is DataType.INTEGER

    def test_mixed_numeric_pools_to_float(self):
        assert infer_column_type(["1", "2.5", "3", "4.5"]) is DataType.FLOAT

    def test_nulls_ignored(self):
        assert infer_column_type([None, "", "5", "6"]) is DataType.INTEGER

    def test_all_null_is_string(self):
        assert infer_column_type([None, None]) is DataType.STRING

    def test_disagreement_degrades_to_string(self):
        values = ["1", "hello", "2016-01-01", "x", "y"]
        assert infer_column_type(values) is DataType.STRING


class TestCoerce:
    def test_none_passes_through(self):
        assert coerce(None, DataType.INTEGER) is None

    def test_currency_parses_symbols_and_commas(self):
        assert coerce("$1,299.50", DataType.CURRENCY) == pytest.approx(1299.50)

    def test_date(self):
        assert coerce("15/03/2016", DataType.DATE) == datetime.date(2016, 3, 15)

    def test_geo_from_string(self):
        assert coerce("51.5, -0.12", DataType.GEO) == (51.5, -0.12)

    def test_boolean(self):
        assert coerce("yes", DataType.BOOLEAN) is True
        assert coerce("FALSE", DataType.BOOLEAN) is False

    def test_failure_raises(self):
        with pytest.raises(TypeInferenceError):
            coerce("not a number", DataType.INTEGER)
        with pytest.raises(TypeInferenceError):
            coerce("hello", DataType.CURRENCY)

    def test_bool_not_coercible_to_int(self):
        with pytest.raises(TypeInferenceError):
            coerce(True, DataType.INTEGER)


#: For every DataType: a canonical native value, a string literal that
#: coerces to it, and a value that must fail coercion.
ROUND_TRIPS = {
    DataType.STRING: ("hello", "hello", None),
    DataType.INTEGER: (42, "42", "forty-two"),
    DataType.FLOAT: (3.25, "3.25", "three"),
    DataType.BOOLEAN: (True, "yes", "perhaps"),
    DataType.DATE: (datetime.date(2016, 3, 15), "2016-03-15", "someday"),
    DataType.CURRENCY: (19.99, "$19.99", "priceless"),
    DataType.URL: ("https://a.b/c", "https://a.b/c", "not a url"),
    DataType.GEO: ((51.5, -0.12), "51.5, -0.12", "nowhere, really, at all"),
}


class TestCoerceRoundTrips:
    """Every DataType member: native pass-through, string parse, failure."""

    def test_every_member_is_covered(self):
        assert set(ROUND_TRIPS) == set(DataType)

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
    def test_native_value_round_trips(self, dtype):
        native, _, _ = ROUND_TRIPS[dtype]
        assert coerce(native, dtype) == native
        # Coercion is idempotent: coercing the result again is a no-op.
        assert coerce(coerce(native, dtype), dtype) == native

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
    def test_string_literal_parses(self, dtype):
        native, literal, _ = ROUND_TRIPS[dtype]
        assert coerce(literal, dtype) == native

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
    def test_inferred_type_coerces_to_itself(self, dtype):
        _, literal, _ = ROUND_TRIPS[dtype]
        inferred = infer_type(literal)
        assert coerce(literal, inferred) is not None

    @pytest.mark.parametrize(
        "dtype",
        [d for d in DataType if ROUND_TRIPS[d][2] is not None],
        ids=lambda d: d.value,
    )
    def test_failure_path_raises_type_inference_error(self, dtype):
        _, _, bad = ROUND_TRIPS[dtype]
        with pytest.raises(TypeInferenceError):
            coerce(bad, dtype)

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.value)
    def test_none_passes_through_every_type(self, dtype):
        assert coerce(None, dtype) is None

    def test_datetime_narrows_to_date(self):
        stamp = datetime.datetime(2016, 3, 15, 12, 30)
        assert coerce(stamp, DataType.DATE) == datetime.date(2016, 3, 15)

    def test_currency_kilo_suffix(self):
        assert coerce("$1.2k", DataType.CURRENCY) == pytest.approx(1200.0)

    def test_geo_wrong_arity_fails(self):
        with pytest.raises(TypeInferenceError):
            coerce("1, 2, 3", DataType.GEO)


class TestStaticCoercibility:
    """The static mirror of coerce(): sound against the runtime."""

    def test_identity_always(self):
        for dtype in DataType:
            assert static_coercibility(dtype, dtype) is Coercibility.ALWAYS

    def test_everything_coerces_to_string(self):
        for dtype in DataType:
            assert (
                static_coercibility(dtype, DataType.STRING)
                is Coercibility.ALWAYS
            )

    def test_from_string_is_value_dependent(self):
        assert (
            static_coercibility(DataType.STRING, DataType.INTEGER)
            is Coercibility.MAYBE
        )

    def test_numeric_widening_always(self):
        assert (
            static_coercibility(DataType.INTEGER, DataType.FLOAT)
            is Coercibility.ALWAYS
        )
        assert (
            static_coercibility(DataType.FLOAT, DataType.CURRENCY)
            is Coercibility.ALWAYS
        )

    def test_currency_narrowing_maybe(self):
        assert (
            static_coercibility(DataType.CURRENCY, DataType.INTEGER)
            is Coercibility.MAYBE
        )

    def test_disjoint_types_never(self):
        assert (
            static_coercibility(DataType.BOOLEAN, DataType.DATE)
            is Coercibility.NEVER
        )
        assert (
            static_coercibility(DataType.URL, DataType.GEO)
            is Coercibility.NEVER
        )

    def test_always_verdicts_are_sound_against_runtime(self):
        """ALWAYS means every well-typed native value must coerce."""
        for src, (native, _, _) in ROUND_TRIPS.items():
            for dst in DataType:
                if static_coercibility(src, dst) is Coercibility.ALWAYS:
                    assert coerce(native, dst) is not None

    def test_never_verdicts_are_sound_against_runtime(self):
        """NEVER means the canonical native value must fail to coerce."""
        for src, (native, _, _) in ROUND_TRIPS.items():
            for dst in DataType:
                if static_coercibility(src, dst) is Coercibility.NEVER:
                    with pytest.raises(TypeInferenceError):
                        coerce(native, dst)


class TestSchema:
    def test_of_mixed_specs(self):
        schema = Schema.of("name", ("price", DataType.CURRENCY), Attribute("url", DataType.URL))
        assert schema.names == ("name", "price", "url")
        assert schema["price"].dtype is DataType.CURRENCY

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("a", "a")

    def test_empty_attribute_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_from_rows_infers_types(self):
        rows = [
            {"name": "tv", "price": "$100"},
            {"name": "radio", "price": "$20"},
        ]
        schema = Schema.from_rows(rows)
        assert schema["price"].dtype is DataType.CURRENCY
        assert schema["name"].dtype is DataType.STRING

    def test_from_rows_unions_keys(self):
        rows = [{"a": 1}, {"b": 2}]
        assert Schema.from_rows(rows).names == ("a", "b")

    def test_project_and_contains(self):
        schema = Schema.of("a", "b", "c")
        assert "b" in schema
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_getitem_missing_raises(self):
        with pytest.raises(SchemaError):
            Schema.of("a")["zzz"]

    def test_rename(self):
        schema = Schema.of("a", "b").rename({"a": "x"})
        assert schema.names == ("x", "b")

    def test_merge_disjoint(self):
        merged = Schema.of("a").merge(Schema.of("b"))
        assert merged.names == ("a", "b")

    def test_merge_conflicting_types_raises(self):
        left = Schema.of(("p", DataType.CURRENCY))
        right = Schema.of(("p", DataType.STRING))
        with pytest.raises(SchemaError):
            left.merge(right)

    def test_merge_shared_compatible(self):
        left = Schema.of(("p", DataType.CURRENCY), "a")
        right = Schema.of(("p", DataType.CURRENCY), "b")
        assert left.merge(right).names == ("p", "a", "b")
