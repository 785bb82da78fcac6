"""The report emitter against a reference copy of the recursive emitter it replaced."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jensenlab import harness


def reference_stable_json(obj) -> str:
    """Reference: the recursive emitter that ``harness.stable_json`` replaced, as it was."""

    def emit(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return harness.format_float(float(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(emit(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: kv[0])
            return "{" + ",".join(f"{json.dumps(k)}:{emit(v)}" for k, v in items) + "}"
        if isinstance(o, np.ndarray):
            return emit(o.tolist())
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj) + "\n"


def reference_csv_cell(v) -> str:
    """Reference: the CSV cell the replaced emitter wrote."""
    if v is None:
        return ""
    return v if isinstance(v, str) else reference_stable_json(v)[:-1]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               sys.float_info.max, -sys.float_info.max, 1e308, 1e-300, 0.1, 1.0, 2.0 ** 53 + 2]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(value=VALUES)
def test_stable_json_matches_the_reference_emitter(value):
    assert harness.stable_json(value) == reference_stable_json(value)


@settings(max_examples=100, deadline=None)
@given(row=st.dictionaries(st.sampled_from("abcd"), VALUES, min_size=1))
def test_csv_cells_match_the_reference_emitter(row):
    header = sorted(row)
    assert harness.csv_table(header, [row]) == (
        ",".join(header) + "\n" + ",".join(reference_csv_cell(row[k]) for k in header) + "\n")


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), np.array([1.0, 2.0])],
                         ids=["int64", "bool_", "ndarray"])
def test_numpy_values_are_refused(value):
    # reports hold JSON-native values; a numpy value is a builder's mistake, not coerced
    with pytest.raises(TypeError):
        harness.stable_json(value)
    with pytest.raises(TypeError):
        harness.stable_json({"points": [1.0, value]})
    with pytest.raises(TypeError):
        harness.csv_table(["v"], [{"v": value}])
