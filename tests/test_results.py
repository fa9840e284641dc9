"""The JSON writer: `results.clean` against json.dumps of the rounded payload.

`oracle.json_reference` rounds every float to 12 significant digits and lays
the payload out with json.dumps(indent=2); the writer must produce the same
bytes in one pass, and refuse NaN and infinities instead of printing them.
"""
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from cpa_sim import cli, results, scenario_io
from cpa_sim.fock import FockError
from test_golden import CASES, GOLDEN_DIR


@given(st.floats())
@example(999999999999.5)
@example(1e12)
@example(1e15)
@example(1e16)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1e-5)
@example(9.999999999995e-5)
@example(-0.0)
@example(1.0)
@settings(max_examples=2000, deadline=None)
def test_float_token_is_the_rounded_repr(value):
    if math.isfinite(value):
        assert results._number(value) == json.dumps(results.round_sig(value))
    else:
        with pytest.raises(FockError):
            results._number(value)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.text(),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_KEYS = st.one_of(st.integers(), st.text())


def _distinct_str_keys(payload: dict) -> bool:
    return len({str(key) for key in payload}) == len(payload)


_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4).filter(_distinct_str_keys),
    ),
    max_leaves=25,
)


@given(_PAYLOADS)
@example({"quote\"d": ["tab\t", "\x00\x1f", "né ✓ 😀"], 3: {}, "e": [[], ()]})
@example({"undefined": None, "z": complex(1e-5, -0.0), "n": [np.float64(1e16), np.int64(-7)]})
@settings(max_examples=200, deadline=None)
def test_writer_matches_json_dumps_of_the_rounded_payload(payload):
    assert results.clean(payload) == oracle.json_reference(payload)


def test_writer_names_the_path_of_a_non_finite_value():
    payload = {"a": [1.0, {"b": [0.5, complex(0.0, math.inf)]}]}
    with pytest.raises(FockError, match=r"non-finite value at a\[1\]\.b\[1\]\[1\]$"):
        results.clean(payload)
    with pytest.raises(FockError, match=r"non-finite value at \$$"):
        results.clean(np.float64("nan"))


@pytest.mark.parametrize("name", CASES)
def test_run_output_is_the_reference_text(name, tmp_path, capsys):
    path = os.path.join(GOLDEN_DIR, name + ".in.json")
    expected = oracle.json_reference(
        scenario_io.run_scenario_file(scenario_io.load_scenario_file(path)).to_dict()
    ) + "\n"
    assert cli.main(["run", path]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "out.json"
    assert cli.main(["run", path, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("ascii")


def test_table1_json_is_the_reference_text(capsys):
    from cpa_sim import table1

    rows = table1.run_table1()
    assert cli.main(["table1", "--json"]) == 0
    assert capsys.readouterr().out == oracle.json_reference(table1.rows_to_dict(rows)) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_result_exits_2_without_output(value, tmp_path, capsys, monkeypatch):
    path = os.path.join(GOLDEN_DIR, "single_photon_canonical.in.json")
    real_run = scenario_io.run_scenario_file

    def run_with_non_finite(spec):
        result = real_run(spec)
        result.extras = {"p_all_absorbed": value}
        return result

    monkeypatch.setattr(scenario_io, "run_scenario_file", run_with_non_finite)
    out = tmp_path / "out.json"
    for argv in (["run", path], ["run", path, "--out", str(out)]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: non-finite value at extras.p_all_absorbed\n"
    assert not out.exists()


def _level_table(entries):
    """A LevelTable of (na, nb, value) entries, as run_asymmetric builds one."""
    levels = np.array([entry[:2] for entry in entries], dtype=np.int64).reshape(-1, 2)
    return results.LevelTable(levels, np.array([entry[2] for entry in entries], dtype=float))


# the edges of results.TABLE_RANGE, and values on either side of them
_EDGES = [1e-99, 9.9999999999995e-100, 9.99999999999995e-05, 0.99999999999949,
          0.9999999999995, 1.0, 5e-324, -0.0, 0.0, 1e12, 3.7e15, -0.25]
_IN_RANGE = st.floats(1e-99, 0.9999999999995, exclude_max=True) | st.floats(
    -0.9999999999995, -1e-99, exclude_min=True)
_TABLE_VALUES = st.sampled_from(_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
_LEVEL_PAIRS = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))


@given(st.lists(st.tuples(_LEVEL_PAIRS, _IN_RANGE | _TABLE_VALUES), max_size=40,
                unique_by=lambda entry: entry[0])
       | st.lists(st.tuples(_LEVEL_PAIRS, _IN_RANGE), max_size=40, unique_by=lambda entry: entry[0]))
@example([])
@example([((0, 0), 1.0)])
@example([((0, 0), 0.9999999999995), ((0, 1), 1e-99)])
@example([((n, 2 * n), v) for n, v in enumerate(_EDGES)])
@settings(max_examples=300, deadline=None)
def test_level_table_is_written_as_its_entries(entries):
    """One format call over the arrays where every value lies in TABLE_RANGE, the
    per-entry path otherwise: either way json.dumps of the rounded entries."""
    table = _level_table([(na, nb, value) for (na, nb), value in entries])
    payload = {"extras": {"standing_joint_distribution": table, "after": [0.5]}}
    assert results.clean(payload) == oracle.json_reference(payload)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_level_table_names_its_non_finite_entry(value):
    table = _level_table([(0, 0, 0.5), (3, 17, value), (12, 1, 0.25)])
    with pytest.raises(
        FockError, match=r"non-finite value at extras\.standing_joint_distribution\.3,17$"
    ):
        results.clean({"extras": {"standing_joint_distribution": table}})


def test_coherent_squeezed_run_tokenizes_no_table_entry(tmp_path, capsys, monkeypatch):
    """A cutoff-123 COHERENT_SQUEEZED run writes its 1,698 table entries in
    one format call: _number tokenizes only the rest, under 300 floats."""
    path = tmp_path / "coherent_squeezed.json"
    path.write_text(json.dumps({"schema": 1, "engine": "FOCK", "scenario": {
        "kind": "COHERENT_SQUEEZED", "alpha": 2.0, "xi": 1.0}}))
    calls = []
    number = results._number
    monkeypatch.setattr(results, "_number", lambda value: calls.append(value) or number(value))
    assert cli.main(["run", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["numerics"]["cutoff"] == 123
    assert len(out["extras"]["standing_joint_distribution"]) == 1698
    assert len(calls) < 300, len(calls)
