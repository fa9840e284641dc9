"""Output contract: `cpa run` JSON of hand-written scenario files.

Each `golden/<name>.in.json` has its expected output in
`golden/<name>.out.json`.  Numbers must agree within GOLDEN_ATOL; keys, their
order, strings, booleans and the type of every value must agree exactly.
Regenerate an expected file only for an intended change of output:

    PYTHONPATH=src python -c "from cpa_sim.cli import entry; entry()" \\
        run tests/golden/<name>.in.json > tests/golden/<name>.out.json
"""
import json
import os

import pytest

from cpa_sim import cli, scenario_io

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_ATOL = 1e-11
CASES = sorted(
    name[: -len(".in.json")] for name in os.listdir(GOLDEN_DIR) if name.endswith(".in.json")
)


def assert_matches(got, expected, path="$"):
    assert type(got) is type(expected), f"{path}: {got!r} vs {expected!r}"
    if isinstance(expected, dict):
        assert list(got) == list(expected), f"{path}: keys {list(got)} vs {list(expected)}"
        for key in expected:
            assert_matches(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), f"{path}: length {len(got)} vs {len(expected)}"
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_matches(g, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert abs(got - expected) <= GOLDEN_ATOL, f"{path}: {got!r} vs {expected!r}"
    else:
        assert got == expected, f"{path}: {got!r} vs {expected!r}"


def test_golden_cases_cover_every_kind_and_absorber():
    files = []
    for name in CASES:
        with open(os.path.join(GOLDEN_DIR, name + ".in.json"), encoding="utf-8") as handle:
            files.append(json.load(handle))
    kinds = {(f["engine"], f["scenario"]["kind"]) for f in files}
    assert {kind for engine, kind in kinds if engine == "FOCK"} == scenario_io.FOCK_KINDS
    assert {kind for engine, kind in kinds if engine == "GAUSSIAN"} == (
        scenario_io.GAUSSIAN_KINDS
    )
    absorbers = [f.get("absorber", {}) for f in files]
    assert any(a.get("swap_roles") for a in absorbers)
    assert any("tau_c" in a for a in absorbers)
    assert any(not a.get("swap_roles") and "tau_c" not in a for a in absorbers)


@pytest.mark.parametrize("name", CASES)
def test_run_output_matches_golden(name, capsys):
    code = cli.main(["run", os.path.join(GOLDEN_DIR, name + ".in.json")])
    out = capsys.readouterr().out
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, name + ".out.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    assert_matches(json.loads(out), expected)
