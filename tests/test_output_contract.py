"""scripts/output_contract.py: records of the same code compare equal, and a
changed or missing line is reported."""
import importlib.util
import json
import os
import subprocess
import sys

from test_golden import GOLDEN_DIR

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts",
                      "output_contract.py")
_spec = importlib.util.spec_from_file_location("output_contract", SCRIPT)
contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract)


def _compare(tmp_path, a, b) -> tuple[int, str]:
    paths = []
    for name, lines in (("a.jsonl", a), ("b.jsonl", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    done = subprocess.run([sys.executable, SCRIPT, "--compare", *map(str, paths)],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


def test_two_records_compare_equal_and_a_doctored_line_is_reported(tmp_path):
    argvs = contract.commands([GOLDEN_DIR], grid=3)
    assert len(argvs) == 18 + 2 + 4  # golden runs, table1 twice, four presets
    assert all(not argv[-1].endswith(".out.json") for argv in argvs)
    first, second = contract.record(argvs), contract.record(argvs)
    assert all(line["exit"] == 0 and line["stderr"] == "" for line in first)
    assert {len(line) for line in first} == {4, 5}  # presets add the CSV hash
    assert _compare(tmp_path, first, second) == (0, "")

    doctored = [dict(line) for line in second]
    doctored[3]["stdout_sha256"] = "0" * 64
    assert _compare(tmp_path, first, doctored) == (1, " ".join(argvs[3]) + "\n")
    assert contract.differing(first, second[:-1]) == [argvs[-1]]


def test_workload_commands_stand_in_for_the_generated_inputs():
    """--workload adds the benchmark's run files under a stand-in for the
    directory they are written to; listing them records nothing, and record
    writes the inputs again and runs them."""
    argvs = contract.commands([], grid=101, workloads=[("scenario_mix", 3)])
    runs, fixed = argvs[:300], argvs[300:]
    assert len(fixed) == 6 and fixed[:2] == [["table1"], ["table1", "--json"]]
    assert all(argv[0] == "run" and argv[1].startswith("<scenario_mix-seed3>/") for argv in runs)
    assert len({argv[1] for argv in runs}) == 300
    assert argvs == contract.commands([], grid=101, workloads=[("scenario_mix", 3)])
    single = next(argv for argv in runs if argv[1].endswith("_SINGLE_PHOTON.json"))
    (line,) = contract.record([single])
    assert line["argv"] == single and line["exit"] == 0 and line["stderr"] == ""


def test_compare_names_each_moved_value(tmp_path):
    """Under each differing command, --compare prints what moved: exit and
    stderr, and every value of a run's JSON by its path with the old and the
    new token; a key on one side only shows as <absent>."""
    def line(name, payload, code=0, stderr=""):
        stdout = json.dumps(payload, indent=2) if payload is not None else ""
        return {"argv": ["run", name], "exit": code, "stdout_sha256": contract._sha256(stdout),
                "stderr": stderr, "stdout": stdout}

    before = {"absorbed_distribution": {"0": 0.5, "1": 0.5},
              "conditional_outputs": [{"purity": 1.0}], "extras": {}}
    after = {"absorbed_distribution": {"0": 0.5, "1": 0.500000000001},
             "conditional_outputs": [{"purity": 0.9}], "extras": {"x": 1}}
    old = [line("a.json", before), line("b.json", before), line("c.json", before)]
    new = [line("a.json", after), line("b.json", None, 2, "boom\n"), line("c.json", before)]
    assert _compare(tmp_path, old, new) == (1, "\n".join([
        "run a.json",
        "  absorbed_distribution.1: 0.5 -> 0.500000000001",
        "  conditional_outputs[0].purity: 1.0 -> 0.9",
        "  extras.x: <absent> -> 1",
        "run b.json",
        "  exit: 0 -> 2",
        '  stderr: "" -> "boom\\n"',
        "  stdout: <text> -> <text>",
    ]) + "\n")


def test_presets_are_recorded_at_each_grid_given():
    """--grid takes several values: the four presets run at each, and each
    preset command's argv names its grid."""
    argvs = contract.commands([], grid=[9, 11, 101])
    presets = [argv for argv in argvs if argv[0] == "sweep"]
    assert [(argv[2], argv[4]) for argv in presets] == [
        (p, g) for g in ("9", "11", "101") for p in ("fig6", "fig8", "fig9a", "fig9b")]
    assert contract.commands([], grid=101) == contract.commands([], grid=[101])
