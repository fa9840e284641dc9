"""scripts/output_contract.py: records of the same code compare equal, and a
changed or missing line is reported; the checked-in record of the corpus
holds."""
import importlib.util
import json
import os
import subprocess
import sys

from test_golden import GOLDEN_DIR

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "scripts", "output_contract.py")
RECORD = os.path.join(ROOT, "tests", "output_contract.jsonl")
CORPUS = ["--grid", "9", "--workload", "fock_large", "--workload", "scenario_mix", "--seed", "1",
          "tests/golden", "tests/hostile"]
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
    # golden runs, table1 twice, four presets, two custom sweeps, four usage errors
    assert len(argvs) == 18 + 2 + 4 + 2 + 4
    assert not any(arg.endswith(".out.json") for argv in argvs for arg in argv)
    first, second = contract.record(argvs), contract.record(argvs)
    assert all(line["exit"] == 0 and line["stderr"] == "" for line in first[:-4])
    assert all(line["exit"] == 1 and line["stderr"].startswith("usage: cpa") for line in first[-4:])
    assert [line["argv"] for line in first[-4:]] == [list(argv) for argv in contract.USAGE_ERRORS]
    assert {len(line) for line in first} == {4, 5}  # runs add stdout, sweeps the CSV
    assert _compare(tmp_path, first, second) == (0, "")

    doctored = [dict(line) for line in second]
    doctored[3]["stdout_sha256"] = "0" * 64
    assert _compare(tmp_path, first, doctored) == (1, " ".join(argvs[3]) + "\n")
    assert contract.differing(first, second[:-1]) == [argvs[-1]]
    # a hashed line keeps each stream's sha256 alone and compares with a full one by it
    hashed = [contract._hashed(line) for line in second]
    assert {len(line) for line in hashed} == {4, 5} and contract.differing(first, hashed) == []
    hashed[3]["stdout_sha256"] = "0" * 64
    assert contract.report(first, hashed) == [
        " ".join(argvs[3]), f'  stdout_sha256: "{first[3]["stdout_sha256"]}" -> "{"0" * 64}"']


def test_workload_commands_stand_in_for_the_generated_inputs():
    """--workload adds the benchmark's run files under a stand-in for the
    directory they are written to; listing them records nothing, and record
    writes the inputs again and runs them."""
    argvs = contract.commands([], grid=101, workloads=[("scenario_mix", 3)])
    runs, fixed = argvs[:300], argvs[300:]
    assert len(fixed) == 12 and fixed[:2] == [["table1"], ["table1", "--json"]]
    assert all(argv[0] == "run" and argv[1].startswith("<scenario_mix-seed3>/") for argv in runs)
    assert len({argv[1] for argv in runs}) == 300
    assert argvs == contract.commands([], grid=101, workloads=[("scenario_mix", 3)])
    single = next(argv for argv in runs if argv[1].endswith("_SINGLE_PHOTON.json"))
    (line,) = contract.record([single])
    assert line["argv"] == single and line["exit"] == 0 and line["stderr"] == ""


def test_compare_names_each_moved_value(tmp_path):
    """--compare first counts the commands of each move of exit code.  Under
    each differing command it then prints what moved: exit and
    stderr, every value of a run's JSON by its path with the old and the new
    token (a key on one side only shows as <absent>), and every cell of a
    preset's CSV by its data row and column (a row on one side only, or with
    another number of cells, as the whole row).  A line of an older record,
    which holds a CSV's sha256 alone, compares with the CSV text by that sha256.
    It ends with one line per moved JSON path over all commands: the count of
    moved values and the largest absolute move among the numeric ones."""
    def line(name, payload, code=0, stderr=""):
        stdout = json.dumps(payload, indent=2) if payload is not None else ""
        return {"argv": ["run", name], "exit": code, "stdout_sha256": contract._sha256(stdout),
                "stderr": stderr, "stdout": stdout}

    before = {"absorbed_distribution": {"0": 0.5, "1": 0.5},
              "conditional_outputs": [{"purity": 1.0}], "extras": {}}
    after = {"absorbed_distribution": {"0": 0.5, "1": 0.500000000001},
             "conditional_outputs": [{"purity": 0.9}], "extras": {"x": 1}}
    def preset(text, name="fig9a", hashed=False):
        csv = {"csv_sha256": contract._sha256(text)} if hashed else {"csv": text}
        return {"argv": ["sweep", "--preset", name], "exit": 0, "stdout_sha256": "",
                **csv, "stderr": ""}

    csv_before = "theta_k,alpha_mag,coherence_absorption\n0,0,undefined\n0,1,1\n3.14,1,0\n"
    csv_after = csv_before.replace("3.14,1,0", "3.14,1,1.2e-16") + "0,2\n"
    further = {**before, "absorbed_distribution": {"0": 0.5, "1": 0.4999999}}
    old = [line("a.json", before), line("b.json", before), line("c.json", before),
           preset(csv_before), preset(csv_before, "fig8", hashed=True),
           preset(csv_before, "fig9b", hashed=True), line("d.json", before)]
    new = [line("a.json", after), line("b.json", None, 2, "boom\n"), line("c.json", before),
           preset(csv_after), preset(csv_before, "fig8"), preset(csv_after, "fig9b"),
           line("d.json", further)]
    assert _compare(tmp_path, old, new) == (1, "\n".join([
        "exit 0 -> 2: 1 command(s)",
        "run a.json",
        "  absorbed_distribution.1: 0.5 -> 0.500000000001",
        "  conditional_outputs[0].purity: 1.0 -> 0.9",
        "  extras.x: <absent> -> 1",
        "run b.json",
        "  exit: 0 -> 2",
        '  stderr: "" -> "boom\\n"',
        "  stdout: <text> -> <text>",
        "sweep --preset fig9a",
        "  row 3, coherence_absorption: 0 -> 1.2e-16",
        "  row 4: <absent> -> 0,2",
        "sweep --preset fig9b",
        f'  csv_sha256: "{contract._sha256(csv_before)}" -> "{contract._sha256(csv_after)}"',
        "run d.json",
        "  absorbed_distribution.1: 0.5 -> 0.4999999",
        "absorbed_distribution.1: 2 value(s), largest move 1e-07",
        "conditional_outputs[0].purity: 1 value(s), largest move 0.1",
        "extras.x: 1 value(s), largest move -",
    ]) + "\n")


def test_presets_are_recorded_at_each_grid_given():
    """--grid takes several values: the four presets run at each, and each
    preset command's argv names its grid."""
    argvs = contract.commands([], grid=[9, 11, 101])
    presets = [argv for argv in argvs if argv[1:2] == ["--preset"] and contract.CSV in argv]
    assert [(argv[2], argv[4]) for argv in presets] == [
        (p, g) for g in ("9", "11", "101") for p in ("fig6", "fig8", "fig9a", "fig9b")]
    assert contract.commands([], grid=101) == contract.commands([], grid=[101])


def test_outputs_match_the_checked_in_record(tmp_path):
    """Every command of the corpus (the golden and hostile files, both run
    workloads' files at seed 1, table1, the presets at grid 9, the custom sweeps
    of tests/sweeps and the usage errors) keeps its exit
    code, stderr and the sha256 of its stdout and CSV in tests/output_contract.jsonl.
    The corpus is recorded in a fresh interpreter with one BLAS thread, as the
    benchmark runs, so that no thread count moves a last bit.  A change that
    moves outputs on purpose records it again (the command is in
    scripts/output_contract.py), and the record's diff names each moved command."""
    now = str(tmp_path / "now.jsonl")
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
    subprocess.run([sys.executable, SCRIPT, "--hashed", "--out", now, *CORPUS],
                   cwd=ROOT, env=env, check=True)
    expected, got = contract._read(RECORD), contract._read(now)
    assert len(expected) == 436
    moved = contract.report(expected, got)
    assert not moved, "commands moved against tests/output_contract.jsonl:\n" + "\n".join(moved)
