"""Command-line interface: exit codes, determinism, presets, scenario files."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpa_sim import cli, dv, fock, gaussian, scenario_io, sweeps
from test_golden import assert_matches

import oracle


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SINGLE_PHOTON_FILE = {
    "schema": 1,
    "engine": "FOCK",
    "scenario": {"kind": "SINGLE_PHOTON", "delta_theta": "0.5pi"},
    "absorber": {"r": -0.5},
    "numerics": {"cutoff": 10},
}


def test_table1_passes(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert "13/13 rows passed" in out


def test_table1_regression_mismatch_exits_3(capsys, monkeypatch):
    from cpa_sim import table1

    def broken_rows():
        row = table1.RowResult("synthetic drifted row")
        row.approx("drifted value", 1.0, 0.9, 1e-12)
        return [row]

    monkeypatch.setattr(table1, "run_table1", broken_rows)
    code, out, _ = run_cli(capsys, "table1")
    assert code == 3
    assert "FAIL" in out


def test_table1_json_mode(capsys):
    code, out, _ = run_cli(capsys, "table1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["rows"]) == 13


def test_run_single_photon_file(tmp_path, capsys):
    path = write_json(tmp_path, "sp.json", SINGLE_PHOTON_FILE)
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["absorbed_distribution"]["1"] == pytest.approx(
        math.cos(math.pi / 4) ** 2, abs=1e-12
    )


def test_run_output_is_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, "sp.json", SINGLE_PHOTON_FILE)
    _, first, _ = run_cli(capsys, "run", path)
    _, second, _ = run_cli(capsys, "run", path)
    assert first == second


def test_run_noon_four(tmp_path, capsys):
    payload = {
        "schema": 1,
        "engine": "FOCK",
        "scenario": {"kind": "NOON", "n": 4, "delta_theta": 0},
    }
    path = write_json(tmp_path, "noon.json", payload)
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    dist = json.loads(out)["absorbed_distribution"]
    assert dist["4"] == pytest.approx(0.125, abs=1e-12)
    assert dist["2"] == pytest.approx(0.75, abs=1e-12)
    assert dist["0"] == pytest.approx(0.125, abs=1e-12)


def test_run_gaussian_epr(tmp_path, capsys):
    payload = {
        "schema": 1,
        "engine": "GAUSSIAN",
        "scenario": {"kind": "EPR", "alpha_g": 0.0, "alpha_h": 0.0, "xi": 1.0},
    }
    path = write_json(tmp_path, "epr.json", payload)
    code, out, _ = run_cli(capsys, "run", path)
    assert code == 0
    result = json.loads(out)
    assert result["separability"]["duan_travelling"] == pytest.approx(
        2 * math.exp(-2.0), abs=1e-10
    )
    assert result["coherence_absorption"] == "undefined"


@pytest.mark.parametrize(
    "scenario, field",
    [
        # exited 0 and printed NaN tokens, which are not JSON
        ({"kind": "EPR", "alpha_g": math.nan, "alpha_h": 0.0, "xi": 0.5}, "scenario.alpha_g"),
        # failed with "covariance matrix not symmetric"
        ({"kind": "EPR", "alpha_g": 0.0, "alpha_h": 0.0, "xi": math.inf}, "scenario.xi"),
    ],
)
def test_run_rejects_non_finite_numbers(tmp_path, capsys, scenario, field):
    payload = {"schema": 1, "engine": "GAUSSIAN", "scenario": scenario}
    path = write_json(tmp_path, "hostile.json", payload)
    code, out, err = run_cli(capsys, "run", path)
    assert code == 1
    assert out == ""
    assert f"{field}: expected a finite number" in err


@pytest.mark.parametrize("engine", ["FOCK", "GAUSSIAN"])
def test_run_rejects_negative_epr_squeezing(tmp_path, capsys, engine):
    # FOCK ran it; GAUSSIAN exited 1 without naming the field
    scenario = {"kind": "EPR", "alpha_g": 0.0, "alpha_h": 0.0, "xi": -0.3}
    payload = {"schema": 1, "engine": engine, "scenario": scenario}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "hostile.json", payload))
    assert code == 1
    assert out == ""
    assert "scenario.xi: must be >= 0" in err


@pytest.mark.parametrize(
    "kind", sorted(kind.value for kind in dv.DvKind if kind is not dv.DvKind.NOON))
@pytest.mark.parametrize("extra", [{}, {"delta_theta": "0.5pi"}])
def test_run_refuses_a_photon_number_outside_noon(tmp_path, capsys, kind, extra):
    # exited 0: ran one photon per rail and echoed "n": 5
    scenario = {"kind": kind, "n": 5, **extra}
    payload = {"schema": 1, "engine": "FOCK", "scenario": scenario}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "hostile.json", payload))
    assert (code, out, err) == (1, "", f"error: scenario: unknown keys ['n'] for kind {kind}\n")


@pytest.mark.parametrize(
    "scenario",
    [
        # each ended in an OverflowError traceback
        {"kind": "SQUEEZED_PAIR", "k": {"xi": 800}, "minus_k": {}},
        {"kind": "EPR", "alpha_g": 0.0, "alpha_h": 0.0, "xi": 400},
        {"kind": "EPR", "alpha_g": 1e200, "alpha_h": 0.0, "xi": 0.5},
        {"kind": "SQUEEZED_PAIR", "k": {"alpha": 1e160}, "minus_k": {}},
    ],
)
def test_run_reports_gaussian_overflow_as_numerical_failure(tmp_path, capsys, scenario):
    payload = {"schema": 1, "engine": "GAUSSIAN", "scenario": scenario}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "hostile.json", payload))
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure:")


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"kind": "SQUEEZED_PAIR", "k": {}, "minus_k": {"xi": 400}},
         "scenario.minus_k.xi: e^(2 xi) overflows a double"),
        ({"kind": "SQUEEZED_PAIR", "k": {"xi": 800}, "minus_k": {"xi": 400}},
         "scenario.k.xi: e^(2 xi) overflows a double"),
        ({"kind": "EPR", "alpha_g": 0.0, "alpha_h": 0.0, "xi": 800},
         "scenario.xi: e^(2 xi) overflows a double"),
    ],
)
def test_run_names_the_squeezing_that_overflows(tmp_path, capsys, scenario, message):
    # each exited 2 with "math range error", naming neither field nor quantity
    payload = {"schema": 1, "engine": "GAUSSIAN", "scenario": scenario}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "hostile.json", payload))
    assert (code, out, err) == (2, "", f"numerical failure: {message}\n")


def test_run_epr_past_double_precision_squeezing_exits_nonzero(tmp_path, capsys, monkeypatch):
    """Built by the route of two balanced mixes, EPR light at xi = 20 comes back
    to the standing basis with e^40-sized covariances cancelled into a negative
    mode determinant: the mix's check must run, however the maps skip theirs,
    and report the rounding as a numerical failure.  (`cpa run` builds the
    standing state directly, and exits 0.)"""
    monkeypatch.setattr(gaussian, "_epr_standing", lambda *args: oracle.two_mix_epr(*args)[1])
    payload = {"schema": 1, "engine": "GAUSSIAN",
               "scenario": {"kind": "EPR", "alpha_g": 0.0, "alpha_h": 0.0, "xi": 20}}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "epr.json", payload))
    assert code == 2
    assert out == ""
    assert "violates the uncertainty relation is lost to rounding" in err


# tests/hostile: GAUSSIAN files at xi in {0.5, 20, 355, 400} and |alpha| in {0,
# 1e154, 1e300} (the minus_k / alpha_h partner at phase 2), each kind, the
# absorber cycling canonical, tau_c 0.3 and swap_roles.  Each file's exit code
# and first stderr line; stdout is empty unless the code is 0.  One more
# SQUEEZED_PAIR at xi 354.8 with minus_k at phi 1 overflows only in the absorber,
# and one more EPR with alpha_g = 1e150 i at xi 20 has a finite closed form.
HOSTILE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hostile")
INTENSITY = "numerical failure: total intensity overflows a double"
EXP = "numerical failure: {}: e^(2 xi) overflows a double"  # exited 2 as "math range error"
HOSTILE = {
    "epr_xi0.5_alpha0_canonical.json": (0, ""),
    "epr_xi0.5_alpha1e154_tau.json": (2, INTENSITY),
    "epr_xi0.5_alpha1e300_swap.json": (2, INTENSITY),
    # both exited 2 as "... lost to rounding (block determinant -218.509361691524 ...)"
    # where the standing basis undid the EPR mix, cancelling e^40-sized entries
    "epr_xi20_alpha0_tau.json": (0, ""),
    "epr_xi20_alpha1e154_swap.json": (2, INTENSITY),
    "epr_xi20_alpha1e300_canonical.json": (2, INTENSITY),  # NaN means; leaked a warning
    # alpha_g [0, 1e150]: exited 2 as "non-finite value at
    # extras.closed_form_intensity_absorption", the closed form's |alpha|^2 cosh 2xi
    # and |alpha|^2 cos 2theta sinh 2xi overflowing to inf - inf
    "epr_xi20_alpha_g_imag1e150_canonical.json": (0, ""),
    "epr_xi355_alpha0_swap.json": (2, EXP.format("scenario.xi")),
    "epr_xi355_alpha1e154_canonical.json": (2, EXP.format("scenario.xi")),
    "epr_xi355_alpha1e300_tau.json": (2, EXP.format("scenario.xi")),
    "epr_xi400_alpha0_canonical.json": (2, EXP.format("scenario.xi")),
    "epr_xi400_alpha1e154_tau.json": (2, EXP.format("scenario.xi")),
    "epr_xi400_alpha1e300_swap.json": (2, EXP.format("scenario.xi")),
    "squeezed_pair_xi0.5_alpha0_canonical.json": (0, ""),
    # exited 0 with both coefficients 0.5 over an overflowed total intensity
    "squeezed_pair_xi0.5_alpha1e154_tau.json":
        (2, "numerical failure: non-finite value at mean_intensity_absorption"),
    "squeezed_pair_xi0.5_alpha1e300_swap.json": (2, INTENSITY),
    "squeezed_pair_xi20_alpha0_tau.json": (0, ""),
    "squeezed_pair_xi20_alpha1e154_swap.json": (2, INTENSITY),
    "squeezed_pair_xi20_alpha1e300_canonical.json": (2, INTENSITY),
    # exited 1 as "error: covariance matrix not symmetric": the absorber's mix
    # overflows the standing-basis covariances to inf and NaN
    "squeezed_pair_xi354.8_phi1_canonical.json":
        (2, "numerical failure: covariance overflows a double"),
    "squeezed_pair_xi355_alpha0_swap.json": (2, EXP.format("scenario.k.xi")),
    "squeezed_pair_xi355_alpha1e154_canonical.json": (2, EXP.format("scenario.k.xi")),
    "squeezed_pair_xi355_alpha1e300_tau.json": (2, EXP.format("scenario.k.xi")),
    "squeezed_pair_xi400_alpha0_canonical.json": (2, EXP.format("scenario.k.xi")),
    "squeezed_pair_xi400_alpha1e154_tau.json": (2, EXP.format("scenario.k.xi")),
    "squeezed_pair_xi400_alpha1e300_swap.json": (2, EXP.format("scenario.k.xi")),
}


def test_hostile_corpus_is_pinned_file_by_file():
    assert sorted(os.listdir(HOSTILE_DIR)) == sorted(HOSTILE)


@pytest.mark.filterwarnings("error")  # a numpy warning would print to stderr
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_gaussian_file_exit_code_and_message(capsys, name):
    code, out, err = run_cli(capsys, "run", os.path.join(HOSTILE_DIR, name))
    assert (code, err.partition("\n")[0]) == HOSTILE[name]
    assert (out == "") == (code != 0)


def test_run_coherent_cat_defaults_cat_alpha_to_alpha(tmp_path, capsys):
    # exited 1 with "bad complex amplitude": the default was the parsed alpha
    alpha = {"mag": 0.7, "phase": "0.25pi"}
    scenario = {"kind": "COHERENT_CAT", "alpha": alpha}
    payload = {"schema": 1, "engine": "FOCK", "scenario": scenario}
    code, default, err = run_cli(capsys, "run", write_json(tmp_path, "a.json", payload))
    assert code == 0, err
    payload["scenario"] = dict(scenario, cat_alpha=alpha)
    code, explicit, _ = run_cli(capsys, "run", write_json(tmp_path, "b.json", payload))
    assert code == 0
    assert default == explicit


@pytest.mark.parametrize(
    "alpha, xi, absorber, cutoff",
    [([0.8, 0.3], 0.4, {"tau_c": 0.4, "swap_roles": True}, 50),
     (1.1, -0.25, {}, 45),
     ({"mag": 0.6, "phase": "0.75pi"}, 0.0, {"r": -0.1}, 30)],
)
def test_coherent_squeezed_prints_what_its_bridged_squeezed_pair_prints(
    tmp_path, capsys, alpha, xi, absorber, cutoff
):
    """COHERENT_SQUEEZED {alpha, xi} is the SQUEEZED_PAIR {k: {alpha}, minus_k:
    {xi}}: at the same explicit cutoff and absorber both print the same absorbed
    distribution, coefficients and separability; only the echoes and the extras
    differ."""
    outputs = []
    for scenario in ({"kind": "COHERENT_SQUEEZED", "alpha": alpha, "xi": xi},
                     {"kind": "SQUEEZED_PAIR", "k": {"alpha": alpha, "xi": 0.0},
                      "minus_k": {"alpha": 0.0, "xi": xi}}):
        payload = {"schema": 1, "engine": "FOCK", "scenario": scenario,
                   "absorber": absorber, "numerics": {"cutoff": cutoff}}
        code, out, err = run_cli(capsys, "run", write_json(tmp_path, "in.json", payload))
        assert code == 0, err
        outputs.append(json.loads(out))
    keys = ("absorbed_distribution", "mean_intensity_absorption", "coherence_absorption",
            "separability")
    coherent_squeezed, squeezed_pair = ({k: out[k] for k in keys} for out in outputs)
    assert coherent_squeezed == squeezed_pair
    assert outputs[0]["numerics"]["cutoff"] == outputs[1]["numerics"]["cutoff"] == cutoff


def test_run_malformed_field_reports_path(tmp_path, capsys):
    for n in ("four", 0, -3):  # n < 1 exited 1 as "error: NOON needs n >= 1"
        payload = {"schema": 1, "engine": "FOCK", "scenario": {"kind": "NOON", "n": n}}
        path = write_json(tmp_path, "bad.json", payload)
        code, _, err = run_cli(capsys, "run", path)
        assert code == 1
        assert "scenario.n" in err


def test_run_reports_only_counts_above_the_conditioning_floor(tmp_path, capsys):
    """A reporting tolerance below fock.CONDITIONING_FLOOR reports every count
    above the floor; it exited 2 conditioning on count 11 (probability 4e-14).
    A negative tolerance is refused by its field."""
    payload = {"schema": 1, "engine": "FOCK", "scenario": {"kind": "NOON", "n": 12},
               "absorber": {"tau_c": 0.95}, "numerics": {"tolerance": 0}}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "tol.json", payload))
    assert code == 0, err
    result = json.loads(out)
    above = [int(m) for m, p in result["absorbed_distribution"].items()
             if p > fock.CONDITIONING_FLOOR]
    assert [o["absorbed"] for o in result["conditional_outputs"]] == above == list(range(11))
    payload["numerics"]["tolerance"] = -1
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "tol.json", payload))
    assert (code, out) == (1, "")
    assert err.startswith("error: numerics.tolerance: must be >= 0")


def test_run_dv_default_cutoff_holds_the_photon_number(tmp_path, capsys):
    """Without numerics.cutoff a DV run echoes max(DEFAULT_CUTOFF, photons):
    NOON n = 31 exited 2 with "cutoff 30 below photon content 31"."""
    for n, cutoff in ((3, fock.DEFAULT_CUTOFF), (31, 31)):
        payload = {"schema": 1, "engine": "FOCK", "scenario": {"kind": "NOON", "n": n}}
        code, out, err = run_cli(capsys, "run", write_json(tmp_path, "noon.json", payload))
        assert code == 0, err
        result = json.loads(out)
        assert result["numerics"] == {"cutoff": cutoff, "working_cutoff": n}
        assert result["mean_intensity_absorption"] == pytest.approx(0.5, abs=1e-12)


def test_run_rejects_wrong_engine_kind(tmp_path, capsys):
    payload = {"schema": 1, "engine": "GAUSSIAN", "scenario": {"kind": "NOON", "n": 3}}
    path = write_json(tmp_path, "bad.json", payload)
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "scenario.kind" in err


def test_run_rejects_sweep_files(tmp_path, capsys):
    payload = dict(SINGLE_PHOTON_FILE)
    payload["sweep"] = {
        "parameter": "scenario.delta_theta",
        "start": 0,
        "stop": "2pi",
        "points": 4,
    }
    path = write_json(tmp_path, "sweep.json", payload)
    code, _, err = run_cli(capsys, "run", path)
    assert code == 1
    assert "sweep" in err


def test_run_cutoff_failure_exits_2(tmp_path, capsys):
    """An explicit cutoff below the one a kind requires is refused by name; at
    the required one a cat still loses norm to the truncation."""
    cases = [
        ({"kind": "CAT_CAT", "alpha": 2.0}, 30, "cutoff 30 below required 31"),
        ({"kind": "CAT_CAT", "alpha": 2.0}, 31, "norm lost to cutoff"),
        ({"kind": "COHERENT_SQUEEZED", "alpha": 1.0, "xi": 0.5}, 48, "cutoff 48 below required 49"),
        ({"kind": "COHERENT_CAT", "alpha": 1.0, "cat_alpha": 1.0}, 21,
         "cutoff 21 below required 22"),
    ]
    for scenario, cutoff, message in cases:
        payload = {"schema": 1, "engine": "FOCK", "scenario": scenario,
                   "numerics": {"cutoff": cutoff}}
        code, out, err = run_cli(capsys, "run", write_json(tmp_path, "cutoff.json", payload))
        assert (code, out) == (2, "")
        assert err.startswith(f"numerical failure: {message}")


def test_sweep_fig6_values(tmp_path, capsys):
    out_path = str(tmp_path / "fig6.csv")
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig6", "--grid", "5", "--out", out_path)
    assert code == 0
    rows = [line.split(",") for line in open(out_path).read().strip().splitlines()]
    assert rows[0] == ["phi_k", "phi_minus_k", "standing_inseparability"]

    def value_at(phi_k, phi_mk):
        for r in rows[1:]:
            if abs(float(r[0]) - phi_k) < 1e-9 and abs(float(r[1]) - phi_mk) < 1e-9:
                return float(r[2])
        raise AssertionError(f"grid point ({phi_k}, {phi_mk}) missing")

    assert value_at(math.pi, 0.0) == pytest.approx(2 * math.exp(-2.0), abs=1e-9)
    assert value_at(0.0, 0.0) == pytest.approx(math.exp(2.0) + math.exp(-2.0), abs=1e-9)


def test_sweep_fig8_small_squeezing_is_classical(tmp_path, capsys):
    out_path = str(tmp_path / "fig8.csv")
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig8", "--grid", "9", "--out", out_path)
    assert code == 0
    rows = [line.split(",") for line in open(out_path).read().strip().splitlines()[1:]]
    for panel, theta, mag, xi, value in rows:
        assert value != "undefined"
        if panel == "a" and float(mag) > 0.5:
            classical = (1.0 + math.cos(float(theta))) / 2.0
            assert abs(float(value) - classical) < 0.02


def test_sweep_fig9a_interference_law(tmp_path, capsys):
    out_path = str(tmp_path / "fig9a.csv")
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig9a", "--grid", "9", "--out", out_path)
    assert code == 0
    lines = open(out_path).read().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for theta, mag, value in rows:
        if float(mag) == 0.0:
            assert value == "undefined"  # no coherence at zero amplitude
        else:
            expected = (1.0 + math.cos(float(theta))) / 2.0
            assert abs(float(value) - expected) < 1e-10
            if abs(float(theta) - math.pi) < 1e-12:
                assert abs(float(value)) < 1e-12


def test_sweep_fig9b_ratio_pulls_towards_half(tmp_path, capsys):
    out_path = str(tmp_path / "fig9b.csv")
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig9b", "--grid", "7", "--out", out_path)
    assert code == 0
    rows = [line.split(",") for line in open(out_path).read().strip().splitlines()[1:]]
    at_zero = {float(r[1]): float(r[2]) for r in rows if abs(float(r[0])) < 1e-12}
    ratios = sorted(at_zero)
    assert all(at_zero[a] > at_zero[b] for a, b in zip(ratios, ratios[1:]))


def test_sweep_output_is_deterministic(tmp_path, capsys):
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_cli(capsys, "sweep", "--preset", "fig6", "--grid", "7", "--out", first)
    run_cli(capsys, "sweep", "--preset", "fig6", "--grid", "7", "--out", second)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_sweep_custom_single_photon(tmp_path, capsys):
    payload = dict(SINGLE_PHOTON_FILE)
    payload["sweep"] = {
        "parameter": "scenario.delta_theta",
        "start": 0,
        "stop": "2pi",
        "points": 9,
    }
    path = write_json(tmp_path, "sweep.json", payload)
    out_path = str(tmp_path / "sweep.csv")
    code, _, _ = run_cli(capsys, "sweep", "--custom", path, "--out", out_path)
    assert code == 0
    code, printed, _ = run_cli(capsys, "sweep", "--custom", path)  # the same text on stdout
    assert (code, printed) == (0, open(out_path, encoding="utf-8").read())
    lines = open(out_path).read().strip().splitlines()
    assert lines[0].startswith("scenario.delta_theta,")
    for line in lines[1:]:
        cells = line.split(",")
        delta = float(cells[0])  # rounded to 12 significant digits in the CSV
        absorbed = float(cells[3])  # mean absorbed photons
        assert abs(absorbed - math.cos(delta / 2.0) ** 2) < 1e-10


def test_sweep_custom_requires_sweep_block(tmp_path, capsys):
    path = write_json(tmp_path, "plain.json", SINGLE_PHOTON_FILE)
    code, _, err = run_cli(capsys, "sweep", "--custom", path)
    assert code == 1
    assert "sweep" in err


def test_sweep_sizes_past_the_memory_budget_exit_1_before_allocating(tmp_path, capsys, monkeypatch):
    """A preset grid or custom sweep whose points would exceed fock.MEMORY_BUDGET
    is refused by its field before any array exists (the preset is never
    called); the largest allowed size passes the check."""
    def never(grid):
        raise AssertionError("the preset ran")
    monkeypatch.setattr(sweeps, "sweep_fig8", never)
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig8", "--grid", "30000",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1 and err.startswith("error: --grid: 3600000000 points need")
    assert not (tmp_path / "x.csv").exists()
    payload = dict(SINGLE_PHOTON_FILE)
    payload["sweep"] = {"parameter": "scenario.delta_theta", "start": 0, "stop": 1,
                        "points": 10**12}
    code, _, err = run_cli(capsys, "sweep", "--custom", write_json(tmp_path, "s.json", payload))
    assert code == 1 and err.startswith("error: sweep.points: 1000000000000 points need")
    largest = fock.MEMORY_BUDGET // scenario_io.SWEEP_POINT_BYTES
    scenario_io.check_sweep_points(largest, "sweep.points")
    with pytest.raises(scenario_io.ScenarioFileError, match="^sweep.points: "):
        scenario_io.check_sweep_points(largest + 1, "sweep.points")


def test_missing_file_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/file.json")
    assert code == 1


def test_module_entry_point_runs_a_file(tmp_path):
    """`python -m cpa_sim.cli run FILE` prints the run's JSON; a missing file
    exits 1 with a message on stderr."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "cpa_sim.cli", "run"]
    run = subprocess.run(
        command + [os.path.join(golden, "noon_3_canonical.in.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    with open(os.path.join(golden, "noon_3_canonical.out.json"), encoding="utf-8") as handle:
        assert_matches(json.loads(run.stdout), json.load(handle))
    missing = subprocess.run(
        command + [str(tmp_path / "missing.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert missing.returncode == 1
    assert missing.stdout == "" and "missing.json" in missing.stderr


def test_preset_requires_out(capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig6")
    assert code == 1
    assert "--out" in err


def test_bad_arguments_exit_1(capsys):
    code, _, err = run_cli(capsys, "sweep")  # neither --preset nor --custom
    assert code == 1
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_angle_literals():
    assert scenario_io.parse_angle("pi", "x") == pytest.approx(math.pi)
    assert scenario_io.parse_angle("-0.5pi", "x") == pytest.approx(-math.pi / 2)
    assert scenario_io.parse_angle("2pi", "x") == pytest.approx(2 * math.pi)
    assert scenario_io.parse_angle(1.25, "x") == 1.25
    with pytest.raises(scenario_io.ScenarioFileError):
        scenario_io.parse_angle("halfpi", "x")
    for hostile in (math.nan, -math.inf, "inf", "nanpi", "1e308pi"):
        with pytest.raises(scenario_io.ScenarioFileError, match="x: expected a finite"):
            scenario_io.parse_angle(hostile, "x")


def test_complex_literals():
    assert scenario_io.parse_complex(2, "x") == 2 + 0j
    assert scenario_io.parse_complex([1, -1], "x") == 1 - 1j
    value = scenario_io.parse_complex({"mag": 2.0, "phase": "0.5pi"}, "x")
    assert value == pytest.approx(2j)
    with pytest.raises(scenario_io.ScenarioFileError):
        scenario_io.parse_complex("nope", "x")
    for hostile, path in (
        (math.inf, "x"),
        (10**400, "x"),
        ([1.0, math.nan], "x"),
        ({"mag": math.nan}, "x.mag"),
        ({"mag": 1.0, "phase": math.inf}, "x.phase"),
    ):
        with pytest.raises(scenario_io.ScenarioFileError, match=f"{path}: expected a finite"):
            scenario_io.parse_complex(hostile, "x")


@pytest.mark.parametrize(
    "alpha, field",
    [([True, False], "scenario.alpha"), ([1.0, True], "scenario.alpha"),
     ({"mag": True}, "scenario.alpha.mag"), ({"mag": False, "phase": 0.0}, "scenario.alpha.mag")],
)
def test_run_rejects_booleans_in_complex_amplitudes(tmp_path, capsys, alpha, field):
    payload = {"schema": 1, "engine": "FOCK", "scenario": {"kind": "CAT_CAT", "alpha": alpha}}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "bool.json", payload))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field}: expected ")


# Each input asks for TiB of amplitudes, or overflows a float, without the
# memory budget, so a missing check fails at once instead of allocating.
@pytest.mark.parametrize(
    "scenario, numerics, cutoff",
    [
        ({"kind": "CAT_CAT", "alpha": 1e308}, {}, "inf"),
        ({"kind": "CAT_CAT", "alpha": 1e6}, {}, "2.00001e+12"),
        ({"kind": "CAT_CAT", "alpha": 1.0}, {"cutoff": 10**12}, "1000000000000"),
        ({"kind": "COHERENT_SQUEEZED", "alpha": 1e5, "xi": 0.5}, {}, "1.00011e+10"),
        ({"kind": "COHERENT_CAT", "alpha": 1e308}, {}, "inf"),
        ({"kind": "NOON", "n": 10**6}, {"cutoff": 10**6}, "1000000"),
        ({"kind": "EPR", "xi": 0.3}, {"cutoff": 10**12}, "1000000000000"),
    ],
)
def test_run_over_the_memory_budget_exits_2(tmp_path, capsys, scenario, numerics, cutoff):
    payload = {"schema": 1, "engine": "FOCK", "scenario": scenario, "numerics": numerics}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "huge.json", payload))
    assert code == 2
    assert out == ""
    assert f"numerical failure: cutoff {cutoff} over " in err
    assert "GiB memory budget" in err


@pytest.mark.parametrize(
    "scenario, cutoff",
    [
        ({"kind": "COHERENT_SQUEEZED", "alpha": 1.0, "xi": 1e3}, 1017),
        ({"kind": "EPR", "xi": 1e3}, 30),
        ({"kind": "SQUEEZED_PAIR", "k": {"xi": 1e3}, "minus_k": {"xi": 0.0}}, 30),
    ],
)
def test_run_squeezing_past_any_cutoff_exits_2(tmp_path, capsys, scenario, cutoff):
    """cosh overflows past xi = 710; such squeezing fails before any state is built."""
    payload = {"schema": 1, "engine": "FOCK", "scenario": scenario}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "xi.json", payload))
    assert code == 2
    assert out == ""
    assert f"mean photon number sinh^2 xi > 1e15, beyond cutoff {cutoff}" in err


def test_run_names_the_cutoff_strong_squeezing_needs(tmp_path, capsys):
    """At xi = 3 the squeezed vacuum needs cutoff 5134 (5149 with the coherent
    tail); the run exits 2 naming it, charged for a pair run's peak before any
    state is allocated (a pair run at xi = 2.5, cutoff 1905, fits and runs)."""
    payload = {"schema": 1, "engine": "FOCK",
               "scenario": {"kind": "COHERENT_SQUEEZED", "alpha": 1.0, "xi": 3.0}}
    path = write_json(tmp_path, "xi.json", payload)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", path)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: cutoff 5149 over 2 modes needs 1.7785 GiB")
    assert traced < 1 << 20


@pytest.mark.parametrize("alpha, message", [
    (27.0, "numerical failure: norm lost to cutoff: 1 - |psi| = "),
    (28.0, "numerical failure: zero-amplitude state"),
])
def test_run_cat_past_double_range_exits_2(tmp_path, capsys, alpha, message):
    """At |alpha| = 27 and 28 (cutoffs 1766 and 1887) the standing state's
    branches start at e^{-|alpha|^2} / 2, which is subnormal or underflows to zero:
    the run exits 2 at the norm check.  A one-mode vector started at 1 would
    overflow to inf, and inf * 0 to NaN, which no norm check refuses."""
    payload = {"schema": 1, "engine": "FOCK", "scenario": {"kind": "CAT_CAT", "alpha": alpha}}
    code, out, err = run_cli(capsys, "run", write_json(tmp_path, "cat.json", payload))
    assert code == 2
    assert out == ""
    assert err.startswith(message)


# random scenario files of every kind on both engines, at small magnitudes
_reals = st.floats(-2.0, 2.0, allow_nan=False)
_amplitudes = (_reals | st.tuples(_reals, _reals).map(list)
               | st.fixed_dictionaries({"mag": st.floats(0.0, 2.0), "phase": _reals}))
_angles = _reals | st.sampled_from(["0.5pi", "-pi", "pi", "2pi"])
_squeezing = st.floats(-1.0, 1.0, allow_nan=False)
_squeezed = st.fixed_dictionaries(
    {}, optional={"alpha": _amplitudes, "xi": _squeezing, "phi": _angles})
_FIELDS = {
    **{kind.value: {"delta_theta": _angles} for kind in dv.DvKind},
    "NOON": {"n": st.integers(-3, 12), "delta_theta": _angles},
    "CAT_CAT": {"alpha": _amplitudes},
    "COHERENT_SQUEEZED": {"alpha": _amplitudes, "xi": _squeezing},
    "COHERENT_CAT": {"alpha": _amplitudes, "cat_alpha": _amplitudes},
    "SQUEEZED_PAIR": {"k": _squeezed, "minus_k": _squeezed},
    "EPR": {"alpha_g": _amplitudes, "alpha_h": _amplitudes, "xi": _squeezing},
}


@st.composite
def _scenario_files(draw) -> dict:
    kind = draw(st.sampled_from(sorted(_FIELDS)))
    scenario = {"kind": kind, **draw(st.fixed_dictionaries({}, optional=_FIELDS[kind]))}
    if draw(st.integers(0, 9)) == 0:
        scenario["extra"] = 1
    payload = {"schema": 1, "engine": draw(st.sampled_from(["FOCK", "GAUSSIAN"])),
               "scenario": scenario}
    payload.update(draw(st.fixed_dictionaries({}, optional={
        "absorber": st.fixed_dictionaries({}, optional={
            "tau_c": st.floats(-0.1, 1.1), "swap_roles": st.booleans()}),
        "numerics": st.fixed_dictionaries({}, optional={
            "cutoff": st.integers(1, 40),
            "tolerance": st.sampled_from([-1.0, 0.0, 1e-15, 1e-9, 1e-3])}),
    })))
    return payload


def _strict_constant(token: str):
    raise ValueError(f"not JSON: {token}")


@given(payload=_scenario_files())
@settings(max_examples=150, deadline=None)
def test_run_any_small_scenario_file_exits_cleanly(tmp_path_factory, payload):
    """`cpa run` on any small scenario file exits 0, 1 or 2, never with a
    traceback, and what it prints on exit 0 is strict JSON."""
    assert set(_FIELDS) == set(scenario_io.KIND_KEYS)  # every kind is drawn
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path)])
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_strict_constant)
    else:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
