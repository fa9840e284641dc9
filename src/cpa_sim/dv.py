"""Discrete-variable scenarios: path-entangled photons, Bell pairs, NOON states.

Bell states of two labeled photons are encoded dual-rail: one travelling pair
per internal label (rail "A" and rail "B"), with path operations acting
identically on both rails.  All states here carry a finite photon number, so
runs are exact: the working cutoff is the total photon number.  A one-rail run
(NOON, SINGLE_PHOTON) is read in closed form in O(n) and builds no state
(one_rail_distribution; tests/oracle.py keeps the dense route it replaced as
its reference); its distribution and outputs stay arrays up to the JSON text
(the LevelTable of results.fock_result, results.OutputTable).  A Bell run
reads every output from the one light x environment joint it builds,
fock.full_pipeline of its input (fock.joint_readouts); full_pipeline stays
because the benchmark's call-chain test spans it and bs_transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .absorber import CANONICAL, AbsorberSpec
from .fock import CutoffError, PureState
from .modes import K, MINUS_K
from .results import OutputTable, ScenarioResult, fock_result

RAIL_A, RAIL_B = "A", "B"


class DvKind(Enum):
    SINGLE_PHOTON = "SINGLE_PHOTON"
    BELL_PSI_PLUS = "BELL_PSI_PLUS"
    BELL_PSI_MINUS = "BELL_PSI_MINUS"
    BELL_PHI_PLUS = "BELL_PHI_PLUS"
    BELL_PHI_MINUS = "BELL_PHI_MINUS"
    NOON = "NOON"


# Bell kind -> (sign, crossed); a crossed pair holds one rail's K with the
# other's MINUS_K, an uncrossed one like with like
_BELL = {
    DvKind.BELL_PSI_PLUS: (1.0, True),
    DvKind.BELL_PSI_MINUS: (-1.0, True),
    DvKind.BELL_PHI_PLUS: (1.0, False),
    DvKind.BELL_PHI_MINUS: (-1.0, False),
}
BELL_KINDS = set(_BELL)
# a one-rail run's peak per photon level in 16-byte states: NOON runs at n = 10^5 to
# 1.6 10^6 (arrays, format call and JSON text) peaked at 165 B traced and 176 B of RSS per level
ONE_RAIL_LEVEL_STATES = 12.0


@dataclass(frozen=True)
class DvScenario:
    kind: DvKind
    n: int = 1
    delta_theta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is DvKind.NOON and self.n < 1:
            raise ValueError("NOON needs n >= 1")
        if not math.isfinite(self.delta_theta):
            raise ValueError("delta_theta must be finite")

    @property
    def total_photons(self) -> int:
        if self.kind is DvKind.SINGLE_PHOTON:
            return 1
        if self.kind in BELL_KINDS:
            return 2
        return self.n


def _bell_state(kind: DvKind, cutoff: int) -> PureState:
    """The Bell state `kind` over (K_A, K_B, MINUS_K_A, MINUS_K_B)."""
    sign, crossed = _BELL[kind]
    p_a, p_b, m_a, m_b = (mode.with_rail(rail) for mode in (K, MINUS_K) for rail in (RAIL_A, RAIL_B))
    pairs = ({p_a: 1, m_b: 1}, {p_b: 1, m_a: 1}) if crossed else ({p_a: 1, p_b: 1}, {m_a: 1, m_b: 1})
    amp = 1.0 / math.sqrt(2.0)
    return fock.superposition(zip((amp, sign * amp), pairs), (p_a, p_b, m_a, m_b), cutoff)


def build_input(scenario: DvScenario, cutoff: int) -> PureState:
    """Travelling-basis input ket for the scenario; a single photon is NOON at n = 1."""
    if scenario.kind in BELL_KINDS:
        return _bell_state(scenario.kind, cutoff)
    n, amp = scenario.total_photons, 1.0 / math.sqrt(2.0)
    phase = np.exp(1j * scenario.delta_theta)
    terms = [(amp, {K: n, MINUS_K: 0}), (amp * phase, {K: 0, MINUS_K: n})]
    return fock.superposition(terms, (K, MINUS_K), cutoff)


# log(k!) - log(sqrt(2 pi k) (k/e)^k), Loader's stirlerr, for k < 16; its series above
_STIRLING = [0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
                     for k in range(1, 16)]


def _stirlerr(k: np.ndarray) -> np.ndarray:
    inv2 = 1.0 / np.maximum(k, 16.0) ** 2
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2) * inv2)
    return np.where(k < 16, np.take(_STIRLING, np.minimum(k, 15).astype(int)), series * np.sqrt(inv2))


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    """x log(x / mean) + mean - x, which cancels by about 1 / |v|, v = (x - mean)
    / (x + mean): where |v| < 0.1, or |v| < 0.5 with x |v| >= 64, it is the
    series (x - mean) v + 2 x sum_j v^(2j+1) / (2j+1), to the terms the widest v needs."""
    diff, v = x - mean, (x - mean) / (x + mean)
    near = (np.abs(v) < 0.1) | ((np.abs(v) < 0.5) & (x * np.abs(v) >= 64.0))
    term, series = 2.0 * x * v, diff * v
    for j in range(1, 1 + math.ceil(-19.6 / math.log(np.max(np.abs(v), where=near, initial=1e-300)))):
        term = term * v * v
        series = series + term / (2 * j + 1)
    with np.errstate(divide="ignore"):
        return np.where(near, series, x * np.log(x / mean) + mean - x)


def binomial_pmf(n: int, num: int, den: int) -> np.ndarray:
    """Bin(n, q)(e), e = 0..n, q = num / den <= 1/2, to a few ulp of each exponent
    stirlerr(n) - stirlerr(e) - stirlerr(n - e) - bd0(e, n q) - bd0(n - e, n (1 -
    q)) (C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
    2000), with each mean's exact residual to first order, d bd0(x, M) / dM = 1
    - x / M: q's rounding alone would move entry e by |e - n q| / (1 - q) ulp."""
    out = np.zeros(n + 1)
    out[0] = 1.0
    if num == 0:
        return out
    out[0], out[n] = math.exp(n * math.log1p(-num / den)), math.exp(n * math.log(num / den))
    e = np.arange(1.0, n)
    exponent = _stirlerr(np.array(float(n))) - _stirlerr(e) - _stirlerr(n - e)
    for x, top in ((e, num), (n - e, den - num)):
        mean = n * top / den  # correctly rounded, as is the residual below
        rounded_num, rounded_den = mean.as_integer_ratio()
        residual = (n * top * rounded_den - rounded_num * den) / (den * rounded_den)
        exponent -= _bd0(x, mean) + (1.0 - x / mean) * residual
    out[1:n] = np.exp(exponent) * np.sqrt(n / (2.0 * math.pi * e * (n - e)))
    return out


def one_rail_distribution(scenario: DvScenario, absorber: AbsorberSpec) -> np.ndarray:
    """P(e photons absorbed), e = 0..n, of a NOON or single-photon run.

    The standing weights |c_m|^2 = Bin(n, 1/2)(m) (1 + (-1)^m cos delta), m
    photons in S, thin through the absorber (each absorbed photon leaves with
    probability s^2 = 1 - tau_c^2) to p(e) = Bin(n, s^2/2)(e) (1 + sigma_e cos
    delta r^k), k = n - e, r = s^2 / (2 - s^2), sigma_e = (-1)^k when C is
    absorbed and (-1)^e under swap_roles.  The factor is w_a (1 + r^k) + w_b (1 -
    r^k), (w_a, w_b) = (1 +- cos delta) / 2, swapped where sigma_e = -1, with r^k
    by expm1 of k log r = k (log1p(-tau^2) - log1p(tau^2)): no term cancels, and
    cos pi = -1 makes p exactly 0 where it vanishes.  s^2 / 2 is the exact
    ratio of integers that the double tau_c gives.
    """
    n, tau = scenario.total_photons, absorber.tau_c
    top, bottom = tau.as_integer_ratio()
    binomial = binomial_pmf(n, bottom * bottom - top * top, 2 * bottom * bottom)
    if tau == 1.0:  # nothing is absorbed
        return binomial
    kept = np.arange(n, -1.0, -1.0)
    decay = np.expm1(kept * (math.log1p(-tau * tau) - math.log1p(tau * tau)))  # r^k - 1
    flip = (n - kept if absorber.swap_roles else kept) % 2 == 1  # sigma_e = -1
    cos = math.cos(scenario.delta_theta)
    w_a, w_b = (np.where(flip, (1.0 - sign * cos) / 2.0, (1.0 + sign * cos) / 2.0) for sign in (1, -1))
    return binomial * (w_a * (2.0 + decay) - w_b * decay)


def run_scenario(
    scenario: DvScenario,
    absorber: AbsorberSpec = CANONICAL,
    cutoff: int = fock.DEFAULT_CUTOFF,
    report_threshold: float = 1e-9,
) -> ScenarioResult:
    """Run the absorber and collect statistics; the working cutoff is the photon
    content, whatever the (validated) requested cutoff.  One rail reads every
    output in O(n) from one_rail_distribution, charged ONE_RAIL_LEVEL_STATES
    states per level: the environment is diagonal, so its entropy is Shannon's,
    and count e leaves pure light with <n_K> = <n_-K> = (n - e)/2, since c_m is
    i^m times a real number and so Re<a_C^dag a_S> = 0.  A Bell run, charged for
    its joint, reads every output from fock.joint_readouts of that joint.  The
    mean absorbed fraction of every run is p(1) at n = 1 and s^2 / 2 for n >= 2:
    one rail's cos delta term sums to cos delta q^n sum_e +-e C(n, e) (-1)^e = 0,
    and every standing Bell state holds one photon on average in the absorbed mode.
    Counts above report_threshold and fock.CONDITIONING_FLOOR are reported."""
    n = scenario.total_photons
    if cutoff < n:
        raise CutoffError(f"cutoff {cutoff} below photon content {n}")
    floor = max(report_threshold, fock.CONDITIONING_FLOOR)  # reported above both
    if scenario.kind in BELL_KINDS:
        working_cutoff = fock.budget_cutoff(n, 6)  # pair + env per rail
        environment, outputs = fock.joint_readouts(fock.full_pipeline(
            build_input(scenario, working_cutoff), absorber), floor)
        outputs = [{"absorbed": o.absorbed, "probability": o.probability, "purity": o.purity,
                    "mean_output_photons": {str(mode): v for mode, v in o.mean_photons.items()}}
                   for o in outputs]
    else:
        working_cutoff = fock.budget_cutoff(n, 1, ONE_RAIL_LEVEL_STATES)
        probs = one_rail_distribution(scenario, absorber)
        weighted = probs[probs > 0.0]
        environment = fock.EnvironmentReadout(
            probs, max(0.0, float(-np.sum(weighted * np.log2(weighted)))), float(probs[n]))
        counts = np.flatnonzero(probs > floor)
        outputs = OutputTable(counts, probs[counts], (n - counts) / 2.0)
    top, bottom = absorber.tau_c.as_integer_ratio()  # n >= 2: s^2 / 2 exactly, rounded once
    mean = (float(environment.distribution[1]) if n == 1
            else (bottom * bottom - top * top) / (2 * bottom * bottom))
    result = fock_result(
        {"kind": scenario.kind.value, "n": scenario.n, "delta_theta": scenario.delta_theta},
        absorber, {"cutoff": cutoff, "working_cutoff": working_cutoff}, environment, (mean, None))
    result.conditional_outputs = outputs
    return result
