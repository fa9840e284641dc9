"""Sweep presets and CSV cells: formatting and independent references."""
import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from cpa_sim import gaussian, sweeps
from cpa_sim.results import round_sig


def _near_rounding_boundary(digits: int, exponent: int, step: int) -> float:
    """A float at, or one ulp beside, a 13-digit decimal ending in 5."""
    value = float(f"{digits}5e{exponent}")
    for _ in range(abs(step)):
        value = math.nextafter(value, math.copysign(math.inf, step))
    return value


@given(
    st.one_of(
        st.floats(),
        st.floats(max_value=1e-307, min_value=-1e-307),  # subnormals and tiny normals
        st.builds(
            _near_rounding_boundary,
            st.integers(10**11, 10**12 - 1),
            st.integers(-330, 290),
            st.integers(-1, 1),
        ),
    )
)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1e300)
@example(-1e300)
@example(1e-300)
@example(-1e-300)
@example(1000000000000.5)  # exact binary ties at the 12th digit
@example(1000000000001.5)
@example(4.99966668556e-05)
@example(1.000000000003e-312)  # a subnormal that .12g alone prints as 1e-312
def test_format_cell_once_equals_round_then_format(value):
    assert sweeps.format_cell(value) == f"{round_sig(value):.12g}"


def test_fig8_matches_closed_form_on_every_panel():
    header, rows = sweeps.sweep_fig8(grid=7)
    assert header[-1] == "intensity_absorption"
    assert {row[0] for row in rows} == set("abcd")
    for panel, theta, mag, xi, value in rows:
        alpha_g, alpha_h = gaussian.epr_params_from_means(
            mag * np.exp(1j * theta), complex(mag), xi
        )
        closed = gaussian.epr_intensity_absorption(alpha_g, alpha_h, xi)
        assert value is not None
        assert abs(value - closed) < 1e-12, (panel, theta, mag, xi)
