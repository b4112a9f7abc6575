"""The CLI's one value formatter against the formatter it replaced.

``reference_fmt`` is that earlier ``cli._fmt``, kept verbatim: every CSV and
stdout value must come out with the same bytes through the exact-type fast
paths as through its chain of ``isinstance`` checks.
"""

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from splitfed.cli import _fmt


def reference_fmt(x) -> str:
    if isinstance(x, Fraction):
        x = float(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        if math.isnan(x):
            return "nan"
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return format(x, ".12g")
    return str(x)


def _outcome(fmt, x):
    """The formatted text, or the type of the exception (a Fraction past the float range)."""
    try:
        return fmt(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)


SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -5e-324, sys.float_info.min, sys.float_info.min / 3, sys.float_info.max, -sys.float_info.max,
    1e15, -1e15, 1e15 - 1, 1e15 + 1, 1e15 - 0.5, 999_999_999_999_999.9, 2.0**53, 2.0**53 + 2, 1e16, 0.1, 1 / 3,
]
# integral floats on both sides of the 1e15 cut between the integer and the 12-digit form
INTEGRAL_FLOATS = st.integers(-(10**17), 10**17).map(float)
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    INTEGRAL_FLOATS,
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
VALUES = st.one_of(
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    FLOATS,
    st.fractions(),
    st.fractions(max_denominator=10**6),
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(),
)


@given(VALUES)
@example(10**12)  # 13 digits: past a 12-significant-digit form
@example(-(10**20) - 7)
@example(True)
@example(Fraction(10**400, 3))  # past the float range: both raise
@example(np.float64(1e15))
@example("Split")
def test_fmt_matches_the_reference_formatter(x):
    assert _outcome(_fmt, x) == _outcome(reference_fmt, x)
