"""The CLI's one value formatter against the formatter it replaced.

``reference_fmt`` is that earlier ``cli._fmt``, kept verbatim: every CSV and
stdout value must come out with the same bytes through the exact-type fast
paths as through its chain of ``isinstance`` checks. Where its ``float(x)``
overflows, a ``Fraction`` past the float range, ``_fmt`` writes
``exact_12g(x)`` instead: 12 significant digits of the exact value, as it
writes any real past 1e15.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
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


def exact_12g(x: Fraction) -> str:
    """``x``, past the float range, to 12 significant digits rounded half to even
    from its exact value, in the form ``format(float, ".12g")`` takes past 1e16:
    no trailing zeros, a signed exponent of at least two digits."""
    sign, x = ("-", -x) if x < 0 else ("", x)
    exponent = len(str(x.numerator // x.denominator)) - 1
    digits = round(x / 10 ** (exponent - 11))
    if digits == 10**12:
        digits, exponent = digits // 10, exponent + 1
    mantissa = str(digits).rstrip("0")
    return f"{sign}{mantissa[0]}{'.' * (len(mantissa) > 1)}{mantissa[1:]}e+{exponent:02d}"


def _outcome(fmt, x):
    """The formatted text, or the type of the exception."""
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
    st.builds(Fraction, st.integers(-(10**420), 10**420), st.integers(1, 10**12)),
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(),
)


@given(VALUES)
@example(10**12)  # 13 digits: past a 12-significant-digit form
@example(-(10**20) - 7)
@example(True)
@example(Fraction(10**400, 3))  # past the float range: "3.33333333333e+399", where the reference raises
@example(np.float64(1e15))
@example("Split")
def test_fmt_matches_the_reference_formatter(x):
    want = _outcome(reference_fmt, x)
    if want is OverflowError and isinstance(x, Fraction):
        want = exact_12g(x)
    assert _outcome(_fmt, x) == want


@pytest.mark.parametrize("x, text", [
    (Fraction(10**400, 3), "3.33333333333e+399"),
    (Fraction(-(10**400), 7), "-1.42857142857e+399"),
    (Fraction(10**400), "1e+400"),
    (Fraction(125 * 10**398), "1.25e+400"),
    (Fraction(10**309 - 1), "1e+309"),  # rounds up to the next power of ten
    (Fraction(15 * 10**388 + 5 * 10**376), "1.5e+389"),  # an exact tie, to even
    (Fraction(1, 10**400), "0"),  # below the float range float(x) is 0.0, as before
])
def test_fmt_writes_a_fraction_past_the_float_range_to_12_digits(x, text):
    assert _fmt(x) == text
    if abs(x) > 1:
        assert exact_12g(x) == text
