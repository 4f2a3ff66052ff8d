import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from entroscope.errors import DataError
from entroscope.guesswork import (
    expected_guesses,
    format_duration,
    format_guess_count,
    guesswork_table,
    time_to_success,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_expected_guesses_values():
    assert expected_guesses(8) == 128.0
    assert expected_guesses(20) == 524288.0
    assert expected_guesses(0) == 0.5


def test_time_to_success():
    assert time_to_success(12, 1) == 2048.0
    assert time_to_success(24, 1e6) == pytest.approx(8.388608, abs=1e-12)
    with pytest.raises(DataError):
        time_to_success(8, 0)


def test_time_rate_product_on_table_grid():
    # exact on the documented grid: division by these rates round-trips
    for hmin in (8, 12, 16, 20, 24):
        for rate in (1.0, 10.0, 1e3, 1e6):
            assert time_to_success(hmin, rate) * rate == expected_guesses(hmin)


@given(
    st.floats(0, 50),
    st.integers(-10, 20).map(lambda k: 2.0 ** k),
)
@settings(max_examples=100, deadline=None)
def test_time_rate_product_power_of_two_rates(hmin, rate):
    # power-of-two rates make the division exact
    assert time_to_success(hmin, rate) * rate == expected_guesses(hmin)


def test_format_duration_units():
    assert format_duration(0.000128) == "0.128 ms"
    assert format_duration(0.128) == "0.128 s"
    assert format_duration(128) == "128 s"
    assert format_duration(2048) == "34.1 min"
    assert format_duration(32768) == "9.10 h"
    assert format_duration(524288) == "6.07 d"
    assert format_duration(0.524288) == "0.524 s"


def test_format_duration_thresholds():
    assert format_duration(0.0999) == "99.9 ms"
    assert format_duration(0.1) == "0.100 s"
    assert format_duration(179.9) == "180 s"
    assert format_duration(180.0) == "3.00 min"
    assert format_duration(3599.0) == "60.0 min"
    assert format_duration(3600.0) == "1.00 h"
    assert format_duration(86400.0) == "1.00 d"


def test_format_duration_three_sig_figs():
    assert format_duration(9.102) == "9.10 s"
    assert format_duration(123.456) == "123 s"
    assert format_duration(1234.5 * 86400) == "1230 d"
    with pytest.raises(DataError):
        format_duration(-1.0)


def test_format_guess_count():
    assert format_guess_count(128) == "128"
    assert format_guess_count(2048) == "2,048"
    assert format_guess_count(524288) == "524,288"
    assert format_guess_count(2 ** 23) == "8.39e6"
    assert format_guess_count(1e6) == "1.00e6"
    # mantissa rounding can promote the exponent
    assert format_guess_count(9.999e9) == "1.00e10"


def test_guesswork_table_golden():
    with open(os.path.join(DATA, "guesswork_golden.json")) as fh:
        golden = json.load(fh)
    table = guesswork_table(golden["hmins"], golden["rates"])
    assert list(table.expected) == golden["expected_guesses"]
    assert [list(row) for row in table.times] == golden["times"]


def test_guesswork_table_degenerate():
    table = guesswork_table([16], [1e6])
    assert table.times == (("32.8 ms",),)
    assert table.expected == ("32,768",)
    with pytest.raises(DataError):
        guesswork_table([], [1])
    with pytest.raises(DataError):
        guesswork_table([8], [])
    with pytest.raises(DataError, match="fits in a float64"):
        guesswork_table([2000], [1])
    for rate in (math.inf, math.nan, 0.0):
        with pytest.raises(DataError, match="finite and positive"):
            guesswork_table([10], [rate])


def test_format_duration_from_a_million_days_is_mantissa_exponent():
    day = 86400.0
    assert format_duration(999_000 * day) == "999000 d"
    assert format_duration(1e6 * day) == "1.00e6 d"
    assert format_duration(1234.5e3 * day) == "1.23e6 d"
    # mantissa rounding can promote the exponent
    assert format_duration(9.999e9 * day) == "1.00e10 d"
    # 2 ** 99 s at one guess a second: 25 digits of float noise before
    assert format_duration(time_to_success(100, 1.0)) == "7.34e24 d"
    # the largest finite duration keeps 3 significant figures too
    assert format_duration(time_to_success(1024, 1.0)) == "1.04e303 d"


@pytest.mark.parametrize("hmin, rate", [(1024, 0.5), (1020, 1e-2), (1000, 1e-300)])
def test_time_to_success_past_float64_is_an_overflow_error(hmin, rate):
    with pytest.raises(DataError, match="overflows float64"):
        time_to_success(hmin, rate)
    # both values are accepted alone, so the table names the overflow too
    expected_guesses(hmin)
    with pytest.raises(DataError, match="overflows float64"):
        guesswork_table([hmin], [rate])
