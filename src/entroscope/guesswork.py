"""Turn min-entropy into attacker effort: expected guess counts and
human-readable time-to-success tables.

Against a secret with min-entropy hmin, the expected number of guesses under
the optimal (probability-descending) strategy is at least 2^(hmin-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError

# display unit thresholds in seconds, checked in order
_MS_BELOW = 0.1
_S_BELOW = 180.0
_MIN_BELOW = 3600.0
_H_BELOW = 86400.0


def expected_guesses(hmin: float) -> float:
    if not 0 <= hmin < 1025:  # 2 ** 1024 is past float64's range
        raise DataError("hmin must be in [0, 1025) bits, so that its guess "
                        "count fits in a float64")
    return 2.0 ** (hmin - 1.0)


def time_to_success(hmin: float, rate: float) -> float:
    """Expected seconds to hit the secret at `rate` guesses per second."""
    if not (math.isfinite(rate) and rate > 0):
        raise DataError("guess rate must be finite and positive")
    seconds = expected_guesses(hmin) / rate
    if math.isinf(seconds):
        raise DataError(f"time to success at hmin {hmin} and {rate} guesses "
                        "per second overflows float64")
    return seconds


def _sig3(v: float) -> str:
    """3 significant figures, keeping trailing zeros ("9.10", "128", "1230")."""
    if v <= 0:
        return "0"
    exp = math.floor(math.log10(v))
    decimals = 2 - exp
    r = round(v, decimals)
    # rounding can promote to the next magnitude ("99.96" -> "100")
    exp2 = math.floor(math.log10(r))
    if exp2 != exp:
        decimals = 2 - exp2
        r = round(v, decimals)
    if decimals <= 0:
        return f"{r:.0f}"
    return f"{r:.{decimals}f}"


def _sci(v: float) -> str:
    """3 significant figures in mantissa/exponent form, like 8.39e6."""
    exp = math.floor(math.log10(v))
    mant = round(v / 10.0 ** exp, 2)
    if mant >= 10.0:
        mant /= 10.0
        exp += 1
    return f"{mant:.2f}e{exp}"


def format_duration(seconds: float) -> str:
    """Seconds to a 3-significant-figure string in a single sensible unit;
    from a million days up, in mantissa/exponent form (7.34e24 d)."""
    if not math.isfinite(seconds) or seconds < 0:
        raise DataError("duration must be finite and non-negative")
    if seconds < _MS_BELOW:
        return f"{_sig3(seconds * 1e3)} ms"
    if seconds < _S_BELOW:
        return f"{_sig3(seconds)} s"
    if seconds < _MIN_BELOW:
        return f"{_sig3(seconds / 60.0)} min"
    if seconds < _H_BELOW:
        return f"{_sig3(seconds / 3600.0)} h"
    days = seconds / 86400.0
    return f"{_sig3(days) if days < 1e6 else _sci(days)} d"


def format_guess_count(count: float) -> str:
    """Comma-grouped integer below 1e6, else mantissa/exponent like 8.39e6."""
    if not math.isfinite(count) or count < 0:
        raise DataError("guess count must be finite and non-negative")
    if count < 1e6:
        return f"{round(count):,}"
    return _sci(count)


@dataclass(frozen=True)
class GuessworkTable:
    hmins: tuple[float, ...]
    rates: tuple[float, ...]
    expected: tuple[str, ...]  # one formatted E[G] per hmin
    times: tuple[tuple[str, ...], ...]  # [hmin][rate] formatted durations


def guesswork_table(hmins, rates) -> GuessworkTable:
    hmins = tuple(float(h) for h in hmins)
    rates = tuple(float(r) for r in rates)
    if not hmins or not rates:
        raise DataError("need at least one hmin and one rate")
    expected = tuple(format_guess_count(expected_guesses(h)) for h in hmins)
    times = tuple(
        tuple(format_duration(time_to_success(h, r)) for r in rates)
        for h in hmins
    )
    return GuessworkTable(hmins, rates, expected, times)
