"""One-channel profiles count through the same primitive as direct joints.

The `single` table, a one-channel `sensitivity` curve and `validate`'s
direct joint all profile profile_joint(joint_direct(channels)). For one
channel that must be, bit for bit, the flat profile of the channel's
np.bincount (helpers.codes_profile): on a gap-free and a gappy table, at
both width rules, a small fixed count and a fixed count above the row count,
whose cells JointCounts counts by a sort instead of a dense table.

The direct joint of 2 and 3 channels, validate's route, must likewise be the
flat profile of each complete row's code tuple, ranked in lexicographic
order, through each of joint_direct's counting routes.
"""

import math

import numpy as np
import pytest

from entroscope import synth
from entroscope.cli_report import _channel_table
from entroscope.entropy import joint_direct, profile_joint
from entroscope.ingest import SampleTable
from entroscope.quantize import bin_channel
from entroscope.sweep import sensitivity
from helpers import codes_profile

ROWS = 4000


def _gappy_table(rows=ROWS, seed=31):
    """Correlated channels with holes: a stretch one sensor drops out, holes
    scattered over another, a coarse grid channel and a heavy-tailed one."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, 4)) @ rng.normal(size=(4, 4))
    data[400:700, 0] = np.nan
    data[rng.random(rows) < 0.03, 1] = np.nan
    data[:, 2] = np.round(data[:, 2] * 3)
    data[:, 3] = rng.standard_cauchy(size=rows)
    data[2000:2100, 2:] = np.nan
    return SampleTable(("a", "b", "grid", "tail"), data, "unit")


TABLES = {
    "synth": synth.sensor_table(seed=3, rows=ROWS),
    "gappy": _gappy_table(),
}
# "rows": a fixed count above the row count
RULES = ("fd", "scott", "7", "rows")


def _hex(prof):
    return [h.hex() for h in (prof.h0, prof.h1, prof.h2, prof.hmin)]


def _rule(rule):
    return str(2 * ROWS) if rule == "rows" else rule


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("which", sorted(TABLES))
def test_one_channel_profile_is_the_bincount_profile_bitwise(which, rule):
    table = TABLES[which]
    rows = _channel_table(table, _rule(rule)).payload["rows"]
    assert [row[0] for row in rows] == list(table.channels)
    for name, bins, *cells in rows:
        ch = bin_channel(table.column(name), _rule(rule), name=name)
        want = [h.hex() for h in codes_profile(ch.codes)]
        assert _hex(profile_joint(joint_direct([ch]))) == want, name
        # the `single` table's row
        assert bins == ch.spec.bin_count
        assert [h.hex() for h in cells] == want, name
        if rule == "rows":  # counted by a sort, not a dense table
            assert ch.spec.bin_count > np.count_nonzero(ch.codes >= 0)


@pytest.mark.parametrize("which", sorted(TABLES))
def test_one_channel_sensitivity_is_the_bincount_profile_bitwise(which):
    table = TABLES[which]
    grid = [7, 64, 2 * ROWS]
    for name in table.channels:
        curve = sensitivity(table, [name], grid)
        assert [count for count, _ in curve.points] == grid
        for count, prof in curve.points:
            ch = bin_channel(table.column(name), count, name=name)
            assert _hex(prof) == [h.hex() for h in codes_profile(ch.codes)], (name, count)


# (rule, channels, counting route): JointCounts' dense table and its sort,
# and np.unique past 2**62 states
JOINT_CASES = [
    ("7", 2, "dense"), ("7", 3, "dense"), ("fd", 2, "dense"), ("fd", 3, "sort"),
    ("100", 2, "sort"), ("100", 3, "sort"), ("2000000", 3, "unique"),
]


@pytest.mark.parametrize("rule, size, route", JOINT_CASES)
@pytest.mark.parametrize("which", sorted(TABLES))
def test_direct_joint_profile_is_the_tuple_rank_profile_bitwise(which, rule, size, route):
    table = TABLES[which]
    chans = [bin_channel(table.column(name), rule, name=name)
             for name in table.channels[:size]]
    codes = np.stack([ch.codes for ch in chans], axis=1)
    complete = codes[(codes >= 0).all(axis=1)]
    states = math.prod(ch.spec.bin_count for ch in chans)
    taken = ("dense" if states <= complete.shape[0]
             else "sort" if states <= 2 ** 62 else "unique")
    assert taken == route
    ranks = np.unique(complete, axis=0, return_inverse=True)[1]
    want = [h.hex() for h in codes_profile(ranks)]
    assert _hex(profile_joint(joint_direct(chans))) == want
