"""Synthetic input: sensor_table builds a correlated 8-channel table shaped
like a phone's pooled accelerometer/gyroscope stream.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .ingest import SampleTable

# channel layout mirrors a pooled phone recording: two triaxial sensors plus
# their synthesized magnitudes
SENSOR_CHANNELS = (
    "Acc.X", "Acc.Y", "Acc.Z",
    "Gyro.X", "Gyro.Y", "Gyro.Z",
    "Acc.Mag", "Gyro.Mag",
)


def sensor_table(seed: int = 7, rows: int = 100_000) -> SampleTable:
    """Correlated 8-channel synthetic table with ADC-like quantization.

    Axes share latent motion factors within and across sensor groups, and
    every channel is snapped to a fixed measurement grid whose step sits
    around a tenth of the channel spread. That grid is what makes entropy
    flatten out once bins resolve single measurement levels, the same way a
    real sensor's ADC resolution does.

    The table is one column-major array, allocated once: each channel is
    computed in place in its own contiguous column, next to three latent
    factors and one scratch column.
    """
    if rows < 2:
        raise DataError("need at least 2 rows")
    rng = np.random.default_rng(seed)
    motion = rng.standard_normal(rows)
    acc_group = rng.standard_normal(rows)
    gyro_group = rng.standard_normal(rows)
    data = np.empty((rows, len(SENSOR_CHANNELS)), order="F")
    scratch = np.empty(rows)

    def snap(col: np.ndarray, step: float) -> None:
        col /= step
        np.round(col, out=col)
        col *= step

    def axis(col: np.ndarray, group: np.ndarray, w_motion: float,
             w_group: float, sigma: float, step: float) -> None:
        # sigma * (w_motion * motion + w_group * group + w_noise * noise), in
        # that order, so each value is the plain expression's bit for bit
        w_noise = math.sqrt(max(0.0, 1.0 - w_motion ** 2 - w_group ** 2))
        np.multiply(w_motion, motion, out=col)
        col += np.multiply(w_group, group, out=scratch)
        col += np.multiply(w_noise, rng.standard_normal(out=scratch), out=scratch)
        col *= sigma
        snap(col, step)

    def magnitude(col: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                  step: float) -> None:
        np.square(x, out=col)
        col += np.square(y, out=scratch)
        col += np.square(z, out=scratch)
        np.sqrt(col, out=col)
        snap(col, step)

    ax, ay, az, gx, gy, gz, amag, gmag = data.T  # in SENSOR_CHANNELS order
    acc_step, gyro_step = 0.004, 0.002
    axis(ax, acc_group, 0.45, 0.55, 0.040, acc_step)
    axis(ay, acc_group, 0.40, 0.60, 0.044, acc_step)
    axis(az, acc_group, 0.35, 0.50, 0.048, acc_step)
    axis(gx, gyro_group, 0.40, 0.55, 0.024, gyro_step)
    axis(gy, gyro_group, 0.35, 0.60, 0.026, gyro_step)
    axis(gz, gyro_group, 0.30, 0.50, 0.028, gyro_step)
    # magnitudes are derived from the already-quantized axes, then land on
    # the grid themselves
    magnitude(amag, ax, ay, az, acc_step)
    magnitude(gmag, gx, gy, gz, gyro_step)
    return SampleTable(
        channels=SENSOR_CHANNELS,
        rows=data,
        source=f"synthetic-{seed}",
    )
