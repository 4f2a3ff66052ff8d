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
    """
    if rows < 2:
        raise DataError("need at least 2 rows")
    rng = np.random.default_rng(seed)
    motion = rng.standard_normal(rows)
    acc_group = rng.standard_normal(rows)
    gyro_group = rng.standard_normal(rows)

    def axis(group: np.ndarray, w_motion: float, w_group: float,
             sigma: float, step: float) -> np.ndarray:
        w_noise = math.sqrt(max(0.0, 1.0 - w_motion ** 2 - w_group ** 2))
        raw = sigma * (w_motion * motion + w_group * group
                       + w_noise * rng.standard_normal(rows))
        return np.round(raw / step) * step

    acc_step, gyro_step = 0.004, 0.002
    ax = axis(acc_group, 0.45, 0.55, 0.040, acc_step)
    ay = axis(acc_group, 0.40, 0.60, 0.044, acc_step)
    az = axis(acc_group, 0.35, 0.50, 0.048, acc_step)
    gx = axis(gyro_group, 0.40, 0.55, 0.024, gyro_step)
    gy = axis(gyro_group, 0.35, 0.60, 0.026, gyro_step)
    gz = axis(gyro_group, 0.30, 0.50, 0.028, gyro_step)
    # magnitudes are derived from the already-quantized axes, then land on
    # the grid themselves
    amag = np.round(np.sqrt(ax ** 2 + ay ** 2 + az ** 2) / acc_step) * acc_step
    gmag = np.round(np.sqrt(gx ** 2 + gy ** 2 + gz ** 2) / gyro_step) * gyro_step

    data = np.column_stack([ax, ay, az, gx, gy, gz, amag, gmag])
    return SampleTable(
        channels=SENSOR_CHANNELS,
        rows=data,
        source=f"synthetic-{seed}",
    )
