"""Workload definitions: the op configs each benchmark workload sends to
``fdsim.cli.main``, derived only from the workload seed.

Every op is one CLI invocation on one generated config file.  A workload is
a fixed, ordered list of configs that the benchmark runs round-robin in a
closed loop (one client, one process, one thread).
"""

from __future__ import annotations

import itertools
import random

FFT_TYPES = (("C64", 512), ("C32", 1024), ("C16", 2048))   # (dtype, max points)
FFT_AMPLITUDE = 0.9        # the amplitude the SNR floors were calibrated at
GRID_SOURCES = ("noise", "tone", "impulse")

I2S_BUS = {"n_devices": 16, "frame_bits": 32, "sample_rate": 48000}
I2S_PERIODS = 48           # 1 ms of audio at 48 kHz: 49,156 half-BCLK ticks
I2S_AXES = (("mode", ("tdm-i2s", "tdm-dsp")),
            ("alignment", ("aligned", "one-bit-delay")),
            ("fsync_style", ("pulse", "channel-length")),
            ("polarity", ("sample-on-rising", "sample-on-falling")))

WORKLOADS = ("fft-max", "fft-grid", "i2s-tdm16")


def _grid_sizes(max_points):
    n = 8
    while n <= max_points:
        yield n
        n *= 2


def _fft_config(name, seed, dtype, n_points, source, rng):
    inp = {"source": source, "amplitude": FFT_AMPLITUDE}
    if source == "tone":
        inp["bin"] = rng.randrange(1, n_points)
    return {"name": name, "verb": "fft",
            "config": {"version": 1, "kind": "fft-run", "seed": seed,
                       "fft": {"n_points": n_points, "dtype": dtype,
                               "input": inp}}}


def make_ops(workload: str, seed: int) -> list[dict]:
    """Ordered op list: ``{"name", "verb", "config"}`` per distinct config.

    ``name`` identifies the config independently of the seed (golden keys);
    ``config`` is the JSON document handed to the CLI.
    """
    rng = random.Random(seed)
    if workload == "fft-max":
        return [_fft_config(f"{dt}-{n}-noise", rng.randrange(2**31), dt, n,
                            "noise", rng)
                for dt, n in FFT_TYPES]
    if workload == "fft-grid":
        ops = []
        for dt, n_max in FFT_TYPES:
            for n in _grid_sizes(n_max):
                for source in GRID_SOURCES:
                    ops.append(_fft_config(f"{dt}-{n}-{source}",
                                           rng.randrange(2**31), dt, n,
                                           source, rng))
        return ops
    if workload == "i2s-tdm16":
        ops = []
        keys = [k for k, _ in I2S_AXES]
        for values in itertools.product(*(v for _, v in I2S_AXES)):
            bus = dict(zip(keys, values))
            name = "-".join(values)
            ops.append({"name": name, "verb": "i2s",
                        "config": {"version": 1, "kind": "i2s-run",
                                   "seed": rng.randrange(2**31),
                                   "i2s": {**bus, **I2S_BUS,
                                           "periods": I2S_PERIODS}}})
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
