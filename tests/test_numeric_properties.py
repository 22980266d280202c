"""Metamorphic relations: properties that relate two runs of the model.

A bit-exact test compares two implementations, or one against a frozen
hash, so a change made to the spec and to both implementations together
passes it.  A relation between two runs of the same model does not depend
on either implementation (T. Y. Chen, S. C. Cheung and S. M. Yiu,
*Metamorphic testing: a new approach for generating next test cases*,
HKUST tech. report 1998).

I2S: each relation below holds at every mode, alignment, polarity, FSYNC
style and frame size.
"""

import itertools

import numpy as np
import pytest

from fdsim.i2s import (LEAD_IN_SLOTS, NO_DRIVER, Alignment, BusConfig, BusMode,
                       FsyncStyle, Polarity, encode)

LINES = ("bclk", "fsync", "sd", "driver")


def bus_configs():
    for mode, alignment, polarity, style, frame_bits in itertools.product(
            BusMode, Alignment, Polarity, FsyncStyle, (16, 24, 32)):
        for n_devices in ((1,) if mode is BusMode.STANDARD_I2S else (3, 16)):
            yield BusConfig(mode, n_devices, frame_bits, polarity=polarity,
                            alignment=alignment, fsync_style=style)


CONFIGS = list(bus_configs())
CONFIG_IDS = [f"{c.mode.value}-{c.alignment.value}-{c.polarity.value}-"
              f"{c.fsync_style.value}-{c.frame_bits}b-{c.n_devices}dev" for c in CONFIGS]


def random_words(config, periods, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << config.channel_bits, size=(periods, config.n_devices, 2))


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_dropping_the_first_period_drops_its_ticks(config):
    # every line of the shorter run is the longer run's line without the
    # first period's 2 * frame_slots ticks, counted from where SD's data begins
    words = random_words(config, 4, seed=config.frame_slots)
    whole, rest = encode(config, words), encode(config, words[1:])
    first = 2 * (LEAD_IN_SLOTS + config.data_delay)
    period = slice(first, first + 2 * config.frame_slots)
    for line in LINES:
        assert np.array_equal(getattr(rest, line),
                              np.delete(getattr(whole, line), period)), line


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_permuting_devices_permutes_their_slots(config):
    # device d of the permuted payload sends what device perm[d] sent, in
    # the slots device d drives; the clock, frame sync and slot owners stay
    words = random_words(config, 3, seed=config.frame_bits)
    perm = np.random.default_rng(config.n_devices).permutation(config.n_devices)[::-1]
    plain, permuted = encode(config, words), encode(config, words[:, perm])
    for line in ("bclk", "fsync", "driver"):
        assert np.array_equal(getattr(permuted, line), getattr(plain, line)), line
    owner = plain.driver
    for d, source in enumerate(perm):
        assert np.array_equal(permuted.sd[owner == d], plain.sd[owner == source]), d
    assert not permuted.sd[owner == NO_DRIVER].any()
