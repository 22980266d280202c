"""Bit-level reference for the sample word layout, in shifts and masks on
uint32 words, independent of the typed view (``fixedpoint.sample_parts``)
that the simulator reads and writes memory through.

C64: one sample = 2 words (re word then im word).
C32: one sample = 1 word, re in the low half, im in the high half.
C16: two samples per word, sample 2i in the low half-word; within a
     half-word re is the low byte, im the high byte.
"""

import numpy as np

from fdsim.fixedpoint import DataType


def pack_parts(re, im, dtype: DataType) -> np.ndarray:
    """Raw parts of a sample sequence -> uint32 memory words."""
    bits = dtype.part_width
    re = np.asarray(re, dtype=np.int64) & ((1 << bits) - 1)
    im = np.asarray(im, dtype=np.int64) & ((1 << bits) - 1)
    if dtype is DataType.C64:
        words = np.stack([re, im], axis=1).ravel()
    elif dtype is DataType.C32:
        words = im << 16 | re
    else:
        if len(re) % 2:
            raise ValueError("C16 arrays must have an even sample count")
        half = im << 8 | re
        words = half[1::2] << 16 | half[0::2]
    return words.astype(np.uint32)


def unpack_parts(words, dtype: DataType) -> tuple[np.ndarray, np.ndarray]:
    """uint32 memory words -> int64 raw (re, im) of every sample they hold."""
    words = np.asarray(words, dtype=np.uint32).astype(np.int64)
    if dtype is DataType.C64:
        re, im = words[0::2], words[1::2]
    elif dtype is DataType.C32:
        re, im = words & 0xFFFF, words >> 16
    else:
        halves = np.stack([words & 0xFFFF, words >> 16], axis=1).ravel()
        re, im = halves & 0xFF, halves >> 8
    sign = 1 << (dtype.part_width - 1)     # two's complement sign extension
    return (re ^ sign) - sign, (im ^ sign) - sign
