"""Cycle-level model of the 16-bank word-interleaved shared memory.

Addresses are 32-bit word addresses; bank(addr) = addr mod 16.  The
accelerator sees eight 32-bit ports: ports 0-3 read, ports 4-7 write.
Requests hitting pairwise-distinct banks all complete in their cycle;
same-bank collisions complete only the lowest-numbered port, the rest are
rejected for retry and each rejection costs one stall cycle.  A rejected
request retries alone, so its retry always completes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fixedpoint import DataType, FixedComplex, sample_parts

N_BANKS = 16
N_PORTS = 8
WRITE_PORTS = range(4, 8)
DEFAULT_TOTAL_WORDS = 65536  # 256 kB

FULL_STROBE = 0xF
LO_HALF_STROBE = 0x3
HI_HALF_STROBE = 0xC


class MemoryModelError(Exception):
    """Address or capacity violation against the memory model."""


@dataclass(frozen=True)
class Request:
    """One port transaction for a single cycle."""

    port: int
    address: int
    write: bool = False
    data: int = 0          # 32-bit word for writes
    strobe: int = FULL_STROBE  # byte lanes, writes only


@dataclass
class AccessResult:
    read_data: dict[int, int]   # port -> word, completed reads
    completed: list[Request]
    rejected: list[Request]
    conflicts: int


@dataclass
class CycleStats:
    """Cycle accounting for one accelerator run.

    total = butterfly + reorder + stall + overhead; conflicts == stall
    (one stall per rejected request).  stage_conflicts splits out any
    conflict seen during butterfly stages (expected to stay zero).
    """

    butterfly_cycles: int = 0
    reorder_cycles: int = 0
    stall_cycles: int = 0
    overhead_cycles: int = 0
    conflicts: int = 0
    stage_conflicts: int = 0

    @property
    def total_cycles(self) -> int:
        return (self.butterfly_cycles + self.reorder_cycles
                + self.stall_cycles + self.overhead_cycles)

    def as_dict(self) -> dict:
        return {"total_cycles": self.total_cycles, **vars(self)}


_STROBE_MASKS = {
    0x1: 0x000000FF, 0x2: 0x0000FF00, 0x4: 0x00FF0000, 0x8: 0xFF000000,
    0x3: 0x0000FFFF, 0xC: 0xFFFF0000, 0xF: 0xFFFFFFFF,
}
IDLE = -1                                   # address of an idle port
WRITE_COLUMN = np.arange(N_PORTS) >= WRITE_PORTS.start


def arbitrate(ports, write_column,
              total_words: int = DEFAULT_TOTAL_WORDS) -> tuple[np.ndarray, np.ndarray]:
    """Arbitrate many cycles of port requests, one cycle per row.

    ``ports`` is (cycles x 8): column p is port p, ``IDLE`` marks an idle
    port.  ``write_column`` marks the writes.  In every row the lowest port
    wins its bank and each other request to that bank is rejected, costing
    one stall cycle for its solo retry.  Returns the per-cycle conflict
    counts and the rejected mask.  Moves no data, so it needs no memory
    image, only the capacity the addresses are checked against.
    """
    ports = np.asarray(ports)
    if ports.ndim != 2 or ports.shape[1] != N_PORTS:
        raise ValueError(f"port requests must be (cycles x {N_PORTS})")
    active = ports != IDLE
    mismatch = np.asarray(write_column) != WRITE_COLUMN
    if mismatch.any() and (wrong := active & mismatch).any():
        raise ValueError("write on a read port" if (wrong & ~WRITE_COLUMN).any()
                         else "read on a write port")
    if ports.size and (ports.min() < IDLE or ports.max() >= total_words):
        raise MemoryModelError(f"word address outside capacity {total_words}")
    # each active port's one-hot bank bit, one row per port; port by port
    # over all cycles at once, a port is rejected iff a lower port has
    # already taken its bank
    bank = (ports & (N_BANKS - 1)).astype(np.uint16)
    bits = np.left_shift(active, bank, dtype=np.uint16).T.copy()
    taken = np.zeros(len(ports), dtype=np.uint16)
    rejected = np.empty(bits.shape, dtype=bool)
    for port, bit in enumerate(bits):
        np.not_equal(bit & taken, 0, out=rejected[port])
        taken |= bit
    return rejected.sum(axis=0), rejected.T


class BankedMemory:
    """16 word-interleaved banks behind the 8-port accelerator interface."""

    def __init__(self, total_words: int = DEFAULT_TOTAL_WORDS):
        if total_words <= 0 or total_words % N_BANKS:
            raise ValueError("total_words must be a positive multiple of 16")
        self.total_words = total_words
        self.words = np.zeros(total_words, dtype="<u4")

    # -- raw word access (test fixtures, image I/O; not cycle-accounted) --

    def read_word(self, address: int) -> int:
        self._check_address(address)
        return int(self.words[address])

    def write_word(self, address: int, value: int, strobe: int = FULL_STROBE) -> None:
        self._check_address(address)
        mask = _STROBE_MASKS[strobe]
        old = int(self.words[address])
        self.words[address] = (old & ~mask) | (value & mask)

    def _check_address(self, address: int) -> None:
        if not (0 <= address < self.total_words):
            raise MemoryModelError(f"word address {address} outside capacity {self.total_words}")

    # -- the port interface --

    def access(self, cycle: int, requests: list[Request]) -> AccessResult:
        """One cycle of up to 8 port requests: one row of ``arbitrate`` at
        this memory's capacity.

        Completed writes are applied and completed reads returned, in
        port order; rejected requests are returned for the caller to retry.
        """
        if len(requests) > N_PORTS:
            raise ValueError(f"{len(requests)} requests exceed {N_PORTS} ports")
        requests = sorted(requests, key=lambda r: r.port)
        row = np.full((1, N_PORTS), IDLE, dtype=np.int64)
        write_mask = np.zeros((1, N_PORTS), dtype=bool)
        for r in requests:
            if not 0 <= r.port < N_PORTS or row[0, r.port] != IDLE:
                raise ValueError(f"port {r.port} invalid or issued twice in one cycle")
            self._check_address(r.address)
            row[0, r.port] = r.address
            write_mask[0, r.port] = r.write
        _, rejected = arbitrate(row, write_mask, self.total_words)

        read_data: dict[int, int] = {}
        completed, refused = [], []
        for r in requests:
            if rejected[0, r.port]:
                refused.append(r)
                continue
            if r.write:
                self.write_word(r.address, r.data, r.strobe)
            else:
                read_data[r.port] = self.read_word(r.address)
            completed.append(r)
        return AccessResult(read_data, completed, refused, len(refused))


def bandwidth_bytes_per_s(frequency_hz: float) -> float:
    """Peak delivery of the banked memory: 16 banks x 4 bytes per cycle."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return N_BANKS * 4 * frequency_hz


# -- sample packing (layout: fixedpoint.sample_parts) --------------------------


def words_per_samples(dtype: DataType, n_samples: int) -> int:
    bits = 2 * dtype.part_width * n_samples
    if bits % 32:
        raise ValueError(f"{dtype.name} arrays must have an even sample count")
    return bits // 32


def sample_array(memory: BankedMemory, base_address: int, n_samples: int,
                 dtype: DataType) -> np.ndarray:
    """The (n_samples x 2) raw (re, im) view of the sample array stored at
    ``base_address``; writing to it writes memory."""
    n_words = words_per_samples(dtype, n_samples)
    if base_address < 0 or base_address + n_words > memory.total_words:
        raise MemoryModelError(
            f"{n_words} words at base {base_address} exceed capacity")
    return sample_parts(memory.words[base_address:base_address + n_words], dtype)


def _raw_parts(samples: list[FixedComplex], dtype: DataType) -> np.ndarray:
    if any(s.dtype is not dtype for s in samples):
        raise ValueError("sample dtype mismatch")
    return np.array([(s.re, s.im) for s in samples], dtype=np.int64).reshape(-1, 2)


def pack_samples(samples: list[FixedComplex], dtype: DataType) -> list[int]:
    parts = _raw_parts(samples, dtype)
    words = np.zeros(words_per_samples(dtype, len(parts)), dtype="<u4")
    sample_parts(words, dtype)[:] = parts
    return words.tolist()


def unpack_samples(words: list[int], dtype: DataType, n_samples: int) -> list[FixedComplex]:
    parts = sample_parts(np.ascontiguousarray(words, dtype="<u4"), dtype)
    return [FixedComplex(re, im, dtype) for re, im in parts[:n_samples].tolist()]


def load_samples(memory: BankedMemory, base_address: int,
                 samples: list[FixedComplex], dtype: DataType) -> None:
    parts = _raw_parts(samples, dtype)
    sample_array(memory, base_address, len(parts), dtype)[:] = parts


def read_samples(memory: BankedMemory, base_address: int,
                 n_samples: int, dtype: DataType) -> list[FixedComplex]:
    parts = sample_array(memory, base_address, n_samples, dtype)
    return [FixedComplex(re, im, dtype) for re, im in parts.tolist()]


# -- image import/export ----------------------------------------------------

def export_image(memory: BankedMemory, path: str | Path, dtype: DataType,
                 n_points: int, base_address: int) -> None:
    """Raw little-endian 32-bit words plus a JSON sidecar descriptor."""
    path = Path(path)
    memory.words.tofile(path)
    sidecar = {
        "dtype": dtype.name,
        "n_points": n_points,
        "base_address": base_address,
        "total_words": memory.total_words,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
