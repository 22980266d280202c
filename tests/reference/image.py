"""The reader of the memory image ``fdsim.membank.export_image`` writes."""

import json
from pathlib import Path

import numpy as np

from fdsim.fixedpoint import DataType
from fdsim.membank import BankedMemory, MemoryModelError


def import_image(path) -> tuple[BankedMemory, dict]:
    """The memory and the sidecar descriptor of the image at ``path``."""
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    words = np.fromfile(path, dtype="<u4")
    if len(words) != sidecar["total_words"]:
        raise MemoryModelError("image size disagrees with its descriptor")
    memory = BankedMemory(total_words=len(words))
    memory.words[:] = words
    sidecar["dtype"] = DataType.from_tag(sidecar["dtype"])
    return memory, sidecar
