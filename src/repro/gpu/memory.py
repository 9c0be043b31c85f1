"""Memory spaces of the GPU model.

FlexGripPlus exposes a general-purpose register file, shared, local,
constant, and global memory.  The model keeps word-addressed (32-bit)
sparse images; the global memory doubles as the PTP's observable point
(thread signatures are stored through it, Section II.C of the paper).
"""

from __future__ import annotations

from ..errors import SimulationError

MASK32 = 0xFFFFFFFF


class WordMemory:
    """Sparse word-addressed 32-bit memory with bounds checking."""

    def __init__(self, name, size_words=None, read_only=False):
        self.name = name
        self.size_words = size_words
        self.read_only = read_only
        self._words = {}
        self.reads = 0
        self.writes = 0

    def _check(self, address):
        if address < 0 or (self.size_words is not None
                           and address >= self.size_words):
            raise SimulationError("{} address {} out of range".format(
                self.name, address))

    def load(self, address):
        self._check(address)
        self.reads += 1
        return self._words.get(address, 0)

    def store(self, address, value):
        if self.read_only:
            raise SimulationError("{} is read-only".format(self.name))
        self._check(address)
        self.writes += 1
        self._words[address] = value & MASK32

    def load_lanes(self, addresses):
        """One :meth:`load` per lane address, in lane order."""
        self._check_lanes(addresses)
        self.reads += len(addresses)
        words = self._words
        return [words.get(address, 0) for address in addresses]

    def store_lanes(self, addresses, values):
        """One :meth:`store` per lane, in ascending lane order: where lanes
        share an address, the highest lane's value stays."""
        if self.read_only:
            raise SimulationError("{} is read-only".format(self.name))
        self._check_lanes(addresses)
        self.writes += len(addresses)
        self._words.update(zip(addresses,
                               [value & MASK32 for value in values]))

    def _check_lanes(self, addresses):
        if addresses and (min(addresses) < 0 or (
                self.size_words is not None
                and max(addresses) >= self.size_words)):
            for address in addresses:  # name the lowest offending lane
                self._check(address)

    def preload(self, image):
        """Initialize contents from an address -> value dict (no counters)."""
        for address, value in image.items():
            self._check(address)
            self._words[address] = value & MASK32

    def snapshot(self):
        """Copy of the current contents as an address -> value dict."""
        return dict(self._words)

    def clear(self):
        self._words.clear()
        self.reads = 0
        self.writes = 0


class MemorySystem:
    """The per-kernel set of memory spaces."""

    def __init__(self, config, const_image=None):
        self.global_mem = WordMemory("global")
        self.shared = WordMemory("shared", config.shared_mem_words)
        self.constant = WordMemory("constant", config.const_mem_words,
                                   read_only=True)
        if const_image:
            self.constant.preload(const_image)

    def space(self, code):
        """Memory space by ``mem_space`` control code (0=global, 1=shared,
        2=constant)."""
        if code == 0:
            return self.global_mem
        if code == 1:
            return self.shared
        if code == 2:
            return self.constant
        raise SimulationError("unknown memory space code {}".format(code))
