"""Static program image and an assembler-style builder.

A :class:`Program` is the static code image (PC -> uop) plus an initial data
image. The timing frontend fetches from the image on both the predicted and
the alternate/wrong path, which is what makes wrong-path and alternate-path
fetch faithful: the bytes that would sit in the I-cache really exist.

:class:`ProgramBuilder` provides labels, forward references, loops, and data
allocation so workload generators and the graph kernels read like assembly
listings instead of raw uop lists.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.isa.opcodes import NUM_ARCH_REGS, UOP_BYTES, Op
from repro.isa.uop import StaticUop

__all__ = ["DataImage", "Program", "ProgramBuilder", "CODE_BASE",
           "DATA_BASE"]

CODE_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
WORD_BYTES = 8


class DataImage(Mapping):
    """Read-only initial data image: byte address -> 64-bit word.

    The words of every array sit back to back in one ``array('Q')`` from
    ``base``, 8 bytes each instead of a boxed int per dict entry (mcf's
    image is ~196 k words). Arrays allocated without values are *holes*:
    their addresses are not keys, so an emulator reads them as
    uninitialised memory, exactly as if they had never been stored.
    """

    def __init__(self, base: int, words: array,
                 holes: Sequence[tuple] = ()) -> None:
        self._base = base
        self._words = words
        # sorted, disjoint [start, end) word-index ranges with no value
        self._holes = list(holes)
        self._hole_starts = [start for start, _end in self._holes]
        self._len = len(words) - sum(end - start
                                     for start, end in self._holes)

    def _index(self, addr: int) -> int:
        """Word index of ``addr``, or -1 when it holds no initial value."""
        offset = addr - self._base
        if offset < 0 or offset & (WORD_BYTES - 1):
            return -1
        index = offset >> 3
        if index >= len(self._words):
            return -1
        if self._holes:
            slot = bisect_right(self._hole_starts, index) - 1
            if slot >= 0 and index < self._holes[slot][1]:
                return -1
        return index

    def get(self, addr: int, default=None):
        index = self._index(addr)
        return default if index < 0 else self._words[index]

    def __getitem__(self, addr: int) -> int:
        index = self._index(addr)
        if index < 0:
            raise KeyError(addr)
        return self._words[index]

    def __iter__(self) -> Iterator[int]:
        base, start = self._base, 0
        for hole_start, hole_end in self._holes + [(len(self._words), 0)]:
            for index in range(start, hole_start):
                yield base + index * WORD_BYTES
            start = hole_end

    def __len__(self) -> int:
        return self._len


class Program:
    """Immutable static image: code, initial data, and an entry point."""

    def __init__(self, uops: List[StaticUop], entry_pc: int,
                 data: Mapping, name: str = "program",
                 data_base: int = DATA_BASE,
                 data_end: int = DATA_BASE,
                 arrays: Optional[Dict[str, int]] = None) -> None:
        self.name = name
        self.entry_pc = entry_pc
        self.code_base = uops[0].pc if uops else CODE_BASE
        self._uops = uops
        self.initial_data = data
        self.data_base = data_base
        self.data_end = max(data_end, data_base + 8)
        self.arrays: Dict[str, int] = dict(arrays or {})
        self._nonbranch_runs: Optional[List[int]] = None
        for index, uop in enumerate(uops):
            expected = self.code_base + index * UOP_BYTES
            if uop.pc != expected:
                raise ValueError(
                    f"non-contiguous code image at {uop.pc:#x} "
                    f"(expected {expected:#x})")

    def __len__(self) -> int:
        return len(self._uops)

    @property
    def code_bytes(self) -> int:
        return len(self._uops) * UOP_BYTES

    def uop_at(self, pc: int) -> Optional[StaticUop]:
        """Return the uop at ``pc`` or None if outside the image."""
        offset = pc - self.code_base
        if offset < 0 or offset % UOP_BYTES:
            return None
        index = offset // UOP_BYTES
        if index >= len(self._uops):
            return None
        return self._uops[index]

    def index_of(self, pc: int) -> int:
        """Index of the uop at ``pc``, or -1 if outside the image or
        misaligned (the arithmetic twin of :meth:`uop_at`)."""
        offset = pc - self.code_base
        if offset < 0 or offset % UOP_BYTES:
            return -1
        index = offset // UOP_BYTES
        return index if index < len(self._uops) else -1

    def nonbranch_runs(self) -> List[int]:
        """``run[i]`` = number of consecutive uops starting at index ``i``
        that are neither branches nor HALT — the uops a fetch engine can
        consume without any control-flow decision. Includes a
        ``run[len(self)] == 0`` sentinel. Computed once and cached (the
        image is immutable); the block-grain frontend fast path indexes it
        to size straight-line fetch batches in O(1).
        """
        runs = self._nonbranch_runs
        if runs is None:
            uops = self._uops
            n = len(uops)
            runs = [0] * (n + 1)
            halt = Op.HALT
            for i in range(n - 1, -1, -1):
                su = uops[i]
                if not su.is_branch and su.op is not halt:
                    runs[i] = runs[i + 1] + 1
            self._nonbranch_runs = runs
        return runs

    def uops(self) -> Sequence[StaticUop]:
        return self._uops


class ProgramBuilder:
    """Sequentially emits uops, resolving label references at finalize."""

    def __init__(self, name: str = "program", code_base: int = CODE_BASE,
                 data_base: int = DATA_BASE) -> None:
        self.name = name
        self.code_base = code_base
        self.data_base = data_base
        self._uops: List[StaticUop] = []
        self._labels: Dict[str, int] = {}
        self._fixups: List[tuple] = []       # (uop_index, label)
        self._words = array("Q")             # data image from data_base
        self._holes: List[tuple] = []        # uninitialised word ranges
        self._arrays: Dict[str, int] = {}
        self._label_counter = 0

    # -- code emission -----------------------------------------------------

    @property
    def next_pc(self) -> int:
        return self.code_base + len(self._uops) * UOP_BYTES

    def fresh_label(self, stem: str = "L") -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def label(self, name: Optional[str] = None) -> str:
        """Bind ``name`` (or a fresh label) to the next PC."""
        if name is None:
            name = self.fresh_label()
        if name in self._labels:
            raise ValueError(f"label {name!r} defined twice")
        self._labels[name] = self.next_pc
        return name

    def emit(self, op: Op, dest: int = -1, src1: int = -1, src2: int = -1,
             imm: int = 0, target_label: str = "", label: str = "") -> StaticUop:
        for reg in (dest, src1, src2):
            if reg >= NUM_ARCH_REGS:
                raise ValueError(f"register r{reg} out of range")
        uop = StaticUop(self.next_pc, op, dest=dest, src1=src1, src2=src2,
                        imm=imm, label=label)
        if target_label:
            self._fixups.append((len(self._uops), target_label))
        self._uops.append(uop)
        return uop

    # convenience emitters -------------------------------------------------

    def movi(self, dest: int, imm: int) -> None:
        self.emit(Op.MOVI, dest=dest, imm=imm)

    def alu(self, op: Op, dest: int, src1: int, src2: int = -1,
            imm: int = 0) -> None:
        self.emit(op, dest=dest, src1=src1, src2=src2, imm=imm)

    def load(self, dest: int, base: int, offset: int = 0) -> None:
        self.emit(Op.LOAD, dest=dest, src1=base, imm=offset)

    def store(self, value: int, base: int, offset: int = 0) -> None:
        self.emit(Op.STORE, src1=base, src2=value, imm=offset)

    def branch(self, op: Op, target: str, src1: int, src2: int = -1,
               label: str = "") -> None:
        self.emit(op, src1=src1, src2=src2, target_label=target, label=label)

    def jump(self, target: str) -> None:
        self.emit(Op.JUMP, target_label=target)

    def call(self, target: str) -> None:
        self.emit(Op.CALL, target_label=target)

    def ret(self) -> None:
        self.emit(Op.RET)

    def halt(self) -> None:
        self.emit(Op.HALT)

    def nop_pad(self, count: int) -> None:
        for _ in range(count):
            self.emit(Op.NOP)

    def align(self, byte_boundary: int) -> None:
        """Pad with NOPs until the next PC sits on ``byte_boundary``."""
        while self.next_pc % byte_boundary:
            self.emit(Op.NOP)

    # -- data segment ------------------------------------------------------

    def alloc_array(self, name: str, num_words: int,
                    init: Optional[Callable[[int], int]] = None,
                    values: Optional[Sequence[int]] = None) -> int:
        """Reserve ``num_words`` 8-byte words; return the base byte address."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} allocated twice")
        words = self._words
        start = len(words)
        base = self.data_base + start * WORD_BYTES
        if values is not None:
            if len(values) != num_words:
                raise ValueError("values length mismatch")
        elif init is not None:
            values = [init(i) for i in range(num_words)]
        if values is None:
            words.frombytes(bytes(num_words * WORD_BYTES))
            if num_words:
                self._holes.append((start, start + num_words))
        else:
            try:
                words.extend(values)
            except (OverflowError, TypeError) as exc:
                del words[start:]
                raise ValueError(f"array {name!r}: every word must be an "
                                 f"int in [0, 2**64): {exc}") from None
        self._arrays[name] = base
        return base

    def array(self, name: str) -> int:
        return self._arrays[name]

    # -- finalisation --------------------------------------------------------

    def finalize(self, entry_label: str = "") -> Program:
        """Resolve fixups and freeze the image."""
        for index, label in self._fixups:
            if label not in self._labels:
                raise ValueError(f"undefined label {label!r}")
            self._uops[index].target = self._labels[label]
        entry = self._labels.get(entry_label, self.code_base)
        data = DataImage(self.data_base, array("Q", self._words),
                         self._holes)
        return Program(self._uops, entry, data, name=self.name,
                       data_base=self.data_base,
                       data_end=self.data_base
                       + len(self._words) * WORD_BYTES,
                       arrays=self._arrays)
