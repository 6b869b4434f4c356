"""Banking of the branch predictor, BTB, and I-cache (paper Section V-B).

The paper banks TAGE-SC-L by replacing one 64 KB predictor with four 16 KB
"mini-TAGE" banks selected by XOR hashes of low PC bits (Table I), and banks
the I-cache/BTB on fetch-address bits 5 and 7. Two paths can be serviced in
the same cycle iff they map to different banks; on a conflict the predicted
path wins and the alternate path stalls.

PC bit numbering: the paper indexes branch-address bits above the
instruction alignment. Our uops are 4-byte aligned, so ``PC[i]`` here means
bit ``i`` of ``pc >> 2`` for the predictor hashes; the I-cache/BTB hashes use
raw byte-address bits 5 and 7 as stated.
"""

from __future__ import annotations

from typing import List

from repro.common.config import TageConfig
from repro.branch.tage import Prediction, TageSCL

__all__ = ["tage_bank_bits", "icache_bank_bits", "BankedTage",
           "fetch_banks_touched"]


def tage_bank_bits(pc: int, num_banks: int) -> int:
    """Table I hash: map a branch PC to a predictor bank."""
    word = pc >> 2
    if num_banks == 1:
        return 0
    if num_banks == 2:
        return (word ^ (word >> 4)) & 1
    if num_banks == 4:
        bit0 = (word ^ (word >> 1) ^ (word >> 5) ^ (word >> 6)) & 1
        bit1 = ((word >> 2) ^ (word >> 3) ^ (word >> 4) ^ (word >> 7)) & 1
        return bit0 | (bit1 << 1)
    if num_banks == 8:
        bit0 = (word ^ (word >> 1) ^ (word >> 2)) & 1
        bit1 = ((word >> 3) ^ (word >> 5) ^ (word >> 6)) & 1
        bit2 = ((word >> 4) ^ (word >> 7)) & 1
        return bit0 | (bit1 << 1) | (bit2 << 2)
    raise ValueError(f"unsupported bank count {num_banks}")


def icache_bank_bits(address: int) -> int:
    """Table I: I-cache/BTB bank = {PC[7], PC[6]} over half-line groups.

    Bit 5 splits a 64 B line into two 32 B half-lines (bit 6 of the paper's
    notation folds into the half-line index); we follow the paper's final
    rule: bank index from byte-address bits 6 and 5, then group by bit 7.
    """
    return ((address >> 5) & 1) | ((address >> 6) & 2)


def fetch_banks_touched(address: int, num_bytes: int) -> List[int]:
    """Banks a fetch of ``num_bytes`` starting at ``address`` touches."""
    banks = [icache_bank_bits(address)]
    last = address + num_bytes - 1
    if (last >> 5) != (address >> 5):  # crosses a 32B half-line
        second = icache_bank_bits((address | 31) + 1)
        if second != banks[0]:
            banks.append(second)
    return banks


class BankedTage:
    """N mini-TAGE-SC-L banks standing in for one large predictor.

    Storage is conserved: each mini bank is scaled down by log2(num_banks).
    A branch is predicted and updated only by its bank, so hot banks can
    suffer capacity contention — the accuracy cost the paper measures in
    Fig. 7.
    """

    def __init__(self, config: TageConfig, num_banks: int,
                 seed: int = 777) -> None:
        if num_banks not in (1, 2, 4, 8):
            raise ValueError(f"unsupported bank count {num_banks}")
        self.num_banks = num_banks
        log_delta = -(num_banks.bit_length() - 1)
        self.bank_config = config.scaled(log_delta) if num_banks > 1 else config
        self.banks = [TageSCL(self.bank_config, seed=seed + i)
                      for i in range(num_banks)]
        self._bank_map: List[int] = []
        self._map_base = 0

    def prime_pc_map(self, code_base: int, num_uops: int) -> None:
        """Precompute :meth:`bank_of` over a contiguous code image.

        The Table I hash is a pure function of the PC, and the predict
        loop asks for the same code-image PCs over and over; a list
        lookup replaces the XOR cascade with one index."""
        self._map_base = code_base
        banks = self.num_banks
        self._bank_map = [tage_bank_bits(code_base + (i << 2), banks)
                          for i in range(num_uops)]

    def bank_of(self, pc: int) -> int:
        table = self._bank_map
        index = (pc - self._map_base) >> 2
        if 0 <= index < len(table):
            return table[index]
        return tage_bank_bits(pc, self.num_banks)

    def fold_specs(self):
        """All banks share one scaled config, hence one fold-spec set."""
        return self.banks[0].fold_specs()

    def predict(self, pc: int, ghr: int, path: int = 0,
                folds=None) -> Prediction:
        table = self._bank_map
        index = (pc - self._map_base) >> 2
        if 0 <= index < len(table):
            bank = table[index]
        else:
            bank = tage_bank_bits(pc, self.num_banks)
        return self.banks[bank].predict(pc, ghr, path, folds)

    def update(self, pc: int, ghr: int, taken: bool, path: int = 0,
               backward: bool = False, folds=None) -> None:
        table = self._bank_map
        index = (pc - self._map_base) >> 2
        if 0 <= index < len(table):
            bank = table[index]
        else:
            bank = tage_bank_bits(pc, self.num_banks)
        self.banks[bank].update(pc, ghr, taken, path,
                                backward=backward, folds=folds)

    def storage_bits(self) -> int:
        return sum(bank.storage_bits() for bank in self.banks)

    def snapshot(self) -> list:
        return [bank.snapshot() for bank in self.banks]

    def restore(self, state: list) -> None:
        for bank, saved in zip(self.banks, state):
            bank.restore(saved)
