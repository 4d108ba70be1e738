"""MCS index tables (TS 38.214 Tables 5.1.3.1-1 and 5.1.3.1-2).

The MCS (modulation and coding scheme) index signaled in the DCI selects a
modulation order ``Q_m`` and a target code rate ``R`` (stored as
``R * 1024``).  The paper's §3.1 explains that DCI format 1_1 addresses the
256QAM table while format 1_0 addresses the 64QAM table, and §4.1 (Fig. 5)
dissects which modulation orders operators actually used.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class Modulation(enum.Enum):
    """Modulation order (bits per resource element per layer)."""

    QPSK = 2
    QAM16 = 4
    QAM64 = 6
    QAM256 = 8

    @property
    def bits_per_symbol(self) -> int:
        return self.value

    @classmethod
    def from_order(cls, q_m: int) -> "Modulation":
        for modulation in cls:
            if modulation.value == q_m:
                return modulation
        raise ValueError(f"no modulation with order {q_m}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class McsEntry:
    """One row of an MCS table."""

    index: int
    modulation: Modulation
    code_rate_x1024: float

    @property
    def code_rate(self) -> float:
        """Target code rate as a fraction."""
        return self.code_rate_x1024 / 1024.0

    @property
    def spectral_efficiency(self) -> float:
        """Information bits per resource element per layer."""
        return self.modulation.bits_per_symbol * self.code_rate


class McsTable:
    """An ordered MCS table with efficiency-based lookups."""

    def __init__(self, name: str, entries: list[McsEntry], max_modulation: Modulation):
        if not entries:
            raise ValueError("an MCS table needs at least one entry")
        self.name = name
        self.entries = tuple(entries)
        self.max_modulation = max_modulation

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> McsEntry:
        if not 0 <= index < len(self.entries):
            raise IndexError(f"MCS index {index} outside [0, {len(self.entries) - 1}] for {self.name}")
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)

    @cached_property
    def efficiencies(self) -> np.ndarray:
        """Spectral efficiency of each index.

        Note: *not* strictly monotone — at modulation transitions the
        first row of the higher order can carry slightly fewer bits than
        the last row of the lower order (e.g. 64QAM index 17 vs 16QAM
        index 16), which is why lookups below use an explicit argmax
        over the feasible set instead of a binary search.
        """
        return np.array([e.spectral_efficiency for e in self.entries])

    @cached_property
    def content_key(self) -> tuple:
        """Hashable content of the table, built once: equal tables share
        it, so content-keyed caches (the TBS matrix cache) treat them as
        one table."""
        return tuple((e.index, e.modulation.bits_per_symbol, e.code_rate)
                     for e in self.entries)

    @cached_property
    def max_index(self) -> int:
        return len(self.entries) - 1

    @property
    def max_code_rate(self) -> float:
        """Highest target code rate in the table (R_max of §3.2's formula)."""
        return max(e.code_rate for e in self.entries)

    def highest_index_below(self, efficiency: float) -> int:
        """Most efficient MCS index not exceeding ``efficiency``.

        Used by link adaptation: the gNB picks the most aggressive MCS the
        estimated channel can sustain.  Because the table efficiencies dip
        at modulation transitions, this is an argmax over the feasible
        set (ties resolved toward the higher index), clamped to index 0.
        """
        feasible = self.efficiencies <= efficiency
        if not feasible.any():
            return 0
        candidates = np.where(feasible)[0]
        best_eff = self.efficiencies[candidates].max()
        return int(candidates[self.efficiencies[candidates] >= best_eff - 1e-12][-1])

    def indices_for_modulation(self, modulation: Modulation) -> list[int]:
        """All indices using the given modulation order."""
        return [e.index for e in self.entries if e.modulation is modulation]


def _build(name: str, rows: list[tuple[int, float]], max_modulation: Modulation) -> McsTable:
    entries = [
        McsEntry(index=i, modulation=Modulation.from_order(q_m), code_rate_x1024=rate)
        for i, (q_m, rate) in enumerate(rows)
    ]
    return McsTable(name, entries, max_modulation)


#: TS 38.214 Table 5.1.3.1-1 (qam64): indices 0..28 (29-31 reserved).
MCS_TABLE_64QAM = _build(
    "qam64",
    [
        (2, 120), (2, 157), (2, 193), (2, 251), (2, 308), (2, 379), (2, 449),
        (2, 526), (2, 602), (2, 679),
        (4, 340), (4, 378), (4, 434), (4, 490), (4, 553), (4, 616), (4, 658),
        (6, 438), (6, 466), (6, 517), (6, 567), (6, 616), (6, 666), (6, 719),
        (6, 772), (6, 822), (6, 873), (6, 910), (6, 948),
    ],
    Modulation.QAM64,
)

#: TS 38.214 Table 5.1.3.1-2 (qam256): indices 0..27 (28-31 reserved).
MCS_TABLE_256QAM = _build(
    "qam256",
    [
        (2, 120), (2, 193), (2, 308), (2, 449), (2, 602),
        (4, 378), (4, 434), (4, 490), (4, 553), (4, 616), (4, 658),
        (6, 466), (6, 517), (6, 567), (6, 616), (6, 666), (6, 719), (6, 772),
        (6, 822), (6, 873),
        (8, 682.5), (8, 711), (8, 754), (8, 797), (8, 841), (8, 885),
        (8, 916.5), (8, 948),
    ],
    Modulation.QAM256,
)


def table_for_max_modulation(max_modulation: Modulation) -> McsTable:
    """MCS table matching an operator's configured maximum modulation."""
    if max_modulation is Modulation.QAM256:
        return MCS_TABLE_256QAM
    if max_modulation is Modulation.QAM64:
        return MCS_TABLE_64QAM
    raise ValueError(f"operators configure QAM64 or QAM256 ceilings, not {max_modulation}")
