"""PHY user-plane latency decomposition — §4.3 of the paper.

The paper defines user-plane delay as PHY DL plus UL latency and shows
it is driven by the TDD frame structure, not the channel bandwidth:
with BLER = 0, Vodafone Italy (DDDDDDDSUU) sees 6.93 ms while Vodafone
Germany (DDDSU) sees 2.13 ms; BLER > 0 adds a HARQ-retransmission tail.

The model decomposes a round into:

- **DL leg**: alignment wait to the next DL opportunity + slot
  transmission + UE processing;
- **UL leg**: either *configured-grant* access (wait for the next UL
  opportunity + transmission + gNB processing) or *SR-based* access
  (wait for an UL opportunity to send the scheduling request + grant
  round trip through a DL slot + wait for the next UL opportunity +
  transmission + processing).  Sparse-UL patterns like DDDDDDDSUU make
  the SR path dramatically more expensive — which is exactly the
  V_It-vs-V_Ge gap.

Both an analytic mean and a Monte Carlo sampler (for distributions /
box plots) are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.nr.numerology import Numerology, slot_duration_ms
from repro.nr.tdd import SlotType, TddPattern


@dataclass(frozen=True)
class LatencyBreakdown:
    """Mean latency components in ms."""

    dl_alignment: float
    dl_transmission: float
    ue_processing: float
    sr_alignment: float
    grant_round_trip: float
    ul_alignment: float
    ul_transmission: float
    gnb_processing: float

    @property
    def dl_latency_ms(self) -> float:
        return self.dl_alignment + self.dl_transmission + self.ue_processing

    @property
    def ul_latency_ms(self) -> float:
        return (
            self.sr_alignment + self.grant_round_trip
            + self.ul_alignment + self.ul_transmission + self.gnb_processing
        )

    @property
    def total_ms(self) -> float:
        """User-plane delay: PHY DL + UL latency."""
        return self.dl_latency_ms + self.ul_latency_ms


@dataclass(frozen=True)
class UserPlaneLatencyModel:
    """User-plane latency for one deployment.

    Parameters
    ----------
    pattern:
        TDD pattern (the §4.3 driver).
    mu:
        Numerology (30 kHz SCS for all studied mid-band channels).
    sr_based_ul:
        ``True`` when UL access requires a scheduling request (sparse-UL
        deployments); ``False`` for configured-grant-style UL.
    ue_processing_ms, gnb_processing_ms:
        Decode/prepare times at each end.
    retx_fraction:
        Fraction of packets in a BLER>0 window that actually suffer a
        retransmission (dilution of the HARQ penalty in the bucket mean).
    """

    pattern: TddPattern
    mu: Numerology = Numerology.MU_1
    sr_based_ul: bool = False
    ue_processing_ms: float = 0.30
    gnb_processing_ms: float = 0.25
    retx_fraction: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 <= self.retx_fraction <= 1.0:
            raise ValueError("retx_fraction must lie in [0, 1]")

    @cached_property
    def slot_ms(self) -> float:
        return slot_duration_ms(self.mu)

    @cached_property
    def _whole_wait_ms(self) -> dict[SlotType, tuple[float, ...]]:
        """Per direction, ``wait_slots(direction, s) * slot_ms`` indexed by
        ``s % period_slots`` (the wait depends on nothing else)."""
        period = self.pattern.period_slots
        return {
            direction: tuple(self.pattern.wait_slots(direction, s) * self.slot_ms
                             for s in range(period))
            for direction in (SlotType.DL, SlotType.UL)
        }

    # ------------------------------------------------------------------ #
    # Analytic means
    # ------------------------------------------------------------------ #
    def breakdown(self) -> LatencyBreakdown:
        """Mean latency decomposition with BLER = 0."""
        dl_wait = self.pattern.mean_wait_ms(SlotType.DL, self.mu)
        ul_wait = self.pattern.mean_wait_ms(SlotType.UL, self.mu)
        if self.sr_based_ul:
            sr_alignment = ul_wait
            grant_round_trip = (
                self.gnb_processing_ms            # gNB decodes the SR
                + self.pattern.mean_wait_ms(SlotType.DL, self.mu)
                + self.ue_processing_ms           # UE decodes the grant
            )
        else:
            sr_alignment = 0.0
            grant_round_trip = 0.0
        return LatencyBreakdown(
            dl_alignment=dl_wait,
            dl_transmission=self.slot_ms,
            ue_processing=self.ue_processing_ms,
            sr_alignment=sr_alignment,
            grant_round_trip=grant_round_trip,
            ul_alignment=ul_wait,
            ul_transmission=self.slot_ms,
            gnb_processing=self.gnb_processing_ms,
        )

    def mean_latency_ms(self, bler_positive: bool = False) -> float:
        """Mean user-plane delay; with ``bler_positive`` the HARQ tail of
        the BLER>0 measurement bucket is added."""
        total = self.breakdown().total_ms
        if bler_positive:
            total += self.retx_fraction * self.harq_penalty_ms()
        return total

    def harq_penalty_ms(self) -> float:
        """Extra delay of one HARQ retransmission.

        NACK decode + the wait until the next opportunity in the failed
        direction + the retransmission slot.  DL and UL failures are
        weighted equally (both directions carry traffic in the round).
        """
        dl_extra = self.gnb_processing_ms + self.pattern.mean_wait_ms(SlotType.DL, self.mu) + self.slot_ms
        ul_extra = self.ue_processing_ms + self.pattern.mean_wait_ms(SlotType.UL, self.mu) + self.slot_ms
        return 0.5 * (dl_extra + ul_extra)

    # ------------------------------------------------------------------ #
    # Monte Carlo
    # ------------------------------------------------------------------ #
    def _wait_from_phase(self, phase_slots: float, direction: SlotType) -> float:
        """Exact wait (ms) from a fractional slot position to the start
        of the next slot carrying ``direction``."""
        slot = int(phase_slots)
        residual = (slot + 1 - phase_slots) * self.slot_ms
        waits = self._whole_wait_ms[direction]
        return residual + waits[(slot + 1) % len(waits)]

    def sample(
        self,
        n: int,
        rng: np.random.Generator | None = None,
        retx_probability: float = 0.0,
    ) -> np.ndarray:
        """Sample ``n`` user-plane delays (ms) with uniform arrival phases.

        Each sampled packet independently suffers a HARQ retransmission
        with ``retx_probability``.
        """
        if n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= retx_probability <= 1.0:
            raise ValueError("retx_probability must lie in [0, 1]")
        rng = rng or np.random.default_rng()
        period = self.pattern.period_slots
        phases = rng.random(n) * period
        delays = np.empty(n)
        for i, phase in enumerate(phases):
            t = self._wait_from_phase(float(phase), SlotType.DL)
            t += self.slot_ms + self.ue_processing_ms
            cursor = (phase + t / self.slot_ms) % period
            if self.sr_based_ul:
                sr_wait = self._wait_from_phase(float(cursor), SlotType.UL)
                t += sr_wait + self.gnb_processing_ms
                cursor = (cursor + (sr_wait + self.gnb_processing_ms) / self.slot_ms) % period
                grant_wait = self._wait_from_phase(float(cursor), SlotType.DL)
                t += grant_wait + self.ue_processing_ms
                cursor = (cursor + (grant_wait + self.ue_processing_ms) / self.slot_ms) % period
            ul_wait = self._wait_from_phase(float(cursor), SlotType.UL)
            t += ul_wait + self.slot_ms + self.gnb_processing_ms
            delays[i] = t
        if retx_probability > 0.0:
            retx = rng.random(n) < retx_probability
            delays = delays + retx * self.harq_penalty_ms()
        return delays
