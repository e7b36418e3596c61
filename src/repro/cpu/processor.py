"""Processors, physical cores, and logical (SMT) cores.

The study's population covers nine micro-architectures (Table 2), all
multi-core, with SMT ("multiple hardware threads, also known as logical
cores, can share a single physical core", Observation 4).  A
:class:`Processor` is the unit of fleet accounting; defects attach to
processors and name the physical cores they affect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .defects import Defect

__all__ = ["MicroArchitecture", "LogicalCore", "PhysicalCore", "Processor"]


@dataclass(frozen=True)
class MicroArchitecture:
    """A CPU micro-architecture generation (M1-M9 in Table 2)."""

    name: str
    #: Release year relative to the earliest arch in the fleet; used only
    #: to show failure rate does not decrease with newer chips (Obs. 3).
    generation: int
    physical_cores: int
    smt: int = 2
    #: Thermal design parameters consumed by :mod:`repro.thermal`.
    tdp_watts: float = 150.0
    idle_temp_c: float = 45.0
    max_temp_c: float = 95.0

    def __post_init__(self) -> None:
        if self.physical_cores <= 0 or self.smt <= 0:
            raise ConfigurationError("core counts must be positive")

    @property
    def logical_cores(self) -> int:
        return self.physical_cores * self.smt


@dataclass(frozen=True)
class LogicalCore:
    """One hardware thread.  ``(pcore_id, thread_id)`` identifies it."""

    pcore_id: int
    thread_id: int

    @property
    def name(self) -> str:
        return f"pcore{self.pcore_id}t{self.thread_id}"


@dataclass(frozen=True)
class PhysicalCore:
    """One physical core with its SMT threads."""

    pcore_id: int
    smt: int = 2

    def logical(self) -> Tuple[LogicalCore, ...]:
        return tuple(
            LogicalCore(self.pcore_id, thread) for thread in range(self.smt)
        )

    @property
    def name(self) -> str:
        return f"pcore{self.pcore_id}"


@dataclass
class Processor:
    """A processor in the fleet, possibly carrying defects.

    Defect-free processors have an empty ``defects`` list; the executor
    then never corrupts results, which is also how "unaffected cores
    within a faulty processor" behave (Observation 4 / fine-grained
    decommission in §7.1).
    """

    processor_id: str
    arch: MicroArchitecture
    defects: Tuple[Defect, ...] = ()
    age_years: float = 0.0
    #: Physical cores masked out by fine-grained decommission (§7.1).
    masked_cores: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for defect in self.defects:
            bad = [c for c in defect.core_ids if not 0 <= c < self.arch.physical_cores]
            if bad:
                raise ConfigurationError(
                    f"defect {defect.defect_id} names nonexistent cores {bad}"
                )

    # -- topology ---------------------------------------------------------

    @property
    def physical_cores(self) -> List[PhysicalCore]:
        return [
            PhysicalCore(i, self.arch.smt)
            for i in range(self.arch.physical_cores)
        ]

    def available_cores(self) -> List[PhysicalCore]:
        """Physical cores not masked by decommission."""
        return [c for c in self.physical_cores if c.pcore_id not in self.masked_cores]

    def logical_cores(self) -> Iterator[LogicalCore]:
        for pcore in self.physical_cores:
            yield from pcore.logical()

    # -- defect queries -----------------------------------------------------

    @property
    def is_faulty(self) -> bool:
        return bool(self.defects)

    @property
    def age_days(self) -> float:
        return self.age_years * 365.0

    def active_defects(self, age_days: Optional[float] = None) -> List[Defect]:
        """Defects that have onset by the given age (default: current)."""
        if age_days is None:
            age_days = self.age_days
        return [d for d in self.defects if d.active_at(age_days)]

    def defective_cores(self) -> frozenset:
        """Physical-core ids touched by any defect."""
        cores: set = set()
        for defect in self.defects:
            cores.update(defect.core_ids)
        return frozenset(cores)

    def defective_features(self) -> frozenset:
        features: set = set()
        for defect in self.defects:
            features.update(defect.features)
        return frozenset(features)

    def defects_for_core(self, pcore_id: int) -> List[Defect]:
        return [d for d in self.defects if d.affects_core(pcore_id)]

    # -- decommission -------------------------------------------------------

    def with_masked_cores(self, core_ids: Sequence[int]) -> "Processor":
        """Return a copy with additional cores masked (never mutates)."""
        return Processor(
            processor_id=self.processor_id,
            arch=self.arch,
            defects=self.defects,
            age_years=self.age_years,
            masked_cores=frozenset(self.masked_cores) | frozenset(core_ids),
        )
