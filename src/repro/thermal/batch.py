"""Struct-of-arrays batch stepping of the lumped-RC thermal model.

:class:`BatchPackageThermalModel` steps *N* independent package models
at once with NumPy array ops, **bit-identical per lane** to stepping
*N* scalar :class:`~repro.thermal.model.PackageThermalModel` instances.
The fleet-scale Farron online simulation
(:func:`repro.core.batch_online.simulate_online_batch`) spends most of
its time here, so the inner loop must be array-shaped — but the
benchmarks assert exact parity with the scalar path, so every
floating-point operation must happen in the same order per lane:

* NumPy elementwise ``+ - * /`` on float64 are the same IEEE-754
  operations the scalar model performs, so per-lane sequences of
  elementwise updates match bit for bit;
* the package power sum accumulates **core by core along axis 1**
  (``np.add.accumulate``, a strictly sequential chain), reproducing the
  scalar ``sum(powers)`` left-to-right addition order — a pairwise
  ``np.sum(axis=1)`` would round differently;
* decay factors come from the scalar model's libm
  :func:`~repro.thermal.model.decay_factor`, one call per distinct
  step length, never from ``np.exp``;
* lanes with fewer cores than the widest lane are zero-padded; a padded
  core's equilibrium is ``0.0 * R = 0.0`` and its delta stays exactly
  ``0.0``, so padding never perturbs a lane.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..cpu.processor import MicroArchitecture
from ..errors import ConfigurationError
from .model import ThermalParams, decay_factor

__all__ = ["BatchPackageThermalModel"]


class BatchPackageThermalModel:
    """Thermal state of ``N`` packages, stepped together.

    Lane ``i`` mirrors ``PackageThermalModel(archs[i], params,
    cooling_factor)`` exactly.  Readouts are arrays over lanes; cores
    beyond a lane's ``physical_cores`` are padding and must be masked
    by the caller (see :attr:`core_mask`).
    """

    def __init__(
        self,
        archs: Sequence[MicroArchitecture],
        params: Optional[ThermalParams] = None,
        cooling_factor: float = 1.0,
    ):
        if not archs:
            raise ConfigurationError("archs must be non-empty")
        if cooling_factor <= 0:
            raise ConfigurationError("cooling_factor must be positive")
        self.params = params if params is not None else ThermalParams()
        self.cooling_factor = cooling_factor
        self.n_lanes = len(archs)
        self.n_cores = np.array(
            [arch.physical_cores for arch in archs], dtype=np.intp
        )
        self.max_cores = int(self.n_cores.max())
        #: [n_lanes, max_cores] — True where the core exists on the lane.
        self.core_mask = (
            np.arange(self.max_cores)[None, :] < self.n_cores[:, None]
        )
        #: Max dynamic watts per core at heat factor 1.0, per lane.
        self.dynamic_budget_per_core = np.array(
            [
                (arch.tdp_watts - self.params.idle_power_w)
                / arch.physical_cores
                for arch in archs
            ]
        )
        # Idle equilibrium, the scalar model's starting temperature.
        # One scalar expression broadcast to all lanes — identical to
        # each lane's own equilibrium_package_temp(0.0).
        idle_equilibrium = self.params.ambient_c + (
            self.params.idle_power_w * self.params.r_package * cooling_factor
        )
        self.t_package = np.full(self.n_lanes, idle_equilibrium)
        self.deltas = np.zeros((self.n_lanes, self.max_cores))
        self.elapsed_s = 0.0
        # step_lanewise scratch, reused by every call.
        self._lane_scratch = (
            *np.empty((3, self.n_lanes)), np.empty(self.n_lanes, dtype=bool)
        )
        self._core_scratch = np.empty((2, *self.deltas.shape))

    def core_powers(
        self, utilization: np.ndarray, heat_factor: np.ndarray
    ) -> np.ndarray:
        """[n_lanes, max_cores] watts for a uniform all-core load.

        Matches the scalar ``_core_power(utilization, heat_factor)`` —
        the product associates ``(utilization * heat_factor) * budget``
        — applied to every existing core of the lane; padded cores get
        exactly 0.0.  Callers zero out additional columns (masked
        cores) before stepping.
        """
        if np.any(utilization < 0.0) or np.any(utilization > 1.0):
            raise ConfigurationError("utilization must be in [0, 1]")
        if np.any(heat_factor < 0.0):
            raise ConfigurationError("heat_factor must be non-negative")
        per_core = (
            (utilization * heat_factor) * self.dynamic_budget_per_core
        )
        return np.where(self.core_mask, per_core[:, None], 0.0)

    def total_power_rows(self, powers: np.ndarray) -> np.ndarray:
        """Per-lane package watts: idle power plus the core-by-core sum.

        Scalar ``sum(powers)`` starts from 0 and adds left to right; a
        padded column adds +0.0, which is exact for the non-negative
        power rows.  The result depends on ``powers`` alone, so callers
        whose power rows persist across windows (the screening engine's
        plan entries) may compute it once and pass it back into
        :meth:`step_lanewise` unchanged.
        """
        total_power = np.add.accumulate(powers, axis=1)[:, -1]
        return self.params.idle_power_w + total_power

    def _tau_package(self) -> float:
        params = self.params
        return params.r_package * self.cooling_factor * params.c_package

    def step(self, dt_s: float, powers: np.ndarray) -> None:
        """Advance every lane ``dt_s`` seconds under ``powers`` watts.

        ``powers`` is [n_lanes, max_cores] with padded columns equal to
        0.0 (see :meth:`core_powers`).
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        params = self.params
        t_eq = self.total_power_rows(powers) * params.r_package
        t_eq = params.ambient_c + t_eq * self.cooling_factor
        decay = decay_factor(dt_s, self._tau_package())
        self.t_package = t_eq + (self.t_package - t_eq) * decay
        d_eq = powers * params.r_core
        decay = decay_factor(dt_s, params.r_core * params.c_core)
        self.deltas = d_eq + (self.deltas - d_eq) * decay
        self.elapsed_s += dt_s

    def step_lanewise(
        self,
        dt_lanes: np.ndarray,
        powers: np.ndarray,
        total_power: Optional[np.ndarray] = None,
    ) -> None:
        """Advance lane ``i`` by ``dt_lanes[i]`` seconds under ``powers``.

        The toolchain screening engine runs heterogeneous plans in
        lockstep: lanes mid-entry request their own window lengths, and
        finished lanes request 0.0 and must not move.  Each moving lane
        takes the scalar model's one closed-form step with the decay
        factors of its own ``dt``.  Zero-``dt`` lanes are masked out:
        ``eq + (x - eq) * 1.0`` need not round back to ``x``.

        ``total_power``, when given, must equal
        ``total_power_rows(powers)`` — a cache the screening engine
        carries across the many windows a plan entry spans, since the
        accumulation is a pure function of the unchanged power rows.

        Unlike :meth:`step` this does not advance :attr:`elapsed_s`
        (the lanes no longer share one clock); the caller tracks
        per-lane elapsed time itself.
        """
        if np.any(dt_lanes < 0.0):
            raise ConfigurationError("dt_lanes must be non-negative")
        if total_power is None:
            total_power = self.total_power_rows(powers)
        params = self.params
        tau_pkg = self._tau_package()
        tau_core = params.r_core * params.c_core
        decay_pkg, decay_core, t_eq, mask = self._lane_scratch
        for dt in np.unique(dt_lanes).tolist():
            np.equal(dt_lanes, dt, out=mask)
            np.copyto(decay_pkg, decay_factor(dt, tau_pkg), where=mask)
            np.copyto(decay_core, decay_factor(dt, tau_core), where=mask)
        moving = np.greater(dt_lanes, 0.0, out=mask)
        # The scalar `eq + (x - eq) * decay` as in-place ops (IEEE
        # addition commutes exactly); `where=` leaves the zero-dt lanes
        # untouched.  Package equilibrium: `ambient + total * R * cf`.
        np.multiply(total_power, params.r_package, out=t_eq)
        t_eq *= self.cooling_factor
        t_eq += params.ambient_c
        x = self.t_package
        np.subtract(x, t_eq, out=x, where=moving)
        np.multiply(x, decay_pkg, out=x, where=moving)
        np.add(x, t_eq, out=x, where=moving)
        d_eq, core = self._core_scratch
        np.multiply(powers, params.r_core, out=d_eq)
        np.subtract(self.deltas, d_eq, out=core)
        core *= decay_core[:, None]
        core += d_eq
        np.copyto(self.deltas, core, where=moving[:, None])

    # -- readouts -----------------------------------------------------------

    def core_temps(self) -> np.ndarray:
        """[n_lanes, max_cores]; padded columns read as package temp."""
        return self.t_package[:, None] + self.deltas

    def max_core_temp(self, active_mask: np.ndarray) -> np.ndarray:
        """Per-lane max core temperature over ``active_mask`` columns.

        ``active_mask`` is [n_lanes, max_cores] and must select at
        least one core per lane (the scalar simulation's unmasked-core
        list is never empty).
        """
        temps = np.where(active_mask, self.core_temps(), -np.inf)
        return temps.max(axis=1)

    def lane_states(self) -> List[tuple]:
        """Per-lane ``(t_package, deltas)`` snapshots (tests/debugging)."""
        return [
            (float(self.t_package[i]), self.deltas[i, : self.n_cores[i]].tolist())
            for i in range(self.n_lanes)
        ]
