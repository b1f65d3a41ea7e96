"""The three deployment modes and their latency simulation (Section IV).

* **Mode 1** — EcoCharge runs in the vehicle's embedded OS: ranking is
  local, data snapshots travel over the vehicle's connectivity.
* **Mode 2** — the EIS computes centrally: per segment, the client sends a
  small request and receives a ready Offering Table.
* **Mode 3** — an edge device (phone) computes: like Mode 1 but with
  phone-class compute (slower CPU factor) and cellular latency.

The simulation composes measured local compute time with a parametric
network model, yielding the end-to-end per-segment latency each mode
delivers — the quantity that motivates the paper's claim that continuous
recomputation is feasible "on the edge devices".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.ecocharge import EcoChargeConfig, EcoChargeRanker
from ..core.environment import ChargingEnvironment
from ..core.ranking import run_over_trip
from ..network.path import Trip
from ..observability.clock import SYSTEM_CLOCK, Clock


class DeploymentMode(enum.Enum):
    """Where EcoCharge executes (the paper's Modes 1/2/3)."""

    EMBEDDED = "mode1-embedded"
    SERVER = "mode2-server"
    EDGE = "mode3-edge"


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """Parametric network/compute model per mode.

    ``round_trip_ms`` is one request/response exchange; ``per_kb_ms``
    models payload serialisation; ``compute_factor`` scales local compute
    (embedded automotive SoCs and phones are slower than the server).
    """

    round_trip_ms: float
    per_kb_ms: float
    compute_factor: float

    def transfer_ms(self, payload_kb: float) -> float:
        """Round trip plus payload serialisation time for ``payload_kb``."""
        return self.round_trip_ms + self.per_kb_ms * payload_kb


#: Defaults: automotive modem, datacenter server, cellular phone.
LATENCY_MODELS: dict[DeploymentMode, LatencyModel] = {
    DeploymentMode.EMBEDDED: LatencyModel(round_trip_ms=60.0, per_kb_ms=0.08, compute_factor=2.0),
    DeploymentMode.SERVER: LatencyModel(round_trip_ms=45.0, per_kb_ms=0.05, compute_factor=1.0),
    DeploymentMode.EDGE: LatencyModel(round_trip_ms=90.0, per_kb_ms=0.12, compute_factor=3.0),
}

#: Rough payload sizes (KB) for the simulated exchanges.
SNAPSHOT_KB_PER_CHARGER = 0.25
OFFERING_TABLE_KB = 2.0
REQUEST_KB = 0.5


@dataclass(frozen=True, slots=True)
class ModeReport:
    """Per-trip latency breakdown for one mode."""

    mode: DeploymentMode
    segments: int
    compute_ms: float
    network_ms: float

    @property
    def total_ms(self) -> float:
        return self.compute_ms + self.network_ms

    @property
    def per_segment_ms(self) -> float:
        return self.total_ms / self.segments if self.segments else 0.0


def simulate_mode(
    environment: ChargingEnvironment,
    trip: Trip,
    mode: DeploymentMode,
    config: EcoChargeConfig | None = None,
    latency: LatencyModel | None = None,
    clock: Clock = SYSTEM_CLOCK,
) -> ModeReport:
    """Run EcoCharge over a trip as deployed in ``mode``.

    Local compute is *measured* (wall clock around the actual ranking) and
    scaled by the mode's compute factor; network cost is modelled from the
    number of snapshot/request exchanges the mode performs:

    * EMBEDDED / EDGE: one region snapshot per *regenerated* table (cache
      hits are free — the whole point of Dynamic Caching on-device);
    * SERVER: one request + one table download per segment.

    The ranking runs on a :meth:`~ChargingEnvironment.cold_copy` of
    ``environment``, so every mode starts from the same cold caches and
    none reads what an earlier mode warmed.
    """
    config = config if config is not None else EcoChargeConfig()
    latency = latency if latency is not None else LATENCY_MODELS[mode]

    environment = environment.cold_copy()
    ranker = EcoChargeRanker(environment, config)
    started = clock.monotonic()
    run = run_over_trip(ranker, environment, trip, segment_km=config.segment_km)
    compute_s = clock.monotonic() - started

    segments = len(run.tables)
    regenerated = sum(1 for table in run.tables if not table.is_adapted)
    snapshot_kb = REQUEST_KB + SNAPSHOT_KB_PER_CHARGER * max(
        1, len(environment.registry)
    ) * min(1.0, config.radius_km / max(environment.registry.bounds.width, 1.0))

    if mode is DeploymentMode.SERVER:
        network_ms = segments * (
            latency.transfer_ms(REQUEST_KB) + latency.transfer_ms(OFFERING_TABLE_KB)
        )
        compute_ms = compute_s * 1000.0 * latency.compute_factor
    else:
        network_ms = regenerated * latency.transfer_ms(snapshot_kb)
        compute_ms = compute_s * 1000.0 * latency.compute_factor

    return ModeReport(
        mode=mode, segments=segments, compute_ms=compute_ms, network_ms=network_ms
    )


def compare_modes(
    environment: ChargingEnvironment,
    trip: Trip,
    config: EcoChargeConfig | None = None,
) -> dict[DeploymentMode, ModeReport]:
    """All three modes over the same trip."""
    return {
        mode: simulate_mode(environment, trip, mode, config) for mode in DeploymentMode
    }
