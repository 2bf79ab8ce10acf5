"""Radio signal propagation: path loss, RSRP and SINR.

The trace generator's geometric serving rule (nearest site, best-pointing
sector) is a fast approximation of what real devices do: camp on the
strongest *signal*.  This module supplies the physical layer for analyses
that need it — a log-distance path-loss model with a frequency term (higher
bands fade faster, one reason the low-band C1/C2 carriers blanket the rural
fringe), a cosine-shaped sector antenna pattern and RSRP-based server
selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.network.cells import Cell
from repro.network.geometry import Point, bearing_deg, distance
from repro.network.topology import NetworkTopology

#: Noise floor over one LTE PRB (~180 kHz) at a typical UE noise figure, dBm.
NOISE_FLOOR_DBM = -116.4


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with a frequency-dependent intercept.

    ``PL(d) = intercept + 20 log10(f_MHz) + 10 n log10(max(d, d_min))`` —
    the COST-Hata shape reduced to its distance/frequency essentials, which
    is all the serving-selection and SINR comparisons here need.
    """

    exponent: float = 3.5
    intercept_db: float = 32.4
    min_distance_km: float = 0.01

    def loss_db(self, distance_km: float, frequency_mhz: float) -> float:
        """Path loss in dB over ``distance_km`` at ``frequency_mhz``."""
        if frequency_mhz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_mhz}")
        d = max(distance_km, self.min_distance_km)
        return (
            self.intercept_db
            + 20.0 * math.log10(frequency_mhz)
            + 10.0 * self.exponent * math.log10(d)
        )


def antenna_gain_db(
    boresight_deg: float,
    bearing: float,
    max_gain_db: float = 15.0,
    front_to_back_db: float = 25.0,
) -> float:
    """Directional gain of a ~120-degree sector antenna.

    Cosine-power main lobe around the boresight with a hard front-to-back
    floor; at 60 degrees off boresight (the sector edge) the gain is several
    dB down, which is what makes neighbouring sectors overlap rather than
    tile perfectly.
    """
    off = abs((bearing - boresight_deg + 180.0) % 360.0 - 180.0)
    if off >= 90.0:
        return max_gain_db - front_to_back_db
    rolloff = 12.0 * (off / 65.0) ** 2  # 3GPP-style parabolic main lobe
    return max_gain_db - min(rolloff, front_to_back_db)


class SignalMap:
    """RSRP/SINR queries over a built topology.

    Parameters
    ----------
    topology:
        The radio network.
    tx_power_dbm:
        Per-PRB reference-signal transmit power.
    path_loss:
        Propagation model; defaults to the suburban-ish exponent 3.5.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        tx_power_dbm: float = 15.0,
        path_loss: PathLossModel | None = None,
    ) -> None:
        self.topology = topology
        self.tx_power_dbm = tx_power_dbm
        self.path_loss = path_loss or PathLossModel()

    def rsrp_dbm(self, cell: Cell, location: Point) -> float:
        """Reference-signal received power from ``cell`` at ``location``."""
        d = distance(cell.location, location)
        bearing = bearing_deg(cell.location, location)
        return (
            self.tx_power_dbm
            - self.path_loss.loss_db(d, cell.carrier.frequency_mhz)
            + antenna_gain_db(cell.azimuth_deg, bearing)
        )

    def candidates(
        self,
        location: Point,
        capabilities: frozenset[str] | set[str] | None = None,
        n_sites: int = 5,
    ) -> list[tuple[Cell, float]]:
        """Cells of the ``n_sites`` nearest sites ranked by RSRP.

        Limiting the neighbour set to nearby sites keeps queries O(sites
        considered), matching how real measurement reports only contain a
        handful of neighbours.
        """
        ranked: list[tuple[Cell, float]] = []
        for site in self.topology.nearest_sites(location, n_sites):
            for cell in site.cells:
                if capabilities is not None and cell.carrier.name not in capabilities:
                    continue
                ranked.append((cell, self.rsrp_dbm(cell, location)))
        ranked.sort(key=lambda pair: pair[1], reverse=True)
        return ranked

    def best_server(
        self,
        location: Point,
        capabilities: frozenset[str] | set[str] | None = None,
    ) -> tuple[Cell, float] | None:
        """Strongest cell at ``location`` among supported carriers."""
        ranked = self.candidates(location, capabilities)
        return ranked[0] if ranked else None

    def sinr_db(
        self,
        cell: Cell,
        location: Point,
        neighbour_load: float = 0.5,
        n_sites: int = 5,
    ) -> float:
        """Downlink SINR on ``cell`` at ``location``.

        Interference is the power sum of co-channel neighbours (same
        carrier) scaled by their activity factor ``neighbour_load`` — a
        loaded network interferes more, which is the coupling between the
        U_PRB counters and user experience.
        """
        if not 0 <= neighbour_load <= 1:
            raise ValueError(f"neighbour_load must be in [0, 1], got {neighbour_load}")
        signal_mw = 10 ** (self.rsrp_dbm(cell, location) / 10.0)
        interference_mw = 0.0
        for other, rsrp in self.candidates(location, None, n_sites=n_sites):
            if other.cell_id == cell.cell_id:
                continue
            if other.carrier.name != cell.carrier.name:
                continue
            interference_mw += neighbour_load * 10 ** (rsrp / 10.0)
        noise_mw = 10 ** (NOISE_FLOOR_DBM / 10.0)
        return 10.0 * math.log10(signal_mw / (interference_mw + noise_mw))
