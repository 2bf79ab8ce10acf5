"""Unit tests for handover analysis (Section 4.5)."""

from collections import Counter

import numpy as np
import pytest

from repro.cdr.records import CDRBatch, ConnectionRecord
from repro.core.handover import (
    HandoverStats,
    HandoverType,
    classify_handover,
    handover_analysis,
)
from repro.core.preprocess import preprocess
from repro.network.cells import CARRIERS, Cell
from repro.network.geometry import Point


def cell(cell_id, bs=1, sector=0, carrier="C3"):
    return Cell(
        cell_id=cell_id,
        base_station_id=bs,
        sector_index=sector,
        carrier=CARRIERS[carrier],
        location=Point(0, 0),
        azimuth_deg=0.0,
    )


DIRECTORY = {
    1: cell(1, bs=1, sector=0, carrier="C3"),
    2: cell(2, bs=2, sector=0, carrier="C3"),
    3: cell(3, bs=1, sector=1, carrier="C3"),
    4: cell(4, bs=1, sector=0, carrier="C4"),
    5: cell(5, bs=1, sector=0, carrier="C1"),  # 3G
}


def rec(start, cell_id, car="car-a", dur=60.0):
    c = DIRECTORY[cell_id]
    return ConnectionRecord(
        start=start,
        car_id=car,
        cell_id=cell_id,
        carrier=c.carrier.name,
        technology=c.technology.value,
        duration=dur,
    )


class TestClassifyHandover:
    def test_inter_base_station(self):
        assert (
            classify_handover(DIRECTORY[1], DIRECTORY[2])
            is HandoverType.INTER_BASE_STATION
        )

    def test_inter_sector(self):
        assert classify_handover(DIRECTORY[1], DIRECTORY[3]) is HandoverType.INTER_SECTOR

    def test_inter_carrier_same_sector(self):
        assert classify_handover(DIRECTORY[1], DIRECTORY[4]) is HandoverType.INTER_CARRIER

    def test_inter_rat_takes_precedence(self):
        assert classify_handover(DIRECTORY[1], DIRECTORY[5]) is HandoverType.INTER_RAT

    def test_same_cell_raises(self):
        with pytest.raises(ValueError):
            classify_handover(DIRECTORY[1], DIRECTORY[1])


class TestHandoverAnalysis:
    def test_counts_within_session(self):
        batch = CDRBatch([rec(0, 1), rec(100, 2), rec(200, 1)])
        stats = handover_analysis(preprocess(batch), DIRECTORY)
        assert stats.n_sessions == 1
        assert stats.per_session[0] == 2
        assert stats.type_counts[HandoverType.INTER_BASE_STATION] == 2

    def test_session_split_by_gap(self):
        batch = CDRBatch([rec(0, 1), rec(10_000, 2)])
        stats = handover_analysis(preprocess(batch), DIRECTORY)
        assert stats.n_sessions == 2
        assert stats.total_handovers == 0

    def test_same_cell_consecutive_not_a_handover(self):
        batch = CDRBatch([rec(0, 1), rec(100, 1), rec(200, 1)])
        stats = handover_analysis(preprocess(batch), DIRECTORY)
        assert stats.total_handovers == 0

    def test_type_breakdown(self):
        batch = CDRBatch([rec(0, 1), rec(100, 3), rec(200, 2), rec(300, 5)])
        stats = handover_analysis(preprocess(batch), DIRECTORY)
        assert stats.type_counts[HandoverType.INTER_SECTOR] == 1
        assert stats.type_counts[HandoverType.INTER_BASE_STATION] == 1
        assert stats.type_counts[HandoverType.INTER_RAT] == 1
        assert stats.type_fraction(HandoverType.INTER_SECTOR) == pytest.approx(1 / 3)

    def test_percentiles(self):
        records = []
        # Sessions with 0, 1, and 4 handovers for three cars.
        records.append(rec(0, 1, car="a"))
        records += [rec(0, 1, car="b"), rec(100, 2, car="b")]
        records += [
            rec(0, 1, car="c"),
            rec(100, 2, car="c"),
            rec(200, 1, car="c"),
            rec(300, 2, car="c"),
            rec(400, 1, car="c"),
        ]
        stats = handover_analysis(preprocess(CDRBatch(records)), DIRECTORY)
        assert stats.median == 1.0
        assert stats.percentile(100) == 4.0
        assert stats.base_stations_spanned_percentile(100) == 5.0

    def test_unknown_cells_skipped(self):
        batch = CDRBatch(
            [
                rec(0, 1),
                ConnectionRecord(100, "car-a", 999, "C3", "4G", 60.0),
                rec(200, 2),
            ]
        )
        stats = handover_analysis(preprocess(batch), DIRECTORY)
        assert stats.total_handovers == 1  # 1 -> 2, unknown 999 ignored

    def test_empty_stats_percentile_raises(self):
        stats = HandoverStats(per_session=np.asarray([]), type_counts=Counter())
        with pytest.raises(ValueError):
            stats.median

    def test_type_fraction_zero_when_no_handovers(self):
        stats = HandoverStats(per_session=np.asarray([0.0]), type_counts=Counter())
        assert stats.type_fraction(HandoverType.INTER_RAT) == 0.0
