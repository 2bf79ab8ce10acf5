"""TraceSummary extraction: path parity, determinism, JSON round trip."""

import json

import pytest

from repro.cdr.io import write_columnar_csv
from repro.cdr.store import write_sharded_cdrz
from repro.core.mapreduce import fold_shards_fused
from repro.simulate.generator import TraceGenerator
from repro.simulate.scenarios import scenario
from repro.twin.summary import (
    DURATION_QS,
    GAP_QS,
    TraceSummary,
    TwinContext,
    summarize_batch,
    summarize_source,
    summary_from_partial,
    twin_context,
)

DAYS = 7
N_CARS = 20


@pytest.fixture(scope="module")
def ctx():
    return twin_context("smoke", DAYS)


@pytest.fixture(scope="module")
def columnar():
    config = scenario("smoke", n_cars=N_CARS, n_days=DAYS)
    return TraceGenerator(config).generate().batch.columnar()


@pytest.fixture(scope="module")
def summary(columnar, ctx):
    return summarize_batch(columnar, ctx)


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory, columnar):
    trace = tmp_path_factory.mktemp("twin") / "shards"
    write_sharded_cdrz(trace, columnar, shard_rows=300)
    return trace


class TestExtraction:
    def test_headline_counts(self, summary, columnar):
        assert summary.n_records == len(columnar)
        assert summary.n_cars == N_CARS
        assert summary.n_days == DAYS

    def test_diurnal_shape_is_a_distribution(self, summary):
        assert len(summary.diurnal_shape) == 24
        assert sum(summary.diurnal_shape) == pytest.approx(1.0)
        assert all(v >= 0 for v in summary.diurnal_shape)

    def test_quantiles_are_monotone(self, summary):
        assert len(summary.duration_quantiles) == len(DURATION_QS)
        assert list(summary.duration_quantiles) == sorted(
            summary.duration_quantiles
        )
        assert len(summary.interarrival_quantiles) == len(GAP_QS)
        assert list(summary.interarrival_quantiles) == sorted(
            summary.interarrival_quantiles
        )
        assert summary.n_gaps > 0

    def test_shares_are_fractions(self, summary):
        assert sum(summary.carrier_time_share.values()) == pytest.approx(1.0)
        assert 0 < summary.mean_daily_car_fraction <= 1
        assert 0 < summary.mean_connect_share < 1
        assert summary.handover_rate is not None
        assert summary.mean_busy_share is not None

    def test_without_topology_optional_stats_are_none(self, columnar, ctx):
        bare = summarize_batch(columnar, TwinContext(clock=ctx.clock))
        assert bare.handover_rate is None
        assert bare.mean_busy_share is None
        # The target statistics that need no topology still come out.
        assert bare.n_records and bare.n_gaps


def assert_summaries_close(a, b):
    """Exact where the merge discipline guarantees it, approx elsewhere.

    Counts, histogram-derived quantiles and session-table statistics are
    bit-identical across extraction paths; plain float accumulations
    (carrier time shares and the presence/connect/busy means) depend on
    chunk boundaries and only agree to rounding error.
    """
    assert a.n_records == b.n_records
    assert a.n_cars == b.n_cars
    assert a.n_days == b.n_days
    assert a.n_gaps == b.n_gaps
    assert a.diurnal_shape == b.diurnal_shape
    assert a.duration_quantiles == b.duration_quantiles
    assert a.interarrival_quantiles == b.interarrival_quantiles
    assert a.handover_rate == b.handover_rate
    assert a.carrier_car_share == b.carrier_car_share
    assert a.carrier_time_share == pytest.approx(b.carrier_time_share)
    assert a.mean_daily_car_fraction == pytest.approx(b.mean_daily_car_fraction)
    assert a.car_trend_slope == pytest.approx(b.car_trend_slope)
    assert a.mean_days_on_network == pytest.approx(b.mean_days_on_network)
    assert a.mean_connect_share == pytest.approx(b.mean_connect_share)
    assert a.mean_busy_share == pytest.approx(b.mean_busy_share)


class TestPathParity:
    def test_shard_dir_matches_in_memory(self, shard_dir, summary, ctx):
        """summarize_source over shards ~ summarize_batch in memory."""
        assert_summaries_close(summarize_source(shard_dir, ctx), summary)

    def test_worker_count_does_not_matter(self, shard_dir, ctx):
        assert summarize_source(shard_dir, ctx, workers=1) == summarize_source(
            shard_dir, ctx, workers=2
        )

    def test_text_trace_matches_cdrz(self, tmp_path, columnar, summary, ctx):
        csv_path = tmp_path / "trace.csv"
        write_columnar_csv(str(csv_path), columnar)
        assert summarize_source(csv_path, ctx) == summary

    def test_chunk_rows_do_not_matter(self, shard_dir, ctx):
        """Every statistic but the float carrier sums is chunk-exact."""
        a, _ = fold_shards_fused(shard_dir, ctx.clock, chunk_rows=37)
        b, _ = fold_shards_fused(shard_dir, ctx.clock)
        assert (a.presence.hours == b.presence.hours).all()
        assert (a.durations.bins == b.durations.bins).all()
        assert (a.durations.counts == b.durations.counts).all()
        assert (a.connect_trunc.start == b.connect_trunc.start).all()
        assert (a.connect_trunc.cm == b.connect_trunc.cm).all()
        assert_summaries_close(
            summary_from_partial(a, ctx.clock), summary_from_partial(b, ctx.clock)
        )

    def test_empty_source_raises(self, tmp_path, ctx):
        from repro.cdr.errors import CDRValidationError

        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CDRValidationError, match="no .* shards"):
            fold_shards_fused(empty, ctx.clock)
        with pytest.raises(CDRValidationError, match="no .* shards"):
            summarize_source(empty, ctx)


class TestJsonRoundTrip:
    def test_round_trip_is_lossless(self, summary):
        encoded = json.dumps(summary.to_json_dict(), sort_keys=True)
        assert TraceSummary.from_json_dict(json.loads(encoded)) == summary

    def test_missing_field_is_rejected(self, summary):
        doc = summary.to_json_dict()
        doc.pop("n_gaps")
        with pytest.raises(ValueError, match="n_gaps"):
            TraceSummary.from_json_dict(doc)

    def test_non_numeric_field_is_rejected(self, summary):
        doc = summary.to_json_dict()
        doc["mean_connect_share"] = "high"
        with pytest.raises(ValueError, match="mean_connect_share"):
            TraceSummary.from_json_dict(doc)

    def test_bool_masquerading_as_number_is_rejected(self, summary):
        doc = summary.to_json_dict()
        doc["n_records"] = True
        with pytest.raises(ValueError, match="n_records"):
            TraceSummary.from_json_dict(doc)

    def test_bad_share_map_is_rejected(self, summary):
        doc = summary.to_json_dict()
        doc["carrier_time_share"] = {"C1": "most"}
        with pytest.raises(ValueError, match="carrier_time_share"):
            TraceSummary.from_json_dict(doc)

    def test_optional_none_survives(self, columnar, ctx):
        bare = summarize_batch(columnar, TwinContext(clock=ctx.clock))
        doc = json.loads(json.dumps(bare.to_json_dict()))
        assert TraceSummary.from_json_dict(doc) == bare
