"""Integration suite for the analysis service.

The contracts under test (see ``repro/service/``):

* every query answered by a warm service is byte-identical to the same
  query against a cold service over the same shard directory;
* incremental ingest is exact: folding only new shards' partials yields
  responses bit-identical to a full recompute, at any ingest order;
* the result cache serves hits without recompute, survives no-op ingests,
  and is keyed so a config change can never serve stale bytes;
* concurrent identical queries over HTTP all return the same bytes;
* one scenario context (and thus one BusySchedule) is shared between
  states with the same (scenario, days) key.
"""

import asyncio
import json
import logging
import shutil
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.algorithms.timebins import DAY
from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.store import write_batch_cdrz
from repro.core.fused import FusedPartial
from repro.core.mapreduce import ShardOrderError
from repro.network.load import CellLoadModel
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceState,
    ServiceThread,
    result_key,
    scenario_context,
)
from repro.service.routes import ANALYSIS_ROUTES
from repro.simulate.generator import TraceGenerator
from repro.simulate.scenarios import scenario

SCENARIO = "smoke"
DAYS = 6
N_SHARDS = 5
KINDS = tuple(k for k in ANALYSIS_ROUTES if k != "timeline")


@pytest.fixture(scope="module")
def columnar():
    config = scenario(SCENARIO, n_cars=15, n_days=DAYS)
    return TraceGenerator(config).generate().batch.columnar()


@pytest.fixture(scope="module")
def chunks(columnar):
    """The trace cut into N_SHARDS row ranges sharing one vocabulary."""
    n = len(columnar)
    bounds = [round(i * n / N_SHARDS) for i in range(N_SHARDS + 1)]
    return [columnar.rows(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def write_chunks(directory, chunks, indices):
    directory.mkdir(parents=True, exist_ok=True)
    for i in indices:
        write_batch_cdrz(directory / f"shard-{i:05d}.cdrz", chunks[i])


def service_config(trace, **overrides):
    defaults = dict(trace=str(trace), scenario=SCENARIO, days=DAYS)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def all_query_bytes(state):
    return {kind: state.query(kind, {}) for kind in KINDS}


@pytest.fixture(scope="module")
def cold_bytes(tmp_path_factory, chunks):
    """Reference responses: a cold state over the full shard set."""
    trace = tmp_path_factory.mktemp("service") / "full"
    write_chunks(trace, chunks, range(N_SHARDS))
    return all_query_bytes(ServiceState(service_config(trace)))


class TestQueryParity:
    def test_cold_queries_are_valid_canonical_json(self, cold_bytes):
        for kind, data in cold_bytes.items():
            payload = json.loads(data)
            assert isinstance(payload, dict), kind
            recoded = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode()
            assert recoded == data, kind

    def test_warm_queries_are_byte_identical_to_cold(
        self, tmp_path, chunks, cold_bytes
    ):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS))
        state = ServiceState(service_config(trace))
        first = all_query_bytes(state)
        second = all_query_bytes(state)
        assert first == cold_bytes
        assert second == cold_bytes
        stats = state.cache_stats()
        assert stats.hits == len(KINDS)
        assert stats.misses == len(KINDS)


class TestIncrementalIngest:
    @pytest.mark.parametrize(
        "stages",
        [
            [(0, 1, 2), (3, 4)],
            [(0, 1, 2, 4), (3,)],
            [(4,), (0, 2), (1, 3)],
            [(0, 1, 2, 3, 4)],
        ],
        ids=["tail-append", "middle-insert", "scattered", "single-shot"],
    )
    def test_bit_identical_at_any_ingest_order(
        self, tmp_path, chunks, cold_bytes, stages
    ):
        """Whatever the ingest schedule, the final answers match a cold run."""
        trace = tmp_path / "trace"
        state = ServiceState(service_config(trace))
        trace.mkdir()
        for stage in stages:
            write_chunks(trace, chunks, stage)
            summary = state.refresh()
            assert summary.changed
            assert summary.n_added == len(stage)
            # Interleave queries between ingests: caching must not leak
            # pre-ingest bytes into post-ingest responses.
            state.query("summary", {})
        assert all_query_bytes(state) == cold_bytes

    def test_ingest_folds_only_new_shards(self, tmp_path, chunks):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS - 1))
        state = ServiceState(service_config(trace))
        first = state.refresh()
        assert first.n_added == N_SHARDS - 1
        write_chunks(trace, chunks, [N_SHARDS - 1])
        second = state.refresh()
        assert second.n_added == 1
        assert second.n_shards == N_SHARDS

    def test_noop_ingest_preserves_cache(self, tmp_path, chunks):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS))
        state = ServiceState(service_config(trace))
        before = state.query("presence", {})
        summary = state.refresh()
        assert not summary.changed
        assert state.cache_stats().entries >= 1
        after = state.query("presence", {})
        assert after == before
        assert state.cache_stats().hits >= 1

    def test_shard_removal_matches_cold_run_over_remaining(
        self, tmp_path, chunks
    ):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS))
        state = ServiceState(service_config(trace))
        state.refresh()
        (trace / f"shard-{N_SHARDS - 1:05d}.cdrz").unlink()
        summary = state.refresh()
        assert summary.changed
        assert summary.n_removed == 1
        reference = tmp_path / "reference"
        write_chunks(reference, chunks, range(N_SHARDS - 1))
        cold = ServiceState(service_config(reference))
        assert all_query_bytes(state) == all_query_bytes(cold)


class TestPrefixFold:
    """A tail append folds only new partials; anything else re-folds."""

    @staticmethod
    def spy_absorbs(monkeypatch):
        calls = []
        real = FusedPartial.absorb_partial

        def spy(self, partial):
            calls.append(partial)
            return real(self, partial)

        monkeypatch.setattr(FusedPartial, "absorb_partial", spy)
        return calls

    def test_tail_ingest_absorbs_once_per_new_shard(
        self, tmp_path, chunks, cold_bytes, monkeypatch
    ):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(2))
        state = ServiceState(service_config(trace))
        state.refresh()
        calls = self.spy_absorbs(monkeypatch)
        write_chunks(trace, chunks, [2])
        state.refresh()
        assert len(calls) == 1
        write_chunks(trace, chunks, [3, 4])
        state.refresh()
        assert len(calls) == 3
        assert all_query_bytes(state) == cold_bytes

    def test_middle_insert_refolds_every_partial(
        self, tmp_path, chunks, cold_bytes, monkeypatch
    ):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, [0, 1, 3, 4])
        state = ServiceState(service_config(trace))
        state.refresh()
        calls = self.spy_absorbs(monkeypatch)
        write_chunks(trace, chunks, [2])
        state.refresh()
        assert len(calls) == N_SHARDS - 1
        assert all_query_bytes(state) == cold_bytes

    @pytest.mark.parametrize("event", ["removal", "rewrite", "middle-insert"])
    def test_append_after_disruption_matches_cold_run(
        self, tmp_path, chunks, event
    ):
        trace = tmp_path / "trace"
        first = [0, 1, 3] if event == "middle-insert" else [0, 1, 2, 3]
        write_chunks(trace, chunks, first)
        state = ServiceState(service_config(trace))
        state.refresh()
        if event == "removal":
            (trace / "shard-00001.cdrz").unlink()
        elif event == "rewrite":
            half = chunks[2].rows(0, len(chunks[2]) // 2)
            write_batch_cdrz(trace / "shard-00002.cdrz", half)
        else:
            write_chunks(trace, chunks, [2])
        assert state.refresh().changed
        write_chunks(trace, chunks, [4])
        summary = state.refresh()
        assert summary.n_added == 1
        assert summary.n_removed == 0
        cold = ServiceState(service_config(trace))
        assert all_query_bytes(state) == all_query_bytes(cold)


class TestCacheKeying:
    def test_config_change_rotates_every_key(self, tmp_path, chunks):
        """Two configs may never share cache keys for the same question."""
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS))
        a = ServiceState(service_config(trace))
        b = ServiceState(service_config(trace, min_records=3))
        assert a.config_fingerprint != b.config_fingerprint
        a.refresh()
        b.refresh()
        assert a.trace_fingerprint == b.trace_fingerprint
        key_a = result_key(
            "handovers", "", a.trace_fingerprint, a.config_fingerprint
        )
        key_b = result_key(
            "handovers", "", b.trace_fingerprint, b.config_fingerprint
        )
        assert key_a != key_b
        a.query("handovers", {})
        b.query("handovers", {})
        # The cache of one never served the other: both were misses, and
        # each cache holds only its own entry.
        assert a.cache_stats().hits == 0
        assert b.cache_stats().hits == 0
        assert a.cache.peek(key_a) is not None
        assert a.cache.peek(key_b) is None
        assert b.cache.peek(key_b) is not None
        assert b.cache.peek(key_a) is None

    def test_speed_irrelevant_knobs_do_not_change_results(
        self, tmp_path, chunks, cold_bytes
    ):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS))
        state = ServiceState(
            service_config(trace, workers=2, chunk_rows=128, cache_bytes=1 << 20)
        )
        assert all_query_bytes(state) == cold_bytes

    def test_params_are_part_of_the_key(self, tmp_path, chunks):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS))
        state = ServiceState(service_config(trace))
        default = state.query("connect_time", {})
        other = state.query("connect_time", {"q": "50"})
        assert default != other
        assert state.cache_stats().misses == 2


class TestSharedScenarioContext:
    def test_one_schedule_per_scenario_days_key(self, tmp_path, chunks):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS))
        a = ServiceState(service_config(trace))
        b = ServiceState(service_config(trace, cache_bytes=1 << 16))
        assert a.context is b.context
        assert a.context.schedule is b.context.schedule
        assert scenario_context(SCENARIO, DAYS) is a.context
        assert scenario_context(SCENARIO, DAYS + 1) is not a.context

    def test_context_builds_every_mask_before_the_first_fork(
        self, tmp_path, chunks, monkeypatch
    ):
        """A pooled cold refresh forks after the whole calendar exists, so
        neither the children nor a later in-process ingest build masks."""
        monkeypatch.setattr("repro.service.state._CONTEXTS", {})
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS - 1))
        state = ServiceState(service_config(trace, workers=2))
        assert state.refresh().n_added == N_SHARDS - 1

        calls = []
        busy_block = CellLoadModel.busy_block

        def spy(model, cell_ids, days, threshold):
            calls.append(len(cell_ids))
            return busy_block(model, cell_ids, days, threshold)

        monkeypatch.setattr(CellLoadModel, "busy_block", spy)
        write_chunks(trace, chunks, [N_SHARDS - 1])
        assert state.refresh().n_added == 1
        assert calls == []


    def test_ingest_binds_the_context_cell_directory(
        self, tmp_path, chunks, monkeypatch
    ):
        """Every engine an ingest maps binds to the context's directory."""
        from repro.core.fused import CellDirectory

        monkeypatch.setattr("repro.service.state._CONTEXTS", {})
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS - 1))
        state = ServiceState(service_config(trace))
        assert state.refresh().n_added == N_SHARDS - 1
        assert isinstance(state.context.cells, CellDirectory)

        built = []
        init = CellDirectory.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CellDirectory, "__init__", spy)
        write_chunks(trace, chunks, [N_SHARDS - 1])
        assert state.refresh().n_added == 1
        assert built == []


class TestTwinRoute:
    def test_payload_matches_offline_summarize_source(
        self, tmp_path, chunks
    ):
        """The ``twin`` query is byte-for-byte the offline target summary."""
        from repro.twin.summary import (
            TraceSummary,
            TwinContext,
            summarize_source,
        )

        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS))
        state = ServiceState(service_config(trace))
        payload = json.loads(state.query("twin", {}))
        context = state.context
        offline = summarize_source(
            trace,
            TwinContext(
                clock=context.clock,
                cells=context.topology.cells,
                schedule=context.schedule,
            ),
        )
        assert payload == offline.to_json_dict()
        # The payload feeds straight back into the calibration loop.
        assert TraceSummary.from_json_dict(payload) == offline

    def test_ingest_extends_the_twin_summary(self, tmp_path, chunks):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(2))
        state = ServiceState(service_config(trace))
        before = json.loads(state.query("twin", {}))
        write_chunks(trace, chunks, range(2, N_SHARDS))
        state.refresh()
        after = json.loads(state.query("twin", {}))
        assert after["n_records"] > before["n_records"]

        full = tmp_path / "full"
        write_chunks(full, chunks, range(N_SHARDS))
        cold = json.loads(ServiceState(service_config(full)).query("twin", {}))
        assert after == cold


@pytest.fixture(scope="module")
def live_service(tmp_path_factory, chunks):
    trace = tmp_path_factory.mktemp("service") / "live"
    write_chunks(trace, chunks, range(N_SHARDS))
    state = ServiceState(service_config(trace))
    with ServiceThread(state) as server:
        yield server


class TestHttpEndpoints:
    def test_healthz_and_analyses(self, live_service):
        with ServiceClient("127.0.0.1", live_service.port) as client:
            assert client.healthz() == {"status": "ok"}
            analyses = client.analyses()["analyses"]
            assert set(analyses) == set(ANALYSIS_ROUTES)

    def test_query_bytes_match_direct_state_access(self, live_service):
        with ServiceClient("127.0.0.1", live_service.port) as client:
            for kind in KINDS:
                assert client.query_bytes(kind) == live_service.state.query(
                    kind, {}
                )

    def test_timeline_matches_the_columnar_truth(self, live_service, columnar):
        code = 0
        car = columnar.car_ids[code]
        rows = columnar.car_code == code
        with ServiceClient("127.0.0.1", live_service.port) as client:
            timeline = client.timeline(car)
        assert timeline["car"] == car
        assert timeline["n_sessions"] == int(rows.sum())
        assert timeline["total_duration_s"] == pytest.approx(
            float(columnar.duration[rows].sum())
        )
        starts = [s["start_s"] for s in timeline["sessions"]]
        assert starts == sorted(starts)
        np.testing.assert_array_equal(
            np.sort(np.asarray(starts)), np.sort(columnar.start[rows])
        )

    def test_error_statuses(self, live_service):
        with ServiceClient("127.0.0.1", live_service.port) as client:
            with pytest.raises(ServiceClientError) as unknown_kind:
                client.query("no-such-kind")
            assert unknown_kind.value.status == 404
            with pytest.raises(ServiceClientError) as unknown_car:
                client.timeline("no-such-car")
            assert unknown_car.value.status == 404
            with pytest.raises(ServiceClientError) as bad_param:
                client.query("busy", {"floor": "not-a-number"})
            assert bad_param.value.status == 400
            with pytest.raises(ServiceClientError) as bad_range:
                client.query("connect_time", {"q": "120"})
            assert bad_range.value.status == 400

    def test_stats_and_invalidate(self, live_service):
        with ServiceClient("127.0.0.1", live_service.port) as client:
            client.query("presence")
            stats = client.stats()
            assert stats["n_shards"] == N_SHARDS
            assert stats["cache"]["entries"] >= 1
            dropped = client.invalidate()["dropped"]
            assert dropped >= 1
            assert client.stats()["cache"]["entries"] == 0

    def test_concurrent_identical_queries_return_identical_bytes(
        self, live_service
    ):
        """16 clients ask the same questions at once; all bytes agree."""
        live_service.state.cache.clear()

        def fetch(worker: int) -> dict[str, bytes]:
            with ServiceClient("127.0.0.1", live_service.port) as client:
                return {kind: client.query_bytes(kind) for kind in KINDS}

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(fetch, range(16)))
        for other in results[1:]:
            assert other == results[0]


class TestOneDayStudy:
    def test_presence_reports_trends_as_null(self, tmp_path, columnar):
        # A one-day study has one point per series: no trend line to fit.
        first_day = columnar.rows(0, int(np.searchsorted(columnar.start, DAY)))
        write_chunks(tmp_path / "one-day", [first_day], [0])
        state = ServiceState(service_config(tmp_path / "one-day", days=1))
        with ServiceThread(state) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                presence = client.query("presence")
        assert presence["car_trend"] is None
        assert presence["cell_trend"] is None
        assert len(presence["car_fraction"]) == 1
        assert presence["n_cars_total"] == len(set(first_day.car_code.tolist()))


class TestHttpIngest:
    def test_http_ingest_matches_cold_full_run(self, tmp_path, chunks):
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, range(N_SHARDS - 1))
        state = ServiceState(service_config(trace))
        with ServiceThread(state) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                before = client.query_bytes("presence")
                write_chunks(trace, chunks, [N_SHARDS - 1])
                summary = client.ingest()
                assert summary["changed"] is True
                assert summary["n_added"] == 1
                after = {kind: client.query_bytes(kind) for kind in KINDS}
        reference = tmp_path / "reference"
        write_chunks(reference, chunks, range(N_SHARDS))
        cold = ServiceState(service_config(reference))
        assert after == all_query_bytes(cold)
        assert before != after["presence"]

    def test_copy_of_trace_yields_identical_bytes(
        self, tmp_path, chunks, cold_bytes
    ):
        """Same shard bytes under another path -> same responses."""
        original = tmp_path / "a"
        write_chunks(original, chunks, range(N_SHARDS))
        copy = tmp_path / "b"
        shutil.copytree(original, copy)
        assert all_query_bytes(ServiceState(service_config(copy))) == cold_bytes


class TestTornShardAtIngest:
    def test_torn_shard_is_a_json_error_and_the_fold_stays(self, tmp_path, chunks):
        """A shard cut mid-write answers 409 with the path; the daemon keeps
        serving the fold it had, and a later good ingest folds normally."""
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, [0, 1])
        write_chunks(tmp_path / "whole", chunks, [2])
        whole = (tmp_path / "whole" / "shard-00002.cdrz").read_bytes()
        torn = trace / "shard-00002.cdrz"
        state = ServiceState(service_config(trace))
        with ServiceThread(state) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                presence = client.query_bytes("presence")
                before = client.stats()
                torn.write_bytes(whole[: len(whole) // 2])
                with pytest.raises(ServiceClientError) as error:
                    client.ingest()
                assert error.value.status == 409
                assert str(torn) in error.value.message
                assert client.stats() == before
                assert client.query_bytes("presence") == presence
                torn.write_bytes(whole)
                assert client.ingest()["n_added"] == 1
                assert client.stats()["n_shards"] == 3

    def test_append_out_of_start_order_is_refused_until_removed(
        self, tmp_path, chunks
    ):
        """An append that starts before the last start ahead of it answers
        409 naming both shards, again on a retry, and changes nothing, not
        even the held fold that the good shard beside it would have grown;
        once it is gone, a good append folds to a cold run's bytes."""
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, [0, 1])
        early = trace / "shard-00003.cdrz"
        state = ServiceState(service_config(trace))
        with ServiceThread(state) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                before = {kind: client.query_bytes(kind) for kind in KINDS}
                write_chunks(trace, chunks, [2])
                write_batch_cdrz(early, chunks[0])
                for _attempt in range(2):
                    stats = client.stats()
                    with pytest.raises(ServiceClientError) as error:
                        client.ingest()
                    assert error.value.status == 409
                    assert f"{early} starts at" in error.value.message
                    assert "shard-00002.cdrz at" in error.value.message
                    assert client.stats() == stats
                    assert {kind: client.query_bytes(kind) for kind in KINDS} == before
                early.unlink()
                write_chunks(trace, chunks, [3])
                summary = client.ingest()
                assert (summary["n_added"], summary["n_removed"]) == (2, 0)
                after = {kind: client.query_bytes(kind) for kind in KINDS}
        reference = tmp_path / "reference"
        write_chunks(reference, chunks, range(4))
        assert after == all_query_bytes(ServiceState(service_config(reference)))

    def test_refused_append_after_a_ghost_shard_names_the_last_kept_start(
        self, tmp_path, chunks
    ):
        """When the newest folded shard kept no row, a refused append names
        the shard that holds the quoted last start, as a cold daemon over the
        same files does."""
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, [2])
        later = chunks[3].rows(0, 5)
        ghosts = ColumnarCDRBatch(
            later.start, np.full(len(later), 3600.0), later.cell_id, later.car_code,
            later.carrier_code, later.tech_code, later.car_ids, later.carriers,
            later.technologies,
        )
        write_batch_cdrz(trace / "shard-00003.cdrz", ghosts)
        state = ServiceState(service_config(trace))
        state.refresh()
        write_batch_cdrz(trace / "shard-00004.cdrz", chunks[0])
        with pytest.raises(ShardOrderError) as warm:
            state.refresh()
        with pytest.raises(ShardOrderError) as cold:
            ServiceState(service_config(trace)).refresh()
        assert "shard-00002.cdrz at" in str(cold.value)
        assert str(warm.value) == str(cold.value)


class TestNoKeptRow:
    def test_ghost_only_trace_answers_409_until_a_real_shard_lands(
        self, tmp_path, chunks
    ):
        """A daemon over ghosts only starts at 0 records and answers every
        analysis query 409 with the ghost count; after a real shard is
        appended, every reply equals a cold daemon's."""
        trace = tmp_path / "trace"
        trace.mkdir()
        real = chunks[0]
        ghosts = ColumnarCDRBatch(
            real.start, np.full(len(real), 3600.0), real.cell_id, real.car_code,
            real.carrier_code, real.tech_code, real.car_ids, real.carriers,
            real.technologies,
        )
        write_batch_cdrz(trace / "shard-00000.cdrz", ghosts)
        state = ServiceState(service_config(trace))
        summary = state.refresh()
        assert (summary.n_records, summary.n_ghosts) == (0, len(ghosts))
        with ServiceThread(state) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                assert client.stats()["n_records"] == 0
                for kind in KINDS:
                    with pytest.raises(ServiceClientError) as error:
                        client.query_bytes(kind)
                    assert error.value.status == 409, kind
                    assert f"{len(ghosts):,} ghost records dropped" in error.value.message
                write_chunks(trace, chunks, [1])
                assert client.ingest()["n_added"] == 1
                after = {kind: client.query_bytes(kind) for kind in KINDS}
        assert after == all_query_bytes(ServiceState(service_config(trace)))


class TestConnectionHandling:
    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_gets_400(self, live_service, length):
        with socket.create_connection(("127.0.0.1", live_service.port)) as sock:
            sock.settimeout(10)
            sock.sendall(
                b"POST /ingest HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"] == "malformed Content-Length"

    def test_stop_closes_idle_keep_alive_connections_quietly(
        self, tmp_path, chunks, caplog, monkeypatch
    ):
        if sys.version_info < (3, 12, 1):
            # Leaving a server context waits for every open connection from
            # Python 3.12.1 on; emulate that so an idle keep-alive connection
            # left open at shutdown hangs stop() on any version.
            monkeypatch.setattr(
                asyncio.base_events.Server, "wait_closed", _wait_closed_3_12_1
            )
        trace = tmp_path / "trace"
        write_chunks(trace, chunks, [0])
        state = ServiceState(service_config(trace))
        server = ServiceThread(state)
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            server.start()
            idle = socket.create_connection(("127.0.0.1", server.port))
            idle.settimeout(10)
            idle.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert idle.recv(4096).startswith(b"HTTP/1.1 200 ")
            stopper = threading.Thread(target=server.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=20)
            assert not stopper.is_alive(), "stop() hung on an idle connection"
            # The daemon closed its end: the client reads end-of-stream.
            assert idle.recv(4096) == b""
            idle.close()
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


async def _wait_closed_3_12_1(self):
    """``asyncio.Server.wait_closed`` as of Python 3.12.1: wait until the
    server is closed *and* every connection it accepted has been dropped."""
    if self._waiters is None:
        return
    waiter = self._loop.create_future()
    self._waiters.append(waiter)
    await waiter
