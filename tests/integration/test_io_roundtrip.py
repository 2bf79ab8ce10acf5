"""Integration tests: trace export/import and anonymization through the
analysis pipeline."""

import pytest

from repro.cdr.anonymize import Anonymizer
from repro.cdr.io import (
    read_columnar_csv,
    read_columnar_jsonl,
    write_columnar_csv,
    write_columnar_jsonl,
)
from repro.core.pipeline import AnalysisPipeline


class TestTraceRoundtrip:
    def test_csv_roundtrip_preserves_analysis(self, dataset, tmp_path):
        path = tmp_path / "trace.csv"
        write_columnar_csv(path, dataset.batch.columnar())
        reloaded = read_columnar_csv(path)
        assert len(reloaded) == len(dataset.batch)
        pipeline = AnalysisPipeline(dataset.clock, dataset.load_model)
        original = pipeline.run(dataset.batch, with_clustering=False)
        restored = pipeline.run(reloaded, with_clustering=False)
        assert original.connect_time.mean_full == pytest.approx(
            restored.connect_time.mean_full
        )
        assert original.presence.car_fraction.tolist() == pytest.approx(
            restored.presence.car_fraction.tolist()
        )

    def test_jsonl_roundtrip_identical_records(self, dataset, tmp_path):
        path = tmp_path / "trace.jsonl"
        subset = dataset.batch.records[:5000]
        write_columnar_jsonl(path, dataset.batch.columnar().rows(0, 5000))
        assert read_columnar_jsonl(path).to_records() == subset


class TestAnonymizationPipeline:
    def test_anonymized_trace_same_aggregates(self, dataset):
        anonymizer = Anonymizer(key="study-epoch-1")
        anon_batch = anonymizer.anonymize(dataset.batch.columnar())
        pipeline = AnalysisPipeline(dataset.clock, dataset.load_model)
        raw = pipeline.run(dataset.batch, with_clustering=False)
        anon = pipeline.run(anon_batch, with_clustering=False)
        # Aggregates are identity-free and must be unchanged.
        assert raw.presence.n_cars_total == anon.presence.n_cars_total
        assert raw.connect_time.mean_truncated == pytest.approx(
            anon.connect_time.mean_truncated
        )
        assert raw.carriers.time_fraction == pytest.approx(anon.carriers.time_fraction)

    def test_no_raw_ids_survive(self, dataset):
        anonymizer = Anonymizer(key="study-epoch-1")
        anon_batch = anonymizer.anonymize(dataset.batch.columnar())
        raw_ids = {c.car_id for c in dataset.cars}
        assert not raw_ids & set(anon_batch.car_ids)
