"""Cross-module rule tests: RL010–RL013 merge safety, RL017 parity contract.

Project rules need multi-module trees, so instead of snippet fixtures each
case builds a tiny in-memory project from dedented sources (optionally with
a test tree for RL017) and runs exactly one rule over it.  Positive and
negative variants sit side by side so the boundary of each rule is pinned:
the clean variant differs from the flagged one by precisely the idiom the
rule is about.
"""

from __future__ import annotations

import textwrap

from repro.analysis.config import LintConfig
from repro.analysis.context import parse_file_context
from repro.analysis.project import ProjectContext
from repro.analysis.registry import get_rule


def build_project(
    sources: dict[str, str],
    *,
    tests: dict[str, str] | None = None,
    **cfg_kwargs,
) -> ProjectContext:
    cfg = LintConfig(**cfg_kwargs)
    contexts = [
        parse_file_context(path, textwrap.dedent(src))
        for path, src in sorted(sources.items())
    ]
    test_contexts = [
        parse_file_context(path, textwrap.dedent(src))
        for path, src in sorted((tests or {}).items())
    ]
    return ProjectContext(contexts, cfg, test_contexts)


def run_rule(rule_id: str, project: ProjectContext):
    return list(get_rule(rule_id).check_project(project))


# -- RL010: merge counterpart -------------------------------------------------

CLOSED_PROTOCOL = {
    "src/repro/stats.py": """\
        class StatsPartial:
            count: int
            total: float

        class Stats:
            def export_partial(self) -> StatsPartial:
                return StatsPartial()

            def absorb_partial(self, partial: StatsPartial) -> None:
                pass
        """,
}


def test_rl010_closed_protocol_is_clean():
    assert run_rule("RL010", build_project(CLOSED_PROTOCOL)) == []


def test_rl010_flags_unabsorbed_partial():
    project = build_project(
        {
            "src/repro/stats.py": """\
                class OrphanPartial:
                    count: int

                class Stats:
                    def export_partial(self) -> OrphanPartial:
                        return OrphanPartial()
                """,
        }
    )
    findings = run_rule("RL010", project)
    assert len(findings) == 1
    assert "absorbed by no" in findings[0].message
    assert findings[0].path == "src/repro/stats.py"


def test_rl010_absorb_in_another_module_closes_the_protocol():
    project = build_project(
        {
            "src/repro/stats.py": """\
                class StatsPartial:
                    count: int

                class Stats:
                    def export_partial(self) -> StatsPartial:
                        return StatsPartial()
                """,
            "src/repro/reduce.py": """\
                from repro.stats import StatsPartial

                class Reducer:
                    def absorb_partial(self, partial: StatsPartial) -> None:
                        pass
                """,
        }
    )
    assert run_rule("RL010", project) == []


def test_rl010_flags_unmergeable_partial_field():
    project = build_project(
        {
            "src/repro/stats.py": """\
                class P2Estimator:
                    def observe(self, x: float) -> None:
                        pass

                class StatsPartial:
                    count: int
                    quantiles: P2Estimator

                class Stats:
                    def export_partial(self) -> StatsPartial:
                        return StatsPartial()

                    def absorb_partial(self, partial: StatsPartial) -> None:
                        pass
                """,
        }
    )
    findings = run_rule("RL010", project)
    assert len(findings) == 1
    assert "StatsPartial.quantiles" in findings[0].message
    assert "no merge" in findings[0].message


def test_rl010_mergeable_field_is_clean():
    project = build_project(
        {
            "src/repro/stats.py": """\
                class ExactMoments:
                    def merge(self, other: "ExactMoments") -> None:
                        pass

                class StatsPartial:
                    count: int
                    moments: ExactMoments

                class Stats:
                    def export_partial(self) -> StatsPartial:
                        return StatsPartial()

                    def absorb_partial(self, partial: StatsPartial) -> None:
                        pass
                """,
        }
    )
    assert run_rule("RL010", project) == []


def test_rl010_flags_missing_return_annotation():
    project = build_project(
        {
            "src/repro/stats.py": """\
                class Stats:
                    def export_partial(self):
                        return {}
                """,
        }
    )
    findings = run_rule("RL010", project)
    assert len(findings) == 1
    assert "no resolvable partial-class return annotation" in findings[0].message


UNORDERED_FANOUT = """\
    import multiprocessing as mp

    class Histogram:
        def bump(self, x: int) -> None:
            pass

    def work(seed: int) -> Histogram:
        return Histogram()

    def run(items):
        with mp.Pool() as pool:
            return list(pool.{method}(work, items))
    """


def test_rl010_flags_unordered_fanout_of_unmergeable_class():
    project = build_project(
        {"src/repro/scan.py": UNORDERED_FANOUT.format(method="imap_unordered")}
    )
    findings = run_rule("RL010", project)
    assert len(findings) == 1
    assert "imap_unordered" in findings[0].message
    assert "Histogram" in findings[0].message


def test_rl010_ordered_fanout_is_exempt():
    project = build_project(
        {"src/repro/scan.py": UNORDERED_FANOUT.format(method="imap")}
    )
    assert run_rule("RL010", project) == []


# -- RL011: fork-hostile state ------------------------------------------------


def test_rl011_flags_unpicklable_state_on_shipped_class():
    project = build_project(
        {
            "src/repro/stats.py": """\
                class StatsPartial:
                    def __init__(self, path: str) -> None:
                        self.count = 0
                        self.fh = open(path)
                        self.keyfn = lambda r: r.car_id

                class Stats:
                    def export_partial(self) -> StatsPartial:
                        return StatsPartial("x")

                    def absorb_partial(self, partial: StatsPartial) -> None:
                        pass
                """,
        }
    )
    findings = run_rule("RL011", project)
    reasons = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "an open file handle" in reasons[1]
    assert "a lambda" in reasons[0]


def test_rl011_unshipped_class_may_hold_resources():
    # Same state, but the class never crosses a worker boundary.
    project = build_project(
        {
            "src/repro/store.py": """\
                class TraceReader:
                    def __init__(self, path: str) -> None:
                        self.fh = open(path)
                """,
        }
    )
    assert run_rule("RL011", project) == []


WORKER_CACHE = """\
    import multiprocessing as mp

    _CACHE = {{}}

    def work(key: int) -> int:
        {body}
        return key

    def run(items):
        with mp.Pool() as pool:
            return list(pool.imap(work, items))
    """


def test_rl011_flags_worker_mutating_module_cache():
    project = build_project(
        {"src/repro/scan.py": WORKER_CACHE.format(body="_CACHE[key] = key")}
    )
    findings = run_rule("RL011", project)
    assert len(findings) == 1
    assert "mutates module-level cache `_CACHE`" in findings[0].message


def test_rl011_local_shadow_is_not_a_cache_mutation():
    body = "_CACHE = {}\n        _CACHE[key] = key"
    project = build_project({"src/repro/scan.py": WORKER_CACHE.format(body=body)})
    assert run_rule("RL011", project) == []


def test_rl011_initializer_may_install_state():
    project = build_project(
        {
            "src/repro/scan.py": """\
                import multiprocessing as mp

                _STATE = {}

                def _init_worker(spec) -> None:
                    _STATE["spec"] = spec

                def work(key: int) -> int:
                    return key

                def run(spec, items):
                    with mp.Pool(initializer=_init_worker, initargs=(spec,)) as pool:
                        return list(pool.imap(work, items))
                """,
        }
    )
    assert run_rule("RL011", project) == []


# -- RL012: sanctioned multiprocessing ----------------------------------------


def test_rl012_flags_import_outside_allowlist():
    project = build_project(
        {"src/repro/rogue.py": "import multiprocessing\n"},
        mp_allowlist=("src/repro/core/mapreduce.py",),
    )
    findings = run_rule("RL012", project)
    assert len(findings) == 1
    assert "`multiprocessing` imported outside" in findings[0].message


def test_rl012_allowlisted_module_is_exempt():
    project = build_project(
        {"src/repro/rogue.py": "import multiprocessing\n"},
        mp_allowlist=("src/repro/rogue.py",),
    )
    assert run_rule("RL012", project) == []


def test_rl012_flags_concurrent_futures_and_fork():
    project = build_project(
        {
            "src/repro/rogue.py": """\
                import os
                from concurrent.futures import ProcessPoolExecutor

                def split():
                    return os.fork()
                """,
        },
        mp_allowlist=(),
    )
    findings = run_rule("RL012", project)
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("concurrent.futures" in m for m in messages)
    assert any("os.fork" in m for m in messages)


# -- RL013: pool callables ----------------------------------------------------


def test_rl013_flags_lambda_nested_and_bound_callables():
    project = build_project(
        {
            "src/repro/scan.py": """\
                import multiprocessing as mp

                class Runner:
                    def _work(self, key):
                        return key

                    def run(self, pool, items):
                        return list(pool.imap_unordered(self._work, items))

                def run_all(items):
                    def work(key):
                        return key

                    with mp.Pool() as pool:
                        a = list(pool.imap(lambda k: k, items))
                        b = list(pool.imap(work, items))
                    return a + b
                """,
        }
    )
    findings = run_rule("RL013", project)
    messages = sorted(f.message for f in findings)
    assert len(findings) == 3
    assert any("a lambda" in m for m in messages)
    assert any("nested callable `work`" in m for m in messages)
    assert any("bound method `self._work`" in m for m in messages)


def test_rl013_module_level_worker_is_clean():
    project = build_project(
        {
            "src/repro/scan.py": """\
                import multiprocessing as mp

                def work(key):
                    return key

                def run(items):
                    with mp.Pool() as pool:
                        return list(pool.imap_unordered(work, items))
                """,
        }
    )
    assert run_rule("RL013", project) == []


# -- RL017: parity contract ---------------------------------------------------

TWINNED = {
    "src/repro/metrics.py": """\
        def busy_exposure(records):
            return sum(r.busy for r in records)

        def busy_exposure_fused(batch):
            return int(batch.busy.sum())
        """,
}


def test_rl017_twin_with_parity_test_is_clean():
    project = build_project(
        TWINNED,
        tests={
            "tests/test_parity.py": """\
                from repro.metrics import busy_exposure, busy_exposure_fused

                def test_parity(records, batch):
                    assert busy_exposure_fused(batch) == busy_exposure(records)
                """,
        },
    )
    assert run_rule("RL017", project) == []


def test_rl017_flags_untested_twin():
    project = build_project(TWINNED, tests={})
    findings = run_rule("RL017", project)
    assert len(findings) == 1
    assert "has no parity test" in findings[0].message


def test_rl017_flags_twin_tested_without_its_reference():
    # The twin is exercised somewhere, but never against the reference.
    project = build_project(
        TWINNED,
        tests={
            "tests/test_fast_path.py": """\
                from repro.metrics import busy_exposure_fused

                def test_runs(batch):
                    assert busy_exposure_fused(batch) >= 0
                """,
        },
    )
    findings = run_rule("RL017", project)
    assert len(findings) == 1
    assert "no single test file also exercises its reference" in findings[0].message


def test_rl017_split_coverage_across_files_does_not_count():
    # Both names appear in the test tree, but never in the same file: that is
    # not a parity test, just two independent exercises.
    project = build_project(
        TWINNED,
        tests={
            "tests/test_fast.py": """\
                from repro.metrics import busy_exposure_fused
                """,
            "tests/test_slow.py": """\
                from repro.metrics import busy_exposure
                """,
        },
    )
    findings = run_rule("RL017", project)
    assert len(findings) == 1
    assert "no single test file also exercises its reference" in findings[0].message


def test_rl017_method_twins_are_covered_too():
    sources = {
        "src/repro/engine.py": """\
            class Engine:
                def consume(self, records):
                    pass

                def consume_fused(self, batch):
                    pass
            """,
    }
    clean = build_project(
        sources,
        tests={
            "tests/test_engine.py": """\
                def test_parity(engine, records, batch):
                    a = engine.consume(records)
                    b = engine.consume_fused(batch)
                    assert a == b
                """,
        },
    )
    assert run_rule("RL017", clean) == []

    uncovered = build_project(sources, tests={})
    findings = run_rule("RL017", uncovered)
    assert len(findings) == 1
    assert "consume_fused" in findings[0].message


def test_rl017_twin_without_reference_needs_only_its_own_test():
    # No base symbol anywhere: the co-mention requirement relaxes to "the
    # twin itself is exercised".
    project = build_project(
        {
            "src/repro/metrics.py": """\
                def exposure_fused(batch):
                    return int(batch.busy.sum())
                """,
        },
        tests={
            "tests/test_fast.py": """\
                from repro.metrics import exposure_fused
                """,
        },
    )
    assert run_rule("RL017", project) == []


FUSED_TWINNED = {
    "src/repro/metrics.py": """\
        def daily_presence(batch):
            return len(batch)

        def daily_presence_fused(col):
            return int(col.n)
        """,
}


def test_rl017_fused_twin_with_parity_test_is_clean():
    project = build_project(
        FUSED_TWINNED,
        tests={
            "tests/test_fused.py": """\
                from repro.metrics import daily_presence, daily_presence_fused

                def test_parity(batch, col):
                    assert daily_presence_fused(col) == daily_presence(batch)
                """,
        },
    )
    assert run_rule("RL017", project) == []


def test_rl017_flags_untested_fused_twin():
    project = build_project(FUSED_TWINNED, tests={})
    findings = run_rule("RL017", project)
    assert len(findings) == 1
    assert "daily_presence_fused" in findings[0].message
    assert "has no parity test" in findings[0].message


def test_rl017_fused_twin_tested_without_reference_is_flagged():
    project = build_project(
        FUSED_TWINNED,
        tests={
            "tests/test_fast.py": """\
                from repro.metrics import daily_presence_fused

                def test_runs(col):
                    assert daily_presence_fused(col) >= 0
                """,
        },
    )
    findings = run_rule("RL017", project)
    assert len(findings) == 1
    assert "no single test file also exercises its reference" in findings[0].message


def test_rl017_columnar_suffix_is_not_a_twin():
    # Only ``*_fused`` pairs with a reference: a ``*_columnar`` helper is an
    # ordinary function, with or without a test.
    project = build_project(
        {
            "src/repro/metrics.py": """\
                def busy_exposure(records):
                    return sum(r.busy for r in records)

                def busy_exposure_columnar(batch):
                    return int(batch.busy.sum())
                """,
        },
        tests={},
    )
    assert run_rule("RL017", project) == []
