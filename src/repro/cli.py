"""Command-line interface.

The workflows an operator or researcher runs repeatedly, without writing
Python::

    python -m repro.cli generate --scenario default --cars 200 --days 28 \\
        --out trace.cdrz [--format cdrz] [--anonymize-key KEY]
    python -m repro.cli convert  trace.csv.gz trace.cdrz
    python -m repro.cli inspect  trace.cdrz
    python -m repro.cli analyze  --trace trace.cdrz --days 28 [--markdown]
    python -m repro.cli analyze  --trace shards/ --days 90 --workers 4
    python -m repro.cli quality  --trace trace.cdrz --days 28
    python -m repro.cli fota     --trace trace.cdrz --days 28 [--max-concurrent N]
    python -m repro.cli journeys --trace trace.cdrz --days 28
    python -m repro.cli serve    --trace shards/ --days 90 --workers 0
    python -m repro.cli query    presence [--param q=99.5]
    python -m repro.cli twin     target.cdrz --days 28 --out twin.json \\
        [--report report.json]
    python -m repro.cli saturate

Traces may be gzipped CSV/JSONL or the binary columnar ``.cdrz`` store
(single file or a shard directory); every command that reads a trace
auto-detects the format.  ``analyze`` rebuilds the scenario's topology and
load model, so it must be given the same scenario (and load seed) the trace
was generated with — exactly as a real analysis needs the matching cell
inventory and PRB counters.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import TYPE_CHECKING

from repro.algorithms.timebins import StudyClock
from repro.cdr.errors import ReproError
from repro.cdr.io import (
    load_trace,
    read_columnar_auto,
    trace_format,
    write_records_csv,
    write_records_jsonl,
)
from repro.core.pipeline import AnalysisPipeline
from repro.core.report import format_report, format_report_markdown
from repro.network.load import CellLoadModel
from repro.network.topology import build_topology
from repro.simulate.scenarios import SCENARIOS, scenario

if TYPE_CHECKING:
    from collections.abc import Iterable

    from repro.cdr.columnar import ColumnarCDRBatch
    from repro.cdr.records import ConnectionRecord
    from repro.core.fused import AnalysisReport
    from repro.network.topology import NetworkTopology

#: One help string for every shard-sweeping command (analyze, serve,
#: twin): worker semantics are identical everywhere — results never
#: depend on the count, 1 sweeps in process, 0 means one per CPU in the
#: process's affinity mask (:func:`repro.cpus.available_cpus`).
_WORKERS_HELP = (
    "worker processes for shard sweeps; results are identical at any "
    "count (1 = in-process, 0 = one per CPU this process may use)"
)


def _int(text: str) -> int:
    """``int(text)``, or the usage error argparse reports for a non-integer."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _workers(text: str) -> int:
    """``--workers`` argument type for every command that takes one.

    A count of at least 0; a negative count exits 2 with a usage line
    instead of silently meaning "every CPU".
    """
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be 0 (one per CPU) or a positive count, got {value}"
        )
    return value


def _positive(text: str) -> int:
    """``--days``, ``--cars``, ``--shard-rows`` and ``--max-concurrent`` type.

    A count of at least 1; zero or less exits 2 with a usage line instead
    of a traceback from deep inside the command.
    """
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive count, got {value}")
    return value


def _amount(text: str, *, zero_ok: bool) -> float:
    """``--cache-mb`` (``zero_ok``) and ``--duration-hours`` argument type.

    A finite number of at least 0, or above 0; anything else (NaN and
    infinities included) exits 2 with a usage line.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if value < 0 or (value == 0 and not zero_ok):
        bound = "0 or more" if zero_ok else "positive"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
    return value


#: Writable trace formats; ``auto`` resolves from the output path suffix.
_FORMATS = ("auto", "csv", "jsonl", "cdrz")


def _add_generate(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser("generate", help="generate a synthetic CDR trace")
    p.add_argument("--scenario", default="default", choices=sorted(SCENARIOS))
    p.add_argument("--cars", type=_positive, default=200)
    p.add_argument("--days", type=_positive, default=28)
    p.add_argument("--seed", type=int, default=None, help="override the root seed")
    p.add_argument(
        "--workers",
        type=_workers,
        default=1,
        help="worker processes for generation; output is identical at any "
        "count (1 = serial, 0 = one per CPU this process may use)",
    )
    p.add_argument(
        "--out", required=True, help="output trace path (.csv[.gz], .jsonl[.gz], .cdrz)"
    )
    p.add_argument(
        "--format",
        default="auto",
        choices=_FORMATS,
        help="output format; auto infers from the --out suffix",
    )
    p.add_argument(
        "--shard-rows",
        type=_positive,
        default=None,
        help="write --out as a directory of cdrz shards of at most this "
        "many rows (cdrz format only)",
    )
    p.add_argument(
        "--anonymize-key",
        default=None,
        help="pseudonymize car ids with this key before writing",
    )


def _add_convert(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser(
        "convert", help="convert a trace between csv/jsonl/cdrz"
    )
    p.add_argument("src", help="input trace (file or cdrz shard directory)")
    p.add_argument("dst", help="output trace path")
    p.add_argument(
        "--format",
        default="auto",
        choices=_FORMATS,
        help="output format; auto infers from the dst suffix",
    )
    p.add_argument(
        "--shard-rows",
        type=_positive,
        default=None,
        help="write dst as a directory of cdrz shards of at most this "
        "many rows (cdrz format only)",
    )


def _add_inspect(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser(
        "inspect", help="describe a cdrz container without loading rows"
    )
    p.add_argument("path", help=".cdrz file or shard directory")


def _add_analyze(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser("analyze", help="run the full paper analysis on a trace")
    p.add_argument("--trace", required=True, help="trace written by `generate`")
    p.add_argument("--scenario", default="default", choices=sorted(SCENARIOS))
    p.add_argument("--days", type=_positive, default=28)
    p.add_argument("--no-clustering", action="store_true")
    p.add_argument(
        "--markdown", action="store_true", help="emit the report as markdown"
    )
    # With --workers != 1 a cdrz trace is folded shard by shard; the report
    # is the same, after one fan-out line.
    p.add_argument("--workers", type=_workers, default=1, help=_WORKERS_HELP)


def _add_quality(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser("quality", help="data-quality diagnostics on a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--days", type=_positive, default=28)


def _add_fota(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser(
        "fota", help="simulate FOTA delivery policies over a trace"
    )
    p.add_argument("--trace", required=True)
    p.add_argument("--scenario", default="default", choices=sorted(SCENARIOS))
    p.add_argument("--days", type=_positive, default=28)
    p.add_argument("--update-mb", type=float, default=200.0)
    p.add_argument(
        "--max-concurrent", type=_positive, default=None,
        help="per-cell concurrent-download cap (throttled run)",
    )


def _add_journeys(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser(
        "journeys", help="reconstruct journeys and handover corridors"
    )
    p.add_argument("--trace", required=True)
    p.add_argument("--scenario", default="default", choices=sorted(SCENARIOS))
    p.add_argument("--days", type=_positive, default=28)


def _add_serve(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser(
        "serve",
        help="run the analysis service daemon over a cdrz shard directory",
        description="Hold a cdrz trace memmapped and serve Section 4 "
        "queries over HTTP with a keyed result cache. POST /ingest folds "
        "newly appeared shards incrementally; responses stay bit-identical "
        "to a cold full run at any ingest order.",
    )
    p.add_argument(
        "--trace", required=True, help=".cdrz file or shard directory"
    )
    p.add_argument("--scenario", default="default", choices=sorted(SCENARIOS))
    p.add_argument("--days", type=_positive, default=28)
    p.add_argument("--workers", type=_workers, default=1, help=_WORKERS_HELP)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8357)
    p.add_argument(
        "--cache-mb",
        type=functools.partial(_amount, zero_ok=True),
        default=64.0,
        help="LRU byte budget for cached query responses",
    )


def _add_query(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser(
        "query", help="query a running analysis service daemon"
    )
    p.add_argument(
        "kind",
        help="analysis kind (see `query analyses`), or one of: analyses, "
        "stats, ingest, invalidate",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8357)
    p.add_argument("--car", default=None, help="car id for timeline queries")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="query parameter, repeatable (e.g. --param q=99.5)",
    )


def _add_twin(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser(
        "twin",
        help="calibrate the generator to statistically twin a target trace",
        description="Summarize the target trace's calibration statistics, "
        "then run a deterministic coordinate-descent search over the "
        "generator's tunable knobs to minimize the divergence. Writes the "
        "best-fit generator config to --out and, optionally, a "
        "machine-readable divergence report to --report.",
    )
    p.add_argument("target", help="trace to twin: csv/jsonl/cdrz file or shard dir")
    p.add_argument("--scenario", default="smoke", choices=sorted(SCENARIOS))
    p.add_argument(
        "--days", type=_positive, default=28, help="study length of the target trace"
    )
    p.add_argument(
        "--cars", type=_positive, default=100, help="fleet size of candidate twins"
    )
    p.add_argument("--seed", type=int, default=42, help="candidate generator seed")
    p.add_argument(
        "--rounds", type=int, default=3, help="maximum full coordinate sweeps"
    )
    p.add_argument(
        "--step",
        type=float,
        default=0.5,
        help="initial relative knob step (halved after sweeps with no gain)",
    )
    p.add_argument(
        "--knobs",
        default=None,
        help="comma-separated knob subset to search (default: all tunable knobs)",
    )
    p.add_argument("--workers", type=_workers, default=1, help=_WORKERS_HELP)
    p.add_argument("--out", required=True, help="best-fit generator config JSON")
    p.add_argument(
        "--report", default=None, help="divergence report JSON (optional)"
    )


def _add_saturate(
    subparsers: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    p = subparsers.add_parser(
        "saturate", help="run the Figure 1 greedy-download saturation experiment"
    )
    p.add_argument("--start-hour", type=float, default=20.75)
    p.add_argument(
        "--duration-hours", type=functools.partial(_amount, zero_ok=False), default=4.0
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Connected cars in cellular networks (IMC'17) reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_convert(subparsers)
    _add_inspect(subparsers)
    _add_analyze(subparsers)
    _add_quality(subparsers)
    _add_fota(subparsers)
    _add_journeys(subparsers)
    _add_serve(subparsers)
    _add_query(subparsers)
    _add_twin(subparsers)
    _add_saturate(subparsers)
    return parser


def _resolve_format(fmt: str, out: str, shard_rows: int | None) -> str:
    """Pick the output format.

    ``auto`` follows the suffix rules; ``--shard-rows`` implies cdrz for a
    suffix-less output (a shard directory) but never overrides an explicit
    ``.csv``/``.jsonl`` suffix — that conflict is reported, not guessed
    away.
    """
    if fmt != "auto":
        return fmt
    name = out[: -len(".gz")] if out.endswith(".gz") else out
    explicit_text = name.endswith(".csv") or name.endswith(".jsonl")
    if shard_rows is not None and not explicit_text:
        return "cdrz"
    return trace_format(out)


def _write_trace(
    out: str,
    fmt: str,
    shard_rows: int | None,
    records: Iterable[ConnectionRecord] | None = None,
    columnar: ColumnarCDRBatch | None = None,
) -> int:
    """Write a trace in any supported format; returns the row count.

    Accepts whichever representation the caller already has — a record
    list or a columnar batch — and converts only when the target format
    needs the other one.
    """
    if fmt == "cdrz":
        from repro.cdr.columnar import ColumnarCDRBatch
        from repro.cdr.store import write_batch_cdrz, write_sharded_cdrz

        if columnar is None:
            if records is None:
                raise ValueError("need records or a columnar batch to write")
            columnar = ColumnarCDRBatch.from_records(list(records))
        if shard_rows is not None:
            write_sharded_cdrz(out, columnar, shard_rows=shard_rows)
        else:
            write_batch_cdrz(out, columnar)
        return len(columnar)
    if records is None:
        if columnar is None:
            raise ValueError("need records or a columnar batch to write")
        records = columnar.to_records()
    if fmt == "jsonl":
        return write_records_jsonl(out, records)
    return write_records_csv(out, records)


def cmd_generate(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args.format, args.out, args.shard_rows)
    if args.shard_rows is not None and fmt != "cdrz":
        print(f"--shard-rows requires the cdrz format, not {fmt}", file=sys.stderr)
        return 2
    config = scenario(args.scenario, n_cars=args.cars, n_days=args.days)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    from repro.simulate.generator import TraceGenerator

    dataset = TraceGenerator(config, workers=args.workers).generate()
    records = dataset.batch.records
    columnar = None
    if args.anonymize_key:
        from repro.cdr.anonymize import Anonymizer

        records = Anonymizer(key=args.anonymize_key).anonymize(records)
    elif fmt == "cdrz":
        # The freshly generated batch already carries its columnar view;
        # write it straight out, never transiting records or text.
        columnar, records = dataset.batch.columnar(), None
    n = _write_trace(args.out, fmt, args.shard_rows, records=records, columnar=columnar)
    print(
        f"wrote {n:,} records ({args.cars} cars, {args.days} days, "
        f"scenario {args.scenario}) to {args.out} [{fmt}]"
    )
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    from pathlib import Path

    fmt = _resolve_format(args.format, args.dst, args.shard_rows)
    if args.shard_rows is not None and fmt != "cdrz":
        print(f"--shard-rows requires the cdrz format, not {fmt}", file=sys.stderr)
        return 2
    src_fmt = "cdrz" if Path(args.src).is_dir() else trace_format(args.src)
    columnar = read_columnar_auto(args.src)
    n = _write_trace(args.dst, fmt, args.shard_rows, columnar=columnar)
    print(
        f"converted {n:,} records: {args.src} [{src_fmt}] -> {args.dst} [{fmt}]"
    )
    return 0


def _inspect_directory(path: str) -> int:
    """Aggregate manifest view of a shard directory, headers only.

    Reads each shard's header member and the zip directory — no column
    array is paged in — so inspecting a terabyte trace costs one small
    read per shard.  The day span comes from the headers' ``t_min`` /
    ``t_max`` stamps; shards written before those stamps existed report an
    unknown span.
    """
    from repro.algorithms.timebins import DAY
    from repro.cdr.store import read_cdrz_header, resolve_shards

    shards = resolve_shards(path)
    total_rows = 0
    total_bytes = 0
    t_min: float | None = None
    t_max: float | None = None
    span_known = True
    for shard in shards:
        header = read_cdrz_header(shard)
        total_rows += header.n_rows
        total_bytes += shard.stat().st_size
        if header.n_rows == 0:
            continue
        if header.t_min is None or header.t_max is None:
            span_known = False
            continue
        t_min = header.t_min if t_min is None else min(t_min, header.t_min)
        t_max = header.t_max if t_max is None else max(t_max, header.t_max)
    print(
        f"{path}: {len(shards)} shard(s), {total_rows:,} rows, "
        f"{total_bytes:,} bytes"
    )
    if t_min is not None and t_max is not None:
        first_day = int(t_min // DAY)
        last_day = int(max(t_min, t_max - 1e-9) // DAY)
        prefix = "" if span_known else ">= "
        print(
            f"  day span {prefix}{first_day}..{last_day} "
            f"({prefix}{last_day - first_day + 1} day(s))"
        )
    elif total_rows:
        print("  day span unknown (shards predate t_min/t_max headers)")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.cdr.store import inspect_cdrz

    if Path(args.path).is_dir():
        return _inspect_directory(args.path)
    info = inspect_cdrz(args.path)
    header = info.header
    print(
        f"{info.path}: cdrz schema v{header.schema_version}, "
        f"{header.n_rows:,} rows, sorted={header.sorted}, "
        f"{info.file_bytes:,} bytes"
    )
    print(
        f"  cars {info.n_cars:,} | carriers {info.n_carriers} "
        f"| technologies {info.n_technologies}"
    )
    for member in info.members:
        shape = "x".join(str(dim) for dim in member.shape) or "()"
        storage = "deflated" if member.compressed else "stored"
        print(
            f"  {member.name:<14} {member.dtype:<8} {shape:>10} "
            f"{member.nbytes:>12,} B  {storage}"
        )
    return 0


def _fold_report(
    args: argparse.Namespace,
    clock: StudyClock,
    topology: NetworkTopology,
    load_model: CellLoadModel,
) -> AnalysisReport | None:
    """``analyze --workers N`` over cdrz shards: the shard fold's report.

    Prints the fan-out line first.  Returns ``None`` when the shards are
    out of start order, so the caller analyzes the trace in process.
    """
    from repro.core.busy import BusySchedule
    from repro.core.clustering import select_busy_cells
    from repro.core.mapreduce import ShardOrderError, analyze_shards_fused
    from repro.cpus import available_cpus

    try:
        report, stats = analyze_shards_fused(
            args.trace,
            clock,
            schedule=BusySchedule.from_load_model(load_model),
            cells=topology.cells,
            busy_cells=None if args.no_clustering else select_busy_cells(load_model),
            workers=args.workers if args.workers > 0 else available_cpus(),
        )
    except ShardOrderError as exc:
        print(f"analyze: {exc}; analyzing in process", file=sys.stderr)
        return None
    print(
        f"fused map-reduce over {stats.n_shards} shard(s), "
        f"{report.n_kept + report.n_ghosts:,} rows, {stats.workers} worker(s); "
        f"peak RSS {stats.peak_rss_bytes / 1e6:.0f} MB"
    )
    return report


def cmd_analyze(args: argparse.Namespace) -> int:
    """``analyze``: the paper report, the same at any ``--workers``.

    A cdrz file or shard directory at ``--workers`` other than 1 runs the
    shard fold; everything else runs the in-memory pipeline.
    """
    from pathlib import Path

    config = scenario(args.scenario, n_cars=1, n_days=args.days)
    clock = StudyClock(n_days=args.days)
    topology = build_topology(config.topology)
    load_model = CellLoadModel(topology, clock, seed=config.load_seed)
    fold = args.workers != 1 and (
        Path(args.trace).is_dir() or trace_format(args.trace) == "cdrz"
    )
    report = _fold_report(args, clock, topology, load_model) if fold else None
    if report is None:
        # Columns only: the pipeline puts them in record order if they are
        # not already, and builds no ConnectionRecord objects.
        batch = read_columnar_auto(args.trace)
        pipeline = AnalysisPipeline(clock, load_model, topology.cells)
        report = pipeline.run(batch, with_clustering=not args.no_clustering)
    if args.markdown:
        print(format_report_markdown(report))
    else:
        print(format_report(report))
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    from repro.cdr.quality import assess_quality

    clock = StudyClock(n_days=args.days)
    batch = load_trace(args.trace)
    report = assess_quality(batch, clock)
    print(report.render())
    return 0 if report.clean else 2


def cmd_fota(args: argparse.Namespace) -> int:
    from repro.core.busy import BusySchedule
    from repro.core.preprocess import preprocess
    from repro.core.segmentation import days_on_network
    from repro.fota.campaign import CampaignConfig
    from repro.fota.policy import (
        BusyAwarePolicy,
        NaivePolicy,
        OffPeakPolicy,
        RareFirstPolicy,
    )
    from repro.fota.simulator import CampaignSimulator

    config = scenario(args.scenario, n_cars=1, n_days=args.days)
    clock = StudyClock(n_days=args.days)
    topology = build_topology(config.topology)
    load_model = CellLoadModel(topology, clock, seed=config.load_seed)
    pre = preprocess(read_columnar_auto(args.trace))
    simulator = CampaignSimulator(
        pre.truncated,
        BusySchedule.from_load_model(load_model),
        days_on_network(pre.full, clock),
    )
    campaign = CampaignConfig(
        update_bytes=args.update_mb * 1e6, window_days=args.days
    )
    print(f"{'policy':<22} | {'complete':>8} | {'busy bytes':>10}")
    for policy in (NaivePolicy(), OffPeakPolicy(), RareFirstPolicy(), BusyAwarePolicy()):
        if args.max_concurrent is not None:
            result = simulator.run_throttled(policy, campaign, args.max_concurrent)
        else:
            result = simulator.run(policy, campaign)
        print(
            f"{result.policy_name:<22} | {result.completion_rate:>8.1%} "
            f"| {result.busy_byte_fraction:>10.1%}"
        )
    return 0


def cmd_journeys(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.journeys import commute_peak_shares, reconstruct_journeys
    from repro.core.preprocess import preprocess
    from repro.viz import sparkline

    config = scenario(args.scenario, n_cars=1, n_days=args.days)
    clock = StudyClock(n_days=args.days)
    topology = build_topology(config.topology)
    pre = preprocess(read_columnar_auto(args.trace))
    stats = reconstruct_journeys(pre, topology.cells)
    print(
        f"journeys: {stats.n_journeys:,}; stationary sessions: "
        f"{stats.n_stationary_sessions:,}"
    )
    if stats.n_journeys:
        print(
            f"median distance {stats.median_distance_km():.1f} km, "
            f"median speed {np.median(stats.speeds_kmh()):.0f} km/h"
        )
        print(f"departures: {sparkline(stats.departure_hour_histogram(clock))}")
        morning, evening = commute_peak_shares(stats, clock)
        print(f"commute windows: morning {morning:.0%}, evening {evening:.0%}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: start the long-running analysis daemon.

    The initial ingest happens before the socket opens, so the first
    request never pays the cold sweep; later ``POST /ingest`` calls fold
    only newly appeared shards.
    """
    from repro.cdr.errors import CDRValidationError
    from repro.service import ServiceConfig, ServiceState, serve_forever

    config = ServiceConfig(
        trace=args.trace,
        scenario=args.scenario,
        days=args.days,
        workers=args.workers,
        cache_bytes=int(args.cache_mb * 1e6),
    )
    state = ServiceState(config)
    try:
        summary = state.refresh()
    except CDRValidationError as exc:
        print(f"serve needs a cdrz trace: {exc}", file=sys.stderr)
        return 2
    print(
        f"serving {summary.n_shards} shard(s), {summary.n_records:,} records "
        f"({args.scenario}, {args.days} days) on http://{args.host}:{args.port}"
    )
    try:
        serve_forever(state, args.host, args.port)
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``query``: one request against a running daemon, pretty-printed."""
    import json

    from repro.service import ServiceClient, ServiceClientError

    params: dict[str, str] = {}
    for raw in args.param:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            print(f"--param must look like KEY=VALUE, got {raw!r}", file=sys.stderr)
            return 2
        params[key] = value
    if args.car is not None:
        params["car"] = args.car
    try:
        with ServiceClient(args.host, args.port) as client:
            if args.kind == "stats":
                payload = client.stats()
            elif args.kind == "analyses":
                payload = client.analyses()
            elif args.kind == "ingest":
                payload = client.ingest()
            elif args.kind == "invalidate":
                payload = client.invalidate()
            else:
                payload = client.query(args.kind, params)
    except ServiceClientError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # ConnectionRefusedError (no daemon), socket.gaierror (bad host)
        # and timeouts are all OSError: one line on stderr, never a
        # traceback.
        print(
            f"cannot reach service at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_twin(args: argparse.Namespace) -> int:
    """``twin``: calibrate the generator against a target trace."""
    import json

    from repro.twin.search import calibrate
    from repro.twin.summary import summarize_source, twin_context

    knobs = None
    if args.knobs is not None:
        knobs = tuple(k.strip() for k in args.knobs.split(",") if k.strip())
        if not knobs:
            print("--knobs must name at least one knob", file=sys.stderr)
            return 2
    try:
        ctx = twin_context(args.scenario, args.days)
        target = summarize_source(args.target, ctx, workers=args.workers)
        result = calibrate(
            target,
            ctx,
            scenario_name=args.scenario,
            n_cars=args.cars,
            seed=args.seed,
            knobs=knobs,
            rounds=args.rounds,
            step=args.step,
            workers=args.workers,
        )
    except (ReproError, ValueError, OSError) as exc:
        # Bad target path, corrupt trace, unknown knob, invalid bounds:
        # all operator input problems — one line on stderr, no traceback.
        print(f"twin failed: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result.config.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.report is not None:
        doc = dict(result.to_json_dict())
        doc["target"] = target.to_json_dict()
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        f"target: {target.n_records:,} records, {target.n_cars:,} cars over "
        f"{target.n_days} days"
    )
    print(
        f"search: {result.n_evaluations} candidates over "
        f"{result.rounds_run} sweeps"
    )
    print(
        f"divergence: {result.baseline.score:.4f} (default config) -> "
        f"{result.report.score:.4f} (best fit)"
    )
    for stat in result.report.stats:
        try:
            base = f"{result.baseline.distance(stat.name):.4f}"
        except KeyError:
            base = "n/a"
        print(f"  {stat.name:16s} {base} -> {stat.distance:.4f}")
    print(f"wrote best-fit config to {args.out}")
    return 0


def cmd_saturate(args: argparse.Namespace) -> int:
    from repro.algorithms.timebins import BIN_SECONDS
    from repro.network.scheduler import DownloadFlow, PRBScheduler
    from repro.viz import sparkline

    clock = StudyClock(n_days=1)
    topology = build_topology()
    load = CellLoadModel(topology, clock)
    cell_id = load.busy_cell_ids(0.5)[0]
    background = load.day_series(cell_id, 0)
    start_s = args.start_hour * 3600.0
    flow = DownloadFlow(
        "greedy", start_time=start_s, stop_time=start_s + args.duration_hours * 3600.0
    )
    result = PRBScheduler(
        topology.cell(cell_id).carrier.prb_capacity, background
    ).run([flow])
    print(f"cell {cell_id}: baseline  {sparkline(background, width=96)}")
    print(f"cell {cell_id}: with test {sparkline(result.bin_utilization, width=96)}")
    start_bin = int(start_s // BIN_SECONDS)
    during = result.bin_utilization[start_bin : start_bin + int(args.duration_hours * 4)]
    print(
        f"mean U_PRB during test: {during.mean():.1%}; "
        f"downloaded {flow.transferred_bytes / 1e9:.2f} GB"
    )
    return 0


#: Commands that read a trace, and the argument naming it.  A missing,
#: unreadable or unusable trace is one stderr line and exit 2, never a
#: traceback; ``serve``, ``query`` and ``twin`` word their own failures.
_TRACE_ARGS = {
    "convert": "src",
    "inspect": "path",
    "analyze": "trace",
    "quality": "trace",
    "fota": "trace",
    "journeys": "trace",
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "convert": cmd_convert,
        "inspect": cmd_inspect,
        "analyze": cmd_analyze,
        "quality": cmd_quality,
        "fota": cmd_fota,
        "journeys": cmd_journeys,
        "serve": cmd_serve,
        "query": cmd_query,
        "twin": cmd_twin,
        "saturate": cmd_saturate,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        trace_arg = _TRACE_ARGS.get(args.command)
        if trace_arg is None:
            raise
        print(f"{args.command}: {getattr(args, trace_arg)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
