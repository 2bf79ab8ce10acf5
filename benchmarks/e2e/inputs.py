"""What the workloads read and send: seeded traces, shard layouts, requests.

Imports of ``repro`` happen inside the functions, after ``run.py`` has put
the checkout's ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any
from urllib.parse import quote, urlencode

import numpy as np

if TYPE_CHECKING:
    from repro.cdr.columnar import ColumnarCDRBatch
    from repro.simulate.generator import TraceDataset

#: The 15 projection keys the serve clients draw from: every Section 4
#: route except ``timeline`` and ``twin``, at the parameters dashboards use.
PROJECTIONS: tuple[tuple[str, dict[str, str]], ...] = (
    ("summary", {}),
    ("presence", {}),
    *(("connect_time", {"q": q}) for q in ("50", "90", "99", "99.5")),
    ("carriers", {}),
    *(("busy", {"floor": f}) for f in ("0.3", "0.5", "0.7", "0.9")),
    ("segmentation", {}),
    *(("handovers", {"q": q}) for q in ("50", "90", "99")),
)


def projection_path(kind: str, params: Mapping[str, str]) -> str:
    """The request path ``ServiceClient.query_bytes`` would send."""
    path = f"/query/{quote(kind)}"
    if params:
        path += "?" + urlencode(sorted(params.items()))
    return path


def timeline_path(car: str) -> str:
    """The request path of one car's timeline."""
    return f"/timeline/{quote(car)}"


PROJECTION_PATHS = tuple(projection_path(kind, params) for kind, params in PROJECTIONS)


def generated(cars: int, days: int, seed: int) -> TraceDataset:
    """The dataset ``repro-cars generate --scenario default`` writes for this seed."""
    from dataclasses import replace

    from repro.simulate.generator import TraceGenerator
    from repro.simulate.scenarios import scenario

    config = replace(scenario("default", n_cars=cars, n_days=days), seed=seed)
    return TraceGenerator(config).generate()


def day_shard(day: int) -> str:
    """File name of one study day's shard."""
    return f"shard-{day:05d}.cdrz"


def write_day_shards(
    col: ColumnarCDRBatch, days: int, directory: Path, first: int, last: int
) -> None:
    """One :func:`day_shard` per study day in ``[first, last)``, by start time."""
    from repro.algorithms.timebins import DAY
    from repro.cdr.store import write_batch_cdrz

    edges = np.searchsorted(col.start, np.arange(days + 1) * DAY)
    edges[-1] = len(col)
    directory.mkdir(parents=True, exist_ok=True)
    for day in range(first, last):
        write_batch_cdrz(
            directory / day_shard(day), col.rows(int(edges[day]), int(edges[day + 1]))
        )


def serve_inputs(
    cars: int, days: int, seed: int, layout: Mapping[Path, tuple[int, int]]
) -> tuple[list[str], int]:
    """Generate a trace and write its day shards; returns ``(car ids, rows)``.

    ``layout`` maps a directory to the ``[first, last)`` days it receives.
    """
    col = generated(cars, days, seed).batch.columnar()
    for directory, (first, last) in layout.items():
        write_day_shards(col, days, directory, first, last)
    return [col.car_ids[int(code)] for code in col.present_car_codes()], len(col)


def digest(directory: Path) -> str:
    """One hash over every file name and byte under ``directory``."""
    sha = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def body_digest(body: bytes) -> str:
    """sha256 of a response body, for comparing replies across processes."""
    return hashlib.sha256(body).hexdigest()


def dir_bytes(*directories: Path) -> int:
    """Total size of the files under the given directories."""
    return sum(path.stat().st_size for d in directories for path in d.iterdir())


def reference_responses(
    trace: Path, days: int, cars: Sequence[str] = ()
) -> dict[str, bytes]:
    """Response bytes of a cold in-process ``ServiceState``, keyed by request path."""
    from repro.service import ServiceConfig, ServiceState

    state = ServiceState(ServiceConfig(trace=str(trace), days=days))
    state.refresh()
    expected = {
        projection_path(kind, params): state.query(kind, params)
        for kind, params in PROJECTIONS
    }
    for car in cars:
        expected[timeline_path(car)] = state.query("timeline", {"car": car})
    return expected


def read_plan(
    rng: np.random.Generator, cars: Sequence[str], timeline_every: int
) -> Iterator[tuple[str, str]]:
    """A dashboard's requests: seeded projections, and every ``timeline_every``-th
    request the timeline of its next car until it has asked for all of them."""
    pending = list(cars)
    count = 0
    while True:
        count += 1
        if pending and count % timeline_every == 0:
            yield "timeline", timeline_path(pending.pop(0))
        else:
            yield "projection", PROJECTION_PATHS[int(rng.integers(len(PROJECTION_PATHS)))]


def json_object(body: bytes) -> dict[str, Any] | None:
    """``body`` parsed as a JSON object, or ``None``."""
    try:
        parsed = json.loads(body)
    except ValueError:
        return None
    return parsed if isinstance(parsed, dict) else None
