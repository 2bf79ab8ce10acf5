"""Cold commands load only what they use.

The package depends on numpy alone: no process imports scipy or
networkx, trace generation included (its site lookup is a numpy argmin
and its road network plain adjacency).  Either package, pulled in again by
a stray import, would cost more of a cold ``import repro.cli`` than
everything else.

The same commands stay off the trace generator's own stack — population,
radio, routing and movement — and off the prediction, FOTA, twin-search,
quality and anonymization modules (:data:`GENERATOR_STACK`); each budget
case records how many ``repro`` modules its probe loaded.

Each case runs in a fresh interpreter.  A case fails if the interpreter's
``sys.modules`` holds a forbidden module at exit, or if any process it
started (``--workers 2`` sweeps shards in child processes) reports
importing one under ``PYTHONPROFILEIMPORTTIME``.  ``generate`` is the
control: it must load neither package, but must load
``repro.simulate.generator``, so the detector cannot pass vacuously.

A daemon's cold refresh and tail append must also leave ``numpy.ma``
unloaded: numpy's hash-based ``unique`` imports it on first use.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cdr.store import read_batch_cdrz

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = frozenset({"scipy", "networkx"})
SCENARIO = "smoke"
DAYS = 7

#: ``repro`` modules (and packages, with everything under them) that no
#: analysis command or daemon route may load.
GENERATOR_STACK = (
    "repro.simulate.generator",
    "repro.simulate.parallel",
    "repro.simulate.radio",
    "repro.simulate.population",
    "repro.mobility.routing",
    "repro.mobility.profiles",
    "repro.mobility.movement",
    "repro.prediction",
    "repro.fota",
    "repro.twin.search",
    "repro.twin.divergence",
    "repro.cdr.quality",
    "repro.cdr.anonymize",
)

#: Appended to every probe: this interpreter's ``sys.modules``, on one
#: stderr line.
_REPORT = """
import sys
print("loaded-modules:", *sorted(sys.modules), file=sys.stderr)
"""


def loaded_modules(probe: str) -> set[str]:
    """Every module a fresh interpreter running ``probe`` imported.

    The probe must exit 0; the union covers the probe's own ``sys.modules``
    and the import-time log of every process it started.
    """
    env = dict(os.environ, PYTHONPROFILEIMPORTTIME="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe + _REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    loaded: set[str] = set()
    for line in proc.stderr.splitlines():
        if line.startswith("loaded-modules:"):
            loaded.update(line.split()[1:])
        elif line.startswith("import time:"):
            loaded.add(line.rpartition("|")[2].strip())
    return loaded


def heavy_packages(loaded: set[str]) -> set[str]:
    """The heavy packages among the module names ``loaded``."""
    return {name.partition(".")[0] for name in loaded} & HEAVY


def heavy_imports(probe: str) -> set[str]:
    """Heavy packages a fresh interpreter running ``probe`` imported."""
    return heavy_packages(loaded_modules(probe))


def over_budget(loaded: set[str]) -> list[str]:
    """The modules of :data:`GENERATOR_STACK` among ``loaded``."""
    return sorted(
        name
        for name in loaded
        if any(name == home or name.startswith(home + ".") for home in GENERATOR_STACK)
    )


def repro_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.partition(".")[0] == "repro"}


def cli_probe(argv: list[str], expect_rc: int = 0) -> str:
    return (
        "from repro.cli import main\n"
        f"rc = main({argv!r})\n"
        f"assert rc == {expect_rc}, rc\n"
    )


def analyze_argv(shard_dir: Path, workers: str) -> list[str]:
    return [
        "analyze", "--trace", str(shard_dir), "--scenario", SCENARIO,
        "--days", str(DAYS), "--workers", workers,
    ]


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory) -> Path:
    """A small cdrz shard directory, written by a separate process."""
    out = tmp_path_factory.mktemp("cold-imports") / "shards"
    argv = [
        "generate", "--scenario", SCENARIO, "--cars", "25", "--days", str(DAYS),
        "--format", "cdrz", "--shard-rows", "400", "--out", str(out),
    ]
    # The generating process is the control: it loads the generator and
    # neither package.
    loaded = loaded_modules(cli_probe(argv))
    assert heavy_packages(loaded) == set()
    assert "repro.simulate.generator" in loaded
    return out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_analyze_imports_neither(shard_dir, workers):
    assert heavy_imports(cli_probe(analyze_argv(shard_dir, workers))) == set()


def test_inspect_imports_neither(shard_dir):
    assert heavy_imports(cli_probe(["inspect", str(shard_dir)])) == set()


def query_probe() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # Nothing listens on the port once the socket is closed: exit 2.
    return cli_probe(["query", "summary", "--port", str(port)], expect_rc=2)


def test_query_without_a_daemon_imports_neither():
    assert heavy_imports(query_probe()) == set()


def daemon_probe(shard_dir: Path) -> str:
    """A daemon's ``refresh()``, then one query per route."""
    first = sorted(shard_dir.glob("*.cdrz"))[0]
    batch = read_batch_cdrz(first)
    car = batch.car_ids[int(batch.car_code[0])]
    return (
        "from repro.service import ANALYSIS_ROUTES, ServiceConfig, ServiceState\n"
        f"state = ServiceState(ServiceConfig(trace={str(shard_dir)!r}, "
        f"scenario={SCENARIO!r}, days={DAYS}))\n"
        "state.refresh()\n"
        "for kind in sorted(ANALYSIS_ROUTES):\n"
        f"    params = {{'car': {car!r}}} if kind == 'timeline' else {{}}\n"
        "    assert state.query(kind, params)\n"
    )


def test_every_service_route_imports_neither(shard_dir):
    assert heavy_imports(daemon_probe(shard_dir)) == set()


def ingest_probe(shard_dir: Path, trace: Path) -> str:
    """A daemon's cold ``refresh()`` over all shards but the last, then
    the last appended with one more ``refresh()``."""
    shards = [str(p) for p in sorted(shard_dir.glob("*.cdrz"))]
    return (
        "import shutil\n"
        "from pathlib import Path\n"
        "from repro.service import ServiceConfig, ServiceState\n"
        f"shards, trace = [Path(p) for p in {shards!r}], Path({str(trace)!r})\n"
        "trace.mkdir()\n"
        "for shard in shards[:-1]:\n"
        "    shutil.copy(shard, trace / shard.name)\n"
        f"state = ServiceState(ServiceConfig(trace=str(trace), scenario={SCENARIO!r}, "
        f"days={DAYS}))\n"
        "state.refresh()\n"
        "shutil.copy(shards[-1], trace / shards[-1].name)\n"
        "assert state.refresh().n_added == 1\n"
    )


def test_ingest_takes_no_hash_based_unique(shard_dir, tmp_path):
    """numpy 2.3+ answers a flagless ``np.unique`` (and ``np.union1d``)
    with a hash table, many times slower than sorting, and its first call
    imports ``numpy.ma``: a cold refresh plus an append must not."""
    assert len(list(shard_dir.glob("*.cdrz"))) >= 2
    assert "numpy.ma" not in loaded_modules(ingest_probe(shard_dir, tmp_path / "trace"))


#: Each budget case: how to build its probe from the shard directory.
BUDGET_PROBES = {
    "analyze": lambda shards: cli_probe(analyze_argv(shards, "1")),
    "analyze-workers-2": lambda shards: cli_probe(analyze_argv(shards, "2")),
    "inspect": lambda shards: cli_probe(["inspect", str(shards)]),
    "query": lambda shards: query_probe(),
    "daemon": daemon_probe,
}


@pytest.mark.parametrize("case", sorted(BUDGET_PROBES))
def test_analysis_commands_skip_the_generator_stack(shard_dir, case, record_property):
    loaded = repro_modules(loaded_modules(BUDGET_PROBES[case](shard_dir)))
    record_property("repro_modules", len(loaded))
    assert over_budget(loaded) == [], f"{case} loaded {len(loaded)} repro modules"


def test_import_repro_loads_no_submodule():
    """``repro``'s top-level names resolve on first access, not at import."""
    assert repro_modules(loaded_modules("import repro\n")) == {"repro"}
