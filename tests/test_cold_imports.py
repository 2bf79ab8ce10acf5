"""Cold commands never import scipy or networkx.

Only trace generation needs them: the topology's site KD-tree
(``scipy.spatial``) and the road graph (``networkx``), plus the optional
handover-graph helpers.  The Section 4 analyses read CDR fields and
per-cell PRB counters, so ``analyze``, ``inspect``, ``query`` and every
daemon route must run without loading either package; together they
cost more of a cold ``import repro.cli`` than everything else.

Each case runs in a fresh interpreter.  A case fails if the interpreter's
``sys.modules`` holds either package at exit, or if any process it
started (``--workers 2`` sweeps shards in child processes) reports
importing one under ``PYTHONPROFILEIMPORTTIME``.  ``generate`` is the
control: it must load both, so the detector cannot pass vacuously.
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

#: Appended to every probe: the heavy packages in this interpreter's
#: ``sys.modules``, on one stderr line.
_REPORT = f"""
import sys
_loaded = {{m.partition(".")[0] for m in sys.modules}} & {set(HEAVY)!r}
print("heavy-modules:", *sorted(_loaded), file=sys.stderr)
"""


def heavy_imports(probe: str) -> set[str]:
    """Heavy packages a fresh interpreter running ``probe`` imported.

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
        if line.startswith("heavy-modules:"):
            loaded.update(line.split()[1:])
        elif line.startswith("import time:"):
            name = line.rpartition("|")[2].strip().partition(".")[0]
            if name in HEAVY:
                loaded.add(name)
    return loaded


def cli_probe(argv: list[str], expect_rc: int = 0) -> str:
    return (
        "from repro.cli import main\n"
        f"rc = main({argv!r})\n"
        f"assert rc == {expect_rc}, rc\n"
    )


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory) -> Path:
    """A small cdrz shard directory, written by a separate process."""
    out = tmp_path_factory.mktemp("cold-imports") / "shards"
    argv = [
        "generate", "--scenario", SCENARIO, "--cars", "25", "--days", str(DAYS),
        "--format", "cdrz", "--shard-rows", "400", "--out", str(out),
    ]
    # The generating process is the control: it needs both packages.
    assert heavy_imports(cli_probe(argv)) == HEAVY
    return out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_analyze_imports_neither(shard_dir, workers):
    argv = [
        "analyze", "--trace", str(shard_dir), "--scenario", SCENARIO,
        "--days", str(DAYS), "--workers", workers,
    ]
    assert heavy_imports(cli_probe(argv)) == set()


def test_inspect_imports_neither(shard_dir):
    assert heavy_imports(cli_probe(["inspect", str(shard_dir)])) == set()


def test_query_without_a_daemon_imports_neither():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # Nothing listens on the port once the socket is closed: exit 2.
    argv = ["query", "summary", "--port", str(port)]
    assert heavy_imports(cli_probe(argv, expect_rc=2)) == set()


def test_every_service_route_imports_neither(shard_dir):
    first = sorted(shard_dir.glob("*.cdrz"))[0]
    batch = read_batch_cdrz(first)
    car = batch.car_ids[int(batch.car_code[0])]
    probe = (
        "from repro.service import ANALYSIS_ROUTES, ServiceConfig, ServiceState\n"
        f"state = ServiceState(ServiceConfig(trace={str(shard_dir)!r}, "
        f"scenario={SCENARIO!r}, days={DAYS}))\n"
        "state.refresh()\n"
        "for kind in ANALYSIS_ROUTES:\n"
        f"    params = {{'car': {car!r}}} if kind == 'timeline' else {{}}\n"
        "    assert state.query(kind, params)\n"
    )
    assert heavy_imports(probe) == set()
