"""Load generators: a closed loop of waiting clients and an open-loop reader.

Both run in the benchmark process, with one thread per client.  A request is
a ``(label, path)`` pair; ``fetch`` sends the path and returns
``(status, body)``, and ``check(path, status, body)`` decides whether the
reply is correct.  A fetch that raises
``OSError`` or ``http.client.HTTPException`` counts as a failed request.
"""

from __future__ import annotations

import http.client
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

Fetch = Callable[[str], tuple[int, bytes]]
Check = Callable[[str, int, bytes], bool]


@dataclass(frozen=True)
class Sample:
    """One completed request."""

    label: str
    latency_s: float
    ok: bool
    #: Open loop only: how late the generator sent the request.
    late_s: float = 0.0


def _send(fetch: Fetch, check: Check, path: str) -> bool:
    try:
        status, body = fetch(path)
    except (OSError, http.client.HTTPException):
        return False
    return check(path, status, body)


def closed_loop(
    fetchers: Sequence[Fetch],
    plans: Sequence[Iterator[tuple[str, str]]],
    seconds: float,
    check: Check,
) -> list[Sample]:
    """Each client sends its next request only after the previous reply.

    Runs one thread per ``(fetch, plan)`` pair until ``seconds`` have passed
    and returns every client's samples.  A slow system therefore receives
    less load, as dashboards that each wait for a reply would give it.
    """
    if len(fetchers) != len(plans):
        raise ValueError("one plan per client")
    results: list[list[Sample]] = [[] for _ in fetchers]
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        fetch, plan, out = fetchers[index], plans[index], results[index]
        while time.perf_counter() < deadline:
            label, path = next(plan)
            start = time.perf_counter()
            ok = _send(fetch, check, path)
            out.append(Sample(label, time.perf_counter() - start, ok))

    threads = [
        threading.Thread(target=client, args=(i,), name=f"e2e-client-{i}")
        for i in range(len(fetchers))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for samples in results for sample in samples]


def open_loop(
    fetch: Fetch,
    plan: Iterator[tuple[str, str]],
    rate: float,
    done: Callable[[float], bool],
    check: Check,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Send on a fixed schedule of ``rate`` requests per second.

    Request ``i`` is due ``i / rate`` seconds after the start, whatever
    happened to earlier requests, and its latency is timed from when it was
    due.  A stall therefore counts against every request queued behind it,
    and ``late_s`` records how late the generator managed to send.  The
    loop stops before the first request for which ``done(elapsed)`` holds,
    ``elapsed`` being that request's due time since the start.
    """
    samples: list[Sample] = []
    start = clock()
    index = 0
    while not done(index / rate):
        due = start + index / rate
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        label, path = next(plan)
        ok = _send(fetch, check, path)
        samples.append(Sample(label, clock() - due, ok, late_s=sent - due))
        index += 1
    return samples
