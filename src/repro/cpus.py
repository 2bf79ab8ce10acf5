"""How many CPUs this process may run on.

``--workers 0`` (and ``repro-lint --jobs 0``) means one worker per usable
CPU.  ``os.cpu_count()`` counts the machine's CPUs, which overstates what a
process restricted by an affinity mask (``taskset``, a container cpuset)
can use, and a pool sized to it oversubscribes the CPUs it really has.
"""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs this process may be scheduled on, at least 1.

    Uses ``os.sched_getaffinity`` where the platform has it (Linux) and
    falls back to ``os.cpu_count()`` elsewhere.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return os.cpu_count() or 1
