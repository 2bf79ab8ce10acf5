"""``repro-lint``: determinism- and correctness-focused static analysis.

The pipeline's headline guarantee is *byte-identical output at any worker
count* (see ``docs/ARCHITECTURE.md``).  Nothing about that guarantee is
visible in any single diff: an unseeded ``default_rng()``, a wall-clock
call, or set-iteration order leaking into record emission would only show
up later as a flaky parity checksum.  This package turns those invariants
into machine-checked rules.

The framework is deliberately small: a rule registry
(:mod:`repro.analysis.registry`), per-rule AST visitors under
:mod:`repro.analysis.rules`, findings with ``file:line`` locations and fix
hints (:mod:`repro.analysis.findings`), path-scoped severity
(:mod:`repro.analysis.config`), a baseline file for grandfathered findings
(:mod:`repro.analysis.baseline`) and JSON/text reporting
(:mod:`repro.analysis.reporting`).  The ``repro-lint`` console script wraps
it all (:mod:`repro.analysis.cli`); CI runs it over ``src/`` as a hard
gate.
"""
