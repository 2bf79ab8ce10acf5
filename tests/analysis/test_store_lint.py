"""The binary store honors the determinism rules (RL001-RL008).

``cdr/store.py`` writes containers whose bytes are diffed by the parity
tooling, so the linter's rules matter doubly there: NPZ member ordering,
dictionary-encoding iteration and float comparisons must all be
deterministic.  This lints the files directly with every per-file rule
enabled and no baseline, so a new finding cannot hide behind an exclusion.
"""

from __future__ import annotations

from repro.analysis.config import LintConfig
from repro.analysis.parallel import ScanSpec, scan_file

from tests.analysis.conftest import REPO_ROOT

STORE_FILES = (
    "src/repro/cdr/store.py",
    "src/repro/cdr/io.py",
    "src/repro/cdr/columnar.py",
)


def test_store_modules_are_clean_under_every_rule():
    spec = ScanSpec(
        files=tuple(str(REPO_ROOT / rel) for rel in STORE_FILES),
        relpaths=STORE_FILES,
        cfg=LintConfig(root=REPO_ROOT),
    )
    for index, rel in enumerate(STORE_FILES):
        assert (REPO_ROOT / rel).is_file(), rel
        scan = scan_file(spec, index)
        assert scan.error is None, f"{rel} failed to parse: {scan.error}"
        assert scan.findings == (), (
            f"determinism findings in {rel}: "
            f"{[(f.rule_id, f.located(), f.message) for f in scan.findings]}"
        )
