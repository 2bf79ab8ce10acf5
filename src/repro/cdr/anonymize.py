"""Keyed anonymization of car identifiers.

The paper's records are "anonymized and aggregated and do not contain
sensitive personal or identifiable information" (Section 3).  The synthetic
generator mimics that pipeline: raw fleet identifiers pass through a keyed
hash before they reach any analysis, so the mapping is stable within one key
and infeasible to reverse without it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cdr.columnar import ColumnarCDRBatch


class Anonymizer:
    """Stable keyed pseudonymization of car ids.

    The same ``(key, car id)`` pair always yields the same pseudonym; two
    different keys give unlinkable pseudonym spaces, which is how a carrier
    would rotate anonymization epochs.
    """

    def __init__(self, key: bytes | str, digest_chars: int = 16) -> None:
        if isinstance(key, str):
            key = key.encode()
        if not key:
            raise ValueError("anonymization key must be non-empty")
        if not 8 <= digest_chars <= 32:
            raise ValueError(f"digest_chars must be in 8..32, got {digest_chars}")
        self._key = key
        self._digest_chars = digest_chars

    def pseudonym(self, car_id: str) -> str:
        """Pseudonym for one car id."""
        digest = hashlib.blake2b(
            car_id.encode(), key=self._key, digest_size=16
        ).hexdigest()[: self._digest_chars]
        return f"anon-{digest}"

    def anonymize(self, batch: ColumnarCDRBatch) -> ColumnarCDRBatch:
        """Copy of a batch with every car id pseudonymized.

        Each car in the vocabulary is hashed once, and the car codes are
        re-encoded against the sorted pseudonym vocabulary; the rows, their
        order and every other column are untouched.
        """
        pseudonyms = np.asarray(
            [self.pseudonym(car) for car in batch.car_ids], dtype=object
        )
        car_ids, codes = np.unique(pseudonyms, return_inverse=True)
        return ColumnarCDRBatch(
            batch.start,
            batch.duration,
            batch.cell_id,
            codes[batch.car_code],
            batch.carrier_code,
            batch.tech_code,
            [str(car) for car in car_ids],
            batch.carriers,
            batch.technologies,
        )
