"""Call Detail Record (CDR) data model.

The paper's input is anonymized, aggregated radio-level CDRs: for each
connection, which car connected to which cell on which carrier, when and for
how long — but not how many bytes moved (Section 3).  This package defines
that record type, batch containers with validation, CSV/JSONL round-trip,
the binary columnar ``.cdrz`` store with zero-copy load, and keyed
anonymization of car identifiers.
"""
