"""Append-only sweep journal: the outcome log of figure sweeps.

The content-addressed cache already makes re-running a killed sweep cheap
(completed points are hits, so a rerun recomputes only what is missing),
but it cannot say *which* sweep a result belonged to, how many attempts
it took, or whether it fell back to serial execution.  The journal
records exactly that: one JSONL line per completed work unit, appended
(and flushed) the moment its outcome is known, in a file named by the
sweep's own content digest next to the cache
(``<cache root>/_journals/<sweep digest>.jsonl``).

A record torn by a kill is closed off by the next append, so it damages
only itself — append-only JSONL degrades to "lose at most the last
record", never to a poisoned file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

#: Journal record schema; bump on incompatible record shape changes.
JOURNAL_SCHEMA = 1

#: Directory under the cache root holding per-sweep journals.
JOURNAL_DIR = "_journals"


class SweepJournal:
    """One sweep's append-only JSONL outcome log."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    @classmethod
    def for_sweep(cls, root: Union[str, Path], *keys: object) -> "SweepJournal":
        """The journal for the sweep identified by ``keys`` (figure id,
        quality, ...), named by a short digest of them, next to ``root``."""
        material = "/".join(str(key) for key in keys)
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
        return cls(Path(root) / JOURNAL_DIR / f"{digest}.jsonl")

    def record(self, digest: str, status: str, *, attempts: int = 1,
               cached: bool = False, serial_fallback: bool = False,
               wall_time: float = 0.0,
               error: Optional[str] = None) -> None:
        """Append one outcome record (flushed immediately; crash-safe)."""
        entry: Dict[str, object] = {
            "schema": JOURNAL_SCHEMA,
            "digest": digest,
            "status": status,
            "attempts": attempts,
        }
        if cached:
            entry["cached"] = True
        if serial_fallback:
            entry["serial_fallback"] = True
        if wall_time:
            entry["wall_time"] = round(wall_time, 6)
        if error:
            entry["error"] = error.strip().splitlines()[-1][:200]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A run killed mid-append leaves a torn line with no newline; the
        # next run must not glue its first record onto it (that would
        # tear *two* records).  Close the wound with a newline first.
        torn_tail = False
        try:
            with self.path.open("rb") as handle:
                handle.seek(-1, os.SEEK_END)
                torn_tail = handle.read(1) != b"\n"
        except OSError:
            pass
        # Append-only JSONL by design: atomicity is per *record* (one write
        # + flush per line), and the torn-tail repair above handles the only
        # partial-write failure mode.
        with self.path.open("a", encoding="utf-8") as handle:  # lint: disable=SIM010
            if torn_tail:
                handle.write("\n")
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
