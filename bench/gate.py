"""Correctness gate: op summaries against pinned expectations.

`expected.json` holds, per workload and scale, the summary of every op
(survivor digests in order, class counts, verdicts, coefficient and
decomposition digests) and the set-up checks (the pair-check pool
digest).  Search statistics such as nodes, pruned and candidates are
deliberately absent: a faster walk may change them.  `bench/pin.py`
writes the file from the code it runs against.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path=EXPECTED_PATH) -> dict:
    return json.loads(Path(path).read_text())


class Gate:
    """Pinned expectations for one workload at one scale."""

    def __init__(self, expected: dict, workload: str, scale: str):
        try:
            self.pins = expected[workload][scale]
        except KeyError:
            raise ValueError(f"no pinned expectations for {workload} at scale {scale}")

    def check(self, key: str, summary) -> str | None:
        """None when `summary` matches the pin under `key`, else a message."""
        want = self.pins.get(key)
        if want is None:
            return f"{key}: nothing pinned"
        if summary != want:
            return f"{key}: got {summary}, pinned {want}"
        return None
