"""Provenance stamping for the committed benchmark records.

``BENCH_throughput.json``, ``BENCH_kernels.json`` and
``BENCH_pipeline.json`` track the perf trajectory PR over PR, which only
works if every record says *which code produced it and when*.  :func:`stamp_record` adds a schema version, the
git SHA of the working tree, and an ISO-8601 UTC timestamp; the bench
tests assert the stamp with :func:`assert_stamped` so an unstamped
record can never be committed again.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path

#: Bump when the shape of a bench record changes incompatibly.
#: Version 2 introduced the provenance stamp itself.
BENCH_SCHEMA_VERSION = 2

#: Fields :func:`stamp_record` adds to every record.
STAMP_FIELDS = ("schema_version", "git_sha", "timestamp")


def _git(*args: str) -> str | None:
    """``git <args>``'s stripped stdout in this file's checkout, or
    ``None`` when git is missing, times out or exits non-zero."""
    try:
        completed = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def git_sha() -> str:
    """The short SHA of the repository containing this file, suffixed
    ``-dirty`` when tracked files differ from it, or ``"unknown"``
    outside a git checkout (installed packages, tarballs)."""
    sha = _git("rev-parse", "--short", "HEAD")
    if not sha:
        return "unknown"
    if _git("status", "--porcelain", "--untracked-files=no"):
        return f"{sha}-dirty"
    return sha


def content_digest(payload: object) -> str:
    """A stable hex digest of a JSON-serialisable payload.

    The digest is taken over the canonical JSON encoding (sorted keys,
    no whitespace), so two payloads that are ``==`` after a JSON
    round-trip always digest identically regardless of dict insertion
    order.  Scenario sweeps use this to fingerprint specs and cells:
    a cached cell result is only reused when its recorded digest matches
    the digest recomputed from the current spec.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def stamp_record(record: dict) -> dict:
    """A copy of ``record`` carrying the provenance stamp."""
    return {
        **record,
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def assert_stamped(record: dict) -> None:
    """Assert a bench record carries a valid provenance stamp.

    Raises:
        AssertionError: missing stamp fields, a wrong schema version, or
            an unparsable timestamp.
    """
    for field in STAMP_FIELDS:
        assert field in record and record[field], f"bench record missing {field!r}"
    assert record["schema_version"] == BENCH_SCHEMA_VERSION, (
        f"bench record schema_version {record['schema_version']!r} != "
        f"{BENCH_SCHEMA_VERSION}"
    )
    datetime.fromisoformat(record["timestamp"])  # raises if unparsable
