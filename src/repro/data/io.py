"""Dataset file IO in DNASimulator-compatible text formats.

The paper's artifact inter-operates with DNASimulator's file layout
(Appendix A), the de-facto interchange format for clustered DNA-storage
datasets ("evyat" files)::

    <reference strand>
    *****************************
    <noisy copy 1>
    <noisy copy 2>
    <blank line>
    <blank line>

plus a plain one-strand-per-line format for reference-only files.  Both
are supported here, round-trip exactly, and are what the CLI reads and
writes.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from repro.core.alphabet import AlphabetError, validate_strand
from repro.core.strand import Cluster, StrandPool
from repro.exceptions import DataFormatError

#: Separator line between a reference strand and its cluster of copies.
CLUSTER_SEPARATOR = "*" * 29


# -------------------------------------------------------------------- #
# Durable writes
# -------------------------------------------------------------------- #


def fsync_directory(directory: str | Path) -> None:
    """Flush a directory entry to stable storage (best effort).

    After ``os.replace`` the new name is only crash-durable once the
    containing directory has itself been fsync'd; platforms that refuse
    to open directories (or filesystems without the semantics) are
    silently tolerated.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(
    path: str | Path, mode: str = "w", encoding: str | None = "utf-8"
) -> Iterator[IO]:
    """Context manager yielding a handle whose contents replace ``path``
    atomically on success.

    The write goes to a temporary file in the same directory; on normal
    exit the data is flushed, ``fsync``'d, renamed over ``path``, and the
    directory entry is fsync'd, so readers (and crash recovery) only ever
    observe the old file or the complete new one — never a torn write.
    On error the temporary file is removed and ``path`` is untouched.

    This is the one durable-write primitive the repository shares: the
    sweep records (:mod:`repro.scenarios`), the experiment-context cache
    (:mod:`repro.experiments.cache`), and :class:`PoolWriter` all write
    through it instead of hand-rolling tmp-file/rename variants.
    """
    path = Path(path)
    if "b" in mode:
        encoding = None
    handle = tempfile.NamedTemporaryFile(
        mode=mode,
        encoding=encoding,
        dir=path.parent,
        prefix=path.name + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def atomic_write(
    path: str | Path, content: str | bytes, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path`` with ``content`` (tmp + fsync + rename).

    Accepts text or bytes; the temporary file lives in the target's
    directory so the final rename never crosses filesystems.
    """
    if isinstance(content, bytes):
        with atomic_writer(path, mode="wb") as handle:
            handle.write(content)
    else:
        with atomic_writer(path, mode="w", encoding=encoding) as handle:
            handle.write(content)


def _validated(
    line: str, path: Path, line_number: int, what: str
) -> str:
    """Validate a strand, rewrapping alphabet errors with file context."""
    try:
        return validate_strand(line)
    except AlphabetError as error:
        raise DataFormatError(
            f"{path}:{line_number}: invalid {what}: {error}"
        ) from error


class PoolWriter:
    """Streaming evyat writer: clusters go to disk as they arrive.

    The sharded pipeline's streaming paths (``dnasim dataset --stream``,
    ``dnasim generate --stream``) produce clusters shard by shard;
    writing each one immediately keeps peak memory bounded by a single
    shard instead of the whole archive.  The byte stream is identical to
    :func:`write_pool` over the same clusters in the same order, so a
    streamed file round-trips through :func:`read_pool` exactly like a
    materialised one.

    Writes are atomic at the whole-file level: clusters stream into a
    temporary file beside the target, which replaces it (fsync + rename)
    only when :meth:`close` runs after a successful write.  A crash or an
    exception mid-stream leaves any previous file intact and no torn
    partial output — the same durability contract as
    :func:`atomic_writer`, kept streaming-friendly here.

    Use as a context manager::

        with PoolWriter(path) as writer:
            for cluster in clusters:
                writer.write_cluster(cluster)
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="ascii",
            dir=self._path.parent,
            prefix=self._path.name + ".",
            suffix=".tmp",
            delete=False,
        )
        self._first = True
        self._closed = False
        self.n_clusters = 0
        self.n_copies = 0

    def write_cluster(self, cluster: Cluster) -> None:
        """Append one cluster to the file."""
        lines = [cluster.reference, CLUSTER_SEPARATOR, *cluster.copies, "", ""]
        prefix = "" if self._first else "\n"
        self._handle.write(prefix + "\n".join(lines))
        self._first = False
        self.n_clusters += 1
        self.n_copies += cluster.coverage

    def write_all(self, clusters: Iterable[Cluster]) -> None:
        """Append every cluster of an iterable (consumed lazily)."""
        for cluster in clusters:
            self.write_cluster(cluster)

    def close(self) -> None:
        """Publish the streamed file atomically (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._handle.name, self._path)
        except BaseException:
            self.abort()
            raise
        fsync_directory(self._path.parent)

    def abort(self) -> None:
        """Discard the partial stream; the target path is left untouched."""
        if not self._closed:
            self._closed = True
            self._handle.close()
        try:
            os.unlink(self._handle.name)
        except OSError:
            pass

    def __enter__(self) -> "PoolWriter":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_pool(pool: StrandPool, path: str | Path) -> None:
    """Write a pseudo-clustered pool in evyat format."""
    with PoolWriter(path) as writer:
        writer.write_all(pool)


def iter_pool(path: str | Path) -> Iterator[Cluster]:
    """Stream clusters from an evyat-format file, one at a time.

    The streaming counterpart of :func:`read_pool`: at most one cluster
    is in memory, so a paper-scale read pool (10,000 clusters, ~270k
    reads) can be profiled or re-clustered in bounded memory.  Yields
    the same clusters in the same order as :func:`read_pool`.

    Trailing whitespace and variable blank-line runs between clusters are
    tolerated; structural damage is not.

    Raises:
        DataFormatError: on malformed files (missing or duplicate
            separator, invalid bases), with ``file:line:`` context.
    """
    path = Path(path)
    reference: str | None = None
    copies: list[str] = []
    expecting_separator = False
    with open(path, "r", encoding="ascii") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                if reference is not None and not expecting_separator:
                    yield Cluster(reference, copies)
                    reference = None
                    copies = []
                continue
            is_separator = set(line) == {"*"}
            if reference is None:
                if is_separator:
                    raise DataFormatError(
                        f"{path}:{line_number}: separator with no reference "
                        "strand before it"
                    )
                reference = _validated(
                    line, path, line_number, "reference strand"
                )
                expecting_separator = True
                continue
            if expecting_separator:
                if not is_separator:
                    raise DataFormatError(
                        f"{path}:{line_number}: expected a separator of '*' "
                        f"after reference, got {line[:20]!r}"
                    )
                expecting_separator = False
                continue
            if is_separator:
                raise DataFormatError(
                    f"{path}:{line_number}: duplicate cluster separator "
                    "(cluster header repeated, or blank lines between "
                    "clusters missing)"
                )
            copies.append(_validated(line, path, line_number, "copy strand"))
    if reference is not None:
        if expecting_separator:
            raise DataFormatError(
                f"{path}: file ends after a reference with no separator"
            )
        yield Cluster(reference, copies)


def read_pool(path: str | Path) -> StrandPool:
    """Read a pseudo-clustered pool from an evyat-format file.

    Materialises the whole pool; use :func:`iter_pool` to stream
    clusters in bounded memory instead.

    Raises:
        DataFormatError: on malformed files (missing or duplicate
            separator, invalid bases), with ``file:line:`` context.
    """
    return StrandPool(list(iter_pool(path)))


def write_references(references: list[str], path: str | Path) -> None:
    """Write reference strands, one per line."""
    for reference in references:
        validate_strand(reference)
    Path(path).write_text("\n".join(references) + "\n", encoding="ascii")


def read_references(path: str | Path) -> list[str]:
    """Read reference strands from a one-per-line file (blank lines and
    trailing whitespace are tolerated).

    Raises:
        DataFormatError: for non-DNA content, with ``file:line:`` context.
    """
    path = Path(path)
    references = []
    for line_number, line in enumerate(
        path.read_text(encoding="ascii").splitlines(), start=1
    ):
        line = line.strip()
        if line:
            references.append(
                _validated(line, path, line_number, "reference strand")
            )
    return references


def write_reads(reads: list[str], path: str | Path) -> None:
    """Write an unordered read-out (one read per line) — the shape a real
    sequencer produces before clustering."""
    for read in reads:
        validate_strand(read)
    Path(path).write_text("\n".join(reads) + "\n", encoding="ascii")


def read_reads(path: str | Path) -> list[str]:
    """Read an unordered read-out file."""
    return read_references(path)
