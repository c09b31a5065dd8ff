"""The sectioned (v2) artifact container: header + TOC + checksummed sections.

Layout::

    +---------------------------------------------------------------+
    | magic  b"reproartifact\\x00"                        (14 bytes) |
    | one checksummed record (repro.store.codec.frame_record):       |
    |   TOC length, big-endian uint32                     ( 4 bytes) |
    |   SHA-256 of the TOC bytes                          (32 bytes) |
    |   TOC: canonical JSON                                          |
    |   {"format", "format_version", "sections": [                   |
    |      {"name", "offset", "length", "checksum", "codec", "items"}|
    |   ]}                                                           |
    | section payloads, back to back (offsets relative to here)      |
    +---------------------------------------------------------------+
    | trailing region (optional): bytes past the last section        |
    +---------------------------------------------------------------+

The container ends at its last section (:attr:`ArtifactReader.container_end`,
:func:`container_end`).  Readers ignore whatever follows, and the container
checksums do not cover it: the update journal
(:mod:`repro.updates.journal`) appends its own self-checking records there,
so adding one never rewrites the container.  Every writer here publishes a
whole new file, which drops the trailing region.

Every section is independently encoded (:mod:`repro.store.sections`),
optionally gzip-compressed, and checksummed (SHA-256 of the *stored* bytes) —
so a reader can:

* **validate without decoding** — :meth:`ArtifactReader.verify` hashes each
  section's stored bytes against the TOC, which is what the serving watcher
  uses to reject damaged files without paying for a full decode;
* **decode lazily** — :meth:`ArtifactReader.decode` decompresses and decodes a
  section on first access only, so a consumer that serves mappings never
  touches the (much larger) profile and edge sections, and it can build
  only the mappings it serves (``wanted``) while still checking every record;
* **copy sections wholesale** — :meth:`ArtifactWriter.add_stored` re-emits a
  section's stored bytes unchanged, so a writer refreshing an artifact
  re-encodes only the sections it actually touched.

Corruption anywhere surfaces as
:class:`~repro.store.errors.ArtifactCorruptionError` carrying the damaged
section's name; a future ``format_version`` surfaces as
:class:`~repro.store.errors.ArtifactVersionError` with the supported set.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import zlib
from contextlib import suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, Collection

from repro.store.codec import (
    RECORD_PREFIX_SIZE,
    CodecError,
    RecordChecksumError,
    frame_record,
    record_length,
    split_record,
)
from repro.store.errors import (
    ArtifactCorruptionError,
    ArtifactError,
    ArtifactVersionError,
)
from repro.store.sections import canonical_json, decode_mappings, decode_section

__all__ = [
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "SectionInfo",
    "ArtifactReader",
    "ArtifactWriter",
    "atomic_write_bytes",
    "container_end",
]


def atomic_write_bytes(path: Path, data: bytes) -> Path:
    """Durably and atomically publish ``data`` at ``path``.

    Atomicity alone (temp sibling + rename) only protects against a crash
    mid-*write*; it does not protect against power loss after the rename, when
    the data blocks may still sit in the page cache while the rename was
    already journaled — a reboot can then expose a torn file at the final
    path.  So the full sequence is:

    1. write the temp sibling, ``flush`` + ``os.fsync`` it (data on disk),
    2. ``os.replace`` onto the target (atomic within a filesystem),
    3. ``os.fsync`` the parent directory where supported (the rename itself
       on disk).  Directory fds are a POSIX capability; platforms that refuse
       them (Windows) skip this step, keeping their native rename semantics.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    try:
        directory_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return path
    try:
        with suppress(OSError):
            os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return path

CONTAINER_MAGIC = b"reproartifact\x00"
CONTAINER_VERSION = 2

#: Format name recorded in the TOC (matches the v1 document magic).
_FORMAT_NAME = "repro-synthesis-artifact"

_HEADER_FIXED = len(CONTAINER_MAGIC) + RECORD_PREFIX_SIZE
#: Bound on the TOC's length; a larger declared length is corruption.
_MAX_TOC = 1 << 30


@dataclass(frozen=True)
class SectionInfo:
    """One TOC entry: where a section's stored bytes live and how to check them."""

    name: str
    #: Byte offset of the stored section, relative to the end of the TOC.
    offset: int
    #: Stored (possibly compressed) length in bytes.
    length: int
    #: SHA-256 hex digest of the stored bytes.
    checksum: str
    #: ``"json"`` / ``"bin"``, with ``"+gz"`` appended when gzip-compressed.
    codec: str
    #: Top-level item count (candidates, mappings, ...) or ``None`` if unsized.
    items: int | None = None


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _well_typed(info: SectionInfo) -> bool:
    """True when a TOC entry's fields have the types and signs readers rely on."""
    return (
        all(isinstance(text, str) for text in (info.name, info.checksum, info.codec))
        and all(_is_int(count) and count >= 0 for count in (info.offset, info.length))
        and (info.items is None or _is_int(info.items))
    )


def _checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parse_toc(head: bytes, source: str) -> tuple[int, dict[str, SectionInfo]]:
    """Validate the header and TOC at the start of ``head``.

    Returns the absolute offset where section payloads begin and the TOC
    entries by name.  ``head`` needs to extend only through the TOC.
    """
    if not head.startswith(CONTAINER_MAGIC):
        raise ArtifactError(f"{source} is not a sectioned synthesis artifact")
    try:
        toc_bytes, toc_end = split_record(head, len(CONTAINER_MAGIC), cap=_MAX_TOC)
    except RecordChecksumError as exc:
        raise ArtifactCorruptionError(
            f"{source} failed its table-of-contents checksum"
        ) from exc
    except CodecError as exc:  # torn, or an implausible length
        raise ArtifactCorruptionError(f"{source} has a damaged TOC: {exc}") from exc
    try:
        toc = json.loads(toc_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptionError(
            f"{source} has an unreadable table of contents: {exc}"
        ) from exc
    if not isinstance(toc, dict) or toc.get("format") != _FORMAT_NAME:
        raise ArtifactError(f"{source} is not a synthesis artifact container")
    version = toc.get("format_version")
    if version != CONTAINER_VERSION:
        # Import here to avoid a cycle: artifact.py imports this module.
        from repro.store.artifact import SUPPORTED_VERSIONS

        raise ArtifactVersionError(
            f"artifact {source} has format version {version!r}; this build "
            f"reads versions {sorted(SUPPORTED_VERSIONS)}",
            found=version if isinstance(version, int) else None,
            supported=SUPPORTED_VERSIONS,
        )
    sections: dict[str, SectionInfo] = {}
    try:
        for entry in toc["sections"]:
            info = SectionInfo(
                name=entry["name"],
                offset=entry["offset"],
                length=entry["length"],
                checksum=entry["checksum"],
                codec=entry["codec"],
                items=entry.get("items"),
            )
            if not _well_typed(info):
                raise TypeError(f"section entry {entry!r} has a mistyped field")
            sections[info.name] = info
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactCorruptionError(
            f"{source} has a malformed table of contents: {exc}"
        ) from exc
    return toc_end, sections


def _end_of_sections(body_start: int, sections: dict[str, SectionInfo]) -> int:
    return body_start + max(
        (info.offset + info.length for info in sections.values()), default=0
    )


def container_end(handle: BinaryIO, *, source: str = "artifact") -> int:
    """Where the container open in ``handle`` ends, reading only its header + TOC.

    ``handle`` is a binary file positioned anywhere; it is left positioned
    after the TOC.  Raises :class:`ArtifactCorruptionError` when the TOC is
    damaged or a section extends past the end of the file.
    """
    handle.seek(0)
    head = handle.read(_HEADER_FIXED)
    if head.startswith(CONTAINER_MAGIC):
        # A short or implausible length is left for _parse_toc to report.
        with suppress(CodecError):
            head += handle.read(
                record_length(head, len(CONTAINER_MAGIC), cap=_MAX_TOC)
            )
    end = _end_of_sections(*_parse_toc(head, source))
    if end > os.fstat(handle.fileno()).st_size:
        raise ArtifactCorruptionError(f"{source} is truncated inside its sections")
    return end


class ArtifactReader:
    """Random access to one v2 container's sections, decoded lazily.

    The whole file is held as one in-memory byte string (artifacts are small
    relative to the corpora that produce them, and the file on disk may be
    atomically replaced underneath us at any time), but *decoding* — gunzip +
    section codec + model-object construction, the expensive part — happens
    per section on first access and is cached.  :attr:`decode_counts` records
    how many times each section was actually decoded and
    :attr:`mappings_built` how many mapping objects those decodes built, which
    the tests use to assert that serving consumers never touch the cold
    sections and build only the mappings they serve.
    """

    def __init__(self, data: bytes, *, source: str = "artifact") -> None:
        self.source = source
        self._data = data
        self._decoded: dict[str, dict] = {}
        #: section name -> number of times its payload was decoded (0 = lazy
        #: section never touched; a full decode is cached, so a section is
        #: decoded again only after a subset decode of the mappings).
        self.decode_counts: dict[str, int] = {}
        #: MappingRelationship objects built by this reader's decodes.
        self.mappings_built = 0
        self._body_start, self.sections = _parse_toc(data, source)
        for info in self.sections.values():
            # Extent check at open time (no hashing): a truncated file fails
            # here instead of surfacing later on some unlucky first access.
            if self._body_start + info.offset + info.length > len(data):
                raise ArtifactCorruptionError(
                    f"section {info.name!r} extends past the end of {source}",
                    section=info.name,
                )
        #: Absolute offset just past the last section; bytes from here on are
        #: the trailing region, outside every checksum.
        self.container_end = _end_of_sections(self._body_start, self.sections)

    @classmethod
    def from_path(cls, path: str | Path) -> "ArtifactReader":
        return cls(Path(path).read_bytes(), source=str(path))

    # -- Section access -----------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.sections

    def trailing_bytes(self) -> bytes:
        """The bytes past :attr:`container_end` (the update journal's region)."""
        return self._data[self.container_end :]

    def item_count(self, name: str) -> int | None:
        """The section's TOC item count, without decoding it (None if unsized)."""
        info = self.sections.get(name)
        return info.items if info is not None else None

    def section_span(self, name: str) -> tuple[int, int]:
        """The section's absolute ``(start, end)`` byte range in the container.

        Lets tooling (and the corruption tests) address a section's stored
        bytes in the file without re-deriving the header layout.
        """
        info = self._info(name)
        start = self._body_start + info.offset
        return start, start + info.length

    def _info(self, name: str) -> SectionInfo:
        info = self.sections.get(name)
        if info is None:
            raise ArtifactCorruptionError(
                f"{self.source} has no {name!r} section", section=name
            )
        return info

    def stored_bytes(self, name: str, *, verify: bool = True) -> bytes:
        """The section's stored (possibly compressed) bytes, checksum-verified."""
        start, end = self.section_span(name)  # extents were checked at open
        stored = self._data[start:end]
        info = self._info(name)
        if verify and _checksum(stored) != info.checksum:
            raise ArtifactCorruptionError(
                f"section {name!r} of {self.source} failed its checksum",
                section=name,
            )
        return stored

    def payload_bytes(self, name: str) -> bytes:
        """The section's decompressed payload bytes (checksum-verified)."""
        stored = self.stored_bytes(name)
        if self._info(name).codec.endswith("+gz"):
            try:
                return gzip.decompress(stored)
            except (OSError, EOFError, zlib.error) as exc:
                raise ArtifactCorruptionError(
                    f"section {name!r} of {self.source} has a damaged gzip stream",
                    section=name,
                ) from exc
        return stored

    def decode(self, name: str, *, wanted: Collection[str] | None = None) -> dict:
        """Decode the section into its field group (cached; counted once).

        ``wanted`` (mappings only) builds just the mappings with those ids,
        in stored order, after checking every record; such a subset is
        counted but not cached here (:attr:`SynthesisArtifact.curated
        <repro.store.artifact.SynthesisArtifact.curated>` keeps it).  A
        full decode already cached answers it without decoding.
        """
        if wanted is not None and name != "mappings":
            raise TypeError(f"only the mappings section decodes a subset, not {name!r}")
        cached = self._decoded.get(name)
        if cached is not None:
            if wanted is None:
                return cached
            return {"mappings": [m for m in cached["mappings"] if m.mapping_id in wanted]}
        payload = self.payload_bytes(name)
        self.decode_counts[name] = self.decode_counts.get(name, 0) + 1
        try:
            if wanted is None:
                fields = decode_section(name, payload)
            else:
                fields = decode_mappings(payload, wanted)
        except (KeyError, TypeError, ValueError) as exc:  # CodecError is a ValueError
            raise ArtifactCorruptionError(
                f"section {name!r} of {self.source} is malformed: {exc}",
                section=name,
            ) from exc
        if name == "mappings":
            self.mappings_built += len(fields["mappings"])
        if wanted is None:
            self._decoded[name] = fields
        return fields

    def verify(self) -> None:
        """Checksum every section's stored bytes **without decoding any**.

        This is the cheap integrity gate the artifact watcher runs before
        handing a freshly published file to the serving swap: bit rot or
        truncation anywhere in the file raises
        :class:`ArtifactCorruptionError` naming the damaged section.
        """
        for name in self.sections:
            self.stored_bytes(name)


class ArtifactWriter:
    """Assembles and atomically publishes one v2 container.

    Sections are added in call order — freshly encoded via :meth:`add`, or
    copied verbatim from another container via :meth:`add_stored` (the
    incremental-refresh path uses this to avoid re-encoding sections it never
    touched; :attr:`sections_reused` counts them).  :meth:`commit` publishes
    through :func:`atomic_write_bytes` — fsynced temp sibling + atomic rename
    + directory fsync — so neither a crash mid-write nor power loss right
    after the rename can leave a torn artifact at the target path.
    """

    def __init__(self, path: str | Path, *, compress: bool = True) -> None:
        self.path = Path(path)
        self.compress = compress
        self.sections_reused = 0
        self._entries: list[tuple[SectionInfo, bytes]] = []
        self._names: set[str] = set()

    def _record(
        self, name: str, stored: bytes, codec: str, items: int | None, checksum: str
    ) -> None:
        if name in self._names:
            raise ValueError(f"section {name!r} added twice")
        self._names.add(name)
        offset = sum(len(data) for _, data in self._entries)
        info = SectionInfo(name, offset, len(stored), checksum, codec, items)
        self._entries.append((info, stored))

    def add(
        self,
        name: str,
        payload: bytes,
        *,
        codec: str = "bin",
        items: int | None = None,
    ) -> None:
        """Add one freshly encoded section (compressed here if configured)."""
        stored = payload
        if self.compress:
            # mtime=0 keeps compressed bytes deterministic for identical payloads.
            stored = gzip.compress(payload, mtime=0)
            codec = f"{codec}+gz"
        self._record(name, stored, codec, items, _checksum(stored))

    def add_stored(
        self,
        name: str,
        stored: bytes,
        codec: str,
        *,
        items: int | None = None,
        checksum: str | None = None,
    ) -> None:
        """Copy an already-stored section verbatim (no re-encode, no re-gzip).

        ``checksum`` lets a caller that just verified the bytes against a
        source TOC pass the digest through instead of paying a second hash of
        the (deliberately large) section.
        """
        if checksum is None:
            checksum = _checksum(stored)
        self._record(name, stored, codec, items, checksum)
        self.sections_reused += 1

    def commit(self) -> Path:
        """Write the container to :attr:`path` atomically and return the path."""
        toc = {
            "format": _FORMAT_NAME,
            "format_version": CONTAINER_VERSION,
            "sections": [asdict(info) for info, _ in self._entries],
        }
        parts = [CONTAINER_MAGIC, frame_record(canonical_json(toc))]
        parts.extend(data for _, data in self._entries)
        encoded = b"".join(parts)
        return atomic_write_bytes(self.path, encoded)
