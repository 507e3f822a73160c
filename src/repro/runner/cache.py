"""Content-addressed on-disk result cache for sweep work units.

Results are stored one file per work-unit digest under a two-level fan-out
(``<root>/ab/abcdef....pkl``), so re-running a figure at the same quality is
a pure cache hit and a changed configuration, seed, or code version misses
naturally (the digest covers all three — see
:mod:`repro.runner.workunit`).

The cache root resolves, in order: an explicit ``cache_dir`` argument, the
``REPRO_CACHE_DIR`` environment variable, then ``~/.cache/repro``.  Values
are arbitrary picklable Python objects (``SweepPoint``, floats, result
dataclasses); writes are atomic (temp file + ``os.replace``) so a killed
run never leaves a truncated entry behind.

**Integrity.**  Every entry is a checksummed envelope: the pickled value
rides inside a wrapper that also records the work-unit digest it was
stored under, a SHA-256 of the payload bytes, and the envelope format
version.  :meth:`ResultCache.get` verifies all three on load — a flipped
byte, a truncated file, an entry renamed to the wrong digest, or a pickle
from a different format version can *never* be served as a result.
Corrupt entries are quarantined (moved to ``<root>/_quarantine`` with a
``.quar`` suffix, out of every scan) instead of crashing the run; format
mismatches are plain misses, overwritten in place by the next write.
``repro cache verify [--repair]`` audits the whole store offline.

**Scans.**  The store is its own index: ``stats``, ``prune``, ``verify``
and ``clear`` walk the entry files, and :meth:`ResultCache.get_many`
loads each probed digest directly.  The figures produce under a thousand
entries per master seed, where a walk takes tens of milliseconds.  Every
scan tolerates entries vanishing mid-walk — concurrent runners prune and
quarantine under us, and a cache walk must never be the thing that kills
a sweep.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runner.chaos import ChaosPolicy, resolve_chaos

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_SUFFIX = ".pkl"

#: Directory (under the cache root) where corrupt entries are moved.
QUARANTINE_DIR = "_quarantine"

#: Suffix appended to quarantined files (keeps them out of entry scans).
QUARANTINE_SUFFIX = ".quar"

#: Envelope format marker and version; a mismatch is a miss, never a value.
_ENVELOPE_FORMAT = "repro-result-cache"
ENVELOPE_VERSION = 1


def format_bytes(count: int) -> str:
    """``count`` bytes as a human-readable B / KiB / MiB / GiB string."""
    size = float(count)
    for unit in ("B", "KiB", "MiB"):
        if size < 1024:
            return f"{count} B" if unit == "B" else f"{size:.1f} {unit}"
        size /= 1024
    return f"{size:.1f} GiB"


def default_cache_dir() -> Path:
    """The cache root used when no explicit directory is given."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def encode_entry(digest: str, value: Any) -> bytes:
    """Serialize ``value`` as a checksummed envelope for ``digest``."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "format": _ENVELOPE_FORMAT,
        "version": ENVELOPE_VERSION,
        "digest": digest,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload": payload,
    }
    return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)


def decode_entry(digest: str, blob: bytes) -> Tuple[str, Any]:
    """``(status, value)`` for one entry's bytes.

    ``status`` is ``"ok"`` (checksum and digest verified), ``"corrupt"``
    (unreadable, damaged, or stored under the wrong digest — quarantine
    material), or ``"legacy"`` (a well-formed pickle in an older/unknown
    envelope format — treated as a miss and overwritten in place).
    """
    try:
        envelope = pickle.loads(blob)
    except Exception:
        return "corrupt", None
    if (not isinstance(envelope, dict)
            or envelope.get("format") != _ENVELOPE_FORMAT):
        return "legacy", None
    if envelope.get("version") != ENVELOPE_VERSION:
        return "legacy", None
    payload = envelope.get("payload")
    if (not isinstance(payload, bytes)
            or envelope.get("digest") != digest
            or envelope.get("sha256")
            != hashlib.sha256(payload).hexdigest()):
        return "corrupt", None
    try:
        return "ok", pickle.loads(payload)
    except Exception:
        return "corrupt", None


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the on-disk cache plus this session's hit counters."""

    root: str
    entries: int
    total_bytes: int
    session_hits: int
    session_misses: int
    quarantined: int = 0
    session_corrupt: int = 0

    @property
    def hit_rate(self) -> Optional[float]:
        """Session hit fraction in [0, 1]; ``None`` before any lookup."""
        probes = self.session_hits + self.session_misses
        if not probes:
            return None
        return self.session_hits / probes

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe payload for ``repro cache stats --json`` scrapers."""
        payload: Dict[str, object] = asdict(self)
        payload["hit_rate"] = self.hit_rate
        return payload

    def format(self) -> str:
        """Human-readable report for ``repro cache stats``."""
        lines = [
            f"cache root    : {self.root}",
            f"entries       : {self.entries}",
            f"total size    : {format_bytes(self.total_bytes)}",
            f"session hits  : {self.session_hits}",
            f"session misses: {self.session_misses}",
        ]
        if self.hit_rate is not None:
            lines.append(f"session hit % : {100.0 * self.hit_rate:.1f}%")
        if self.quarantined or self.session_corrupt:
            lines.append(f"quarantined   : {self.quarantined} "
                         f"({self.session_corrupt} this session)")
        return "\n".join(lines)


@dataclass(frozen=True)
class VerifyReport:
    """The outcome of a full-store integrity audit (``cache verify``)."""

    root: str
    checked: int
    ok: int
    corrupt: Tuple[str, ...] = ()
    legacy: Tuple[str, ...] = ()
    quarantined: int = 0
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.legacy

    def format(self) -> str:
        lines = [f"verified {self.checked} entr(ies) under {self.root}: "
                 f"{self.ok} ok, {len(self.corrupt)} corrupt, "
                 f"{len(self.legacy)} legacy-format"]
        for digest in self.corrupt:
            lines.append(f"  corrupt: {digest}")
        for digest in self.legacy:
            lines.append(f"  legacy : {digest}")
        if self.repaired and (self.corrupt or self.legacy):
            lines.append(f"quarantined {self.quarantined} bad entr(ies) "
                         f"to {Path(self.root) / QUARANTINE_DIR}")
        return "\n".join(lines)


class ResultCache:
    """Digest-keyed pickle store with checksummed, quarantining loads."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 chaos: Optional[ChaosPolicy] = None):
        self.root = (Path(cache_dir).expanduser() if cache_dir is not None
                     else default_cache_dir())
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: Explicit chaos policy for tests; ``None`` defers to REPRO_CHAOS.
        self.chaos = chaos

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}{_SUFFIX}"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def _iter_entries(self) -> Iterator[Path]:
        """Every entry file, tolerating concurrent deletion mid-scan.

        Built on :func:`os.walk` (which swallows listing errors) rather
        than ``Path.rglob`` (which can raise ``FileNotFoundError`` when a
        directory vanishes between listing and descent — the concurrent
        prune race this cache must survive).  The quarantine directory is
        excluded by path *components* (a plain prefix test would also
        exclude siblings such as ``_quarantine-old``): its contents are
        evidence, not entries.
        """
        quarantine = os.path.abspath(self.quarantine_root)
        for dirpath, dirnames, filenames in os.walk(self.root):
            absolute = os.path.abspath(dirpath)
            if (absolute == quarantine
                    or absolute.startswith(quarantine + os.sep)):
                dirnames[:] = []
                continue
            for name in filenames:
                if name.endswith(_SUFFIX):
                    yield Path(dirpath) / name

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a damaged entry out of the store; returns its new home."""
        destination = self.quarantine_root / f"{path.name}{QUARANTINE_SUFFIX}"
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError:  # racing deletion/quarantine by another runner
            return None
        return destination

    # -- store/load -------------------------------------------------------

    def get(self, digest: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``digest``.

        A verified entry is a hit.  A corrupt entry (bad checksum, torn
        pickle, digest mismatch) is quarantined and counts as a miss; a
        legacy-format entry is a plain miss, left for the next ``put`` to
        overwrite.
        """
        path = self._path(digest)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return False, None
        status, value = decode_entry(digest, blob)
        if status == "ok":
            self.hits += 1
            return True, value
        if status == "corrupt":
            self.corrupt += 1
            self._quarantine(path)
        self.misses += 1
        return False, None

    def get_many(self, digests: Sequence[str]) -> Dict[str, Any]:
        """Verified values for every cached digest in ``digests``.

        Each distinct digest is loaded once through :meth:`get`, so a
        repeated digest counts one hit or miss and corrupt entries are
        quarantined as usual.
        """
        values: Dict[str, Any] = {}
        for digest in dict.fromkeys(digests):
            hit, value = self.get(digest)
            if hit:
                values[digest] = value
        return values

    def put(self, digest: str, value: Any) -> None:
        """Store ``value`` under ``digest`` (checksummed, atomic replace).

        The temp file is removed on any failure mid-write (including
        ``KeyboardInterrupt``), so an interrupted run leaves neither a
        torn entry nor a stray temporary behind.
        """
        blob = encode_entry(digest, value)
        chaos = resolve_chaos(self.chaos)
        if chaos.active and chaos.should_corrupt(digest):
            blob = chaos.corrupt_bytes(digest, blob)
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_suffix(f"{_SUFFIX}.tmp{os.getpid()}")
        try:
            with temporary.open("wb") as handle:
                handle.write(blob)
            os.replace(temporary, path)
        except BaseException:
            try:
                temporary.unlink()
            except OSError:
                pass
            raise

    # -- maintenance ------------------------------------------------------

    def stats(self) -> CacheStats:
        """Summarize the cache: one walk over the entry files."""
        entries = 0
        total_bytes = 0
        quarantined = 0
        if self.root.is_dir():
            for path in self._iter_entries():
                try:
                    total_bytes += path.stat().st_size
                except OSError:  # racing deletion
                    continue
                entries += 1
            if self.quarantine_root.is_dir():
                quarantined = sum(
                    1 for name in _list_dir(self.quarantine_root)
                    if name.endswith(QUARANTINE_SUFFIX))
        return CacheStats(root=str(self.root), entries=entries,
                          total_bytes=total_bytes, session_hits=self.hits,
                          session_misses=self.misses, quarantined=quarantined,
                          session_corrupt=self.corrupt)

    def verify(self, repair: bool = False) -> VerifyReport:
        """Audit every entry's checksum; optionally quarantine bad ones.

        With ``repair=True`` corrupt *and* legacy-format entries are moved
        to the quarantine directory, leaving a store where every remaining
        entry is verified-loadable.
        """
        checked = ok = quarantined = 0
        corrupt: List[str] = []
        legacy: List[str] = []
        if self.root.is_dir():
            for path in list(self._iter_entries()):
                try:
                    blob = path.read_bytes()
                except OSError:  # racing deletion
                    continue
                checked += 1
                digest = path.name[:-len(_SUFFIX)]
                status, _value = decode_entry(digest, blob)
                if status == "ok":
                    ok += 1
                    continue
                (corrupt if status == "corrupt" else legacy).append(digest)
                if repair and self._quarantine(path) is not None:
                    quarantined += 1
        return VerifyReport(root=str(self.root), checked=checked, ok=ok,
                            corrupt=tuple(corrupt), legacy=tuple(legacy),
                            quarantined=quarantined, repaired=repair)

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        Quarantined files are swept too (they are not counted — they were
        never servable entries).
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in list(self._iter_entries()):
            try:
                path.unlink()
            except OSError:  # racing deletion
                continue
            removed += 1
        if self.quarantine_root.is_dir():
            for name in _list_dir(self.quarantine_root):
                try:
                    (self.quarantine_root / name).unlink()
                except OSError:
                    continue
        self._remove_empty_directories()
        return removed

    def prune(self, max_bytes: int) -> Tuple[int, int]:
        """Evict least-recently-used entries until the cache fits.

        Entries are ranked by mtime — :meth:`get` does not touch entries,
        so this is least-recently-*written* order, the best LRU proxy a
        plain content-addressed file store offers — and deleted oldest
        first until the total size drops to ``max_bytes``.  Returns
        ``(entries removed, bytes remaining)``.  Entries that vanish
        mid-scan (a concurrent runner pruning the same store) are skipped,
        never fatal.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if not self.root.is_dir():
            return 0, 0
        entries = []
        total = 0
        for path in self._iter_entries():
            try:
                status = path.stat()
            except OSError:  # racing deletion
                continue
            entries.append((status.st_mtime, status.st_size, path))
            total += status.st_size
        entries.sort(key=lambda entry: entry[0])
        removed = 0
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # racing deletion
                continue
            total -= size
            removed += 1
        if removed:
            self._remove_empty_directories()
        return removed, total

    def _remove_empty_directories(self) -> None:
        try:
            children = sorted(self.root.rglob("*"), reverse=True)
        except OSError:  # directory vanished mid-walk
            return
        for child in children:
            if child.is_dir():
                try:
                    child.rmdir()
                except OSError:
                    pass


def _list_dir(path: Path) -> List[str]:
    """``os.listdir`` that returns ``[]`` instead of raising (racy dirs)."""
    try:
        return os.listdir(path)
    except OSError:
        return []
