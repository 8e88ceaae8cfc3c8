"""Content-addressed result store for experiment summaries.

A :class:`ResultStore` memoizes :class:`~repro.sim.runner.RunSummary`
objects under a key derived from *content*, never from call order:

    ``key = sha256(scenario fingerprint + topology fingerprint + engine version)``

* the **scenario fingerprint** hashes the canonical *serialized* form of
  the spec (:meth:`repro.scenario.Scenario.fingerprint`), so keys depend
  only on the scenario data — a spec built by an experiment module and
  the same scenario loaded from a JSON file share cache entries, and
  refactors of the Python that *built* the spec cannot invalidate them;
* the **topology fingerprint** hashes the PRR matrix bytes, positions,
  RSSI and neighbor threshold (:meth:`repro.net.topology.Topology.fingerprint`);
* the **engine version** (:data:`repro.sim.engine.ENGINE_VERSION`) is
  bumped whenever simulation semantics change, invalidating every prior
  entry at once.

The store is layered: an in-process dict always fronts it (this replaces
the old ``lru_cache`` memoization in ``experiments/_trace_sweep.py``),
and an optional on-disk directory persists entries across CLI
invocations. Disk entries are self-verifying — a JSON header records the
key and a payload digest, and any mismatch (truncation, corruption,
tampering, an entry recorded under a different key) is treated as a miss
and recomputed rather than served. Disk access is batched: a lazily
built one-scan directory index answers existence probes (a fig10/fig11
grid costs one ``scandir``, not hundreds of per-key file opens),
:meth:`ResultStore.get_many`/:meth:`ResultStore.put_many` move whole
grids at once, and every disk load re-checks its payload digest.

Mergeable shard stores
----------------------
Content addressing makes a store directory *mergeable*: the same
``(scenario, topology, engine)`` always lands at the same key, so the
union of two shard runs' cache directories is exactly the cache of the
combined run. The offline half of that story lives here:

* :func:`verify_store` — classify every ``.rsum`` entry (ok / truncated
  / corrupt / misplaced / stale) without ever raising on damaged files,
  so killed-worker leftovers are *reported*, not crashed on;
* :func:`merge_store` — fingerprint-keyed union of source directories
  into a destination, re-verifying every entry digest on the way and
  refusing (:class:`MergeError`) on engine-version conflicts, on
  grid-fingerprint conflicts between store manifests, and on the
  should-be-impossible same-key/different-payload collision;
* :func:`gc_store` — delete damaged entries, orphaned temp files and
  (optionally) entries from older engine versions;
* grid **manifests** (``_manifest.json``) — ``repro run-scenario
  --cache-dir`` stamps the directory with the full-grid fingerprint,
  engine version and which shards ran into it, giving ``merge`` the
  provenance it needs to refuse mixing shards of different grids.

Writes are crash-safe everywhere (write-to-temp + ``os.replace``), and
:meth:`ResultStore.get` re-probes the disk on an index miss, so
concurrent writers sharing a directory can never corrupt each other —
the worst cross-process race is a redundant recompute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

__all__ = [
    "ResultStore",
    "StoreStats",
    "result_key",
    "EntryStatus",
    "VerifyReport",
    "MergeReport",
    "GcReport",
    "MergeError",
    "verify_store",
    "merge_store",
    "gc_store",
    "read_manifest",
    "update_manifest",
]

#: On-disk entry format; bump on layout changes.
_FORMAT = 1

#: Store-directory manifest (grid provenance); not a ``.rsum`` entry, so
#: the directory index and ``verify`` never mistake it for a result.
MANIFEST_NAME = "_manifest.json"


def _engine_version() -> str:
    # Imported lazily: repro.sim pulls in the runner at package-init
    # time, and the runner must stay importable without repro.exec.
    from ..sim.engine import ENGINE_VERSION

    return ENGINE_VERSION


def result_key(topo: Any, spec: Any, engine_version: Optional[str] = None) -> str:
    """The content address of ``(spec, topology, engine)``; ``spec`` is
    a :class:`~repro.scenario.Scenario`."""
    if engine_version is None:
        engine_version = _engine_version()
    h = hashlib.sha256()
    h.update(spec.fingerprint().encode())
    h.update(topo.fingerprint().encode())
    h.update(str(engine_version).encode())
    return h.hexdigest()


@dataclasses.dataclass
class StoreStats:
    """Hit/miss counters (both memory and disk hits count as hits)."""

    hits: int = 0
    misses: int = 0
    rejected: int = 0  # corrupted / stale disk entries discarded

    def __str__(self) -> str:
        s = f"{self.hits} hit(s), {self.misses} miss(es)"
        if self.rejected:
            s += f", {self.rejected} rejected"
        return s


class ResultStore:
    """Layered (memory + optional disk) store of ``RunSummary`` payloads.

    Parameters
    ----------
    cache_dir:
        Directory for persistent entries (created on first write).
        ``None`` keeps the store purely in-memory — still useful: it
        memoizes repeated specs within one process, e.g. fig10 and
        fig11 sharing the trace-sweep grid.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None and self.cache_dir.exists() \
                and not self.cache_dir.is_dir():
            raise NotADirectoryError(
                f"cache dir {self.cache_dir} exists and is not a directory"
            )
        self.stats = StoreStats()
        self._mem: Dict[str, Any] = {}
        # One-scan directory index: key -> entry exists on disk. Built
        # lazily on the first disk lookup so a fig10/fig11 grid costs a
        # single ``scandir`` instead of one open-per-key probe. The
        # index is advisory, not authoritative: ``get`` re-probes the
        # path on an index miss, so entries written by *other*
        # processes after the scan are still found (one extra stat per
        # true miss, instead of a wrong recompute).
        self._index: Optional[Set[str]] = None

    # -- counters exposed flat for convenience -------------------------

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    def __len__(self) -> int:
        return len(self._mem)

    # -- keys ----------------------------------------------------------

    def key_for(self, topo: Any, spec: Any) -> str:
        """Content address of ``(spec, topo)`` under the current engine."""
        return result_key(topo, spec)

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.rsum"

    # -- get / put -----------------------------------------------------

    def _disk_index(self) -> Set[str]:
        """Keys present on disk, from one directory scan (cached)."""
        if self._index is None:
            index: Set[str] = set()
            if self.cache_dir is not None:
                try:
                    with os.scandir(self.cache_dir) as entries:
                        for entry in entries:
                            if entry.name.endswith(".rsum"):
                                index.add(entry.name[: -len(".rsum")])
                except OSError:
                    pass  # directory not created yet -> empty index
            self._index = index
        return self._index

    def get(self, key: str) -> Optional[Any]:
        """Return the stored summary or ``None`` (counting hit/miss).

        Disk entries failing integrity checks (bad header, digest
        mismatch, entry recorded under another key, unpicklable payload)
        are discarded and reported as misses, so corruption can only
        ever cost a recomputation.
        """
        if key in self._mem:
            self.stats.hits += 1
            return self._mem[key]
        if self.cache_dir is not None:
            if key not in self._disk_index():
                # Index miss != disk miss: another process may have
                # written this entry after our one-scan index was built
                # (shard runs sharing a cache dir do exactly that).
                # Re-probe the path — one stat — and adopt the entry.
                if self._path(key).exists():
                    self._index.add(key)  # type: ignore[union-attr]
            if key in self._index:  # type: ignore[operator]
                value = self._load_disk(key)
                if value is not None:
                    self._mem[key] = value
                    self.stats.hits += 1
                    return value
        self.stats.misses += 1
        return None

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Batch lookup: every found key -> value, one disk scan total.

        Hit/miss counters advance per key, exactly as per-key ``get``
        calls would — only the disk probing is batched (the directory
        index is built once and shared with every later lookup).
        """
        found: Dict[str, Any] = {}
        for key in keys:
            if key in found:  # duplicate key in the request: one probe
                self.stats.hits += 1
                continue
            value = self.get(key)
            if value is not None:
                found[key] = value
        return found

    def put(self, key: str, value: Any) -> None:
        """Record ``value`` under ``key`` (memory, plus disk if configured)."""
        self._mem[key] = value
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._write_disk(key, value)

    def put_many(self, items: Dict[str, Any]) -> None:
        """Record a batch of summaries (one mkdir, then per-entry writes)."""
        self._mem.update(items)
        if self.cache_dir is None or not items:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        for key, value in items.items():
            self._write_disk(key, value)

    def _write_disk(self, key: str, value: Any) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps({
            "format": _FORMAT,
            "key": key,
            "engine": _engine_version(),
            "digest": hashlib.sha256(payload).hexdigest(),
        }).encode("utf-8")
        # Atomic publish: concurrent CLI invocations may race on the
        # same entry; rename makes the last writer win cleanly.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header + b"\n" + payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # The index (if already built) learns the new entry.
        if self._index is not None:
            self._index.add(key)

    def _load_disk(self, key: str) -> Optional[Any]:
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            head, payload = raw.split(b"\n", 1)
            meta = json.loads(head.decode("utf-8"))
            if (meta.get("format") != _FORMAT or meta.get("key") != key
                    or meta.get("digest")
                    != hashlib.sha256(payload).hexdigest()):
                raise ValueError("integrity check failed")
            return pickle.loads(payload)
        except Exception:
            self.stats.rejected += 1
            return None

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries are left untouched)."""
        self._mem.clear()

    def verify(self) -> "VerifyReport":
        """Classify every on-disk entry; see :func:`verify_store`."""
        if self.cache_dir is None:
            return VerifyReport(cache_dir=None, entries=[], tmp_files=[])
        return verify_store(self.cache_dir)


# ---------------------------------------------------------------------------
# Offline store maintenance: verify / merge / gc and grid manifests
# ---------------------------------------------------------------------------

class MergeError(RuntimeError):
    """Two stores cannot be merged (engine or grid provenance conflict)."""


@dataclasses.dataclass(frozen=True)
class EntryStatus:
    """One ``.rsum`` entry's integrity verdict.

    ``status`` is one of:

    * ``"ok"`` — header parses, key matches the filename, payload digest
      matches, engine version is current;
    * ``"stale"`` — intact, but recorded under a different engine
      version (inert: the engine version is part of the result key, so
      stale entries can never be served for current-engine lookups);
    * ``"truncated"`` — no header/payload separator or unparseable
      header (the shape a killed writer without atomic rename leaves);
    * ``"corrupt"`` — parseable header but wrong format or payload
      digest mismatch;
    * ``"misplaced"`` — intact entry recorded under a different key than
      its filename (a copied/renamed file).
    """

    name: str
    key: str
    status: str
    size: int
    engine: Optional[str] = None
    digest: Optional[str] = None
    detail: str = ""

    @property
    def intact(self) -> bool:
        return self.status in ("ok", "stale")


@dataclasses.dataclass
class VerifyReport:
    """Everything :func:`verify_store` found in one directory."""

    cache_dir: Optional[Path]
    entries: List[EntryStatus]
    tmp_files: List[str]

    def by_status(self, status: str) -> List[EntryStatus]:
        return [e for e in self.entries if e.status == status]

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.entries:
            out[entry.status] = out.get(entry.status, 0) + 1
        return out

    @property
    def problems(self) -> List[EntryStatus]:
        """Damaged entries (stale ones are valid, just old)."""
        return [e for e in self.entries if not e.intact]

    @property
    def clean(self) -> bool:
        return not self.problems and not self.tmp_files

    def __str__(self) -> str:
        bits = [f"{len(self.entries)} entr(ies)"]
        for status, n in sorted(self.counts.items()):
            bits.append(f"{n} {status}")
        if self.tmp_files:
            bits.append(f"{len(self.tmp_files)} orphaned tmp file(s)")
        return ", ".join(bits)


def _inspect_entry(path: Path) -> EntryStatus:
    """Classify one entry file without ever raising on damage."""
    name = path.name
    key = name[: -len(".rsum")]
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return EntryStatus(name=name, key=key, status="truncated", size=0,
                           detail=f"unreadable: {exc}")
    size = len(raw)
    if b"\n" not in raw:
        return EntryStatus(name=name, key=key, status="truncated", size=size,
                           detail="no header/payload separator")
    head, payload = raw.split(b"\n", 1)
    try:
        meta = json.loads(head.decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("header is not an object")
    except Exception:
        return EntryStatus(name=name, key=key, status="truncated", size=size,
                           detail="unparseable header (partial write?)")
    engine = meta.get("engine")
    digest = meta.get("digest")
    if meta.get("format") != _FORMAT:
        return EntryStatus(name=name, key=key, status="corrupt", size=size,
                           engine=engine, digest=digest,
                           detail=f"unknown entry format {meta.get('format')!r}")
    if digest != hashlib.sha256(payload).hexdigest():
        return EntryStatus(name=name, key=key, status="corrupt", size=size,
                           engine=engine, digest=digest,
                           detail="payload digest mismatch")
    if meta.get("key") != key:
        return EntryStatus(name=name, key=key, status="misplaced", size=size,
                           engine=engine, digest=digest,
                           detail=f"recorded under key {str(meta.get('key'))[:16]}…")
    if engine != _engine_version():
        return EntryStatus(name=name, key=key, status="stale", size=size,
                           engine=engine, digest=digest,
                           detail=f"engine {engine!r} != {_engine_version()!r}")
    return EntryStatus(name=name, key=key, status="ok", size=size,
                       engine=engine, digest=digest)


def _scan_store(cache_dir: os.PathLike):
    """``(rsum paths, tmp names)`` of one store directory (one scandir)."""
    rsums: List[Path] = []
    tmps: List[str] = []
    cache_dir = Path(cache_dir)
    try:
        with os.scandir(cache_dir) as entries:
            for entry in entries:
                if entry.name.endswith(".rsum"):
                    rsums.append(cache_dir / entry.name)
                elif entry.name.endswith(".tmp"):
                    tmps.append(entry.name)
    except OSError:
        pass  # absent directory -> empty store
    rsums.sort()
    tmps.sort()
    return rsums, tmps


def verify_store(cache_dir: os.PathLike) -> VerifyReport:
    """Classify every entry of a store directory (never raises on damage).

    Truncated entries left by killed workers, bit-flipped payloads and
    misfiled keys all come back as typed :class:`EntryStatus` records —
    the CLI's ``repro store verify`` renders them, and ``gc`` deletes
    them.
    """
    cache_dir = Path(cache_dir)
    rsums, tmps = _scan_store(cache_dir)
    return VerifyReport(
        cache_dir=cache_dir,
        entries=[_inspect_entry(path) for path in rsums],
        tmp_files=tmps,
    )


@dataclasses.dataclass
class GcReport:
    """What :func:`gc_store` deleted."""

    removed: List[str]
    bytes_freed: int

    def __str__(self) -> str:
        return f"removed {len(self.removed)} file(s), {self.bytes_freed} bytes"


def gc_store(cache_dir: os.PathLike, stale: bool = False) -> GcReport:
    """Delete damaged entries and orphaned temp files (``stale=True``
    additionally drops intact entries from older engine versions)."""
    cache_dir = Path(cache_dir)
    report = verify_store(cache_dir)
    removed: List[str] = []
    freed = 0
    doomed = list(report.problems)
    if stale:
        doomed.extend(report.by_status("stale"))
    for entry in doomed:
        try:
            os.unlink(cache_dir / entry.name)
            removed.append(entry.name)
            freed += entry.size
        except OSError:
            pass
    for name in report.tmp_files:
        path = cache_dir / name
        try:
            size = path.stat().st_size
            os.unlink(path)
            removed.append(name)
            freed += size
        except OSError:
            pass
    return GcReport(removed=sorted(removed), bytes_freed=freed)


# -- grid manifests ---------------------------------------------------------

def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_manifest(cache_dir: os.PathLike) -> Optional[Dict[str, Any]]:
    """The directory's grid manifest, or ``None`` (absent/unreadable).

    Shape: ``{"format": 1, "engine": <version>, "grids": {<grid
    fingerprint>: {"name": ..., "shards": ["0/2", ...]}}}``. A shard
    label of ``"full"`` records an unsharded run.
    """
    path = Path(cache_dir) / MANIFEST_NAME
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("format") != _FORMAT:
        return None
    return data


def update_manifest(
    cache_dir: os.PathLike,
    grid_fingerprint: str,
    name: Optional[str] = None,
    shard_label: str = "full",
    engine: Optional[str] = None,
) -> Dict[str, Any]:
    """Record (crash-safely) that a grid/shard ran into this directory.

    An existing manifest from a *different* engine version is replaced
    rather than merged — its entries are inert under the current engine
    (the version is part of every result key), and carrying their
    provenance forward would make ``merge`` refuse stores whose live
    contents are perfectly compatible.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    if engine is None:
        engine = _engine_version()
    manifest = read_manifest(cache_dir)
    if manifest is None or manifest.get("engine") != engine:
        manifest = {"format": _FORMAT, "engine": engine, "grids": {}}
    entry = manifest["grids"].setdefault(grid_fingerprint, {"shards": []})
    if name:
        entry["name"] = name
    if shard_label not in entry["shards"]:
        entry["shards"] = sorted(entry["shards"] + [shard_label])
    _atomic_write(cache_dir / MANIFEST_NAME,
                  (json.dumps(manifest, indent=2, sort_keys=True) + "\n")
                  .encode("utf-8"))
    return manifest


def _merge_manifests(dest: Dict[str, Any], src: Dict[str, Any]) -> None:
    for fp, entry in src.get("grids", {}).items():
        mine = dest["grids"].setdefault(fp, {"shards": []})
        if entry.get("name") and not mine.get("name"):
            mine["name"] = entry["name"]
        mine["shards"] = sorted(set(mine["shards"]) | set(entry.get("shards", [])))


# -- merge ------------------------------------------------------------------

@dataclasses.dataclass
class MergeReport:
    """What :func:`merge_store` moved (and skipped)."""

    dest: Path
    sources: List[Path]
    copied: int = 0
    skipped: int = 0   # identical entry already present at dest
    rejected: int = 0  # damaged source entries left behind
    engine: Optional[str] = None

    def __str__(self) -> str:
        s = (f"{self.copied} copied, {self.skipped} already present "
             f"from {len(self.sources)} source(s)")
        if self.rejected:
            s += f", {self.rejected} damaged entr(ies) left behind"
        return s


def merge_store(
    dest_dir: os.PathLike,
    source_dirs: Sequence[os.PathLike],
    allow_mixed: bool = False,
) -> MergeReport:
    """Union source store directories into ``dest_dir``.

    Content addressing makes this a plain fingerprint-keyed union:
    every source entry is re-verified (full digest check) and copied
    crash-safely; entries already present at the destination with the
    same payload digest are skipped. The merge **refuses** — raising
    :class:`MergeError` before copying anything — when

    * intact entries (across all sources and the destination manifest)
      disagree on the engine version: shards of one sweep must come
      from one engine build;
    * source and destination manifests both exist and name disjoint
      grid sets (shards of *different* grids; pass ``allow_mixed=True``
      to pool unrelated caches deliberately);
    * the same key resolves to different payload digests — a collision
      that content addressing makes impossible short of corruption or a
      non-deterministic engine, so it is surfaced, never papered over.

    A source that is not an existing directory, or that is the
    destination, is refused with a :class:`ValueError`: a mistyped shard
    path would otherwise drop a whole shard without a word.

    Damaged source entries (truncated/corrupt/misplaced) are *skipped*
    and counted in :attr:`MergeReport.rejected`; run ``repro store gc``
    on the source to delete them.
    """
    dest_dir = Path(dest_dir)
    sources = [Path(s) for s in source_dirs]
    if not sources:
        raise ValueError("need at least one source store to merge")
    for src in sources:
        if not src.is_dir():
            raise ValueError(f"source {src} is not an existing directory")
        if src.resolve() == dest_dir.resolve():
            raise ValueError(f"source {src} is the destination")

    dest_manifest = read_manifest(dest_dir)
    expected_engine: Optional[str] = (
        dest_manifest.get("engine") if dest_manifest else None
    )

    # Plan first, copy second: every refusal happens before the first
    # byte lands at the destination, so a failed merge changes nothing.
    plans = []  # (src_path, entry)
    rejected = 0
    manifests: List[Dict[str, Any]] = []
    for src in sources:
        report = verify_store(src)
        for entry in report.entries:
            if not entry.intact:
                rejected += 1
                continue
            if expected_engine is None:
                expected_engine = entry.engine
            elif entry.engine != expected_engine:
                raise MergeError(
                    f"engine-version conflict: {src / entry.name} was "
                    f"recorded by engine {entry.engine!r}, but the merge "
                    f"expects {expected_engine!r} — shards of one sweep "
                    f"must come from one engine build (use `repro store "
                    f"gc --stale` to drop old-engine entries first)"
                )
            plans.append((src / entry.name, entry))
        manifest = read_manifest(src)
        if manifest is not None:
            if expected_engine is not None \
                    and manifest.get("engine") != expected_engine:
                raise MergeError(
                    f"engine-version conflict: manifest of {src} says "
                    f"{manifest.get('engine')!r}, merge expects "
                    f"{expected_engine!r}"
                )
            if dest_manifest is not None and not allow_mixed:
                src_grids = set(manifest.get("grids", {}))
                dest_grids = set(dest_manifest.get("grids", {}))
                if src_grids and dest_grids and not (src_grids & dest_grids):
                    raise MergeError(
                        f"grid-fingerprint conflict: {src} holds shards of "
                        f"grid(s) {sorted(g[:16] for g in src_grids)} but "
                        f"{dest_dir} holds {sorted(g[:16] for g in dest_grids)}"
                        f" — these are different sweeps (pass --allow-mixed "
                        f"to pool unrelated caches deliberately)"
                    )
            manifests.append(manifest)

    dest_dir.mkdir(parents=True, exist_ok=True)
    dest_index = {p.name for p in _scan_store(dest_dir)[0]}
    copied = skipped = 0
    for src_path, entry in plans:
        if entry.name in dest_index:
            existing = _inspect_entry(dest_dir / entry.name)
            if existing.intact and existing.digest == entry.digest:
                skipped += 1
                continue
            if existing.intact:
                raise MergeError(
                    f"key collision with different payloads at "
                    f"{entry.name}: the same content address must mean "
                    f"the same result — one side is corrupt or was "
                    f"produced by a non-deterministic build"
                )
            # Damaged destination entry: overwrite with the good copy.
        fd, tmp = tempfile.mkstemp(dir=dest_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                with open(src_path, "rb") as src_fh:
                    shutil.copyfileobj(src_fh, fh)
            os.replace(tmp, dest_dir / entry.name)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        dest_index.add(entry.name)
        copied += 1

    if manifests:
        merged = dest_manifest
        if merged is None:
            merged = {"format": _FORMAT, "engine": expected_engine,
                      "grids": {}}
        for manifest in manifests:
            _merge_manifests(merged, manifest)
        _atomic_write(dest_dir / MANIFEST_NAME,
                      (json.dumps(merged, indent=2, sort_keys=True) + "\n")
                      .encode("utf-8"))

    return MergeReport(dest=dest_dir, sources=sources, copied=copied,
                       skipped=skipped, rejected=rejected,
                       engine=expected_engine)
