"""On-disk result cache keyed by config digest, plus store merging.

One JSON file per simulated cell, named ``<digest>.json`` under the store
root.  Re-running a plan against the same store only computes cells whose
digest is missing; everything else is loaded back.  Writes are atomic and
durable (temp file + fsync + rename) so concurrent runners sharing a
store directory never observe a torn file and a killed writer leaves no
partial entry visible.

Every entry carries a SHA-256 checksum over its canonical result
payload.  The checksum does not cover the file name, so a load also
checks that the stored config hashes to the digest it is filed under
(that one digest per load also seeds the config's cached digest).
:meth:`ResultStore.load` **never raises** on a bad entry: truncated,
unparseable, checksum-mismatched or schema-malformed files, and entries
holding another cell's config, are *quarantined* (moved to
``quarantine/`` and logged) and reported as cache misses, so the runner
transparently recomputes them — a corrupt store degrades to a cold
cache, never a crashed sweep.  ``digest in store`` and :meth:`merge`
apply the same validation.

The store embeds :data:`repro.exec.serialize.STORE_VERSION`; entries with
a different version are ignored (treated as misses, left in place — they
are foreign, not corrupt), so bumping the version after a
semantics-changing simulator update invalidates stale results without
manual cleanup.

Alongside the result entries a store may hold a failures journal
(``failures.json``, the structured per-cell failure records of the last
run against this store) and the lease directory (``leases/``) of the
fault-tolerant runner.

A store records no plan of its own: the plan is the only contract.
:meth:`ResultStore.merge` takes the plan's cell digests and copies one
valid entry per cell out of any number of source stores — shard stores,
a sweep daemon's store, a lease-shared store — failing loudly on a cell
no source holds a valid copy of, or on two copies that disagree.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.results import SimulationResult
from repro.errors import AnalysisError
from repro.exec.faults import FaultInjector
from repro.exec.serialize import (
    STORE_VERSION,
    config_digest,
    entry_checksum,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "FAILURES_NAME",
    "MergeReport",
    "QUARANTINE_DIR",
    "ResultStore",
]

log = logging.getLogger(__name__)

#: file name of the per-run failure journal inside a store directory.
FAILURES_NAME = "failures.json"

#: subdirectory corrupt entries are moved to (never read back as results).
QUARANTINE_DIR = "quarantine"


def _check_entry(payload: str, digest: str) -> tuple[SimulationResult | None, str]:
    """Validate the raw text of the entry filed under *digest*.

    Returns ``(result, "")`` for a loadable entry, ``(None, "")`` for a
    foreign-version one (a miss, not corrupt) and ``(None, reason)`` for
    a corrupt one.  The checksum covers the payload, not the file name,
    so the rebuilt config must also hash to *digest*; that check seeds
    the config's cached digest for every later caller.
    """
    try:
        data = json.loads(payload)
    except ValueError:
        return None, "unparseable JSON (torn write?)"
    if not isinstance(data, dict):
        return None, "entry is not an object"
    if data.get("version") != STORE_VERSION:
        return None, ""
    try:
        entry = data["result"]
        if data.get("checksum") != entry_checksum(entry):
            return None, "checksum mismatch"
        result = result_from_dict(entry)
    except (ValueError, KeyError, TypeError, AttributeError):
        # ValueError covers ConfigurationError from config rebuild.
        return None, "schema-malformed entry"
    if config_digest(result.config) != digest:
        return None, "entry holds another cell's config"
    return result, ""


@dataclass(frozen=True)
class MergeReport:
    """Outcome of :meth:`ResultStore.merge`: cells written into the
    destination, and cells it already held byte for byte."""

    copied: int
    reused: int


class ResultStore:
    """Directory-backed cache of :class:`SimulationResult` objects."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = pathlib.Path(root)

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.json"

    def __contains__(self, digest: str) -> bool:
        """True when a *loadable* entry for *digest* exists.

        Applies the same validation as :meth:`load` (parse, store
        version, checksum, schema, config digest) so a torn write, a
        foreign-version or a mis-keyed entry is a miss here exactly as
        it would be there — a bare ``path.exists()`` used to answer True
        for entries ``load`` would reject, making dedup scans skip cells
        that could never actually be read back.  Unlike :meth:`load` this is non-mutating: corrupt
        entries are left for ``load`` to quarantine.
        """
        payload = self._read_payload(digest)
        return payload is not None and _check_entry(payload, digest)[0] is not None

    def load(self, digest: str) -> SimulationResult | None:
        """Return the stored result for *digest*, or None on a miss.

        Never raises on a bad entry: a truncated/unparseable file, a
        checksum mismatch, a malformed schema or a config that does not
        hash to *digest* is quarantined (moved aside, logged) and
        reported as a miss so the caller recomputes the cell.  Entries
        with a foreign ``STORE_VERSION`` are plain misses (left in
        place: they are stale, not corrupt).
        """
        raw = self._read_payload(digest)
        if raw is None:
            return None  # plain miss
        result, reason = _check_entry(raw, digest)
        if reason:
            self._quarantine(self._path(digest), digest, reason)
        return result

    def save(self, digest: str, result: SimulationResult) -> pathlib.Path:
        """Persist *result* under *digest* (atomic, last-writer-wins).

        Identical results serialize to identical bytes, so concurrent
        workers racing on the same (deterministic) cell are harmless.
        """
        entry = result_to_dict(result)
        payload = json.dumps(
            {
                "version": STORE_VERSION,
                "checksum": entry_checksum(entry),
                "result": entry,
            }
        )
        path = self._write_atomic(self._path(digest), payload)
        injector = FaultInjector.from_env()
        if injector is not None:
            injector.on_store_write(path, digest)
        return path

    def _quarantine(self, path: pathlib.Path, digest: str, reason: str) -> None:
        """Move a corrupt entry to ``quarantine/`` (best-effort) and log it."""
        qdir = self.root / QUARANTINE_DIR
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        i = 0
        while target.exists():
            target = qdir / f"{path.name}.{i}"
            i += 1
        try:
            os.replace(path, target)
        except OSError:
            pass  # raced with another quarantiner/writer; the miss stands
        log.warning(
            "quarantined corrupt store entry %s… (%s); it will be recomputed",
            digest[:12],
            reason,
        )

    def quarantined(self) -> list[str]:
        """Digests of entries that were quarantined as corrupt."""
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        return sorted({p.name.partition(".")[0] for p in qdir.iterdir()})

    def _write_atomic(self, path: pathlib.Path, payload: str) -> pathlib.Path:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return len(self.digests())

    def digests(self) -> list[str]:
        """Digests of every result entry (the failures journal excluded)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.stem
            for p in self.root.glob("*.json")
            if p.name != FAILURES_NAME
        )

    def _read_payload(self, digest: str) -> str | None:
        """Raw JSON text of one entry (byte-comparable), or None.

        Entries are ASCII JSON.  Bytes that are not UTF-8 decode to lone
        surrogates, so such an entry fails validation like any other
        corrupt one instead of raising here.
        """
        try:
            return self._path(digest).read_text(
                encoding="utf-8", errors="surrogateescape"
            )
        except OSError:
            return None

    # -- failures journal ---------------------------------------------------
    @property
    def failures_path(self) -> pathlib.Path:
        return self.root / FAILURES_NAME

    def write_failures(
        self, plan_digest: str, records: Sequence[dict[str, Any]]
    ) -> None:
        """Persist the structured failure records of the last run.

        An empty *records* clears the journal (the plan's cells all
        completed).  The journal is advisory — ``plan status`` reads it
        to explain what went wrong — so it is
        tolerant on read and last-writer-wins on write.
        """
        if not records:
            self.failures_path.unlink(missing_ok=True)
            return
        payload = json.dumps(
            {
                "version": STORE_VERSION,
                "plan_digest": plan_digest,
                "failures": list(records),
            },
            indent=2,
            sort_keys=True,
        )
        self._write_atomic(self.failures_path, payload)

    def read_failures(self, plan_digest: str | None = None) -> list[dict[str, Any]]:
        """Failure records from the journal ([] when absent/foreign/bad)."""
        try:
            data = json.loads(self.failures_path.read_text())
            if data.get("version") != STORE_VERSION:
                return []
            if plan_digest is not None and data.get("plan_digest") != plan_digest:
                return []
            records = data["failures"]
            return list(records) if isinstance(records, list) else []
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return []

    # -- merging ------------------------------------------------------------
    def merge(
        self,
        sources: Sequence["ResultStore | str | os.PathLike"],
        cells: Sequence[str],
    ) -> MergeReport:
        """Copy one valid entry per cell digest in *cells* out of *sources*.

        *cells* is the plan's unique cell digests; *sources* are any stores
        that together hold them (shards, a daemon's store, a lease-shared
        store).  A copy is valid when :meth:`load` would accept it.  Raises
        :class:`repro.errors.AnalysisError` on a cell no source holds a
        valid copy of (naming every source whose copy is corrupt), and on
        a byte conflict: two valid source copies that differ, or a source
        copy that differs from an entry already in this store.  Nothing is
        written unless every cell passes.
        """
        stores = [s if isinstance(s, ResultStore) else ResultStore(s) for s in sources]
        if not stores:
            raise AnalysisError("merge needs at least one source store")
        chosen: dict[str, str] = {}
        reused = 0
        for digest in cells:
            found: tuple[ResultStore, str] | None = None
            bad: list[str] = []
            for src in stores:
                payload = src._read_payload(digest)
                if payload is None:
                    continue
                result, reason = _check_entry(payload, digest)
                if result is None:
                    bad.append(f"{src.root} ({reason or 'foreign store version'})")
                elif found is None:
                    found = (src, payload)
                elif payload != found[1]:
                    raise AnalysisError(
                        f"byte conflict for cell {digest[:12]}…: {src.root} "
                        f"and {found[0].root} hold different valid copies"
                    )
            if found is None:
                detail = f"; invalid copies: {', '.join(bad)}" if bad else ""
                raise AnalysisError(
                    f"cell {digest[:12]}… of the plan has no valid copy in "
                    f"any of {len(stores)} source store(s){detail} — run "
                    "`plan run` against the store that owns it to compute it"
                )
            existing = self._read_payload(digest)
            if existing is None:
                chosen[digest] = found[1]
            elif existing == found[1]:
                reused += 1
            else:
                raise AnalysisError(
                    f"byte conflict for cell {digest[:12]}…: {found[0].root} "
                    f"disagrees with the entry already in {self.root}"
                )
        for digest, payload in chosen.items():
            self._write_atomic(self._path(digest), payload)
        return MergeReport(copied=len(chosen), reused=reused)
