"""On-disk result cache keyed by config digest, plus shard merging.

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

Alongside the result entries a store may hold a shard manifest
(``shard.json``), a failures journal (``failures.json``, the structured
per-cell failure records of the last run against this store), and the
lease directory (``leases/``) of the fault-tolerant runner.

Sharded runs additionally write a :class:`ShardManifest` (``shard.json``)
into their store: the plan digest, the shard coordinates, and the exact
cell digests the shard owns.  :meth:`ResultStore.merge` unions shard
stores back into one, using the manifests to verify that every cell of
the plan is covered exactly once — missing shards, missing results,
double-claimed cells and digest conflicts all fail loudly instead of
producing a silently incomplete merged store.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import subprocess
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field
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
    "MANIFEST_NAME",
    "MergeReport",
    "QUARANTINE_DIR",
    "ResultStore",
    "ShardManifest",
]

log = logging.getLogger(__name__)

#: file name of the per-shard manifest inside a store directory.
MANIFEST_NAME = "shard.json"

#: file name of the per-run failure journal inside a store directory.
FAILURES_NAME = "failures.json"

#: subdirectory corrupt entries are moved to (never read back as results).
QUARANTINE_DIR = "quarantine"

#: store-root file names that are not result entries.
_NON_RESULT_NAMES = frozenset({MANIFEST_NAME, FAILURES_NAME})


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


def _payload_ok(payload: str, digest: str) -> bool:
    """True when raw entry text is a loadable entry for *digest*."""
    return _check_entry(payload, digest)[0] is not None


def current_git_sha() -> str | None:
    """HEAD commit of the enclosing checkout, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass(frozen=True)
class ShardManifest:
    """Provenance record of one shard's slice of a plan.

    ``plan_cells`` is the full plan's sorted unique cell digests and
    ``cells`` the subset this shard owns; carrying both lets a merge
    verify completeness without reconstructing the plan.
    """

    plan_digest: str
    shard_index: int
    shard_count: int
    plan_cells: tuple[str, ...]
    cells: tuple[str, ...]
    git_sha: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan_digest": self.plan_digest,
            "shard": {"index": self.shard_index, "count": self.shard_count},
            "plan_cells": list(self.plan_cells),
            "cells": list(self.cells),
            "git_sha": self.git_sha,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardManifest":
        return cls(
            plan_digest=data["plan_digest"],
            shard_index=data["shard"]["index"],
            shard_count=data["shard"]["count"],
            plan_cells=tuple(data["plan_cells"]),
            cells=tuple(data["cells"]),
            git_sha=data.get("git_sha"),
        )


@dataclass(frozen=True)
class MergeReport:
    """Outcome of :meth:`ResultStore.merge`."""

    manifest: ShardManifest
    sources: int
    copied: int
    reused: int = 0
    shard_git_shas: tuple[str | None, ...] = field(default=())


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
        return payload is not None and _payload_ok(payload, digest)

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
        """Digests of every result entry (manifest/journal excluded)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.stem
            for p in self.root.glob("*.json")
            if p.name not in _NON_RESULT_NAMES
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
        completed).  The journal is advisory — ``plan status`` and
        ``plan resume`` read it to explain what went wrong — so it is
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

    # -- shard manifests ----------------------------------------------------
    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / MANIFEST_NAME

    def write_manifest(self, manifest: ShardManifest) -> pathlib.Path:
        """Persist the shard manifest for this store (atomic)."""
        payload = json.dumps(
            {"version": STORE_VERSION, "manifest": manifest.to_dict()},
            indent=2,
            sort_keys=True,
        )
        return self._write_atomic(self.manifest_path, payload)

    def read_manifest(self) -> ShardManifest:
        """Load this store's shard manifest; missing or foreign is an error.

        Unlike result entries (where a bad file is just a cache miss), a
        bad manifest means shard provenance is unknown, so merging must
        not silently proceed.
        """
        try:
            raw = self.manifest_path.read_text()
        except OSError as exc:
            raise AnalysisError(
                f"no shard manifest at {self.manifest_path} — was this "
                "store written by a sharded run?"
            ) from exc
        try:
            data = json.loads(raw)
            version = data.get("version")
            manifest = ShardManifest.from_dict(data["manifest"])
        except (ValueError, KeyError, TypeError) as exc:
            raise AnalysisError(
                f"unreadable shard manifest at {self.manifest_path}: {exc}"
            ) from exc
        if version != STORE_VERSION:
            raise AnalysisError(
                f"shard manifest {self.manifest_path} has store version "
                f"{version!r}, expected {STORE_VERSION}"
            )
        return manifest

    # -- merging ------------------------------------------------------------
    def merge(self, paths: Sequence["ResultStore | str | os.PathLike"]) -> MergeReport:
        """Union the shard stores at *paths* into this store.

        Verifies — via the shard manifests — that all sources belong to
        the same plan, that every shard of the partition is present
        exactly once, that the owned cell sets are disjoint and cover the
        plan, and that every claimed result exists.  Raises
        :class:`repro.errors.AnalysisError` on any gap, duplicate claim,
        or digest conflict (same cell, different result bytes).

        On success the merged store gets its own ``shard.json`` marking
        it a complete 1-shard store of the same plan, so it can be
        status-checked, re-merged, or consumed offline like any other.
        """
        sources = [p if isinstance(p, ResultStore) else ResultStore(p) for p in paths]
        if not sources:
            raise AnalysisError("merge needs at least one shard store")
        manifests = [src.read_manifest() for src in sources]

        first = manifests[0]
        for src, man in zip(sources, manifests):
            if man.plan_digest != first.plan_digest:
                raise AnalysisError(
                    f"shard store {src.root} belongs to plan "
                    f"{man.plan_digest[:12]}…, expected "
                    f"{first.plan_digest[:12]}… — all shards must come "
                    "from the same plan"
                )
            if man.shard_count != first.shard_count:
                raise AnalysisError(
                    f"shard store {src.root} was cut {man.shard_index}/"
                    f"{man.shard_count}, expected a partition into "
                    f"{first.shard_count} shard(s)"
                )
            if man.plan_cells != first.plan_cells:
                raise AnalysisError(
                    f"shard store {src.root} disagrees on the plan's cell "
                    "set despite a matching plan digest (corrupt manifest?)"
                )

        indices = [man.shard_index for man in manifests]
        if len(set(indices)) != len(indices):
            dupes = sorted({i for i in indices if indices.count(i) > 1})
            raise AnalysisError(f"duplicate shard index(es): {dupes}")
        missing_shards = sorted(set(range(first.shard_count)) - set(indices))
        if missing_shards:
            raise AnalysisError(
                f"missing shard(s) {missing_shards} of "
                f"{first.shard_count}: got indices {sorted(indices)}"
            )

        claimed: dict[str, int] = {}
        for man in manifests:
            for digest in man.cells:
                if digest in claimed:
                    raise AnalysisError(
                        f"cell {digest[:12]}… claimed by shards "
                        f"{claimed[digest]} and {man.shard_index}"
                    )
                claimed[digest] = man.shard_index
        uncovered = sorted(set(first.plan_cells) - set(claimed))
        if uncovered:
            raise AnalysisError(
                f"{len(uncovered)} plan cell(s) not covered by any shard "
                f"(first: {uncovered[0][:12]}…)"
            )

        copied = 0
        reused = 0
        for src, man in zip(sources, manifests):
            for digest in man.cells:
                payload = src._read_payload(digest)
                if payload is None:
                    raise AnalysisError(
                        f"shard {man.shard_index} ({src.root}) is "
                        f"incomplete: no result for claimed cell "
                        f"{digest[:12]}…"
                    )
                if not _payload_ok(payload, digest):
                    raise AnalysisError(
                        f"shard {man.shard_index} ({src.root}) is "
                        f"incomplete: corrupt result for claimed cell "
                        f"{digest[:12]}… — run `plan resume` against the "
                        "shard store to recompute it"
                    )
                existing = self._read_payload(digest)
                if existing is not None:
                    if existing != payload:
                        raise AnalysisError(
                            f"digest conflict for cell {digest[:12]}…: "
                            f"{src.root} disagrees with already-merged "
                            "bytes"
                        )
                    reused += 1
                    continue
                self._write_atomic(self._path(digest), payload)
                copied += 1

        merged = ShardManifest(
            plan_digest=first.plan_digest,
            shard_index=0,
            shard_count=1,
            plan_cells=first.plan_cells,
            cells=first.plan_cells,
            git_sha=current_git_sha(),
        )
        self.write_manifest(merged)
        return MergeReport(
            manifest=merged,
            sources=len(sources),
            copied=copied,
            reused=reused,
            shard_git_shas=tuple(man.git_sha for man in manifests),
        )
