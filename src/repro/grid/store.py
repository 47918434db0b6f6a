"""The content-addressed result store: never simulate the same spec twice.

Every campaign run is a pure function of its :class:`ScenarioSpec` — metrics
and the JSONL event stream are deterministic by construction (the batch
engine's parallel == serial guarantee rests on exactly that).  The store
exploits it: results are cached on disk under the SHA-256 of the canonical
spec JSON (:func:`repro.campaign.spec.spec_hash`), so a sweep that was
interrupted, repeated, re-sharded or re-run on another host replays stored
artifacts byte-identically instead of re-simulating.

Layout (two-level fan-out keeps directories small at millions of entries)::

    <root>/
      .staging/                 in-flight entry files (atomically renamed in)
      ab/ab12…ef                one regular file per spec hash

An entry file holds three sections back to back: the *manifest* — one
line of canonical JSON with the schema, spec hash, code fingerprint and
each section's length and SHA-256 — then the run document (the
*metrics* section, ``{"metrics":M,"spec":S}`` plus a newline), then the
run's ``sched`` event stream as JSONL (the *events* section).  This
module is the only one that knows the format: other modules name an
entry by its path and a section by name (:func:`read_entry`,
:func:`section_span`).

Integrity: one check, :meth:`ResultStore.check_entry`, decides whether
an entry can be served, and every reader asks it: ``lookup``, ``stats``,
``verify``, ``gc`` and the analytics index build.  An entry passes when
its manifest line parses, carries the current schema, names its own key
and the running *code fingerprint* (a digest of the ``repro`` package
sources — results produced by different code never leak across
versions), the manifest line plus ``metrics_bytes`` plus ``events_bytes``
is the file's size, both sections match their recorded SHA-256 digests,
and the metrics section is the run document, where M is an object and the
SHA-256 of S is the key.  The check needs no spec in hand, so it judges an
entry whose spec nobody holds the same way a lookup does.  Anything less —
a truncated write, trailing bytes, a poisoned section, a forged or
malformed run document, a stale version — is a silent miss on every path:
the run is recomputed and its entry overwritten, ``verify`` names the
entry and ``--repair`` quarantines it, and ``gc()`` sweeps it.  A
directory under a fan-out directory is an entry of the directory layout
that ``repro-grid-store/1`` wrote (three files per entry): it is a miss,
``stats`` counts it stale, ``verify`` names it, ``--repair`` quarantines
it, ``gc`` removes it and a ``put`` of its key replaces it.

Read contract: the verified bytes are the served bytes.  The check opens
the entry file once and reads it once, in full; it hashes exactly those
bytes and decodes the manifest line with ``json.loads`` and the run
document's ``metrics`` member once, with ``raw_decode`` where canonical
key order puts it first, and it hands the verified text, stream bytes,
metrics member and spec text back.  A lookup is the check plus building
the :class:`StoredResult` from them, whose ``spec`` is the document the
lookup hashed; replay only hands those out and never reopens the file, so
a file rewritten after the check cannot leak into a hit.  Hits never
re-encode: a hit's ``metrics_json()`` is the verified metrics section,
spliced into ``aggregate.json`` as it is, and the stored JSONL reaches
``--out`` as the same bytes.  Event lines are decoded only when a caller
reads them — ``RunResult.events`` or the index build
(:func:`repro.analytics.corpus.build_index`, whose rows come from what the
check verified, and which hands the check the bytes it read).  Both decode
the verified bytes through :func:`repro.obs.replay.decode_stored_jsonl`,
one ``json.loads`` per batch of lines, never one per line.  An event count
is the line count of the verified stream bytes, not the manifest's
``events_lines``, which no digest covers.

Write contract: the stream has one form from the bus to the store.
``put(run, events_jsonl)`` takes the run's stream as the canonical JSONL
bytes the run's streaming encoder wrote — the bytes a collected run
keeps, or the artifact file a streamed run wrote — and files them as they
are, digested from the bytes in hand, with no decode and no re-encode;
the metrics section is the run's ``metrics_json()``, the text the sweep's
outputs reuse.  The whole entry is one write into one new file under
``.staging``, then one ``os.replace`` onto the entry path, which is atomic
whether or not an entry exists there: an interrupted sweep never leaves a
half-entry that a resumed sweep could mistake for a result, and a reader
never finds the key without an entry while it is rewritten.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, IO, List, Mapping, Optional, Tuple, Union

from repro.campaign.metrics import RunResult, write_whole_file
from repro.campaign.spec import ScenarioSpec, spec_hash_from_document
from repro.grid.errors import GridError  # re-exported
from repro.obs.bus import canonical_json

#: Schema identifier of store entries; bump on incompatible layout changes.
STORE_SCHEMA = "repro-grid-store/2"


# ----------------------------------------------------------------------
# Code fingerprint
# ----------------------------------------------------------------------
_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file — the producing-code identity.

    A cache entry records the fingerprint of the code that produced it;
    lookups only serve entries whose fingerprint matches the running code,
    so editing any simulator/campaign source invalidates stale results
    instead of replaying them.  Computed once per process (~1 ms).
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        hasher = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(package_root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                relative = os.path.relpath(path, package_root)
                hasher.update(relative.encode("utf-8"))
                hasher.update(b"\0")
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
                hasher.update(b"\0")
        _FINGERPRINT = hasher.hexdigest()
    return _FINGERPRINT


def _count_lines(blob: bytes) -> int:
    """JSONL lines in *blob*; an unterminated final line still counts."""
    return blob.count(b"\n") + (1 if blob and not blob.endswith(b"\n") else 0)


# ----------------------------------------------------------------------
# The entry file
# ----------------------------------------------------------------------
#: The sections of an entry file, in file order; each section after the
#: manifest line has its length and digest recorded in the manifest.
SECTIONS = ("manifest", "metrics", "events")

#: A stored run document is ``canonical_json({"metrics": M, "spec": S})``
#: plus a newline: the text of M follows ``_METRICS_PREFIX``, and the text
#: of S sits between ``_SPEC_OPEN`` and ``_SPEC_CLOSE``, which end it.
_METRICS_PREFIX = '{"metrics":'
_SPEC_OPEN = ',"spec":'
_SPEC_CLOSE = '}\n'

_DECODER = json.JSONDecoder()

#: The problem :meth:`ResultStore.check_entry` reports for a directory
#: where an entry file belongs.
_DIRECTORY_ENTRY = "a directory: an entry of the repro-grid-store/1 layout"

#: What :meth:`ResultStore.check_entry` verified of a servable entry: the
#: metrics section's text, the events section's bytes, the decoded
#: ``metrics`` member and the text of the ``spec`` member.
Verified = Tuple[str, bytes, Dict[str, Any], str]


def read_entry(path: str) -> Tuple[os.stat_result, bytes]:
    """``(stat, blob)`` of the entry file at *path*: one open, one
    ``fstat`` of that handle and one read of the whole file.

    Raises :class:`OSError` when there is no file to read, such as
    :class:`IsADirectoryError` for an entry of the directory layout.
    """
    with open(path, "rb", buffering=0) as handle:
        return os.fstat(handle.fileno()), handle.read()


def entry_manifest(blob: bytes) -> Optional[Dict[str, Any]]:
    """The manifest of the entry bytes *blob*: its first line decoded, or
    ``None`` when that line is not a JSON object."""
    end = blob.find(b"\n")
    try:
        manifest = json.loads(blob[:end]) if end >= 0 else None
    except (ValueError, RecursionError):
        return None
    return manifest if isinstance(manifest, dict) else None


def section_span(path: str, section: str) -> Optional[Tuple[int, int]]:
    """``(offset, length)`` of *section* (one of :data:`SECTIONS`) in the
    entry file at *path*, or ``None`` when the file holds no entry whose
    recorded section lengths fill it exactly."""
    try:
        _, blob = read_entry(path)
    except OSError:
        return None
    manifest = entry_manifest(blob)
    if manifest is None:
        return None
    lengths = (blob.find(b"\n") + 1, manifest.get("metrics_bytes"),
               manifest.get("events_bytes"))
    if not (all(type(length) is int and length >= 0 for length in lengths)
            and sum(lengths) == len(blob)):
        return None
    index = SECTIONS.index(section)
    return sum(lengths[:index]), lengths[index]


def _remove(path: str) -> None:
    """Remove the entry at *path*, a file or a directory-layout entry."""
    if os.path.isdir(path):
        shutil.rmtree(path)
    else:
        os.remove(path)


# ----------------------------------------------------------------------
# Stored results
# ----------------------------------------------------------------------
class StoredResult:
    """A verified cache entry, holding what the entry check verified.

    ``metrics_text`` and ``events_blob`` are the exact sections whose
    digests matched the manifest (or, for a fresh ``put``, what was just
    written), and ``metrics`` the run document's decoded ``metrics``
    member; every read below serves them instead of reopening the entry
    file.  ``spec`` is the spec document the entry's key was hashed from.
    """

    __slots__ = ("key", "path", "manifest", "spec", "metrics",
                 "metrics_text", "events_blob")

    def __init__(self, key: str, path: str, manifest: Dict[str, Any],
                 spec: Dict[str, Any], metrics: Dict[str, Any],
                 metrics_text: str, events_blob: bytes):
        self.key = key
        self.path = path
        self.manifest = manifest
        self.spec = spec
        self.metrics = metrics
        self.metrics_text = metrics_text
        self.events_blob = events_blob

    def stream_events_to(self, target: "Union[str, IO[str]]") -> int:
        """Copy the stored JSONL stream to *target* byte for byte.

        *target* follows the sink convention: a path, ``"-"`` for stdout or
        an open stream.  A path or binary stream gets the verified bytes in
        one write; a text stream gets them decoded.  Returns the number of
        lines written, counted in those bytes.
        """
        blob = self.events_blob
        if isinstance(target, str) and target != "-":
            write_whole_file(target, blob)
        else:
            stream = sys.stdout if target == "-" else target
            if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
                stream.write(blob)
            else:
                stream.write(blob.decode("utf-8"))
            stream.flush()
        return _count_lines(blob)

    def replay(
        self,
        collect_events: bool = True,
        events_stream: "Optional[Union[str, IO[str]]]" = None,
    ) -> RunResult:
        """Reconstruct the :class:`RunResult` this entry was produced from.

        Mirrors :func:`repro.campaign.runner.run_spec`'s output modes: with
        *events_stream* the stored JSONL is copied to the target (and
        ``events`` stays empty); otherwise *collect_events* hands the
        verified JSONL bytes to the result, which decodes them only if its
        ``events`` are read.  The result's ``metrics_json()`` is the verified
        ``metrics.json`` text, never re-encoded, its ``metrics`` the member
        the entry check decoded and its ``spec`` the entry's spec document;
        replay decodes nothing.  The ``timing`` section carries
        ``cached: True`` plus the replay wall clock — speed measures (R,
        S/R) are host facts about a simulation that did not happen here, so
        they are ``None``.
        """
        start = time.perf_counter()
        events_jsonl = b""
        events_streamed = 0
        if events_stream is not None:
            events_streamed = self.stream_events_to(events_stream)
        elif collect_events:
            events_jsonl = self.events_blob
        timing = {
            "cached": True,
            "wall_clock_seconds": time.perf_counter() - start,
            "r_over_s": None,
            "s_over_r": None,
        }
        return RunResult(
            spec=self.spec,
            metrics=self.metrics,
            timing=timing,
            events_streamed=events_streamed,
            cached=True,
            events_jsonl=events_jsonl,
            metrics_json=self.metrics_text[:-1],
        )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """Content-addressed on-disk cache of campaign run results."""

    def __init__(self, root: str, fingerprint: Optional[str] = None):
        self.root = os.path.abspath(root)
        self.fingerprint = fingerprint or code_fingerprint()
        os.makedirs(self.root, exist_ok=True)

    # -- paths -------------------------------------------------------------
    def entry_path(self, key: str) -> str:
        """Path of the entry file for cache key *key*."""
        # Plain joins: the root is absolute and a key is hex, and every
        # lookup builds one.
        return f"{self.root}{os.sep}{key[:2]}{os.sep}{key}"

    # -- lookup ------------------------------------------------------------
    def lookup(self, spec: "Union[ScenarioSpec, Mapping[str, Any]]") -> Optional[StoredResult]:
        """The verified entry for *spec*, or ``None`` on any kind of miss.

        A miss is silent whatever :meth:`check_entry` found — an absent,
        stale or corrupt entry alike; the caller's job is simply to
        recompute, and ``verify()``/``gc()`` report and sweep bad entries.
        """
        document = spec.to_dict() if isinstance(spec, ScenarioSpec) else dict(spec)
        key = spec_hash_from_document(document)
        path = self.entry_path(key)
        manifest, problems, verified = self.check_entry(key, path)
        if problems:
            return None
        metrics_text, events_blob, metrics, _ = verified
        return StoredResult(key, path, manifest, document, metrics,
                            metrics_text, events_blob)

    def check_entry(
        self, key: str, path: str, blob: Optional[bytes] = None,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> Tuple[Optional[Dict[str, Any]], List[str], Optional[Verified]]:
        """The one servability check: ``(manifest, problems, verified)``.

        An empty problem list means the entry is servable, and *verified*
        holds what was verified (see :data:`Verified`); otherwise each
        string names one failure and *verified* is ``None``.  The manifest
        is returned whenever its line parses to an object, so callers can
        tell a stale entry from a corrupt one and name the scenario they
        discard.  A caller that has already read the entry file (with
        :func:`read_entry`) passes its bytes as *blob*, and its
        :func:`entry_manifest` as *manifest*; otherwise the file is opened
        once and read once, in full and unbuffered, here.  The returned
        sections are exactly the bytes whose digests were compared.
        """
        if blob is None:
            try:
                with open(path, "rb", buffering=0) as handle:
                    blob = handle.read()
            except IsADirectoryError:
                return None, [_DIRECTORY_ENTRY], None
            except OSError as error:
                return None, [f"unreadable entry: {error}"], None
        # The manifest line, the sections' lengths and digests and the run
        # document are checked inline: a hit makes no call it can spare.
        header = blob.find(b"\n") + 1
        if manifest is None:
            try:
                manifest = json.loads(blob[:header]) if header else None
            except (ValueError, RecursionError):
                manifest = None
            if not isinstance(manifest, dict):
                return None, ["the manifest line is not a JSON object"], None
        problems: List[str] = []
        if manifest.get("schema") != STORE_SCHEMA:
            problems.append(
                f"schema {manifest.get('schema')!r} != {STORE_SCHEMA!r}"
            )
        if manifest.get("spec_hash") != key:
            problems.append("spec_hash does not match the entry key")
        if manifest.get("fingerprint") != self.fingerprint:
            problems.append("code fingerprint mismatch (stale entry)")
        metrics_bytes = manifest.get("metrics_bytes")
        events_bytes = manifest.get("events_bytes")
        if not (type(metrics_bytes) is int and type(events_bytes) is int
                and metrics_bytes >= 0 and events_bytes >= 0
                and header + metrics_bytes + events_bytes == len(blob)):
            problems.append(f"the sections do not fill the {len(blob)}-byte "
                            f"entry file as the manifest records")
            return manifest, problems, None
        split = header + metrics_bytes
        metrics_blob = blob[header:split]
        events_blob = blob[split:]
        if hashlib.sha256(metrics_blob).hexdigest() != manifest.get("metrics_sha256"):
            problems.append("metrics digest mismatch")
        if hashlib.sha256(events_blob).hexdigest() != manifest.get("events_sha256"):
            problems.append("events digest mismatch")
        if problems:
            return manifest, problems, None
        # The run document: the metrics member must be an object filling
        # exactly the span up to the spec member, which must hash to the key.
        try:
            text = metrics_blob.decode("utf-8")
            metrics, end = _DECODER.raw_decode(text, len(_METRICS_PREFIX))
            if not (isinstance(metrics, dict)
                    and text.startswith(_METRICS_PREFIX)
                    and text.startswith(_SPEC_OPEN, end)
                    and text.endswith(_SPEC_CLOSE)):
                raise ValueError
        except (ValueError, RecursionError):
            return manifest, ["the metrics section is not a run document"], None
        spec_text = text[end + len(_SPEC_OPEN):-len(_SPEC_CLOSE)]
        if hashlib.sha256(spec_text.encode("utf-8")).hexdigest() != key:
            return manifest, ["the stored spec does not hash to the key"], None
        return manifest, problems, (text, events_blob, metrics, spec_text)

    # -- writing -----------------------------------------------------------
    def put(self, run: RunResult, events_jsonl: bytes) -> StoredResult:
        """Store one run's deterministic artifacts; returns the new entry.

        The metrics section is the *run*'s ``metrics_json()`` text and
        *events_jsonl*, the run's canonical JSONL stream, is the events
        section as it is.  The entry file is written once under
        ``.staging`` and renamed onto the entry path, which atomically
        replaces an existing entry for the same key.
        """
        spec_document = run.spec
        key = spec_hash_from_document(spec_document)
        # Each section's digest is computed from the very bytes written —
        # no re-read pass.
        metrics_text = run.metrics_json() + "\n"
        metrics_blob = metrics_text.encode("utf-8")
        manifest = {
            "schema": STORE_SCHEMA,
            "spec_hash": key,
            "scenario": spec_document.get("name", ""),
            "fingerprint": self.fingerprint,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "events_lines": _count_lines(events_jsonl),
            "events_bytes": len(events_jsonl),
            "events_sha256": hashlib.sha256(events_jsonl).hexdigest(),
            "metrics_bytes": len(metrics_blob),
            "metrics_sha256": hashlib.sha256(metrics_blob).hexdigest(),
        }
        header = (canonical_json(manifest) + "\n").encode("utf-8")
        staging = f"{self.root}{os.sep}.staging{os.sep}{key}.{os.getpid()}"
        try:
            handle = open(staging, "wb")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(staging), exist_ok=True)
            handle = open(staging, "wb")
        with handle:
            handle.write(b"".join((header, metrics_blob, events_jsonl)))

        path = self.entry_path(key)
        try:
            os.replace(staging, path)
        except FileNotFoundError:
            # The entry's fan-out directory does not exist yet.
            os.makedirs(os.path.dirname(path), exist_ok=True)
            os.replace(staging, path)
        except IsADirectoryError:
            # An entry of the directory layout holds the key.
            shutil.rmtree(path, ignore_errors=True)
            os.replace(staging, path)
        return StoredResult(key, path, manifest, spec_document,
                            run.metrics, metrics_text, events_jsonl)

    # -- maintenance -------------------------------------------------------
    def entries(self) -> List[Tuple[str, str]]:
        """``(key, path)`` of every entry, in ascending key order.

        The store's one walk: stats, verify, gc, clear, ``len``
        and the analytics index build and freshness check all list entries
        here.  An entry is every name in a fan-out directory that does not
        start with a dot (editor droppings such as ``.DS_Store`` are not
        entries), files and directory-layout entries alike.
        """
        entries: List[Tuple[str, str]] = []
        with os.scandir(self.root) as listing:
            prefixes = sorted(
                (item.name, item.path) for item in listing
                if not item.name.startswith(".") and item.is_dir()
            )
        for _, prefix_path in prefixes:
            with os.scandir(prefix_path) as listing:
                entries.extend(sorted(
                    (item.name, item.path) for item in listing
                    if not item.name.startswith(".")
                ))
        return entries

    def stats(self) -> Dict[str, Any]:
        """Inventory of the store: entry health, sizes, per-scenario counts.

        ``events_lines`` counts the lines of the valid entries' verified
        streams.  A failing entry is *stale* when other code wrote it: a
        directory-layout entry, or a manifest that parses and names its own
        key but carries another code fingerprint or schema; it is
        *corrupt* otherwise.
        """
        valid = stale = corrupt = 0
        total_bytes = 0
        events_lines = 0
        scenarios: Dict[str, int] = {}
        for key, path in self.entries():
            manifest, problems, verified = self.check_entry(key, path)
            try:
                if problems == [_DIRECTORY_ENTRY]:
                    for name in os.listdir(path):
                        total_bytes += os.path.getsize(os.path.join(path, name))
                else:
                    total_bytes += os.path.getsize(path)
            except OSError:
                pass
            if not problems:
                valid += 1
                events_lines += _count_lines(verified[1])
                scenario = manifest.get("scenario", "")
                scenarios[scenario] = scenarios.get(scenario, 0) + 1
            elif problems == [_DIRECTORY_ENTRY] or (
                manifest is not None and manifest.get("spec_hash") == key and (
                    manifest.get("fingerprint") != self.fingerprint
                    or manifest.get("schema") != STORE_SCHEMA)):
                stale += 1
            else:
                corrupt += 1
        return {
            "root": self.root,
            "entries": valid + stale + corrupt,
            "valid": valid,
            "stale": stale,
            "corrupt": corrupt,
            "bytes": total_bytes,
            "events_lines": events_lines,
            "scenarios": dict(sorted(scenarios.items())),
        }

    def quarantine_dir(self) -> str:
        """Where :meth:`verify` moves failing entries (never served)."""
        return os.path.join(self.root, ".quarantine")

    def verify(self, repair: bool = False) -> Dict[str, Any]:
        """Scan every entry and report the ones failing verification.

        Today a damaged entry is only ever discovered lazily, as a silent
        cache miss; ``verify`` surfaces them all at once.  Returns
        ``{"checked", "bad": [{key, scenario, problems}], "quarantined"}``.
        With *repair*, each failing entry is moved into the store's
        ``.quarantine/`` directory (a dot-directory, so it is invisible to
        lookups, stats and iteration) where it can be inspected or
        deleted; the store itself is clean afterwards.
        """
        bad: List[Dict[str, Any]] = []
        checked = 0
        for key, path in self.entries():
            checked += 1
            manifest, problems, _ = self.check_entry(key, path)
            if not problems:
                continue
            scenario = "" if manifest is None else manifest.get("scenario", "")
            bad.append({"key": key, "scenario": scenario,
                        "problems": problems})
        quarantined = 0
        if repair and bad:
            quarantine_root = self.quarantine_dir()
            os.makedirs(quarantine_root, exist_ok=True)
            for item in bad:
                destination = os.path.join(quarantine_root, item["key"])
                if os.path.lexists(destination):
                    _remove(destination)
                shutil.move(self.entry_path(item["key"]), destination)
                quarantined += 1
            self._remove_empty_prefixes()
        return {"checked": checked, "bad": bad, "quarantined": quarantined}

    def gc(self) -> Dict[str, int]:
        """Drop unusable entries (stale or corrupt) and stray staging files."""
        removed = kept = 0
        for key, path in self.entries():
            if self.check_entry(key, path)[1]:
                _remove(path)
                removed += 1
            else:
                kept += 1
        staging = os.path.join(self.root, ".staging")
        staging_removed = 0
        if os.path.isdir(staging):
            for name in os.listdir(staging):
                _remove(os.path.join(staging, name))
                staging_removed += 1
        self._remove_empty_prefixes()
        return {"removed": removed, "kept": kept, "staging_removed": staging_removed}

    def _remove_empty_prefixes(self) -> None:
        """Remove the fan-out directories that removals left empty."""
        for prefix in os.listdir(self.root):
            path = os.path.join(self.root, prefix)
            if not prefix.startswith(".") and os.path.isdir(path) and not os.listdir(path):
                os.rmdir(path)

    def clear(self) -> int:
        """Remove every entry (and staging residue); returns entries removed."""
        removed = 0
        for _, path in self.entries():
            _remove(path)
            removed += 1
        shutil.rmtree(self.quarantine_dir(), ignore_errors=True)
        self.gc()
        return removed

    def __len__(self) -> int:
        return len(self.entries())
