"""Byte surgery on result-store entry files, for tests that damage or
forge an entry the way a disk, a crash or a foreign writer would.

An entry file is the manifest line followed by the metrics and events
sections (see :mod:`repro.grid.store`); these helpers read and rewrite it
section by section.
"""

import hashlib
import json
import os

from repro.grid.store import section_span
from repro.obs.bus import canonical_json


def read_sections(path):
    """``(manifest, metrics bytes, events bytes)`` of the entry at *path*."""
    with open(path, "rb") as handle:
        blob = handle.read()
    header, _, rest = blob.partition(b"\n")
    manifest = json.loads(header)
    split = manifest["metrics_bytes"]
    return manifest, rest[:split], rest[split:]


def write_sections(path, manifest, metrics, events):
    """Make the file at *path* the manifest line, *metrics* and *events*."""
    with open(path, "wb") as handle:
        handle.write((canonical_json(manifest) + "\n").encode("utf-8")
                     + metrics + events)


def rewrite_entry(path, metrics=None, events=None, record=True, **fields):
    """Replace the entry's *metrics* and/or *events* section bytes.

    The manifest records each new section's length, and with *record*
    its digest too, as a consistent writer would; without it the old
    digest stays, as bit rot or a poisoned section leaves it.  *fields*
    then override manifest fields.
    """
    manifest, old_metrics, old_events = read_sections(path)
    for name, blob in (("metrics", metrics), ("events", events)):
        if blob is None:
            continue
        manifest[f"{name}_bytes"] = len(blob)
        if record:
            manifest[f"{name}_sha256"] = hashlib.sha256(blob).hexdigest()
    manifest.update(fields)
    write_sections(path, manifest,
                   old_metrics if metrics is None else metrics,
                   old_events if events is None else events)


def append_bytes(path, data):
    """Append *data* to the entry file, past its recorded sections."""
    with open(path, "ab") as handle:
        handle.write(data)


def flip_byte(path, section="events"):
    """Flip the middle byte of the entry's *section*: bit rot that only
    the section's digest catches."""
    offset, size = section_span(path, section)
    with open(path, "r+b") as handle:
        handle.seek(offset + size // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))


def to_directory_layout(path):
    """Replace the entry file at *path* with the three-file directory the
    ``repro-grid-store/1`` layout kept per entry, its content intact."""
    manifest, metrics, events = read_sections(path)
    os.remove(path)
    os.mkdir(path)
    manifest["schema"] = "repro-grid-store/1"
    header = (canonical_json(manifest) + "\n").encode("utf-8")
    for name, blob in (("manifest.json", header), ("metrics.json", metrics),
                       ("events.jsonl", events)):
        with open(os.path.join(path, name), "wb") as handle:
            handle.write(blob)
