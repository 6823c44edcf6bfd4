"""Disk cache for subgroup lattices, one JSON file per group table hash."""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

_CACHE_DIR: Optional[Path] = None


def set_cache_dir(path: Optional[str]) -> None:
    """Override the cache directory; None restores the default."""
    global _CACHE_DIR
    _CACHE_DIR = None if path is None else Path(path)


def cache_dir() -> Path:
    return _CACHE_DIR if _CACHE_DIR is not None else Path(".bisetkit-cache")


def _path_for(fingerprint: str) -> Path:
    return cache_dir() / f"{fingerprint}.json"


def load_lattice(fingerprint: str, order: int):
    """Return (subgroups, class_ids) from disk, or None on any problem,
    a file without class ids included."""
    p = _path_for(fingerprint)
    if not p.exists():
        return None
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
        if doc.get("order") != order or doc.get("hash") != fingerprint:
            return None
        subs = [tuple(int(x) for x in m) for m in doc["subgroups"]]
        classes = [[int(x) for x in ids] for ids in doc["classes"]]
        return subs, classes
    except (OSError, ValueError, KeyError, TypeError):
        return None


def store_lattice(fingerprint: str, order: int, subgroups, class_ids) -> None:
    p = _path_for(fingerprint)
    doc = {
        "order": order,
        "hash": fingerprint,
        "subgroups": subgroups,
        "classes": class_ids,
    }
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=p.parent, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True))
        os.replace(tmp, p)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
