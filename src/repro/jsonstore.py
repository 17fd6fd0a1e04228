"""The on-disk JSON store behind the result and analysis caches.

Entries are JSON files under ``<root>/<fp[:2]>/<fp>.json``; ``root``
defaults to ``$REPRO_CACHE_DIR`` or ``.repro_cache`` in the working
directory.  Each entry carries the store's ``version`` and its own
fingerprint, and an unreadable entry, or one whose version or
fingerprint does not match, is a miss.  Writes go through a temp file
+ ``os.replace``, so concurrent workers never expose a torn entry.  A
store that cannot be written warns once and degrades to uncached: a
broken cache must never kill an hour-long sweep whose results are
already in hand.
"""

from __future__ import annotations

import json
import os
import pathlib
import warnings
from typing import Any, Dict, Optional

#: Default cache root (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"


class JSONStore:
    """Fingerprint-keyed, versioned JSON entries under one directory.

    Subclasses set :attr:`version` (bump it when the payload or its
    meaning changes), :attr:`subdir` (under the shared root) and
    :attr:`label` (for the not-writable warning).
    """

    version = 0
    subdir = ""
    label = "cache"

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        base = pathlib.Path(
            root
            if root is not None
            else os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )
        self.root = base / self.subdir if self.subdir else base
        self._write_warned = False

    def path_for(self, fingerprint: str) -> pathlib.Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored entry (payload plus ``version``/``fingerprint``),
        or None on a miss."""
        try:
            data = json.loads(self.path_for(fingerprint).read_text())
        except (OSError, ValueError):
            return None
        if data.get("version") != self.version:
            return None
        if data.get("fingerprint") != fingerprint:
            return None
        return data

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        """Store ``payload``'s keys next to ``version``/``fingerprint``."""
        blob = json.dumps(
            {"version": self.version, "fingerprint": fingerprint, **payload}
        )
        try:
            path = self.path_for(fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(blob)
            os.replace(tmp, path)
        except OSError as error:
            if not self._write_warned:
                self._write_warned = True
                warnings.warn(
                    f"{self.label} at {self.root} is not writable "
                    f"({error}); continuing without caching",
                    RuntimeWarning,
                    stacklevel=2,
                )
