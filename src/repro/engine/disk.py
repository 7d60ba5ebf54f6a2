"""The one persistent table tier: one JSON file per entry in a directory.

Whole-nest tables live at ``tables-<digest>.json`` and per-UGS tables
(:mod:`repro.engine.ugscache`) at ``ugs-<digest>.json`` side by side, so
one directory is the cross-process store for ``--cache`` runs and for
every worker of a cluster alike.  Readers never lock; each writer
publishes through its own temp file plus an atomic ``os.replace``, so a
concurrent reader (thread or process) only ever sees a complete entry,
and concurrent writers of one key race last-writer-wins with a complete
entry either way.  The tier is unbounded by design: a directory holds
what was built into it until ``repro cache clear`` (or, for a cluster's
ephemeral directory, the supervisor's stop) removes it.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

__all__ = ["DiskTier", "clear_disk_cache", "default_cache_dir",
           "disk_cache_stats"]

#: The file-name patterns of the tier's two entry kinds.
_TABLES_GLOB = "tables-*.json"
_UGS_GLOB = "ugs-*.json"

def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override).expanduser()
    return pathlib.Path.home() / ".cache" / "repro"

class DiskTier:
    """Read and atomically publish named text entries under one directory.

    Neither method raises on I/O failure: a missing or unreadable entry
    reads as ``None`` and a failed publish returns ``False``, so callers
    count the outcome and fall back to computing.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = pathlib.Path(directory)

    def read(self, name: str) -> str | None:
        try:
            return (self.directory / name).read_text()
        except OSError:
            return None

    def write(self, name: str, text: str) -> bool:
        # A temp file unique to this writer: threads of one process
        # publishing the same key must never share (and cross-rename)
        # one half-written file.
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix=f"{name}.", suffix=".tmp")
        except OSError:
            return False
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, self.directory / name)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

def _directory(cache_dir: str | os.PathLike | None) -> pathlib.Path:
    return (pathlib.Path(cache_dir) if cache_dir is not None
            else default_cache_dir())

def disk_cache_stats(cache_dir: str | os.PathLike | None = None) -> dict:
    """Whole-nest and per-UGS entry counts plus the byte total of both."""
    directory = _directory(cache_dir)
    counts = {_TABLES_GLOB: 0, _UGS_GLOB: 0}
    total = 0
    if directory.is_dir():
        for pattern in counts:
            for path in directory.glob(pattern):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                counts[pattern] += 1
    return {"dir": str(directory), "entries": counts[_TABLES_GLOB],
            "ugs_entries": counts[_UGS_GLOB], "bytes": total}

def clear_disk_cache(cache_dir: str | os.PathLike | None = None) -> int:
    """Delete every cached entry, whole-nest and per-UGS alike; returns
    how many whole-nest entries were removed."""
    directory = _directory(cache_dir)
    removed = 0
    if directory.is_dir():
        for pattern in (_TABLES_GLOB, _UGS_GLOB):
            for path in directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    continue
                if pattern == _TABLES_GLOB:
                    removed += 1
    return removed
