"""Journaled on-disk run store: crash-safe checkpoint/resume for sweeps.

A 500-point campaign killed at point 499 used to discard everything.
:class:`RunJournal` fixes that with the smallest durable structure that
preserves bit-identity: an append-only JSON-lines file mapping a
*task-spec hash* to the task's pickled result.

* **Keys, not positions.**  Every record is keyed by a SHA-256 over the
  journal *scope* (what experiment, which seed/sizing), the task label,
  the task index and the ``repr`` of its argument tuple.  Replays match
  on content, never on file order, so a journal survives task-list
  reordering, partial completion and concurrent sweeps sharing one file
  (their scopes differ).
* **Atomic, fsync'd appends.**  Each record is one ``\\n``-terminated
  line written with a single ``os.write`` and followed by ``os.fsync``
  — all writes go through :func:`fsync_append` (rule RPR009 flags any
  other write path in this module).  A crash mid-append leaves at most
  one truncated *final* line, which the loader drops; corruption
  anywhere else raises :class:`JournalCorruptError` instead of silently
  resuming from bad state.
* **Exact results.**  Results are pickled (base64 inside the JSON
  line), so a replayed task returns an object ``==`` to — and for the
  float-dataclass results of this repo, bit-identical with — what the
  uninterrupted run would have produced.

``repro.parallel.run_tasks(journal=...)`` consults the journal before
dispatching each task and appends each fresh result as it arrives, so
any run killed at an arbitrary point (worker crash, SIGINT, OOM) resumes
by replaying completed tasks and re-deriving identical seeds for the
rest.  See ``docs/robustness.md`` for the format and guarantees.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from pathlib import Path
from collections.abc import Callable
from typing import Any

__all__ = [
    "JournalCorruptError",
    "RunJournal",
    "fsync_append",
    "open_journal",
]

#: First-line marker identifying a file as a repro run journal.
JOURNAL_MAGIC = "repro-journal"

#: Journal format version (bump on incompatible record changes).
JOURNAL_VERSION = 1

#: Characters of ``repr(args)`` kept in the on-disk record (diagnostic
#: only — the full repr is already hashed into the key).
_ARGS_REPR_LIMIT = 200


class JournalCorruptError(RuntimeError):
    """The journal file is damaged somewhere before its final line.

    A truncated *last* line is the expected signature of a crash
    mid-append and is dropped silently; anything else (bad JSON in the
    middle, a missing header, a foreign file) refuses to load — resuming
    from a half-trusted journal could silently corrupt a campaign.
    """


def fsync_append(fd: int, line: str) -> None:
    """Append one journal line durably: single ``write`` + ``fsync``.

    This is the one sanctioned write path for journal/store files
    (RPR009): a whole ``\\n``-terminated line in one ``os.write`` call,
    made durable before the caller proceeds, so the file always consists
    of complete records plus at most one truncated tail.
    """
    if not line.endswith("\n"):
        raise ValueError("journal lines must be newline-terminated")
    data = line.encode("utf-8")
    written = os.write(fd, data)
    while written < len(data):  # pragma: no cover - short writes are rare
        written += os.write(fd, data[written:])
    os.fsync(fd)


def _truncate(text: str, limit: int = _ARGS_REPR_LIMIT) -> str:
    if len(text) <= limit:
        return text
    return text[: limit - 3] + "..."


class RunJournal:
    """One journal file: lookup of completed tasks, durable appends.

    Parameters
    ----------
    path:
        Journal file; created (with a header line) if absent.
    scope:
        Disambiguation string mixed into every key — the experiment's
        identity (scenario, seed, sizing).  Two journals with different
        scopes can share one file without key collisions.
    require_existing:
        Fail fast (``FileNotFoundError``) when the journal does not
        already hold at least the header — the CLI's ``--resume`` flag,
        which promises completed work exists to replay.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        scope: str = "",
        require_existing: bool = False,
    ):
        self.path = Path(path)
        self.scope = str(scope)
        self._records: dict[str, str] = {}  # key -> base64 pickle
        self._fd: int | None = None
        existed = self.path.exists() and self.path.stat().st_size > 0
        if require_existing and not existed:
            raise FileNotFoundError(
                f"--resume requested but journal {self.path} does not exist "
                "(or is empty); run once with --checkpoint first"
            )
        if existed:
            self._load()
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        if not existed:
            header = json.dumps(
                {"format": JOURNAL_MAGIC, "v": JOURNAL_VERSION},
                separators=(",", ":"),
            )
            fsync_append(self._fd, header + "\n")

    # -- loading ---------------------------------------------------------
    def _load(self) -> None:
        # Split the *bytes*, not decoded text: corruption diagnostics
        # report the byte offset of the offending record, which must be
        # usable with dd/xxd on the file as it sits on disk.
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        # A complete journal ends with "\n", so the final split element
        # is empty; a non-empty tail is a record truncated by a crash
        # mid-append and is dropped (it was never durable).
        lines.pop()
        if not lines:
            return
        try:
            header = json.loads(lines[0].decode("utf-8", errors="replace"))
        except json.JSONDecodeError as exc:
            raise JournalCorruptError(
                f"{self.path}: first line (byte offset 0, {len(lines[0])} "
                f"bytes) is not a journal header ({exc})"
            ) from exc
        if header.get("format") != JOURNAL_MAGIC:
            raise JournalCorruptError(
                f"{self.path}: not a repro journal (header {header!r})"
            )
        if header.get("v") != JOURNAL_VERSION:
            raise JournalCorruptError(
                f"{self.path}: journal version {header.get('v')!r} != "
                f"{JOURNAL_VERSION}; delete the file to start fresh"
            )
        offset = len(lines[0]) + 1  # header line + its newline
        for n, bline in enumerate(lines[1:], start=2):
            if not bline:
                offset += 1
                continue
            try:
                rec = json.loads(bline.decode("utf-8", errors="replace"))
                key, payload = rec["k"], rec["p"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise JournalCorruptError(
                    f"{self.path}: line {n}: corrupt journal record at byte "
                    f"offset {offset} (spans bytes {offset}-"
                    f"{offset + len(bline)}) before the final line ({exc}); "
                    "refusing to resume"
                ) from exc
            self._records[str(key)] = payload
            offset += len(bline) + 1

    # -- the run_tasks journal protocol ----------------------------------
    def key(
        self,
        *,
        label: str,
        index: int,
        args: tuple,
        fn: Callable | None = None,
    ) -> str:
        """Stable task-spec hash: scope | callable | label | index | args."""
        fn_id = "" if fn is None else f"{fn.__module__}.{fn.__qualname__}"
        spec = "\x1f".join([self.scope, fn_id, label, str(int(index)), repr(args)])
        return hashlib.sha256(spec.encode("utf-8")).hexdigest()

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, result)`` when ``key`` was journaled, else ``(False, None)``."""
        payload = self._records.get(key)
        if payload is None:
            return False, None
        return True, pickle.loads(base64.b64decode(payload))

    def put(self, key: str, result: Any, *, label: str = "task",
            index: int = -1, args: tuple = ()) -> None:
        """Durably append one completed task (idempotent per key)."""
        if self._fd is None:
            raise ValueError(f"journal {self.path} is closed")
        if key in self._records:
            return  # replayed task: already durable
        payload = base64.b64encode(pickle.dumps(result)).decode("ascii")
        record = json.dumps(
            {
                "k": key,
                "label": label,
                "i": int(index),
                "args": _truncate(repr(args)),
                "p": payload,
            },
            separators=(",", ":"),
        )
        fsync_append(self._fd, record + "\n")
        self._records[key] = payload

    # -- bookkeeping -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def close(self) -> None:
        """Release the file descriptor (appends already durable)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunJournal(path={str(self.path)!r}, scope={self.scope!r}, "
            f"entries={len(self)})"
        )


def open_journal(
    checkpoint: "str | Path | RunJournal | None",
    *,
    scope: str,
    resume: bool = False,
) -> tuple[RunJournal | None, bool]:
    """Normalize a ``checkpoint=`` argument to ``(journal, owned)``.

    Callers accept a path (journal opened here with ``scope``; the
    caller must close it — ``owned`` is True) or an existing
    :class:`RunJournal` (used as-is, caller's scope wins, not closed).
    ``None`` disables journaling entirely, and then ``resume=True`` is a
    ``ValueError``: there is nothing to resume from.
    """
    if checkpoint is None:
        if resume:
            raise ValueError("resume=True requires a checkpoint")
        return None, False
    if isinstance(checkpoint, RunJournal):
        return checkpoint, False
    return RunJournal(checkpoint, scope=scope, require_existing=resume), True
