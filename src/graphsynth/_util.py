"""Small shared helpers: canonical text forms, content and file hashes,
config value type checks, yes/no reply parsing, atomic writes, JSONL
reads."""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Iterator

from .errors import CorpusError


def canonicalize(text: str) -> str:
    """Trim and collapse internal whitespace; case is preserved.

    Case can be meaningful in math phrasing, so only whitespace is touched.
    """
    return " ".join(text.split())


def canonicalize_question(text: str) -> str:
    """Canonical form used for exact-duplicate question detection.

    Lowercase, collapse whitespace, strip trailing sentence punctuation.
    """
    return " ".join(text.lower().split()).rstrip(".!? ")


def is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_yes_no(raw: str) -> bool | None:
    """The last YES or NO word in a judge reply, any case; None when neither
    appears."""
    tokens = re.findall(r"[A-Za-z]+", raw.upper())
    for token in reversed(tokens):
        if token in ("YES", "NO"):
            return token == "YES"
    return None


def content_hash(*parts: str) -> str:
    """Stable hex digest of the given text parts (order-sensitive)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def file_sha256(path: str | Path | None) -> str | None:
    """Hex sha256 of a file's bytes, read in 64 KiB chunks so a multi-GB
    output never sits in memory; None when ``path`` is None or missing.

    A directory hashes as the names and digests of its regular files, in
    name order.
    """
    if path is None:
        return None
    path = Path(path)
    h = hashlib.sha256()
    if path.is_dir():
        for child in sorted(p for p in path.iterdir() if p.is_file()):
            h.update(f"{child.name}\0{file_sha256(child)}\n".encode("utf-8"))
        return h.hexdigest()
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return None
    with handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def stable_int(*parts: str) -> int:
    """Deterministic 64-bit integer derived from text; process-independent."""
    return int(content_hash(*parts)[:16], 16)


def canonical_json(obj: Any) -> str:
    """Canonical JSON encoding used for fingerprints and record files."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def write_atomic(path: str | Path, data: str) -> None:
    """Write a file atomically: temp file in the same directory, then rename.

    Readers observe either the old content or the new content, never a
    partial write. The directory is fsynced after the rename, so the new
    name survives a power loss once this returns.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_jsonl_atomic(path: str | Path, records: list[dict]) -> None:
    """Atomically write one canonical-JSON object per line."""
    body = "".join(canonical_json(rec) + "\n" for rec in records)
    write_atomic(path, body)


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, parsed object) pairs of a JSONL file, one
    line at a time, so a caller that folds them holds one record at once.

    Blank lines are skipped. Raises CorpusError naming the path when the
    file does not exist (on the first ``next``), and the path and line on
    bad JSON.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise CorpusError(f"{path} does not exist") from None
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON: {exc}", lineno) from exc
            yield lineno, obj


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """Every (line number, object) pair of :func:`iter_jsonl`, as a list."""
    return list(iter_jsonl(path))
