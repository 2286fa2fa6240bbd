"""Small shared helpers: canonical text forms, content hashes, config value
type checks, yes/no reply parsing, atomic writes."""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any

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


def stable_int(*parts: str) -> int:
    """Deterministic 64-bit integer derived from text; process-independent."""
    return int(content_hash(*parts)[:16], 16)


def canonical_json(obj: Any) -> str:
    """Canonical JSON encoding used for fingerprints and record files."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def write_atomic(path: str | Path, data: str) -> None:
    """Write a file atomically: temp file in the same directory, then rename.

    Readers observe either the old content or the new content, never a
    partial write.
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


def write_jsonl_atomic(path: str | Path, records: list[dict]) -> None:
    """Atomically write one canonical-JSON object per line."""
    body = "".join(canonical_json(rec) + "\n" for rec in records)
    write_atomic(path, body)


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """Read a JSONL file, returning (1-based line number, parsed object) pairs.

    Blank lines are skipped. Raises CorpusError naming the path when the
    file does not exist, and the path and line on bad JSON.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise CorpusError(f"{path} does not exist") from None
    out: list[tuple[int, dict]] = []
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON: {exc}", lineno) from exc
            out.append((lineno, obj))
    return out
