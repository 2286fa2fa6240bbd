from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth.errors import CheckpointError, CorpusError
from graphsynth.store import (
    CacheReader,
    KeyConcept,
    SeedExample,
    SynthesizedItem,
    encode_cache_line,
    load_seed_corpus,
    read_checkpoint,
    select_resumable_work,
    write_checkpoint,
)


def write_lines(path, lines):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines), encoding="utf-8")
    return path


class TestLoadSeedCorpus:
    def test_two_valid_records_round_trip(self, tmp_path):
        path = write_lines(tmp_path / "seeds.jsonl", [
            {"id": "p1", "question": "Q1?", "solution": "S1"},
            {"id": "p2", "question": "Q2?", "solution": "S2"},
        ])
        seeds = load_seed_corpus(path)
        assert [s.id for s in seeds] == ["p1", "p2"]
        assert seeds[0].question == "Q1?"
        assert seeds[1].solution == "S2"

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = write_lines(tmp_path / "seeds.jsonl", [
            {"id": "p1", "question": "Q1?", "solution": "S1"},
            {"id": "p2", "question": "Q2?", "solution": "S2"},
            {"id": "p1", "question": "Q3?", "solution": "S3"},
        ])
        with pytest.raises(CorpusError, match=r"lines 1 and 3"):
            load_seed_corpus(path)

    def test_missing_question_names_field(self, tmp_path):
        path = write_lines(tmp_path / "seeds.jsonl", [{"id": "p1", "solution": "S"}])
        with pytest.raises(CorpusError, match="'question'"):
            load_seed_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_text('{"id": "p1", "question": "Q", "solution": "S"}\n{broken\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_seed_corpus(path)

    def test_missing_id_gets_content_hash(self, tmp_path):
        path = write_lines(tmp_path / "seeds.jsonl", [
            {"question": "Q1?", "solution": "S1"},
        ])
        seeds = load_seed_corpus(path)
        assert seeds[0].id.startswith("seed-")
        # Same content, same id across loads.
        assert load_seed_corpus(path)[0].id == seeds[0].id

    def test_empty_solution_allowed(self, tmp_path):
        path = write_lines(tmp_path / "seeds.jsonl", [
            {"id": "p1", "question": "Q1?", "solution": ""},
        ])
        assert load_seed_corpus(path)[0].solution == ""

    def test_empty_question_rejected(self, tmp_path):
        path = write_lines(tmp_path / "seeds.jsonl", [
            {"id": "p1", "question": "  ", "solution": "S"},
        ])
        with pytest.raises(CorpusError, match="question"):
            load_seed_corpus(path)

    def test_too_many_concept_ids_rejected(self, tmp_path):
        path = write_lines(tmp_path / "seeds.jsonl", [
            {"id": "p1", "question": "Q", "solution": "S",
             "concept_ids": [f"c{i}" for i in range(6)]},
        ])
        with pytest.raises(CorpusError):
            load_seed_corpus(path)


def record(fingerprint: str) -> dict:
    return {"fingerprint": fingerprint, "inputs": {"seed_corpus": "ab"}, "outputs": None}


class TestCheckpoints:
    def test_write_then_read_round_trip(self, tmp_path):
        path = tmp_path / "ck" / "stage-x.json"
        write_checkpoint(record("fp1"), path)
        assert read_checkpoint(path) == record("fp1")

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"fingerprint": "fp"}', "\xff"])
    def test_unreadable_record_names_the_file(self, tmp_path, text):
        path = tmp_path / "stage.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(CheckpointError, match="stage.json"):
            read_checkpoint(path)

    def test_atomic_write_preserves_old_on_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "cp.json"
        write_checkpoint(record("fp"), path)

        import graphsynth._util as util

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(util.os, "replace", boom)
        with pytest.raises(OSError):
            write_checkpoint(record("fp-new"), path)
        monkeypatch.undo()
        # Old record intact, no temp leftovers visible through the API.
        assert read_checkpoint(path)["fingerprint"] == "fp"

    def test_no_partial_file_visible(self, tmp_path):
        # Concurrent readers only ever see complete JSON documents.
        path = tmp_path / "cp.json"
        write_checkpoint(record("fp"), path)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                rec = read_checkpoint(path)
                if rec is not None and not rec["fingerprint"].startswith("fp"):
                    errors.append("bad read")

        thread = threading.Thread(target=reader)
        thread.start()
        for i in range(50):
            write_checkpoint(record("fp" + "x" * i), path)
        stop.set()
        thread.join()
        assert not errors


def cache_lines(*ids: str) -> list[bytes]:
    """One results-cache line per id; id ``n``'s record used n + 1 calls."""
    return [encode_cache_line(wid, {"v": wid, "usage": {"calls": n + 1}})
            for n, wid in enumerate(ids)]


class DrawnWork:
    """(id, payload) work items that record which ids were drawn."""

    def __init__(self, *ids: str):
        self.ids = ids
        self.drawn: list[str] = []

    def __iter__(self):
        for wid in self.ids:
            self.drawn.append(wid)
            yield wid, f"payload-{wid}"


class TestSelectResumableWork:
    """The results cache is a prefix of the work: the match keeps leading
    lines while each id equals the next work item's, and stops at the
    first line that does not."""

    def match(self, path, work):
        """(count, size, calls, ids drawn by the match, ids left to run)."""
        count, size, usage, rest = select_resumable_work(path, work)
        drawn = list(work.drawn)
        return count, size, usage["calls"], drawn, [wid for wid, _ in rest]

    def write(self, path, *lines):
        path.write_bytes(b"".join(lines))
        return path

    def test_all_done_returns_empty(self, tmp_path):
        # The whole cache matches, and no work is drawn past it.
        path = self.write(tmp_path / "c.jsonl", *cache_lines("a", "b", "c"))
        assert self.match(path, DrawnWork("a", "b", "c")) == (
            3, path.stat().st_size, 1 + 2 + 3, ["a", "b", "c"], [])

    def test_order_is_deterministic(self, tmp_path):
        # Work longer than the cache: the rest follows in work order.
        z, m = cache_lines("z", "m")
        path = self.write(tmp_path / "c.jsonl", z, m)
        count, size, usage, rest = select_resumable_work(path, DrawnWork("z", "m", "a", "q"))
        assert (count, size, usage["calls"]) == (2, len(z + m), 3)
        assert list(rest) == [("a", "payload-a"), ("q", "payload-q")]

    def test_ids_are_drawn_only_as_consumed(self, tmp_path):
        path = self.write(tmp_path / "c.jsonl", *cache_lines("a", "x"))
        work = DrawnWork("a", "b", "c", "d")
        rest = select_resumable_work(path, work)[3]
        assert work.drawn == ["a", "b"]
        assert next(rest)[0] == "b" and work.drawn == ["a", "b"]
        assert next(rest)[0] == "c" and work.drawn == ["a", "b", "c"]

    def test_work_shorter_than_the_cache(self, tmp_path):
        a, b, c = cache_lines("a", "b", "c")
        path = self.write(tmp_path / "c.jsonl", a, b, c)
        assert self.match(path, DrawnWork("a", "b")) == (2, len(a + b), 3, ["a", "b"], [])

    def test_torn_tail_ends_the_match(self, tmp_path, caplog):
        a, b, c = cache_lines("a", "b", "c")
        path = self.write(tmp_path / "c.jsonl", a, b, c[:-5])
        assert self.match(path, DrawnWork("a", "b", "c", "d")) == (
            2, len(a + b), 3, ["a", "b", "c"], ["c", "d"])
        assert "line 3" in caplog.text and "is torn" in caplog.text

    @pytest.mark.parametrize("bad", [
        b'{"id": "b", "result": {\n', b"\n", b"[1, 2]\n", b'{"id": "b"}\n',
        b'{"id": "b", "result": 5}\n', b'\xff{"id": "b", "result": {}}\n',
    ])
    def test_unreadable_line_ends_the_match(self, tmp_path, caplog, bad):
        a, _, c = cache_lines("a", "b", "c")
        path = self.write(tmp_path / "c.jsonl", a, bad, c)
        assert self.match(path, DrawnWork("a", "b", "c")) == (
            1, len(a), 1, ["a", "b"], ["b", "c"])
        assert "line 2" in caplog.text and "is unreadable" in caplog.text

    def test_id_mismatch_ends_the_match(self, tmp_path, caplog):
        # "c" matches its work item again at line 3, but the match has
        # stopped: every record after the mismatch runs again.
        a, x, c = cache_lines("a", "x", "c")
        path = self.write(tmp_path / "c.jsonl", a, x, c)
        assert self.match(path, DrawnWork("a", "b", "c")) == (
            1, len(a), 1, ["a", "b"], ["b", "c"])
        assert "holds id 'x', not 'b'" in caplog.text

    def test_empty_done_returns_all(self, tmp_path):
        assert self.match(tmp_path / "none.jsonl", DrawnWork("a", "b")) == (
            0, 0, 0, [], ["a", "b"])


class TestCacheReader:
    def test_reads_the_first_count_records_forward(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"".join(cache_lines("a", "b", "c")) + b'{"id": "d", "res')
        reader = CacheReader(path, 2)
        assert len(reader) == 2
        assert [rec["v"] for rec in reader] == ["a", "b"]

    def test_no_records_opens_no_file(self, tmp_path):
        reader = CacheReader(tmp_path / "none.jsonl", 0)
        assert (len(reader), list(reader)) == (0, [])


class TestStatusTransitions:
    def make_item(self, **kwargs):
        defaults = dict(
            id="item-1",
            combination={"kind": "one_hop", "concept_ids": ["a", "b"], "weight": 1},
            question="Q?",
        )
        defaults.update(kwargs)
        return SynthesizedItem(**defaults)

    def test_monotone_path(self):
        item = self.make_item()
        item.advance_status("problem_accepted")
        item.advance_status("solution_accepted")
        assert item.status == "solution_accepted"

    def test_backwards_transition_rejected(self):
        item = self.make_item()
        item.advance_status("problem_rejected")
        with pytest.raises(CorpusError):
            item.advance_status("problem_accepted")

    def test_skip_transition_rejected(self):
        item = self.make_item()
        with pytest.raises(CorpusError):
            item.advance_status("solution_accepted")

    def test_weighted_score_iff_scores(self):
        item = self.make_item(weighted_score=0.5)
        with pytest.raises(CorpusError, match="weighted_score"):
            item.validate()
        item = self.make_item(problem_scores={"j": 0.5})
        with pytest.raises(CorpusError, match="weighted_score"):
            item.validate()


# -- round-trip property tests ----------------------------------------------

ids = st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=12)
texts = st.text(min_size=1, max_size=40).filter(lambda s: s.strip())


@settings(max_examples=60, deadline=None)
@given(
    seed_id=ids,
    question=texts,
    solution=st.text(max_size=40),
    concept_ids=st.lists(ids, max_size=5, unique=True),
)
def test_seed_round_trip(seed_id, question, solution, concept_ids):
    seed = SeedExample(id=seed_id, question=question, solution=solution,
                       concept_ids=concept_ids)
    assert SeedExample.from_record(seed.to_record()) == seed


@settings(max_examples=60, deadline=None)
@given(
    concept_id=ids,
    text=texts,
    status=st.sampled_from(["raw", "rejected", "clustered"]),
    provenance=st.lists(ids, max_size=4),
)
def test_concept_round_trip(concept_id, text, status, provenance):
    concept = KeyConcept(id=concept_id, text=text, status=status, provenance=provenance)
    assert KeyConcept.from_record(concept.to_record()) == concept


@settings(max_examples=60, deadline=None)
@given(
    item_id=ids,
    question=texts,
    scores=st.dictionaries(ids, st.floats(0, 1, allow_nan=False), max_size=3),
)
def test_item_round_trip(item_id, question, scores):
    item = SynthesizedItem(
        id=item_id,
        combination={"kind": "two_hop", "concept_ids": ["x", "y"], "weight": 2},
        question=question,
        problem_scores=scores,
        weighted_score=(sum(scores.values()) / len(scores)) if scores else None,
    )
    assert SynthesizedItem.from_record(item.to_record()) == item


class TestAtomicWriteDurability:
    def test_directory_synced_after_the_rename(self, tmp_path, monkeypatch):
        import os
        import stat

        import graphsynth._util as util

        path = tmp_path / "out.json"
        path.write_text("old", encoding="utf-8")
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino,
                           path.read_text(encoding="utf-8")))
            real_fsync(fd)

        monkeypatch.setattr(util.os, "fsync", recording_fsync)
        util.write_atomic(path, "new")
        # The temp file first, with the target still old; then the
        # directory, once the target holds the new bytes.
        assert [entry[0] for entry in synced] == [False, True]
        assert synced[0][2] == "old"
        assert synced[1][1:] == (tmp_path.stat().st_ino, "new")


    def test_streamed_write_that_raises_keeps_the_old_file(self, tmp_path):
        from graphsynth._util import canonical_json, write_jsonl_atomic

        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"old":1}\n')
        temp_sizes = []

        def records(fail_at):
            for i in range(3000):
                if i == fail_at:
                    # Earlier records already sit in the temp file, not in memory.
                    temp_sizes.extend(p.stat().st_size for p in tmp_path.glob("out.jsonl.*.tmp"))
                    raise RuntimeError("source failed")
                yield {"i": i, "pad": "x" * 60}

        with pytest.raises(RuntimeError, match="source failed"):
            write_jsonl_atomic(path, records(fail_at=2500))
        assert len(temp_sizes) == 1 and temp_sizes[0] > 0
        assert path.read_bytes() == b'{"old":1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

        write_jsonl_atomic(path, records(fail_at=None))
        assert path.read_text(encoding="utf-8") == "".join(
            canonical_json({"i": i, "pad": "x" * 60}) + "\n" for i in range(3000))
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


class TestCanonicalJson:
    def test_prebuilt_encoder_matches_json_dumps_on_random_records(self):
        import math
        import random

        from graphsynth._util import canonical_json

        rng = random.Random(19)
        alphabet = "az09 \"\\/\n\t\x00\x7fé中\u2028\U0001f600\ud800"

        def text():
            return "".join(rng.choices(alphabet, k=rng.randint(0, 12)))

        def scalar():
            return rng.choice([
                None, True, False, rng.randint(-10**20, 10**20), rng.uniform(-1e6, 1e6),
                rng.random() * 10.0 ** rng.randint(-320, 300), -0.0, math.inf, text(),
            ])

        def value(depth):
            kind = rng.random() if depth < 4 else 0.0
            if kind < 0.5:
                return scalar()
            if kind < 0.75:
                return [value(depth + 1) for _ in range(rng.randint(0, 4))]
            return {text(): value(depth + 1) for _ in range(rng.randint(0, 4))}

        for _ in range(5000):
            record = {text(): value(1) for _ in range(rng.randint(0, 5))}
            assert canonical_json(record) == json.dumps(
                record, sort_keys=True, ensure_ascii=True, separators=(",", ":"))


class TestIterJsonl:
    def test_lazy_reader_yields_line_numbers_and_objects(self, tmp_path):
        from graphsynth._util import iter_jsonl

        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert list(iter_jsonl(path)) == [(1, {"a": 1}), (3, {"a": 2})]

    def test_lazy_reader_raises_the_same_errors(self, tmp_path):
        from graphsynth._util import iter_jsonl

        with pytest.raises(CorpusError, match="does not exist"):
            next(iter_jsonl(tmp_path / "missing.jsonl"))
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a": 1}\n{oops\n', encoding="utf-8")
        records = iter_jsonl(path)
        assert next(records) == (1, {"a": 1})
        with pytest.raises(CorpusError, match="line 2") as info:
            next(records)
        assert info.value.line == 2
