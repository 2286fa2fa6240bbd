from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth.errors import CheckpointError, CorpusError
from graphsynth.store import (
    KeyConcept,
    SeedExample,
    StageCheckpoint,
    SynthesizedItem,
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


class TestCheckpoints:
    def test_write_then_read_round_trip(self, tmp_path):
        cp = StageCheckpoint("stage-x", "fp1")
        path = tmp_path / "ck" / "stage-x.json"
        write_checkpoint(cp, path)
        loaded = read_checkpoint(path)
        assert loaded.stage_name == "stage-x"
        assert loaded.config_fingerprint == "fp1"

    def test_atomic_write_preserves_old_on_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "cp.json"
        write_checkpoint(StageCheckpoint("s", "fp"), path)

        import graphsynth._util as util

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(util.os, "replace", boom)
        with pytest.raises(OSError):
            write_checkpoint(StageCheckpoint("s", "fp-new"), path)
        monkeypatch.undo()
        # Old checkpoint intact, no temp leftovers visible through the API.
        assert read_checkpoint(path).config_fingerprint == "fp"

    def test_no_partial_file_visible(self, tmp_path):
        # Concurrent readers only ever see complete JSON documents.
        path = tmp_path / "cp.json"
        write_checkpoint(StageCheckpoint("s", "fp"), path)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                cp = read_checkpoint(path)
                if cp is not None and cp.stage_name != "s":
                    errors.append("bad read")

        thread = threading.Thread(target=reader)
        thread.start()
        for i in range(50):
            write_checkpoint(StageCheckpoint("s", "fp" + "x" * i), path)
        stop.set()
        thread.join()
        assert not errors

    def test_resume_with_changed_fingerprint_refused(self, tmp_path):
        cp = StageCheckpoint("s", "old-fp")
        with pytest.raises(CheckpointError, match="restart"):
            select_resumable_work(["a", "b"], cp, "new-fp", {"a"})


class TestSelectResumableWork:
    def test_set_difference(self):
        cp = StageCheckpoint("s", "fp")
        assert select_resumable_work(["a", "b", "c"], cp, "fp", {"b"}) == ["a", "c"]

    def test_empty_done_returns_all(self):
        cp = StageCheckpoint("s", "fp")
        assert select_resumable_work(["a", "b"], cp, "fp", set()) == ["a", "b"]
        assert select_resumable_work(["a", "b"], None, "anything", set()) == ["a", "b"]

    def test_all_done_returns_empty(self):
        cp = StageCheckpoint("s", "fp")
        assert select_resumable_work(["a", "b"], cp, "fp", {"a", "b"}) == []

    def test_order_is_deterministic(self):
        cp = StageCheckpoint("s", "fp")
        ids = ["z", "m", "a", "q"]
        assert select_resumable_work(ids, cp, "fp", {"m"}) == ["z", "a", "q"]


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


@settings(max_examples=60, deadline=None)
@given(stage=ids, fp=ids)
def test_checkpoint_round_trip(stage, fp):
    cp = StageCheckpoint(stage_name=stage, config_fingerprint=fp)
    assert StageCheckpoint.from_record(cp.to_record()) == cp


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


class TestIterJsonl:
    def test_lazy_reader_yields_what_read_jsonl_returns(self, tmp_path):
        from graphsynth._util import iter_jsonl, read_jsonl

        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert list(iter_jsonl(path)) == read_jsonl(path) == [(1, {"a": 1}), (3, {"a": 2})]

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
