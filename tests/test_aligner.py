
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from lowmt import aligner
from lowmt.corpus import ParallelUnit

FIG_SRC = ('Isore menkeda Sermare marsalakko hoyokma. '
           'Onako do etak etak dinko eandoko ar bochorko reak cinhako tañemma.')
FIG_TGT = ('And God said Let there be lights in the expanse of the heavens '
           'to separate the day from the night. And let them be for signs '
           'and for seasons and for days and years.')


def unit(src, tgt, uid="u0"):
    return ParallelUnit(id=uid, book="B", chapter=1, verse=1, src=src, tgt=tgt)


class TestSegmentSentences:
    def test_two_sentences(self):
        assert aligner.segment_sentences("Hello. World.") == ["Hello.", "World."]

    def test_no_terminal_mark(self):
        assert aligner.segment_sentences("no terminal mark") == ["no terminal mark"]

    def test_empty_text(self):
        assert aligner.segment_sentences("") == []

    def test_verse_shaped_text_splits_after_night(self):
        sents = aligner.segment_sentences(FIG_TGT)
        assert len(sents) == 2
        assert sents[0].endswith("the night.")

    def test_closing_quote_adheres(self):
        sents = aligner.segment_sentences('He said go." Then left.')
        assert sents == ['He said go."', "Then left."]

    @given(st.lists(st.sampled_from(["Abc def.", "Gh ij!", "Kl mn?", "op qr."]),
                    min_size=1, max_size=6))
    def test_join_reproduces_input(self, parts):
        text = " ".join(parts)
        assert " ".join(aligner.segment_sentences(text)) == text


class TestClassifyAndExplode:
    def test_same_length_unit_explodes(self):
        out = aligner.classify_and_explode(unit(FIG_SRC, FIG_TGT))
        assert isinstance(out, list)
        assert len(out) == 2
        assert [p.src for p in out] == aligner.segment_sentences(FIG_SRC)
        assert {p.group for p in out} == {aligner.GROUP_ONE2ONE}

    def test_unequal_counts_preserved(self):
        out = aligner.classify_and_explode(
            unit("One. Two. Three.", "Ek. Do."))
        assert out == [aligner.TextPair("One. Two. Three.", "Ek. Do.", "u0",
                                        aligner.GROUP_VARIABLE)]

    def test_single_sentence_identity(self):
        u = unit("Only one.", "Ekta.")
        out = aligner.classify_and_explode(u)
        assert len(out) == 1
        assert out[0].src == u.src
        assert out[0].tgt == u.tgt

    def test_exploded_pair_is_fixed_point(self):
        out = aligner.classify_and_explode(unit("A b. C d.", "X y. Z w."))
        for pair in out:
            again = aligner.classify_and_explode(
                unit(pair.src, pair.tgt, uid=pair.origin_id))
            assert len(again) == 1
            assert again[0].src == pair.src


def make_pairs(n):
    return [aligner.TextPair(src=f"s{i}.", tgt=f"t{i}.", origin_id=f"o{i}",
                             group=aligner.GROUP_ONE2ONE) for i in range(n)]


def make_variables(n):
    return [aligner.TextPair(src=f"s{i}. More.", tgt=f"t{i}.", origin_id=f"v{i}",
                             group=aligner.GROUP_VARIABLE) for i in range(n)]


class TestSplitDataset:
    def test_exact_division(self):
        split = aligner.split_dataset(make_pairs(10), seed=1)
        assert (len(split.train), len(split.test), len(split.validation)) == (8, 1, 1)

    def test_full_scale_counts(self):
        split = aligner.split_dataset(make_pairs(27295) + make_variables(10950), seed=5)
        assert len(split.test) == 3824
        assert len(split.validation) == 3824
        assert len(split.train) == 30597

    def test_ratio_validation(self):
        with pytest.raises(aligner.AlignError):
            aligner.split_dataset(make_pairs(4), ratios=(0.5, 0.2, 0.2))
        with pytest.raises(aligner.AlignError):
            aligner.split_dataset(make_pairs(4), ratios=(1.2, -0.1, -0.1))
        with pytest.raises(aligner.AlignError):
            aligner.split_dataset(make_pairs(10), ratios=(float("nan"), 0.5, 0.5))

    def test_unknown_group_raises(self):
        stray = aligner.TextPair(src="x.", tgt="y.", origin_id="u", group="foo")
        with pytest.raises(aligner.AlignError, match="'foo'"):
            aligner.split_dataset(make_pairs(10) + [stray])

    def test_determinism(self):
        a = aligner.split_dataset(make_pairs(100) + make_variables(40), seed=9)
        b = aligner.split_dataset(make_pairs(100) + make_variables(40), seed=9)
        assert a.train == b.train
        assert a.test == b.test
        assert a.validation == b.validation

    def test_different_seeds_same_sizes(self):
        a = aligner.split_dataset(make_pairs(100) + make_variables(40), seed=1)
        b = aligner.split_dataset(make_pairs(100) + make_variables(40), seed=2)
        assert len(a.train) == len(b.train)
        assert len(a.test) == len(b.test)
        assert a.train != b.train

    @settings(max_examples=30)
    @given(n_pairs=st.integers(0, 60), n_vars=st.integers(0, 40),
           seed=st.integers(0, 1000))
    def test_conservation_and_disjointness(self, n_pairs, n_vars, seed):
        split = aligner.split_dataset(make_pairs(n_pairs) + make_variables(n_vars),
                                      seed=seed)
        total = len(split.train) + len(split.test) + len(split.validation)
        assert total == n_pairs + n_vars
        ids = [p.origin_id for part in (split.train, split.test, split.validation)
               for p in part]
        assert len(ids) == len(set(ids))

    def test_manifest_counts(self):
        split = aligner.split_dataset(make_pairs(20) + make_variables(10), seed=3)
        parts = (split.train, split.test, split.validation)
        assert sum(p.group == "one2one" for part in parts for p in part) == 20
        assert sum(p.group == "variable" for part in parts for p in part) == 10
        assert sum(p.group == "one2one" for p in split.test) == 2


class TestSplitPersistence:
    def test_save_load_round_trip(self, tmp_path):
        split = aligner.split_dataset(make_pairs(20) + make_variables(10), seed=3)
        aligner.save_split(split, tmp_path / "split")
        loaded = aligner.load_split(tmp_path / "split")
        assert loaded.train == split.train
        assert loaded.test == split.test
        assert loaded.validation == split.validation
        assert sorted(os.listdir(tmp_path / "split")) == sorted(aligner.SPLIT_FILES)

    @pytest.mark.parametrize("line, message", [
        ('{"tgt": "y.", "origin_id": "u", "group": "one2one"}', "record lacks src"),
        ('{"src": "x.", "tgt": "y."}', "record lacks origin_id, group"),
        ('["x.", "y."]', "expected a JSON object"),
    ], ids=["src", "origin_id-group", "list"])
    def test_record_without_keys_names_file_and_line(self, tmp_path, line, message):
        split = aligner.split_dataset(make_pairs(20) + make_variables(10), seed=3)
        aligner.save_split(split, tmp_path / "split")
        path = tmp_path / "split" / "test.jsonl"
        path.write_text("\n" + line + "\n" + path.read_text())
        with pytest.raises(aligner.AlignError,
                           match=f"test.jsonl: line 2: {message}$"):
            aligner.load_split(tmp_path / "split")

    @pytest.mark.parametrize("change, key, kind", [
        ({"src": 5}, "src", "a non-empty string, got 5"),
        ({"src": ""}, "src", "a non-empty string, got ''"),
        ({"group": "foo"}, "group", "one2one or variable, got 'foo'"),
        ({"augmented": "no"}, "augmented", "a bool, got 'no'"),
        ({"aug_ops": "abc"}, "aug_ops", "a list of strings, got 'abc'"),
        ({"origin_id": 7}, "origin_id", "a string, got 7"),
    ], ids=["int-src", "empty-src", "group", "augmented", "aug_ops", "origin_id"])
    def test_bad_record_value_names_file_line_and_key(self, tmp_path, change, key,
                                                       kind):
        split = aligner.split_dataset(make_pairs(20) + make_variables(10), seed=3)
        aligner.save_split(split, tmp_path / "split")
        path = tmp_path / "split" / "test.jsonl"
        record = {"src": "x.", "tgt": "y.", "origin_id": "u", "group": "one2one",
                  **change}
        path.write_text("\n" + json.dumps(record) + "\n" + path.read_text())
        with pytest.raises(aligner.AlignError) as info:
            aligner.load_split(tmp_path / "split")
        assert str(info.value).endswith(
            f"test.jsonl: line 2: record key {key!r} must be {kind}")
