import json
import re

import pytest
from hypothesis import given, strategies as st

from lowmt import corpus

COUNT = "a non-negative integer or a string of decimal digits"


def make_corpus(texts):
    units = [corpus.ParallelUnit(id=f"u{i}", book="B", chapter=1, verse=i,
                                 src=s, tgt=t)
             for i, (s, t) in enumerate(texts)]
    return corpus.Corpus(units=units)


class TestNormalizeText:
    def test_punctuation_to_spaces_keeps_terminals(self):
        raw = '  God   said,  "Let there be lights."  '
        assert corpus.normalize_text(raw) == "God said Let there be lights."

    def test_identity_on_clean_text(self):
        assert corpus.normalize_text("sirjaukeda") == "sirjaukeda"

    def test_diacritics_preserved(self):
        assert corpus.normalize_text("nindā khon siñe") == "nindā khon siñe"

    def test_non_string_rejected(self):
        with pytest.raises(corpus.CorpusError):
            corpus.normalize_text(42)

    def test_invalid_unicode_rejected(self):
        with pytest.raises(corpus.CorpusError):
            corpus.normalize_text("bad \ud800 surrogate")

    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        try:
            once = corpus.normalize_text(raw)
        except corpus.CorpusError:
            return
        assert corpus.normalize_text(once) == once


class TestLoadCorpus:
    def write_jsonl(self, path, records):
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                        encoding="utf-8")

    def test_two_line_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write_jsonl(path, [
            {"id": "u1", "src": "a b.", "tgt": "x y."},
            {"id": "u2", "src": "c d.", "tgt": "z w."},
        ])
        corp = corpus.load_corpus(path)
        assert [u.id for u in corp.units] == ["u1", "u2"]

    def test_empty_tgt_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write_jsonl(path, [
            {"id": "u1", "src": "a.", "tgt": "x."},
            {"id": "u2", "src": "b.", "tgt": ""},
        ])
        with pytest.raises(corpus.CorpusError, match="line 2"):
            corpus.load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "u1", "src": "a.", "tgt": "x."}\nnot json\n',
                        encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="line 2"):
            corpus.load_corpus(path)

    @pytest.mark.parametrize("record, message", [
        ({"id": "u1", "src": "a."}, "line 1: record lacks tgt"),
        ({"id": "u1", "src": "a.", "tgt": "x.", "chapter": "one"},
         f"line 1: record key 'chapter' must be {COUNT}, got 'one'"),
        (["u1", "a.", "x."], "line 1: expected a JSON object"),
    ], ids=["missing-tgt", "bad-chapter", "not-an-object"])
    def test_bad_record_names_file_and_line(self, tmp_path, record, message):
        path = tmp_path / "c.jsonl"
        self.write_jsonl(path, [record])
        with pytest.raises(corpus.CorpusError, match=re.escape(f"{path}: {message}")):
            corpus.load_corpus(path)

    @pytest.mark.parametrize("key, value, kind", [
        ("src", None, "a string"), ("tgt", ["x", "y"], "a string"),
        ("src", 12, "a string"), ("book", 3, "a string"),
        ("id", None, "a string or an integer"), ("id", True, "a string or an integer"),
        ("chapter", 1.7, COUNT), ("verse", True, COUNT), ("chapter", None, COUNT),
        ("verse", "x", COUNT), ("chapter", -1, COUNT),
    ], ids=["null-src", "list-tgt", "int-src", "int-book", "null-id", "bool-id",
            "float-chapter", "bool-verse", "null-chapter", "text-verse",
            "negative-chapter"])
    def test_non_text_value_names_file_line_and_key(self, tmp_path, key, value, kind):
        path = tmp_path / "c.jsonl"
        record = {"id": "u1", "src": "a.", "tgt": "x.", key: value}
        self.write_jsonl(path, [{"id": "u0", "src": "b.", "tgt": "y."}, record])
        with pytest.raises(corpus.CorpusError, match=re.escape(
                f"{path}: line 2: record key {key!r} must be {kind}, got {value!r}")):
            corpus.load_corpus(path)

    def test_digit_string_count_is_an_integer(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write_jsonl(path, [{"id": "u1", "chapter": "3", "verse": 4,
                                 "src": "a.", "tgt": "x."}])
        unit = corpus.load_corpus(path).units[0]
        assert (unit.chapter, unit.verse) == (3, 4)

    def test_tsv_count_cell_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("\t".join(corpus.TSV_COLUMNS) + "\n"
                        "u0\tB\t1\t1\tb.\ty.\n"
                        "u1\tB\t1.5\t2\ta.\tx.\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match=re.escape(
                f"{path}: line 3: record key 'chapter' must be {COUNT}, got '1.5'")):
            corpus.load_corpus(path, "tsv")

    def test_integer_id_is_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write_jsonl(path, [{"id": 7, "book": "B", "src": "a.", "tgt": "x."}])
        assert corpus.load_corpus(path).units[0].id == "7"

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        self.write_jsonl(path, [
            {"id": "u1", "src": "a.", "tgt": "x."},
            {"id": "u1", "src": "b.", "tgt": "y."},
        ])
        with pytest.raises(corpus.CorpusError, match="u1"):
            corpus.load_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="empty"):
            corpus.load_corpus(path)

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_save_load_round_trip(self, tmp_path, fmt):
        corp = make_corpus([("a b.", "x y."), ("c ñā.", "z w.")])
        path = tmp_path / f"c.{fmt}"
        if fmt == "jsonl":
            corpus.save_corpus(corp, path)
            assert path.read_text(encoding="utf-8").splitlines()[1] == (
                '{"id": "u1", "book": "B", "chapter": 1, "verse": 1, '
                '"src": "c ñā.", "tgt": "z w."}')
        else:
            rows = [corpus.TSV_COLUMNS] + [
                [str(getattr(u, col)) for col in corpus.TSV_COLUMNS] for u in corp.units]
            path.write_text("".join("\t".join(row) + "\n" for row in rows),
                            encoding="utf-8")
        loaded = corpus.load_corpus(path, fmt)
        assert loaded.units == corp.units
        # saving what was loaded gives the bytes of saving the original
        corpus.save_corpus(corp, tmp_path / "a.jsonl")
        corpus.save_corpus(loaded, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()


class TestWords:
    def test_strips_terminal_marks(self):
        assert corpus.words("Let there be light. Amen!? ... x") == \
            ["Let", "there", "be", "light", "Amen", "x"]


class TestCorpusStats:
    def test_empty_corpus_zero_stats(self):
        stats = corpus.corpus_stats(corpus.Corpus(units=[]), "src", 5)
        assert stats.word_count == 0
        assert stats.unique_word_count == 0
        assert stats.sentence_count == 0
        assert stats.top_k == []

    def test_hand_count(self):
        corp = make_corpus([("a b a.", "x."), ("b c.", "y.")])
        stats = corpus.corpus_stats(corp, "src", 10)
        assert stats.word_count == 5
        assert stats.unique_word_count == 3
        assert stats.count_histogram == {1: 1, 2: 2}
        assert stats.top_k == [("a", 2), ("b", 2), ("c", 1)]

    def test_histogram_mass_conservation(self):
        corp = make_corpus([("a b a b c. d e a.", "x."), ("b c d.", "y.")])
        stats = corpus.corpus_stats(corp, "src", 3)
        assert sum(f * n for f, n in stats.count_histogram.items()) == stats.word_count
        assert sum(stats.count_histogram.values()) == stats.unique_word_count

    def test_sentence_count_uses_segmenter(self):
        corp = make_corpus([("One here. Two here.", "x."), ("no mark", "y.")])
        stats = corpus.corpus_stats(corp, "src", 3)
        assert stats.sentence_count == 3
