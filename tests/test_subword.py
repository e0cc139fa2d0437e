import importlib.util
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lowmt import aligner, cli, corpus, subword

ROOT = Path(__file__).resolve().parent.parent


CORPUS = [
    "re isor do ot ar sermae sirjaukeda.",
    "isor do sirjau keda ar sermae.",
    "ot ar isor do keda sirjau re.",
    "sermae sirjau keda re do ot.",
]


def train(sentences, size):
    return subword.train_tokenizer(sentences, size)


class TestTraining:
    def test_toy_merges(self):
        # alphabet {a, b, marker} + 4 specials = 7; room for 2 merges
        vocab = train(["aaab", "aaab"], 9)
        assert vocab.merges == [("a", "a"), ("aa", "a")]

    def test_vocab_size_too_small(self):
        with pytest.raises(subword.SubwordError, match="at least"):
            train(["aaab"], 6)

    def test_specials_hold_first_ids(self):
        vocab = train(CORPUS, 40)
        assert [vocab.pieces[i][0] for i in range(4)] == subword.SPECIALS
        ids = [pid for _, pid, _ in vocab.pieces]
        assert ids == list(range(len(vocab)))

    def test_no_duplicate_pieces(self):
        vocab = train(CORPUS, 60)
        pieces = [p for p, _, _ in vocab.pieces]
        assert len(pieces) == len(set(pieces))

    def test_alphabet_always_covered(self):
        vocab = train(CORPUS, 30)
        chars = {ch for s in CORPUS for w in s.split() for ch in w}
        pieces = {p for p, _, _ in vocab.pieces}
        assert chars <= pieces

    def test_determinism(self):
        a = train(CORPUS, 50)
        b = train(CORPUS, 50)
        assert a.pieces == b.pieces
        assert a.merges == b.merges

    def test_frequent_substrings_become_pieces(self):
        vocab = train(CORPUS, 80)
        pieces = {p for p, _, _ in vocab.pieces}
        assert "sirjau" in pieces or subword.MARKER + "sirjau" in pieces
        assert "keda" in pieces or subword.MARKER + "keda" in pieces


class TestEncodeDecode:
    def test_round_trip_all_training_sentences(self):
        vocab = train(CORPUS, 60)
        for s in CORPUS:
            assert subword.decode(vocab, subword.encode(vocab, s)) == s

    def test_unknown_characters_become_unk(self):
        vocab = train(CORPUS, 40)
        ids = subword.encode(vocab, "re QZ")
        assert ids.count(subword.UNK_ID) == 2

    def test_nonempty_output(self):
        vocab = train(CORPUS, 40)
        assert subword.encode(vocab, "x") != []

    def test_decode_specials_only(self):
        vocab = train(CORPUS, 40)
        assert subword.decode(vocab, [subword.SOS_ID, subword.EOS_ID]) == ""

    def test_decode_out_of_range_names_id(self):
        vocab = train(CORPUS, 40)
        with pytest.raises(subword.SubwordError, match=str(len(vocab) + 5)):
            subword.decode(vocab, [len(vocab) + 5])

    def test_coverage_monotonicity(self):
        sizes = [30, 45, 70]
        vocabs = [train(CORPUS, n) for n in sizes]
        for s in CORPUS:
            lengths = [len(subword.encode(v, s)) for v in vocabs]
            assert lengths == sorted(lengths, reverse=True)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        vocab = train(CORPUS, 60)
        path = tmp_path / "vocab.tsv"
        subword.save_vocab(vocab, path)
        loaded = subword.load_vocab(path)
        assert loaded.pieces == vocab.pieces
        assert loaded.merges == vocab.merges
        for s in CORPUS:
            assert subword.encode(loaded, s) == subword.encode(vocab, s)

    def test_only_marker_and_merge_comments_and_old_files_load(self, tmp_path):
        """A saved vocab holds its marker, merges and pieces; the algorithm,
        vocab_size and specials lines that lowmt 0.11.0 also wrote are skipped."""
        old = ("# algorithm\tbpe\n# vocab_size\t8\n# marker\t\u2581\n"
               "# specials\t<pad> <unk> <s> </s>\n# merge\ta\tb\n"
               "<pad>\t0\t0.0\n<unk>\t1\t0.0\n<s>\t2\t0.0\n</s>\t3\t0.0\n"
               "a\t4\t2.0\nb\t5\t2.0\n\u2581\t6\t2.0\nab\t7\t1.0\n")
        vocab = train(["ab ba"], 8)
        path = tmp_path / "vocab.src.tsv"
        subword.save_vocab(vocab, path)
        assert path.read_text(encoding="utf-8") == "".join(
            line for line in old.splitlines(keepends=True)
            if not line.startswith(("# algorithm", "# vocab_size", "# specials")))
        (tmp_path / "old.tsv").write_text(old, encoding="utf-8")
        assert subword.load_vocab(tmp_path / "old.tsv") == subword.load_vocab(path) == vocab

    @pytest.mark.parametrize("edit, at, message", [
        ({"a\t4\t": "a\t5\t", "b\t5\t": "b\t4\t"}, "a\t4\t",
         "piece 'a' with id 5 is listed twice or not at position 4"),
        ({"b\t5\t": "a\t5\t"}, "b\t5\t", "piece 'a' with id 5 is listed twice"),
        ({"<pad>\t0\t": "x\t0\t"}, "<pad>\t0\t", "id 0 must be '<pad>', got 'x'"),
        ({"ab\t7\t": "ba\t7\t"}, "# merge\ta\tb",
         "merge 'a' 'b' makes 'ab', which is not a listed piece"),
    ], ids=["swapped-ids", "repeated-piece", "not-a-special", "merge-unlisted"])
    def test_piece_ids_must_be_positions(self, tmp_path, edit, at, message):
        path = tmp_path / "vocab.src.tsv"
        subword.save_vocab(train(["ab ba"], 8), path)
        text = path.read_text(encoding="utf-8")
        lineno = next(i for i, line in enumerate(text.split("\n"), start=1)
                      if line.startswith(at))
        for old, new in edit.items():
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(subword.SubwordError,
                           match=rf"vocab\.src\.tsv: line {lineno}: {message}"):
            subword.load_vocab(path)

    @pytest.mark.parametrize("bad", ["ab\t9", "# merge\ta",
                                     "ab\tnine\t1.0"])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "vocab.src.tsv"
        subword.save_vocab(train(CORPUS, 60), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(3, bad)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(subword.SubwordError,
                           match=r"vocab\.src\.tsv: malformed line 4: "):
            subword.load_vocab(path)

    @pytest.mark.parametrize("line", ["# marker\t_", "# marker\t", "# marker"])
    def test_marker_other_than_the_constant_refused(self, tmp_path, line):
        path = tmp_path / "vocab.src.tsv"
        subword.save_vocab(train(CORPUS, 60), path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# marker\t\u2581\n")
        path.write_text(text.replace("# marker\t\u2581", line), encoding="utf-8")
        with pytest.raises(subword.SubwordError,
                           match=r"vocab\.src\.tsv: line 1: .* does not set the marker"):
            subword.load_vocab(path)

    @pytest.mark.parametrize("pieces, message", [
        (["a", "\u2581", "b"], "line 1: id 0 must be '<pad>', got 'a'"),
        (["<pad>", "<unk>"], "2 pieces, fewer than the 4 specials"),
        ([], "0 pieces, fewer than the 4 specials"),
    ], ids=["no-specials", "two-specials", "empty"])
    def test_ids_0_to_3_must_be_the_specials(self, tmp_path, pieces, message):
        """A vocab without them would take its own pieces for PAD, SOS and
        EOS, and decode would drop them."""
        path = tmp_path / "vocab.src.tsv"
        path.write_text("".join(f"{p}\t{i}\t0.0\n" for i, p in enumerate(pieces)),
                        encoding="utf-8")
        with pytest.raises(subword.SubwordError, match=rf"vocab\.src\.tsv: {message}"):
            subword.load_vocab(path)


def _train_0_5_0(sentences, vocab_size):
    """lowmt 0.5.0's trainer, frozen: every merge recounts every pair of
    every word type. Returns (merges, pieces)."""
    words = Counter()
    for sent in sentences:
        words.update(sent.split())
    if not words:
        raise subword.SubwordError("no non-empty training sentences")
    marker = subword.MARKER
    alphabet = sorted({ch for w in words for ch in w} | {marker})
    minimum = len(subword.SPECIALS) + len(alphabet)
    if vocab_size < minimum:
        raise subword.SubwordError(
            f"vocab_size {vocab_size} too small: need at least {minimum} "
            f"({len(subword.SPECIALS)} specials + {len(alphabet)} alphabet characters)")
    char_freq = Counter()
    for w, c in words.items():
        char_freq[marker] += c
        for ch in w:
            char_freq[ch] += c
    sequences = {(marker,) + tuple(w): c for w, c in words.items()}
    merges, merge_scores = [], []
    n_pieces = minimum
    while n_pieces < vocab_size:
        counts = Counter()
        for symbols, weight in sequences.items():
            for pair in zip(symbols, symbols[1:]):
                counts[pair] += weight
        if not counts:
            break
        pair, freq = min(counts.items(),
                         key=lambda kv: (-kv[1], kv[0][0] + kv[0][1], kv[0]))
        merges.append(pair)
        merge_scores.append(freq)
        sequences = {subword._merge_sequence(s, pair, pair[0] + pair[1]): c
                     for s, c in sequences.items()}
        n_pieces += 1
    scored = ([(sp, 0.0) for sp in subword.SPECIALS]
              + [(ch, float(char_freq[ch])) for ch in alphabet]
              + [(left + right, float(score))
                 for (left, right), score in zip(merges, merge_scores)])
    return merges, [(piece, i, score) for i, (piece, score) in enumerate(scored)]


def _outcome(trainer, sentences, vocab_size):
    try:
        return trainer(sentences, vocab_size)
    except subword.SubwordError as e:
        return str(e)


def _incremental(sentences, vocab_size):
    vocab = subword.train_tokenizer(sentences, vocab_size)
    return vocab.merges, vocab.pieces


def _bench_train_sides():
    """The train split sentences of each side of the zipf-wide-vocab corpus
    (seed 1) and of a synthetic corpus, as the benchmark's tok-train reads them."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    corpora = {"zipf": gen.zipf_corpus(1, gen.ZIPF_UNITS, lexicon_size=20000,
                                       exponent=0.9, min_words=5, max_words=9),
               "synthetic": cli.generate_synthetic_corpus(200, seed=1)}
    sides = {}
    for name, records in corpora.items():
        units = [corpus._unit_from_record(r, name) for r in records]
        split = aligner.split_dataset(
            aligner.explode_corpus(corpus.Corpus(units=units)), seed=1)
        for side in corpus.SIDES:
            sides[f"{name}.{side}"] = [getattr(p, side) for p in split.train]
    return sides


@pytest.fixture(scope="module")
def bench_sides():
    return _bench_train_sides()


words = st.text(alphabet="aab", min_size=1, max_size=7)
sentences = st.lists(st.lists(words, max_size=5).map(" ".join), max_size=6)


class TestIncrementalMerges:
    """train_tokenizer updates pair counts merge by merge; it must learn what
    the 0.5.0 full recount learned."""

    @settings(max_examples=300, deadline=None)
    @given(sentences, st.integers(min_value=0, max_value=40))
    def test_matches_full_recount(self, sents, vocab_size):
        assert _outcome(_incremental, sents, vocab_size) == \
            _outcome(_train_0_5_0, sents, vocab_size)

    @pytest.mark.parametrize("name, vocab_size", [("zipf.src", 800), ("zipf.tgt", 300),
                                                  ("synthetic.src", 80),
                                                  ("synthetic.tgt", 5000)])
    def test_matches_full_recount_on_bench_corpora(self, bench_sides, name, vocab_size):
        assert _incremental(bench_sides[name], vocab_size) == \
            _train_0_5_0(bench_sides[name], vocab_size)

    def test_overlapping_pairs(self):
        # "aaaa" holds (a, a) three times but merges it twice.
        assert _incremental(["aaaa aaa", "aa"], 10) == _train_0_5_0(["aaaa aaa", "aa"], 10)


class TestEncodeMemo:
    def test_memoized_ids_equal_uncached(self, bench_sides):
        for name, sents in bench_sides.items():
            vocab = subword.train_tokenizer(sents, 300)
            for _ in range(2):  # the second pass reads the memo
                for sent in sents:
                    assert subword.encode(vocab, sent) == [
                        vocab.piece_to_id.get(sym, subword.UNK_ID)
                        for word in sent.split()
                        for sym in subword._encode_word(vocab, word)]
            assert vocab._word_ids

    def test_memo_is_not_part_of_equality(self):
        a, b = train(CORPUS, 40), train(CORPUS, 40)
        subword.encode(a, CORPUS[0])
        assert a == b
        assert "_word_ids" not in repr(a)
