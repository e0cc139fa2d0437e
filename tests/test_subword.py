import pytest

from lowmt import subword


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
        assert loaded.target_size == vocab.target_size
        for s in CORPUS:
            assert subword.encode(loaded, s) == subword.encode(vocab, s)

    @pytest.mark.parametrize("bad", ["ab\t9", "# vocab_size", "# merge\ta",
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
