import random
from collections import Counter

import numpy as np
import pytest

from lowmt import augment
from lowmt.aligner import DatasetSplit, TextPair
from lowmt.analysis import EmbeddingModel


def rng(seed=0):
    return random.Random(seed)


LEXICON = {"good": ["fine"], "day": ["morning", "time"]}


class TestSynonymReplace:
    def test_single_eligible_position(self):
        assert augment.synonym_replace(["good", "day"], {"good": ["fine"]}, 1,
                                       rng()) == ["fine", "day"]

    def test_n_zero_identity(self):
        assert augment.synonym_replace(["good", "day"], LEXICON, 0, rng()) == \
            ["good", "day"]

    def test_no_entries_identity(self):
        assert augment.synonym_replace(["x", "y"], LEXICON, 2, rng()) == ["x", "y"]

    def test_length_unchanged(self):
        out = augment.synonym_replace(["good", "day", "good"], LEXICON, 5, rng())
        assert len(out) == 3


class TestRandomDelete:
    def test_deletes_preserving_order(self):
        out = augment.random_delete(["a", "b", "c"], 1, rng())
        assert len(out) == 2
        it = iter(["a", "b", "c"])
        assert all(tok in it for tok in out)

    def test_never_empty(self):
        assert augment.random_delete(["a"], 3, rng()) == ["a"]
        assert len(augment.random_delete(["a", "b"], 99, rng())) == 1

    def test_n_zero_identity(self):
        assert augment.random_delete(["a", "b"], 0, rng()) == ["a", "b"]


class TestRandomSwap:
    def test_multiset_invariant(self):
        tokens = ["a", "b", "c", "d", "a"]
        out = augment.random_swap(tokens, 4, rng(3))
        assert Counter(out) == Counter(tokens)
        assert len(out) == len(tokens)

    def test_single_token_identity(self):
        assert augment.random_swap(["a"], 5, rng()) == ["a"]

    def test_two_tokens(self):
        out = augment.random_swap(["a", "b"], 1, rng(1))
        assert out in (["a", "b"], ["b", "a"])


class TestSynonymInsert:
    def test_inserts_synonym(self):
        out = augment.synonym_insert(["good", "day"], {"good": ["fine"]}, 1, rng())
        assert len(out) == 3
        assert "fine" in out

    def test_empty_lexicon_identity(self):
        assert augment.synonym_insert(["a", "b"], {}, 3, rng()) == ["a", "b"]

    def test_n_zero_identity(self):
        assert augment.synonym_insert(["good"], LEXICON, 0, rng()) == ["good"]


@pytest.fixture(scope="module")
def tiny_embeddings():
    words = ["red", "blue", "green", "dog"]
    vecs = np.array([
        [1.0, 0.1, 0.0],
        [1.0, 0.0, 0.1],
        [0.9, 0.1, 0.1],
        [0.0, 0.0, 1.0],
    ])
    return EmbeddingModel(words=words, vectors=vecs, dim=3, window=1,
                          negatives=1, epochs=0, min_count=1, seed=0)


class TestEmbedReplace:
    def test_mask_prob_zero_identity(self, tiny_embeddings):
        tokens = ["red", "blue", "dog"]
        assert augment.embed_replace(tokens, tiny_embeddings, 0.0, 2, rng()) == tokens

    def test_mask_prob_one_nearest_neighbor(self, tiny_embeddings):
        from lowmt.analysis import most_similar
        tokens = ["red", "dog"]
        out = augment.embed_replace(tokens, tiny_embeddings, 1.0, 1, rng())
        assert out[0] == most_similar(tiny_embeddings, "red", 1)[0][0]
        assert out[1] == most_similar(tiny_embeddings, "dog", 1)[0][0]

    def test_oov_passthrough(self, tiny_embeddings):
        assert augment.embed_replace(["zzz", "qqq"], tiny_embeddings, 1.0, 2,
                                     rng()) == ["zzz", "qqq"]

    def test_never_replaced_by_itself(self, tiny_embeddings):
        for seed in range(20):
            out = augment.embed_replace(["red"], tiny_embeddings, 1.0, 3, rng(seed))
            assert out[0] != "red"


def make_split(n_one2one, n_variable):
    train = [TextPair(src=f"s{i} tok tok", tgt=f"good day t{i}",
                      origin_id=f"o{i}", group="one2one")
             for i in range(n_one2one)]
    train += [TextPair(src=f"vs{i}. More.", tgt=f"vt{i}.", origin_id=f"v{i}",
                       group="variable") for i in range(n_variable)]
    test = [TextPair(src="ts.", tgt="tt.", origin_id="t0", group="one2one")]
    val = [TextPair(src="vs.", tgt="vt.", origin_id="val0", group="one2one")]
    return DatasetSplit(train=train, test=test, validation=val)


class TestAugmentTrainingSet:
    def test_accounting(self):
        split = make_split(50, 20)
        policy = augment.AugmentPolicy(seed=1)
        out = augment.augment_training_set(split, "tgt", policy, lexicon=LEXICON)
        assert len(out.train) == 70 + 50

    def test_n_aug_multiplier(self):
        split = make_split(10, 5)
        policy = augment.AugmentPolicy(n_aug=3, seed=1)
        out = augment.augment_training_set(split, "tgt", policy, lexicon=LEXICON)
        assert len(out.train) == 15 + 3 * 10

    def test_no_one2one_pairs_unchanged(self):
        split = make_split(0, 5)
        policy = augment.AugmentPolicy(seed=1)
        out = augment.augment_training_set(split, "tgt", policy, lexicon=LEXICON)
        assert out.train == split.train

    def test_test_validation_untouched(self):
        split = make_split(20, 5)
        policy = augment.AugmentPolicy(seed=2)
        out = augment.augment_training_set(split, "tgt", policy, lexicon=LEXICON)
        assert out.test == split.test
        assert out.validation == split.validation

    def test_unaugmented_side_verbatim(self):
        split = make_split(20, 0)
        policy = augment.AugmentPolicy(seed=3)
        out = augment.augment_training_set(split, "tgt", policy, lexicon=LEXICON)
        originals = {p.origin_id: p.src for p in split.train}
        for p in out.train:
            if p.augmented:
                assert p.src == originals[p.origin_id]
                assert p.group == "one2one"

    def test_determinism(self):
        split = make_split(15, 5)
        policy = augment.AugmentPolicy(seed=9)
        a = augment.augment_training_set(split, "tgt", policy, lexicon=LEXICON)
        b = augment.augment_training_set(split, "tgt", policy, lexicon=LEXICON)
        assert a.train == b.train

    def test_missing_model_error(self):
        split = make_split(5, 0)
        policy = augment.AugmentPolicy(ops=("embed_replace",), seed=0)
        with pytest.raises(augment.AugmentError, match="embedding model"):
            augment.augment_training_set(split, "tgt", policy)

    def test_missing_lexicon_error(self):
        split = make_split(5, 0)
        policy = augment.AugmentPolicy(ops=("synonym_replace",), seed=0)
        with pytest.raises(augment.AugmentError, match="lexicon"):
            augment.augment_training_set(split, "tgt", policy)

    def test_max_pairs_cap(self):
        split = make_split(30, 0)
        policy = augment.AugmentPolicy(seed=4, max_pairs=10)
        out = augment.augment_training_set(split, "tgt", policy, lexicon=LEXICON)
        assert len(out.train) == 30 + 10

    def test_empty_train_error(self):
        split = DatasetSplit(train=[], test=[], validation=[])
        with pytest.raises(augment.AugmentError):
            augment.augment_training_set(split, "tgt",
                                         augment.AugmentPolicy(seed=0),
                                         lexicon=LEXICON)


class TestPolicyValidation:
    def test_alpha_bounds(self):
        with pytest.raises(augment.AugmentError):
            augment.AugmentPolicy(alpha=0.0)
        with pytest.raises(augment.AugmentError):
            augment.AugmentPolicy(alpha=0.6)

    def test_n_aug_bounds(self):
        with pytest.raises(augment.AugmentError):
            augment.AugmentPolicy(n_aug=0)

    def test_max_pairs_bounds(self):
        with pytest.raises(augment.AugmentError, match="max_pairs must be >= 0, got -1"):
            augment.AugmentPolicy(max_pairs=-1)
        assert augment.AugmentPolicy(max_pairs=0).max_pairs == 0

    def test_empty_ops(self):
        # An empty op list would append verbatim copies marked augmented.
        with pytest.raises(augment.AugmentError,
                           match="augmentation ops must not be empty"):
            augment.AugmentPolicy(ops=())

    def test_unknown_op(self):
        for op in ("grammar_rewrite", "round_trip"):
            with pytest.raises(augment.AugmentError, match="unknown augmentation ops"):
                augment.AugmentPolicy(ops=(op,))


class TestLexiconFile:
    def test_load_and_self_synonym_dropped(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tfine, nice\nday\tday\n", encoding="utf-8")
        lex = augment.load_lexicon(path)
        assert lex == {"good": ["fine", "nice"]}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("no-tab-here\n", encoding="utf-8")
        with pytest.raises(augment.AugmentError, match="line 1"):
            augment.load_lexicon(path)
