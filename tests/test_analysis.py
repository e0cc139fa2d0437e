import json
import random
import struct

import numpy as np
import pytest

from collections import Counter

from lowmt import analysis, corpus


def cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def cluster_corpus(seed, n_sentences=200):
    rng = random.Random(seed)
    a = [f"a{i}" for i in range(5)]
    b = [f"b{i}" for i in range(5)]
    sents = [[rng.choice(a) for _ in range(5)] for _ in range(n_sentences)]
    sents += [[rng.choice(b) for _ in range(5)] for _ in range(n_sentences)]
    return sents, a, b


@pytest.fixture(scope="module")
def cluster_model():
    sents, a, b = cluster_corpus(0, 300)
    model = analysis.train_embeddings(sents, dim=16, window=5, negatives=5,
                                      epochs=3, seed=0)
    return model, a, b


class TestFrequencyReport:
    """The frequency ranking of `report` and of the embedding vocabulary:
    corpus.top_words."""

    def test_most(self):
        assert corpus.top_words(Counter(["a", "a", "b"]), 2, "most") == \
            [("a", 2), ("b", 1)]

    def test_least_lexicographic_tiebreak(self):
        assert corpus.top_words(Counter(["a", "a", "b", "c"]), 2, "least") == \
            [("b", 1), ("c", 1)]

    def test_empty_tokens(self):
        assert corpus.top_words(Counter(), 3, "most") == []

    def test_counts_sum_to_token_count(self):
        tokens = ["a", "b", "a", "c", "b", "a"]
        ranked = corpus.top_words(Counter(tokens), 100, "most")
        assert sum(c for _, c in ranked) == len(tokens)

    def test_bad_args(self):
        with pytest.raises(corpus.CorpusError, match="k must be >= 1"):
            corpus.top_words(Counter(["a"]), 0, "most")
        with pytest.raises(corpus.CorpusError, match="unknown direction"):
            corpus.top_words(Counter(["a"]), 1, "sideways")

    def test_embedding_vocabulary_follows_the_ranking(self):
        sents = [["c", "b", "a", "b"], ["a", "d", "b"]]
        model = analysis.train_embeddings(sents, dim=2, epochs=1, min_count=2)
        assert model.words == [w for w, c in corpus.top_words(Counter(
            w for s in sents for w in s), 4) if c >= 2]


class TestTrainEmbeddings:
    def test_determinism(self):
        sents, _, _ = cluster_corpus(1, 50)
        a = analysis.train_embeddings(sents, dim=8, epochs=1, seed=5)
        b = analysis.train_embeddings(sents, dim=8, epochs=1, seed=5)
        assert np.array_equal(a.vectors, b.vectors)

    def test_different_seeds_differ(self):
        sents, _, _ = cluster_corpus(1, 50)
        a = analysis.train_embeddings(sents, dim=8, epochs=1, seed=1)
        b = analysis.train_embeddings(sents, dim=8, epochs=1, seed=2)
        assert not np.array_equal(a.vectors, b.vectors)

    def test_self_cosine_is_one(self, cluster_model):
        model, a, b = cluster_model
        unit = analysis._unit_rows(model.vectors)
        for w in a + b:
            row = unit[model.index[w]]
            assert abs(row @ row - 1.0) < 1e-12

    def test_min_count_filters(self):
        sents = [["common", "common", "rare"], ["common", "common"]]
        model = analysis.train_embeddings(sents, dim=4, epochs=1, min_count=2, seed=0)
        assert "rare" not in model
        assert "common" in model

    def test_cluster_separation(self, cluster_model):
        model, a, b = cluster_model
        intra = np.mean([cosine(model.vector(x), model.vector(y))
                         for x in a for y in a if x < y])
        inter = np.mean([cosine(model.vector(x), model.vector(y))
                         for x in a for y in b])
        assert intra - inter > 0.2

    def test_empty_vocab_error(self):
        with pytest.raises(analysis.AnalysisError):
            analysis.train_embeddings([["a"]], dim=4, min_count=99, seed=0)

    def test_finite_vectors(self, cluster_model):
        model, _, _ = cluster_model
        assert np.all(np.isfinite(model.vectors))


class TestQueries:
    def test_most_similar_excludes_query(self, cluster_model):
        model, a, _ = cluster_model
        results = analysis.most_similar(model, a[0], 5)
        assert all(w != a[0] for w, _ in results)

    def test_most_similar_sorted_and_bounded(self, cluster_model):
        model, a, _ = cluster_model
        results = analysis.most_similar(model, a[0], 9)
        sims = [s for _, s in results]
        assert sims == sorted(sims, reverse=True)
        assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for s in sims)

    def test_oov_raises_naming_word(self, cluster_model):
        model, _, _ = cluster_model
        with pytest.raises(analysis.AnalysisError, match="zzz"):
            analysis.most_similar(model, "zzz", 3)


class TestProject2d:
    def test_row_count_and_classes(self, cluster_model):
        model, a, _ = cluster_model
        rows = analysis.project_2d(model, a[0], 3, 3)
        assert len(rows) == 7
        classes = [cls for _, _, _, cls in rows]
        assert classes.count("source") == 1
        assert classes.count("similar") == 3
        assert classes.count("dissimilar") == 3

    def test_planar_vectors_projected_losslessly(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(8, 2))
        basis = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        vecs = coords @ basis.T
        words = [f"w{i}" for i in range(8)]
        model = analysis.EmbeddingModel(words=words, vectors=vecs, dim=6,
                                        window=1, negatives=1, epochs=0,
                                        min_count=1, seed=0)
        rows = analysis.project_2d(model, "w0", 3, 3)
        projected = {w: np.array([x, y]) for w, x, y, _ in rows}
        for wi in projected:
            for wj in projected:
                orig = np.linalg.norm(model.vector(wi) - model.vector(wj))
                proj = np.linalg.norm(projected[wi] - projected[wj])
                assert abs(orig - proj) < 1e-9

    def test_vocab_too_small(self, cluster_model):
        model, _, _ = cluster_model
        with pytest.raises(analysis.AnalysisError):
            analysis.project_2d(model, model.words[0], 50, 50)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, cluster_model):
        model, a, _ = cluster_model
        path = tmp_path / "emb.bin"
        analysis.save_embeddings(model, path)
        loaded = analysis.load_embeddings(path)
        assert loaded.words == model.words
        assert np.array_equal(loaded.vectors, model.vectors)
        assert analysis.most_similar(loaded, a[0], 5) == \
            analysis.most_similar(model, a[0], 5)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"nope" * 10)
        with pytest.raises(analysis.AnalysisError):
            analysis.load_embeddings(path)

    @pytest.mark.parametrize("cut, what", [(10, "header"), (-8, "vectors")])
    def test_truncated_file_names_it(self, tmp_path, cluster_model, cut, what):
        path = tmp_path / "emb.bin"
        analysis.save_embeddings(cluster_model[0], path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(analysis.AnalysisError,
                           match=f"emb.bin: truncated at {what}"):
            analysis.load_embeddings(path)

    def test_config_missing_key_names_file(self, tmp_path, cluster_model):
        path = tmp_path / "emb.bin"
        analysis.save_embeddings(cluster_model[0], path)
        blob = path.read_bytes()
        (clen,) = struct.unpack("<I", blob[16:20])
        config = json.loads(blob[20:20 + clen])
        del config["window"]
        new = json.dumps(config).encode("utf-8")
        path.write_bytes(blob[:16] + struct.pack("<I", len(new)) + new
                         + blob[20 + clen:])
        with pytest.raises(analysis.AnalysisError,
                           match="emb.bin: malformed header: KeyError"):
            analysis.load_embeddings(path)
