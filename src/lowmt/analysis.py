"""Skip-gram word embeddings, similarity queries and 2-D projection.

Embeddings are trained with negative sampling (unigram^0.75 noise) in a
single thread so that a fixed seed gives a bitwise-identical vector table.
Each center word takes one update, as in word2vec.c. lowmt 0.8.0 updated once
per (center, context) pair: for one seed its vectors differ, but its files load.
The 2-D projection uses PCA on the selected word subset.
"""

from collections import Counter
from dataclasses import dataclass, field

from .corpus import top_words
from .util import at_least, check_record, lazy_module, load_arrays, save_arrays

np = lazy_module("numpy")

MAGIC = b"LMTE"
FORMAT_VERSION = 2
LEARNING_RATE = 0.025   # initial SGNS step, decayed linearly to 1e-4 of it


class AnalysisError(ValueError):
    pass


# Embedding format 2 (util.save_arrays): a header of EmbeddingModel's keys but
# vectors. train_embeddings checks its settings against the same table.
HEADER_FIELDS = {"dim": at_least(2), "window": at_least(1), "negatives": at_least(1),
                 "epochs": at_least(1), "min_count": at_least(0), "seed": at_least(0),
                 "words": (True, lambda v: type(v) is list and all(type(w) is str for w in v)
                           and len(set(v)) == len(v), "a list of distinct strings")}


@dataclass
class EmbeddingModel:
    words: list
    vectors: "np.ndarray"        # |V| x d, float64
    dim: int
    window: int
    negatives: int
    epochs: int
    min_count: int
    seed: int
    index: dict = field(init=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}

    def __contains__(self, word):
        return word in self.index

    def vector(self, word):
        if word not in self.index:
            raise AnalysisError(f"word {word!r} not in vocabulary")
        return self.vectors[self.index[word]]


def vocabulary(sentences, min_count=1):
    """word -> count of each word seen at least min_count times in the
    tokenized sentences, most frequent first: the embedding vocabulary."""
    counts = Counter(tok for sent in sentences for tok in sent)
    kept = {w: c for w, c in counts.items() if c >= min_count}
    if not kept:
        raise AnalysisError("effective vocabulary is empty (min_count too high?)")
    return dict(top_words(kept, len(kept)))


def train_embeddings(sentences, dim=100, window=5, negatives=5, epochs=5,
                     min_count=1, seed=0):
    """Skip-gram with negative sampling over tokenized sentences."""
    settings = {"dim": dim, "window": window, "negatives": negatives, "epochs": epochs,
                "min_count": min_count, "seed": seed}
    check_record(settings, {key: HEADER_FIELDS[key] for key in settings},
                 "embedding settings", AnalysisError)
    if not sentences:
        raise AnalysisError("no training sentences")

    counts = vocabulary(sentences, min_count)
    vocab = list(counts)
    index = {w: i for i, w in enumerate(vocab)}

    rng = np.random.default_rng(seed)
    n = len(vocab)
    W = (rng.random((n, dim)) - 0.5) / dim       # input vectors
    C = np.zeros((n, dim))                       # context vectors

    noise = np.array(list(counts.values()), dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    encoded = [[index[t] for t in sent if t in index] for sent in sentences]
    encoded = [s for s in encoded if s]
    total_centers = sum(len(s) for s in encoded) * epochs
    seen = 0
    min_lr = LEARNING_RATE * 1e-4

    for _ in range(epochs):
        for sent in encoded:
            for pos, center in enumerate(sent):
                alpha = max(min_lr, LEARNING_RATE * (1.0 - seen / total_centers))
                seen += 1
                ctx = sent[max(0, pos - window):pos] + sent[pos + 1:pos + window + 1]
                if not ctx:
                    continue
                # One update per center: every context word and its negatives
                # are scored against h and C as they stand before it.
                draws = np.minimum(np.searchsorted(
                    noise_cdf, rng.random(len(ctx) * negatives)), n - 1)
                targets = np.concatenate((ctx, draws[draws != center]))
                labels = np.zeros(len(targets))
                labels[:len(ctx)] = 1.0
                h = W[center]
                rows = C[targets]
                g = alpha * (labels - 1.0 / (1.0 + np.exp(-(rows @ h))))
                # add.at, so that a target that repeats gets each of its updates.
                np.add.at(C, targets, np.outer(g, h))
                W[center] = h + g @ rows

    if not np.all(np.isfinite(W)):
        raise AnalysisError("non-finite embedding values after training")
    return EmbeddingModel(words=vocab, vectors=W, dim=dim, window=window,
                          negatives=negatives, epochs=epochs,
                          min_count=min_count, seed=seed)


def _unit_rows(vectors):
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return vectors / norms


def _ranked_by_cosine(model, target, exclude):
    unit = _unit_rows(model.vectors)
    tn = np.linalg.norm(target)
    sims = unit @ (target / tn if tn else target)
    ranked = [(model.words[i], float(sims[i])) for i in range(len(model.words))
              if model.words[i] not in exclude]
    ranked.sort(key=lambda ws: (-ws[1], ws[0]))
    return ranked


def most_similar(model, word, k=10):
    """Top-k vocabulary words by cosine similarity, excluding the query."""
    if k < 1:
        raise AnalysisError(f"k must be >= 1, got {k}")
    return _ranked_by_cosine(model, model.vector(word), {word})[:k]


def project_2d(model, word, k=10):
    """PCA projection of the query word, its k nearest and k farthest neighbors."""
    ranked = _ranked_by_cosine(model, model.vector(word), {word})
    if len(ranked) < 2 * k:
        raise AnalysisError(f"vocabulary too small for {k} similar + {k} dissimilar words")
    similar = [w for w, _ in ranked[:k]]
    # Not ranked[-k:], which at k=0 is all of it.
    dissimilar = [w for w, _ in ranked[len(ranked) - k:]]

    selected = [(word, "source")]
    selected += [(w, "similar") for w in similar]
    selected += [(w, "dissimilar") for w in dissimilar]

    X = np.stack([model.vector(w) for w, _ in selected])
    Xc = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(Xc, full_matrices=False)
    coords = Xc @ vt[:2].T
    return [(w, float(x), float(y), cls)
            for (w, cls), (x, y) in zip(selected, coords)]


def save_embeddings(model, path):
    save_arrays(path, MAGIC, FORMAT_VERSION,
                {key: getattr(model, key) for key in HEADER_FIELDS}, [model.vectors])


def _vector_shapes(header):
    unknown = sorted(header.keys() - HEADER_FIELDS.keys())
    if unknown:  # as EmbeddingModel(**header) would refuse it
        raise TypeError(f"unexpected key {unknown[0]!r}")
    return {"vectors": (len(header["words"]), header["dim"])}


def load_embeddings(path):
    """Read a save_embeddings file; a malformed one raises AnalysisError naming it."""
    header, arrays = load_arrays(path, MAGIC, FORMAT_VERSION, HEADER_FIELDS,
                                 _vector_shapes, AnalysisError, "embedding")
    return EmbeddingModel(vectors=arrays["vectors"], **header)
