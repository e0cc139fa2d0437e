"""Skip-gram word embeddings, similarity queries and 2-D projection.

Embeddings are trained with negative sampling (unigram^0.75 noise) in a
single thread so that a fixed seed gives a bitwise-identical vector table.
The 2-D projection uses PCA on the selected word subset.
"""

import json
import struct
from collections import Counter
from dataclasses import dataclass, field

from .corpus import top_words
from .util import lazy_numpy, read_exact

np = lazy_numpy()

MAGIC = b"LMTE"
FORMAT_VERSION = 1
LEARNING_RATE = 0.025   # initial SGNS step, decayed linearly to 1e-4 of it


class AnalysisError(ValueError):
    pass


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
    index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {w: i for i, w in enumerate(self.words)}

    def __contains__(self, word):
        return word in self.index

    def vector(self, word):
        if word not in self.index:
            raise AnalysisError(f"word {word!r} not in vocabulary")
        return self.vectors[self.index[word]]


def train_embeddings(sentences, dim=100, window=5, negatives=5, epochs=5,
                     min_count=1, seed=0):
    """Skip-gram with negative sampling over tokenized sentences."""
    if dim < 2 or window < 1 or negatives < 1 or epochs < 1:
        raise AnalysisError("dim >= 2, window >= 1, negatives >= 1 and epochs >= 1 "
                            "required")
    if not sentences:
        raise AnalysisError("no training sentences")

    counts = Counter(tok for sent in sentences for tok in sent)
    kept = {w: c for w, c in counts.items() if c >= min_count}
    if not kept:
        raise AnalysisError("effective vocabulary is empty (min_count too high?)")
    vocab = [w for w, _ in top_words(kept, len(kept))]
    index = {w: i for i, w in enumerate(vocab)}

    rng = np.random.default_rng(seed)
    n = len(vocab)
    W = (rng.random((n, dim)) - 0.5) / dim       # input vectors
    C = np.zeros((n, dim))                       # context vectors

    noise = np.array([counts[w] for w in vocab], dtype=np.float64) ** 0.75
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
                lo = max(0, pos - window)
                hi = min(len(sent), pos + window + 1)
                h = W[center]
                for cpos in range(lo, hi):
                    if cpos == pos:
                        continue
                    targets = [sent[cpos]]
                    labels = [1.0]
                    draws = np.minimum(np.searchsorted(noise_cdf, rng.random(negatives)),
                                       n - 1)
                    for neg in draws:
                        if neg != center:
                            targets.append(int(neg))
                            labels.append(0.0)
                    grad_h = np.zeros(dim)
                    for t, label in zip(targets, labels):
                        s = 1.0 / (1.0 + np.exp(-np.dot(h, C[t])))
                        g = alpha * (label - s)
                        grad_h += g * C[t]
                        C[t] += g * h
                    W[center] = h = h + grad_h

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


def project_2d(model, word, k_similar=10, k_dissimilar=10):
    """PCA projection of the query word, its nearest and farthest neighbors."""
    ranked = _ranked_by_cosine(model, model.vector(word), {word})
    if len(ranked) < k_similar + k_dissimilar:
        raise AnalysisError(
            f"vocabulary too small for {k_similar} similar + {k_dissimilar} dissimilar words")
    similar = [w for w, _ in ranked[:k_similar]]
    dissimilar = [w for w, _ in ranked[-k_dissimilar:]] if k_dissimilar else []

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
    config = {"dim": model.dim, "window": model.window,
              "negatives": model.negatives, "epochs": model.epochs,
              "min_count": model.min_count, "seed": model.seed}
    vocab_blob = "\n".join(model.words).encode("utf-8")
    config_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", FORMAT_VERSION, len(model.words), model.dim))
        f.write(struct.pack("<I", len(config_blob)))
        f.write(config_blob)
        f.write(struct.pack("<I", len(vocab_blob)))
        f.write(vocab_blob)
        f.write(np.ascontiguousarray(model.vectors, dtype="<f8").tobytes())


def load_embeddings(path):
    """Read a save_embeddings file; a malformed one raises AnalysisError
    naming it."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise AnalysisError(f"{path}: not an embedding file")
        version, n, dim, clen = struct.unpack(
            "<IIII", read_exact(f, 16, AnalysisError, "header"))
        if version != FORMAT_VERSION:
            raise AnalysisError(f"{path}: unsupported version {version}")
        config_blob = read_exact(f, clen, AnalysisError, "config")
        (vlen,) = struct.unpack("<I", read_exact(f, 4, AnalysisError, "vocab length"))
        words_blob = read_exact(f, vlen, AnalysisError, "vocab")
        vectors = np.frombuffer(read_exact(f, n * dim * 8, AnalysisError, "vectors"),
                                dtype="<f8").reshape(n, dim).copy()
    try:
        config = json.loads(config_blob)
        hyper = {key: config[key]
                 for key in ("window", "negatives", "epochs", "min_count", "seed")}
        words = words_blob.decode("utf-8").split("\n")
    except (ValueError, KeyError, TypeError) as e:
        raise AnalysisError(f"{path}: malformed header: {e!r}") from e
    if len(words) != n:
        raise AnalysisError(f"{path}: vocab length mismatch")
    return EmbeddingModel(words=words, vectors=vectors, dim=dim, **hyper)
