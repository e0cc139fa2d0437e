"""Training-set augmentation: EDA operations and embedding-based replacement.

Only one-to-one train pairs are augmented; variable-length units and the
test/validation partitions pass through untouched. Each pair gets its own
RNG stream derived from (policy.seed, pair index, variant) so results do not
depend on iteration order.
"""

import random
from dataclasses import dataclass, replace

from .corpus import SIDES
from .util import derive_seed, lazy_module, read_lines

# cli reads EDA_OPS and ALL_OPS in every stage; these run their imports only
# in a stage that augments (analysis: only for embed_replace).
aligner = lazy_module("lowmt.aligner")
analysis = lazy_module("lowmt.analysis")

EDA_OPS = ("synonym_replace", "random_delete", "random_swap", "synonym_insert")
ALL_OPS = EDA_OPS + ("embed_replace",)
EMBED_CANDIDATES = 5   # nearest neighbors embed_replace draws from


class AugmentError(ValueError):
    pass


@dataclass
class AugmentPolicy:
    ops: tuple = EDA_OPS
    alpha: float = 0.1
    n_aug: int = 1
    max_pairs: int = None   # optional cap on how many pairs are augmented
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 0.5):
            raise AugmentError(f"alpha must be in (0, 0.5], got {self.alpha}")
        if self.n_aug < 1:
            raise AugmentError(f"n_aug must be >= 1, got {self.n_aug}")
        if self.max_pairs is not None and self.max_pairs < 0:
            raise AugmentError(f"max_pairs must be >= 0, got {self.max_pairs}")
        if not self.ops:
            raise AugmentError("augmentation ops must not be empty")
        unknown = [op for op in self.ops if op not in ALL_OPS]
        if unknown:
            raise AugmentError(f"unknown augmentation ops {unknown}")


def load_lexicon(path):
    """Flat synonym file: word TAB comma-separated synonyms."""
    lexicon = {}
    for lineno, line in read_lines(path):
        if not line or line.startswith("#"):
            continue
        try:
            word, syns = line.split("\t")
        except ValueError:
            raise AugmentError(f"{path}: bad lexicon line {lineno}") from None
        synonyms = [s.strip() for s in syns.split(",") if s.strip() and s.strip() != word]
        if synonyms:
            lexicon[word] = synonyms
    return lexicon


def synonym_replace(tokens, lexicon, n, rng):
    """Replace up to n random lexicon-covered words with a random synonym."""
    if n <= 0:
        return list(tokens)
    out = list(tokens)
    eligible = [i for i, t in enumerate(out) if lexicon.get(t)]
    for i in rng.sample(eligible, min(n, len(eligible))):
        out[i] = rng.choice(lexicon[out[i]])
    return out


def random_delete(tokens, n, rng):
    """Delete n random tokens but never go below one token."""
    out = list(tokens)
    if n <= 0 or len(out) <= 1:
        return out
    n_del = min(n, len(out) - 1)
    for i in sorted(rng.sample(range(len(out)), n_del), reverse=True):
        del out[i]
    return out


def random_swap(tokens, n, rng):
    """Apply n independent position-pair swaps."""
    out = list(tokens)
    if len(out) < 2:
        return out
    for _ in range(max(0, n)):
        i = rng.randrange(len(out))
        j = rng.randrange(len(out))
        out[i], out[j] = out[j], out[i]
    return out


def synonym_insert(tokens, lexicon, n, rng):
    """Insert synonyms of up to n randomly chosen input words at random positions."""
    out = list(tokens)
    for _ in range(max(0, n)):
        eligible = [t for t in tokens if lexicon.get(t)]
        if not eligible:
            break
        syn = rng.choice(lexicon[rng.choice(eligible)])
        out.insert(rng.randrange(len(out) + 1), syn)
    return out


def embed_replace(tokens, model, mask_prob, k_candidates, rng):
    """Independently replace in-vocab tokens by one of their nearest neighbors."""
    if not (0.0 <= mask_prob <= 1.0):
        raise AugmentError(f"mask_prob must be in [0, 1], got {mask_prob}")
    out = []
    for tok in tokens:
        if tok in model and rng.random() < mask_prob:
            neighbors = analysis.most_similar(model, tok, k_candidates)
            out.append(rng.choice(neighbors)[0] if neighbors else tok)
        else:
            out.append(tok)
    return out


def _augment_tokens(tokens, policy, lexicon, model, rng):
    n = max(1, round(policy.alpha * len(tokens)))
    out = list(tokens)
    for op in policy.ops:
        if op == "synonym_replace":
            out = synonym_replace(out, lexicon, n, rng)
        elif op == "random_swap":
            out = random_swap(out, n, rng)
        elif op == "synonym_insert":
            out = synonym_insert(out, lexicon, n, rng)
        elif op == "random_delete":
            out = random_delete(out, n, rng)
        elif op == "embed_replace":
            out = embed_replace(out, model, policy.alpha, EMBED_CANDIDATES, rng)
    return out


def augment_training_set(split, side, policy, lexicon=None, model=None):
    """Return a new DatasetSplit with augmented variants appended to train."""
    if side not in SIDES:
        raise AugmentError(f"unknown side {side!r}")
    if not split.train:
        raise AugmentError("train partition is empty")
    needs_lexicon = {"synonym_replace", "synonym_insert"} & set(policy.ops)
    if needs_lexicon and lexicon is None:
        raise AugmentError(f"ops {sorted(needs_lexicon)} require a synonym lexicon")
    if "embed_replace" in policy.ops and model is None:
        raise AugmentError("embed_replace requires an embedding model")

    candidates = [i for i, p in enumerate(split.train)
                  if p.group == aligner.GROUP_ONE2ONE]
    if policy.max_pairs is not None and policy.max_pairs < len(candidates):
        cap_rng = random.Random(derive_seed(policy.seed, "cap"))
        candidates = sorted(cap_rng.sample(candidates, policy.max_pairs))

    new_train = list(split.train)
    for idx in candidates:
        pair = split.train[idx]
        for variant in range(policy.n_aug):
            rng = random.Random(derive_seed(policy.seed, "pair", idx, variant))
            tokens = _augment_tokens(getattr(pair, side).split(), policy,
                                     lexicon or {}, model, rng)
            new_train.append(replace(pair, augmented=True, aug_ops=tuple(policy.ops),
                                     **{side: " ".join(tokens)}))
    return aligner.DatasetSplit(train=new_train, test=list(split.test),
                                validation=list(split.validation))
