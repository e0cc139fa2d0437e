"""Corpus-level BLEU-4: clipped n-gram precisions, brevity penalty, smoothing.

Single reference per hypothesis; tokenization happens upstream (whitespace on
normalized text). Scores are in [0, 1]; the CLI multiplies by 100 for display.

Clipping takes one pass per segment, as sacreBLEU does: the reference's
n-grams of every order are counted once, and each hypothesis n-gram then
consumes one unmatched reference occurrence. So an n-gram matches at most
min(hypothesis count, reference count) times.
"""

import math
from collections import Counter
from dataclasses import dataclass

SMOOTHING_MODES = ("none", "add_one_for_n_ge_2")
MAX_N = 4


class BleuError(ValueError):
    pass


@dataclass
class BleuReport:
    score: float
    precisions: list
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    smoothing: str

    def summary_line(self):
        ps = "/".join(f"{p:.4f}" for p in self.precisions)
        ratio = self.hyp_length / self.ref_length if self.ref_length else 0.0
        return (f"BLEU4 = {self.score * 100:.2f} ({ps}, "
                f"BP={self.brevity_penalty:.4f}, ratio={ratio:.3f})")


def ngram_counts(tokens, n):
    """Multiset of all contiguous n-grams of the token list."""
    if n < 1:
        raise BleuError(f"n must be >= 1, got {n}")
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _clipped_counts(hypotheses, references, max_n):
    """Corpus-level clipped matches and hypothesis n-gram totals of each
    order n <= max_n, as two lists indexed by n - 1, from one pass over the
    segments by the clipping rule in the module docstring."""
    if len(hypotheses) != len(references):
        raise BleuError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}")
    if max_n < 1:
        raise BleuError(f"n must be >= 1, got {max_n}")
    clipped = [0] * max_n
    totals = [0] * max_n
    for hyp, ref in zip(hypotheses, references):
        # Zipping the first n of a segment's shifted copies yields its n-grams.
        shifted = [ref[i:] for i in range(max_n)]
        unmatched = Counter()
        for n in range(1, max_n + 1):
            unmatched.update(zip(*shifted[:n]))
        get = unmatched.get
        shifted = [hyp[i:] for i in range(max_n)]
        for n in range(1, min(max_n, len(hyp)) + 1):
            totals[n - 1] += len(hyp) - n + 1
            matches = 0
            for gram in zip(*shifted[:n]):
                left = get(gram)
                if left:
                    unmatched[gram] = left - 1
                    matches += 1
            clipped[n - 1] += matches
    return clipped, totals


def modified_precision(hypotheses, references, n):
    """Corpus-level clipped n-gram matches and total hypothesis n-grams."""
    clipped, totals = _clipped_counts(hypotheses, references, n)
    return clipped[n - 1], totals[n - 1]


def brevity_penalty(hyp_len, ref_len):
    if hyp_len < 0 or ref_len < 0:
        raise BleuError("lengths must be non-negative")
    if hyp_len == 0:
        return 0.0
    if hyp_len > ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / hyp_len)


def corpus_bleu(hypotheses, references, smoothing="none"):
    """Geometric mean of clipped 1..4-gram precisions times brevity penalty.

    Orders with zero total hypothesis n-grams (every segment shorter than n)
    are dropped and the remaining orders reweighted. add_one_for_n_ge_2
    smoothing adds 1 to numerator and denominator for n >= 2 when the
    numerator is zero.
    """
    if smoothing not in SMOOTHING_MODES:
        raise BleuError(f"unknown smoothing mode {smoothing!r}")
    all_clipped, all_totals = _clipped_counts(hypotheses, references, MAX_N)
    if not hypotheses:
        raise BleuError("empty corpus")

    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    bp = brevity_penalty(hyp_len, ref_len)

    precisions = []
    effective = []
    for n, (clipped, total) in enumerate(zip(all_clipped, all_totals), start=1):
        if total == 0:
            precisions.append(0.0)
            continue
        if clipped == 0 and smoothing == "add_one_for_n_ge_2" and n >= 2:
            clipped, total = clipped + 1, total + 1
        p = clipped / total
        precisions.append(p)
        effective.append(p)

    if not effective or any(p == 0.0 for p in effective):
        score = 0.0
    else:
        weight = 1.0 / len(effective)
        score = bp * math.exp(sum(weight * math.log(p) for p in effective))

    return BleuReport(score=score, precisions=precisions, brevity_penalty=bp,
                      hyp_length=hyp_len, ref_length=ref_len, smoothing=smoothing)
