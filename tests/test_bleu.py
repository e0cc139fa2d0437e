"""BLEU tests against an independent brute-force oracle.

The oracle below recounts n-grams with plain dict loops and applies the BLEU
definition directly; it shares no code with lowmt.bleu.
"""

import math
import random

import pytest

from lowmt import bleu


def oracle_counts(hyps, refs, n):
    """Clipped n-gram matches and hypothesis n-grams, summed over segments."""
    num = 0
    den = 0
    for h, r in zip(hyps, refs):
        hc, rc = {}, {}
        for i in range(len(h) - n + 1):
            g = tuple(h[i:i + n])
            hc[g] = hc.get(g, 0) + 1
        for i in range(len(r) - n + 1):
            g = tuple(r[i:i + n])
            rc[g] = rc.get(g, 0) + 1
        for g, c in hc.items():
            num += min(c, rc.get(g, 0))
            den += c
    return num, den


def oracle_bleu(hyps, refs, max_n=4, smoothing="none"):
    total_hyp = sum(len(h) for h in hyps)
    total_ref = sum(len(r) for r in refs)
    if total_hyp == 0:
        bp = 0.0
    elif total_hyp > total_ref:
        bp = 1.0
    else:
        bp = math.exp(1.0 - total_ref / total_hyp)

    logs = []
    for n in range(1, max_n + 1):
        num, den = oracle_counts(hyps, refs, n)
        if den == 0:
            continue  # order excluded, weights renormalized
        if num == 0 and smoothing == "add_one_for_n_ge_2" and n >= 2:
            num, den = num + 1, den + 1
        if num == 0:
            return 0.0
        logs.append(math.log(num / den))
    if not logs:
        return 0.0
    return bp * math.exp(sum(logs) / len(logs))


HYP = "the cat the cat on the mat".split()
REF = "the cat is on the mat".split()


class TestNgramCounts:
    def test_bigrams(self):
        assert bleu.ngram_counts(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}

    def test_short_sequence_empty(self):
        assert bleu.ngram_counts(["a", "b"], 3) == {}

    def test_repeated_unigram(self):
        assert bleu.ngram_counts(["the"] * 7, 1) == {("the",): 7}


class TestModifiedPrecision:
    def test_clipping(self):
        assert bleu.modified_precision([["the"] * 7], [REF], 1) == (2, 7)

    def test_identity(self):
        assert bleu.modified_precision([REF], [REF], 2) == (5, 5)

    def test_disjoint(self):
        assert bleu.modified_precision([["x", "y", "z"]], [REF], 1) == (0, 3)

    def test_length_mismatch(self):
        with pytest.raises(bleu.BleuError):
            bleu.modified_precision([REF], [], 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_1_rejected(self, n):
        with pytest.raises(bleu.BleuError, match="n must be >= 1"):
            bleu.modified_precision([REF], [REF], n)

    def test_clipping_matches_oracle_counts_on_few_types(self):
        # Over 1-3 token types every n-gram repeats, so clipping binds often.
        rng = random.Random(11)
        for _ in range(300):
            types = "xyz"[:rng.randint(1, 3)]
            k = rng.randint(1, 4)
            hyps = [[rng.choice(types) for _ in range(rng.randint(0, 9))] for _ in range(k)]
            refs = [[rng.choice(types) for _ in range(rng.randint(0, 9))] for _ in range(k)]
            for n in range(1, 6):
                assert bleu.modified_precision(hyps, refs, n) == oracle_counts(hyps, refs, n)


class TestBrevityPenalty:
    def test_equal_lengths(self):
        assert bleu.brevity_penalty(10, 10) == 1.0

    def test_half_length(self):
        assert abs(bleu.brevity_penalty(5, 10) - math.exp(-1)) < 1e-12

    def test_zero_hypothesis(self):
        assert bleu.brevity_penalty(0, 10) == 0.0

    def test_longer_hypothesis(self):
        assert bleu.brevity_penalty(12, 10) == 1.0


class TestCorpusBleu:
    def test_identity_is_one(self):
        segs = [REF, "and God saw that it was good".split()]
        report = bleu.corpus_bleu(segs, segs)
        assert report.score == 1.0
        assert report.precisions == [1.0, 1.0, 1.0, 1.0]
        assert report.brevity_penalty == 1.0

    def test_no_common_fourgram_unsmoothed_is_zero(self):
        report = bleu.corpus_bleu([HYP], [REF], smoothing="none")
        assert report.score == 0.0

    def test_worked_example_matches_oracle(self):
        for smoothing in bleu.SMOOTHING_MODES:
            report = bleu.corpus_bleu([HYP], [REF], smoothing=smoothing)
            assert abs(report.score - oracle_bleu([HYP], [REF], smoothing=smoothing)) < 1e-9

    def test_worked_example_precisions(self):
        report = bleu.corpus_bleu([HYP], [REF], smoothing="none")
        assert abs(report.precisions[0] - 5 / 7) < 1e-12
        assert abs(report.precisions[1] - 3 / 6) < 1e-12
        assert abs(report.precisions[2] - 1 / 5) < 1e-12
        assert report.precisions[3] == 0.0

    def test_smoothed_worked_example_value(self):
        # frozen from oracle_bleu: (5/7 * 3/6 * 1/5 * 1/5) ** 0.25
        report = bleu.corpus_bleu([HYP], [REF], smoothing="add_one_for_n_ge_2")
        assert abs(report.score - 0.345720784641941) < 1e-9

    def test_empty_corpus_rejected(self):
        with pytest.raises(bleu.BleuError):
            bleu.corpus_bleu([], [])

    def test_short_segments_drop_high_orders(self):
        segs = [["a", "b"], ["c"]]
        report = bleu.corpus_bleu(segs, segs)
        assert report.score == 1.0  # p3/p4 excluded, p1/p2 perfect

    def test_permutation_invariance(self):
        rng = random.Random(0)
        hyps = [[rng.choice("abcd") for _ in range(rng.randint(3, 8))] for _ in range(20)]
        refs = [[rng.choice("abcd") for _ in range(rng.randint(3, 8))] for _ in range(20)]
        base = bleu.corpus_bleu(hyps, refs, smoothing="add_one_for_n_ge_2").score
        order = list(range(20))
        rng.shuffle(order)
        permuted = bleu.corpus_bleu([hyps[i] for i in order], [refs[i] for i in order],
                                    smoothing="add_one_for_n_ge_2").score
        assert abs(base - permuted) < 1e-12

    def test_corruption_never_increases_score(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(1, 5)
            refs = [[rng.choice("abc") for _ in range(rng.randint(4, 9))]
                    for _ in range(n)]
            hyps = [list(r) for r in refs]
            before = bleu.corpus_bleu(hyps, refs, smoothing="add_one_for_n_ge_2").score
            i = rng.randrange(n)
            j = rng.randrange(len(hyps[i]))
            hyps[i][j] = "OOV"
            after = bleu.corpus_bleu(hyps, refs, smoothing="add_one_for_n_ge_2").score
            assert after <= before + 1e-12

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            hyps = [[rng.choice("abcde") for _ in range(rng.randint(1, 10))]
                    for _ in range(n)]
            refs = [[rng.choice("abcde") for _ in range(rng.randint(1, 10))]
                    for _ in range(n)]
            for smoothing in bleu.SMOOTHING_MODES:
                got = bleu.corpus_bleu(hyps, refs, smoothing=smoothing).score
                want = oracle_bleu(hyps, refs, smoothing=smoothing)
                assert abs(got - want) < 1e-9
                assert 0.0 <= got <= 1.0
