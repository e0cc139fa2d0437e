"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import random
import time

import numpy as np

from lowmt import aligner, analysis, augment, bleu, cli, nmt, subword
from lowmt.aligner import DatasetSplit, TextPair
from lowmt.corpus import ParallelUnit

from test_analysis import cosine
from test_bleu import oracle_bleu
from test_cli import validate_export


def report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def make_pairs(n):
    return [aligner.SentencePair(src=f"s{i}.", tgt=f"t{i}.", origin_id=f"o{i}",
                                 index=0) for i in range(n)]


def make_variables(n):
    return [aligner.VariableUnit(src=f"s{i}. More.", tgt=f"t{i}.",
                                 origin_id=f"v{i}", src_sentence_count=2,
                                 tgt_sentence_count=1) for i in range(n)]


def test_criterion_1_split_arithmetic():
    start = time.time()
    en = aligner.split_dataset(make_pairs(27295), make_variables(10950), seed=11)
    bn = aligner.split_dataset(make_pairs(22764), make_variables(15452), seed=11)
    elapsed = time.time() - start
    ok = (len(en.test) == 3824 and len(en.validation) == 3824
          and abs(len(en.train) - 30596) <= 1
          and len(bn.test) == 3821 and len(bn.validation) == 3821
          and abs(len(bn.train) - 30573) <= 1
          and elapsed < 1.0)
    report(1, ok, f"split sizes en={len(en.train)}/{len(en.test)}/"
           f"{len(en.validation)} bn={len(bn.train)}/{len(bn.test)}/"
           f"{len(bn.validation)} in {elapsed:.3f}s")


def test_criterion_2_aligner_behavior():
    same = ParallelUnit(id="e1", book="B", chapter=1, verse=1,
                        src="Isore menkeda marsalakko hoyokma. Onako do dinko tañemma.",
                        tgt="And God said let there be lights. And let them be for signs.")
    out_same = aligner.classify_and_explode(same)
    varied = ParallelUnit(id="e2", book="B", chapter=1, verse=2,
                          src="One here. Two here. Three here.",
                          tgt="Ek ache. Dui ache.")
    out_varied = aligner.classify_and_explode(varied)
    ok = (isinstance(out_same, list) and len(out_same) == 2
          and isinstance(out_varied, aligner.VariableUnit)
          and out_varied.src_sentence_count == 3
          and out_varied.tgt_sentence_count == 2)
    report(2, ok, "same-length unit exploded to 2 pairs; unequal unit preserved")


def test_criterion_3_conservation_and_determinism():
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        n_pairs = rng.randint(0, 30)
        n_vars = rng.randint(0, 20)
        seed = rng.randrange(1 << 31)
        a = aligner.split_dataset(make_pairs(n_pairs), make_variables(n_vars),
                                  seed=seed)
        b = aligner.split_dataset(make_pairs(n_pairs), make_variables(n_vars),
                                  seed=seed)
        total = len(a.train) + len(a.test) + len(a.validation)
        ids = [p.origin_id for part in (a.train, a.test, a.validation)
               for p in part]
        same = all(json.dumps([p.to_record() for p in x]) ==
                   json.dumps([p.to_record() for p in y])
                   for x, y in ((a.train, b.train), (a.test, b.test),
                                (a.validation, b.validation)))
        if total != n_pairs + n_vars or len(ids) != len(set(ids)) or not same:
            failures += 1
    report(3, failures == 0,
           f"1000 random corpora: conservation, disjointness, reruns identical "
           f"({failures} failures)")


def test_criterion_4_tokenizer_round_trip():
    records = cli.generate_synthetic_corpus(300, seed=5)
    sentences = [r["src"] for r in records]
    sizes = [35, 60, 120]
    vocabs = [subword.train_tokenizer(sentences, n) for n in sizes]
    round_trip_ok = all(
        subword.decode(vocabs[-1], subword.encode(vocabs[-1], s)) == s
        for s in sentences)
    monotone_ok = all(
        [len(subword.encode(v, s)) for v in vocabs] ==
        sorted((len(subword.encode(v, s)) for v in vocabs), reverse=True)
        for s in sentences)
    report(4, round_trip_ok and monotone_ok,
           f"decode(encode(s)) == s for all {len(sentences)} sentences; "
           f"encoded length non-increasing across sizes {sizes}")


def test_criterion_5_bleu_oracle_equivalence():
    start = time.time()
    ref = "the cat is on the mat".split()
    hyp = "the cat the cat on the mat".split()
    ident = [ref, "and God saw that it was good".split()]

    checks = []
    checks.append(abs(bleu.corpus_bleu(ident, ident).score - 1.0) < 1e-9)
    checks.append(bleu.modified_precision([["the"] * 7], [ref], 1) == (2, 7))
    checks.append(abs(bleu.brevity_penalty(5, 10) - math.exp(-1)) < 1e-9)
    # worked 7-token example, checked against the independent oracle in
    # test_bleu (the impl and oracle must agree to 1e-9 in both modes)
    for smoothing in bleu.SMOOTHING_MODES:
        got = bleu.corpus_bleu([hyp], [ref], smoothing=smoothing).score
        want = oracle_bleu([hyp], [ref], smoothing=smoothing)
        checks.append(abs(got - want) < 1e-9)
    checks.append(bleu.corpus_bleu([hyp], [ref], smoothing="none").score == 0.0)
    elapsed = time.time() - start
    report(5, all(checks) and elapsed < 1.0,
           f"hand/oracle BLEU cases agree within 1e-9 in {elapsed:.3f}s")


def test_criterion_6_gradient_correctness():
    start = time.time()
    pair = ([4, 5, 6, 7], [5, 6, 4])
    max_errs = []
    for seed in range(10):
        cfg = nmt.ModelConfig(src_vocab_size=12, tgt_vocab_size=12, hidden=8,
                              max_len=6, dropout_p=0.0, seed=seed)
        model = nmt.init_model(cfg)
        # epsilon 1e-4 keeps the finite-difference roundoff below the
        # truncation error for float64 at this loss scale
        max_errs.append(nmt.gradient_check(model, pair, epsilon=1e-4,
                                           n_params_sampled=200, seed=seed))

    # negative control: sign-flipped analytic gradient vs finite differences
    model = nmt.init_model(nmt.ModelConfig(src_vocab_size=12, tgt_vocab_size=12,
                                           hidden=8, max_len=6, dropout_p=0.0,
                                           seed=99))
    _, grads = nmt.pair_gradients(model, *pair)
    idx = int(np.argmax(np.abs(grads["out_W"])))
    arr = model.params["out_W"]
    eps = 1e-5
    orig = arr.flat[idx]
    arr.flat[idx] = orig + eps
    lp = nmt.pair_loss(model, *pair)
    arr.flat[idx] = orig - eps
    lm = nmt.pair_loss(model, *pair)
    arr.flat[idx] = orig
    numeric = (lp - lm) / (2 * eps)
    flipped = -grads["out_W"].flat[idx]
    control = abs(flipped - numeric) / max(abs(flipped), abs(numeric), 1e-12)

    elapsed = time.time() - start
    ok = max(max_errs) < 1e-4 and control > 0.5 and elapsed < 60
    report(6, ok, f"max rel err {max(max_errs):.2e} over 10 seeds; "
           f"sign-flip control {control:.2f}; {elapsed:.1f}s")


def test_criterion_7_copy_task_learning():
    start = time.time()
    rng = random.Random(42)
    vocab = 20
    pairs = []
    for _ in range(200):
        seq = [rng.randrange(4, vocab) for _ in range(rng.randint(4, 7))]
        pairs.append((seq, list(seq)))

    cfg = nmt.ModelConfig(src_vocab_size=vocab, tgt_vocab_size=vocab, hidden=64,
                          max_len=10, dropout_p=0.0, seed=3)
    model = nmt.init_model(cfg)
    tcfg = nmt.TrainConfig(epochs=60, learning_rate=0.3,
                           teacher_forcing_ratio=0.5, seed=7)
    model, history = nmt.train(model, pairs, tcfg)

    losses = [h["mean_loss"] for h in history[:5]]
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a * 1.05)
    loss_ok = increases <= 1 and losses[-1] < losses[0]

    exact = 0
    hyps, refs = [], []
    for src, tgt in pairs:
        out = nmt.translate(model, src)
        exact += out == tgt
        hyps.append([str(i) for i in out])
        refs.append([str(i) for i in tgt])
    exact_rate = exact / len(pairs)
    score = bleu.corpus_bleu(hyps, refs, smoothing="none").score
    elapsed = time.time() - start
    ok = loss_ok and exact_rate >= 0.95 and score >= 0.95 and elapsed < 300
    report(7, ok, f"copy task: exact {exact_rate:.2%}, BLEU4 {score:.4f}, "
           f"first-5-epoch losses {['%.3f' % l for l in losses]}, {elapsed:.1f}s")


def test_criterion_8_augmentation_accounting():
    lexicon = {"good": ["fine", "nice"], "day": ["morning"], "cat": ["feline"]}
    train = [TextPair(src=f"src {i} tok.", tgt=f"good day cat {i} here.",
                      origin_id=f"o{i}", group="one2one") for i in range(20000)]
    train += [TextPair(src=f"vsrc {i}. More.", tgt=f"vtgt {i}.",
                       origin_id=f"v{i}", group="variable") for i in range(6724)]
    test = [TextPair(src="a.", tgt="b.", origin_id="t0", group="one2one")]
    val = [TextPair(src="c.", tgt="d.", origin_id="v0", group="one2one")]
    split = DatasetSplit(train=train, test=test, validation=val, manifest={})

    policy = augment.AugmentPolicy(n_aug=1, seed=6)
    out = augment.augment_training_set(split, "tgt", policy, lexicon=lexicon)
    ok = (len(out.train) == 46724
          and out.test == test and out.validation == val)
    report(8, ok, f"augmented train has {len(out.train)} pairs "
           "(toolkit arithmetic: 26,724 + 20,000); test/validation untouched")


def test_criterion_9_embedding_clusters():
    start = time.time()
    gaps = []
    for seed in range(5):
        rng = random.Random(100 + seed)
        a = [f"a{i}" for i in range(5)]
        b = [f"b{i}" for i in range(5)]
        sents = [[rng.choice(a) for _ in range(5)] for _ in range(500)]
        sents += [[rng.choice(b) for _ in range(5)] for _ in range(500)]
        model = analysis.train_embeddings(sents, dim=32, window=5, negatives=5,
                                          epochs=5, seed=seed)
        intra = np.mean([cosine(model.vector(x), model.vector(y))
                         for ws in (a, b) for x in ws for y in ws if x < y])
        inter = np.mean([cosine(model.vector(x), model.vector(y))
                         for x in a for y in b])
        gaps.append(float(intra - inter))
    elapsed = time.time() - start
    ok = all(g > 0.2 for g in gaps) and elapsed < 120
    report(9, ok, f"intra-inter cosine gaps {['%.3f' % g for g in gaps]} "
           f"over 5 seeds in {elapsed:.1f}s")


def test_criterion_10_non_reproducible_results_and_export():
    # The published BLEU-4 tables (e.g. 8.93 / 11.13) depend on the bible.com
    # corpus and external mT5 checkpoints; they are NOT reproduced here. The
    # pipeline substitutes criteria 1-9 plus this export format check.
    records = cli.generate_synthetic_corpus(6500, seed=8)
    units = [ParallelUnit(id=r["id"], book=r["book"], chapter=r["chapter"],
                          verse=r["verse"], src=r["src"], tgt=r["tgt"])
             for r in records]
    from lowmt.corpus import Corpus
    pairs, variables = aligner.explode_corpus(Corpus(units=units))
    split = aligner.split_dataset(pairs, variables, seed=1)
    export = cli.export_records(split)
    assert len(export) >= 10000
    validate_export(export[:10000])
    report(10, True,
           f"published table scores documented as non-reproducible; "
           f"{min(len(export), 10000)} export records validate against schema")
