"""Seeded input generators for the lowmt benchmark.

    python3 bench/gen.py --workload WORKLOAD --seed N --dir DIR [--part PART]

writes the inputs of one workload into DIR: ``--part inputs`` (the default)
writes the YAML config and the workload's seeded files; ``--part bulk``
writes the translate-bulk source lines and references over the vocabulary of
``DIR/corpus.jsonl``. The benchmark runs this as its own process, so set-up
is paid the way the stages are.

Every generator is a pure function of its arguments: the same seed gives
byte-identical files. Randomness comes from ``random.Random`` seeded with a
string, which CPython hashes with SHA-512, so results do not depend on
``PYTHONHASHSEED`` or the platform.
"""

import argparse
import bisect
import itertools
import json
import os
import random
import sys

import yaml

CONFIG = "config.yaml"
ZIPF_UNITS = 60
BULK_LINES = 1000
# The translate-bulk checkpoint is always trained from this config seed:
# greedy decode runs until the model emits </s>, so a per-seed checkpoint
# would make decode lengths, and translate.sents_per_s, differ by seed.
CHECKPOINT_SEED = 0

SMALL_MODEL = {
    "model": {"hidden": 32, "max_len": 32, "dropout_p": 0.0},
    "train": {"epochs": 2, "learning_rate": 1.0,
              "teacher_forcing_ratio": 1.0, "grad_clip_norm": 5.0},
}


def config(workload, seed):
    """Pipeline config of a workload; stages read it with --config only."""
    common = {"seed": seed, "split": {"ratios": [0.8, 0.1, 0.1]},
              "evaluation": {"smoothing": "add_one_for_n_ge_2"}}
    if workload == "synthetic-demo":
        return {**common, **SMALL_MODEL,
                "tokenizer": {"vocab_size": 80},
                "embeddings": {"dim": 32, "window": 5, "negatives": 5, "epochs": 1,
                               "min_count": 1},
                "augment": {"side": "tgt", "alpha": 0.1, "n_aug": 1,
                            "ops": ["synonym_replace", "random_delete",
                                    "random_swap", "synonym_insert"]}}
    if workload == "zipf-wide-vocab":
        return {**common,
                "tokenizer": {"vocab_size": 800},
                "model": {"hidden": 256, "max_len": 32, "dropout_p": 0.0},
                "train": {"epochs": 1, "learning_rate": 0.3,
                          "teacher_forcing_ratio": 1.0, "grad_clip_norm": 5.0}}
    if workload == "translate-bulk":
        return {**common, **SMALL_MODEL, "seed": CHECKPOINT_SEED,
                "tokenizer": {"vocab_size": 80}}
    raise ValueError(f"unknown workload {workload!r}")

ZIPF_CONSONANTS = "bdfghklmnprstvz"
ZIPF_VOWELS = "aeiou"

LEXICON_CONSONANTS = "BCDFGHJKLMNPQRSTVWXYZ"
LEXICON_VOWELS = "AEIOU"


def rng_for(seed, *labels):
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def write_config(path, config):
    """Pipeline config as YAML; stages read it with --config, never overrides."""
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(config, f, sort_keys=True, default_flow_style=False)


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def zipf_corpus(seed, n_units, lexicon_size, exponent, min_words, max_words):
    """Parallel units over a Zipfian lexicon of syllable words.

    Source words are 1-4 consonant-vowel syllables. The target side applies
    a seeded syllable substitution cipher word by word, so the target is a
    deterministic, invertible transform of the source with the same
    frequency profile.
    """
    rng = rng_for(seed, "zipf")
    syllables = [c + v for c in ZIPF_CONSONANTS for v in ZIPF_VOWELS]
    shuffled = list(syllables)
    rng.shuffle(shuffled)
    cipher = dict(zip(syllables, shuffled))

    seen = set()
    lexicon = []
    while len(lexicon) < lexicon_size:
        word = tuple(rng.choice(syllables) for _ in range(rng.randint(1, 4)))
        if word not in seen:
            seen.add(word)
            lexicon.append(word)
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** exponent for rank in range(lexicon_size)))

    units = []
    for i in range(n_units):
        words = [lexicon[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]
                 for _ in range(rng.randint(min_words, max_words))]
        src = " ".join("".join(w) for w in words) + "."
        tgt = " ".join("".join(cipher[s] for s in w) for w in words) + "."
        units.append({"id": f"zipf-{i:06d}", "book": "ZIPF", "chapter": 1 + i // 100,
                      "verse": i % 100, "src": src, "tgt": tgt})
    return units


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def bulk_lines(seed, vocabulary, n_lines):
    """Source lines of 1-3 sentences of 3-7 words over ``vocabulary`` and
    their references.

    Sentence counts vary so that decode lengths spread. The reference of
    each line is its exact uppercase form, which is the word mapping of the
    built-in synthetic corpus. No line is blank.
    """
    if not vocabulary:
        raise ValueError("bulk_lines needs a non-empty vocabulary")
    rng = rng_for(seed, "bulk")
    words = sorted(vocabulary)
    sources, references = [], []
    for _ in range(n_lines):
        sents = []
        for _ in range(rng.randint(1, 3)):
            sents.append(" ".join(rng.choice(words)
                                  for _ in range(rng.randint(3, 7))) + ".")
        line = " ".join(sents)
        sources.append(line)
        references.append(line.upper())
    return sources, references


def lexicon_lines(seed):
    """Synonym lexicon (word TAB syn,syn) over uppercase consonant-vowel words.

    It covers every consonant-vowel pair, so it covers the target side of the
    built-in synthetic corpus without depending on its word list.
    """
    rng = rng_for(seed, "lexicon")
    words = [c + v for c in LEXICON_CONSONANTS for v in LEXICON_VOWELS]
    lines = ["# generated synonym lexicon"]
    for word in words:
        others = [w for w in words if w != word]
        syns = rng.sample(others, rng.randint(2, 3))
        lines.append(f"{word}\t{','.join(syns)}")
    return lines


def corpus_vocabulary(path):
    """Source word types of a corpus.jsonl, without sentence-final dots."""
    vocab = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            vocab.update(w.rstrip(".") for w in json.loads(line)["src"].split())
    return vocab


def generate(workload, seed, d, part):
    if part == "bulk":
        if workload != "translate-bulk":
            raise ValueError(f"--part bulk is for translate-bulk, not {workload}")
        src, ref = bulk_lines(seed, corpus_vocabulary(os.path.join(d, "corpus.jsonl")),
                              BULK_LINES)
        write_lines(os.path.join(d, "bulk.src.txt"), src)
        write_lines(os.path.join(d, "bulk.ref.txt"), ref)
        return
    write_config(os.path.join(d, CONFIG), config(workload, seed))
    if workload == "synthetic-demo":
        write_lines(os.path.join(d, "lexicon.tsv"), lexicon_lines(seed))
    elif workload == "zipf-wide-vocab":
        write_jsonl(os.path.join(d, "zipf.jsonl"), zipf_corpus(
            seed, ZIPF_UNITS, lexicon_size=20000, exponent=0.9,
            min_words=5, max_words=9))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("synthetic-demo", "zipf-wide-vocab", "translate-bulk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--part", choices=("inputs", "bulk"), default="inputs")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.dir, args.part)
    return 0


if __name__ == "__main__":
    sys.exit(main())
