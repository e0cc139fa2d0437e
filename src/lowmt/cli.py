"""Pipeline command line: ingest -> split -> stats/embed -> tokenize ->
augment -> train -> translate -> evaluate -> export-ft.

Every stage is one entry of STAGES, run by run_stage() with a StageContext
that checks what the stage reads and records it, with what it writes, the
config after flag overrides, the seeds it draws, the counts it fills and the
lowmt and numpy versions, in <stage>.manifest.json
(<stage>.<side>.manifest.json for a stage run with --side); that manifest is
the only record of a stage run. A single top-level seed derives every stage
seed via derive_seed(seed, stage_name).
"""

import argparse
import copy
import dataclasses
import json
import math
import os
import random
import sys
import time
from collections import Counter

import yaml

from . import __version__, augment, bleu, corpus
from .util import (check_record, config_hash, derive_seed, lazy_module, numpy_version,
                   read_lines, sha256_file, write_jsonl)

# augment and bleu are imported plainly: DEFAULT_CONFIG and CONFIG_CHOICES read
# them in every stage. These run their import at their first use, so a stage
# process compiles and runs only the lowmt modules that stage uses.
aligner, analysis, nmt, subword = map(lazy_module, (
    "lowmt.aligner", "lowmt.analysis", "lowmt.nmt", "lowmt.subword"))

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERICAL = 4

DEFAULT_CONFIG = {
    "seed": 0,
    "corpus": {"format": "jsonl"},
    "split": {"ratios": [0.8, 0.1, 0.1]},
    "tokenizer": {"vocab_size": 32000},
    "embeddings": {"dim": 100, "window": 5, "negatives": 5, "epochs": 5,
                   "min_count": 1},
    "augment": {"side": "tgt", "ops": list(augment.EDA_OPS), "alpha": 0.1,
                "n_aug": 1, "lexicon": None, "max_pairs": None},
    "model": {"hidden": 256, "max_len": 64, "dropout_p": 0.1},
    "train": {"epochs": 10, "learning_rate": 0.01, "teacher_forcing_ratio": 0.5,
              "grad_clip_norm": 5.0},
    "evaluation": {"smoothing": "none"},
}

# Every lowmt module error (CorpusError, NmtError, ...) is a ValueError.
DATA_ERRORS = (OSError, ValueError)

MANIFEST_SUFFIX = ".manifest.json"
_MAPPING = (lambda v: isinstance(v, dict), "a mapping")
MANIFEST_FIELDS = {"stage": (True, None, None), "config_hash": (True, None, None),
                   "inputs": (True, *_MAPPING), "outputs": (True, *_MAPPING)}

# The type of each config value whose default is null; null stays allowed.
NULL_DEFAULT_TYPES = {"augment.lexicon": str, "augment.max_pairs": int}

# The values allowed for each config key that takes one of a fixed set (each
# item of a list).
CONFIG_CHOICES = {"corpus.format": corpus.FORMATS, "augment.side": corpus.SIDES,
                  "augment.ops": augment.ALL_OPS,
                  "evaluation.smoothing": bleu.SMOOTHING_MODES}


def _fits(value, default):
    """Whether value has default's type (a list's items one by one); an int
    stands for a float, but a bool for no number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return type(value) is type(default) or (type(default) is float and type(value) is int)


def _deep_merge(base, override, path, prefix=""):
    """base with override's values merged in; a key that base lacks, a
    non-mapping where base has a section, a value of another type than the
    default's, a float that is not finite, or a value outside its
    CONFIG_CHOICES raises naming its dotted key."""
    merged = dict(base)
    for key, value in override.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            raise ValueError(f"{path}: unknown config key {dotted!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"{path}: config key {dotted!r} must be a mapping")
            value = _deep_merge(base[key], value, path, dotted + ".")
        elif value is not None or base[key] is not None:
            default = NULL_DEFAULT_TYPES[dotted]() if base[key] is None else base[key]
            if not _fits(value, default):
                kind = (f"a list of {type(default[0]).__name__}"
                        if isinstance(default, list) else type(default).__name__)
                raise ValueError(f"{path}: config key {dotted!r} must be {kind}, "
                                 f"got {value!r}")
            items = value if isinstance(value, list) else [value]
            if not all(math.isfinite(item) for item in items if type(item) is float):
                raise ValueError(f"{path}: config key {dotted!r} must be finite, "
                                 f"got {value!r}")
            if dotted in CONFIG_CHOICES:
                allowed = CONFIG_CHOICES[dotted]
                for item in items:
                    if item not in allowed:
                        raise ValueError(f"{path}: config key {dotted!r} takes "
                                         f"{', '.join(allowed)}; got {item!r}")
        merged[key] = value
    return merged


def load_config(path=None):
    """Built-in defaults, deep-merged with the YAML file at path; always a
    fresh object that the caller may change."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        with open(path, "r", encoding="utf-8") as f:
            try:
                user = yaml.safe_load(f)
            except yaml.YAMLError as e:
                mark = getattr(e, "problem_mark", None)
                where = f"line {mark.line + 1}: " if mark else ""
                problem = getattr(e, "problem", None) or str(e).partition("\n")[0]
                raise ValueError(f"{path}: {where}invalid YAML: {problem}") from e
        if user is None:  # an empty document: no overrides
            user = {}
        if not isinstance(user, dict):
            raise ValueError(f"{path}: config must be a mapping")
        config = _deep_merge(config, user, path)
    return config


def stage_seed(config, stage):
    return derive_seed(config["seed"], stage)


# --- stage runner -----------------------------------------------------------

class StageContext:
    """One stage run: its config (flags applied), its args' workdir and
    --strict, and the inputs, outputs, seeds and counts for its manifest.

    read() checks each artifact against the manifest of the stage that wrote
    it: that stage must have run under the same config, and every file it
    recorded that this stage also reads must still have the recorded digest.
    A mismatch warns, or raises under --strict.
    """

    def __init__(self, stage, config, config_hash, args, manifest_name):
        self.stage = stage
        self.manifest_name = manifest_name
        self.config = config
        self.config_hash = config_hash
        self.workdir = args.workdir
        self.strict = args.strict
        self.inputs = {}      # path relative to the workdir -> sha256
        self.outputs = []     # paths, in write order
        self.seeds = {}
        self.counts = {}      # filled by the stage: what it kept, skipped, wrote
        self._manifests = None
        self._upstream = {}   # manifest name -> the artifact read from it

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def seed(self, label=None, value=None):
        """The seed for label (default: this stage), derived from the config
        seed unless value is given; recorded in the manifest."""
        label = label or self.stage
        self.seeds[label] = stage_seed(self.config, label) if value is None else value
        return self.seeds[label]

    def write(self, path):
        self.outputs.append(path)
        return path

    def read(self, path, what):
        if not os.path.isfile(path):
            raise FileNotFoundError(f"missing {what}: expected artifact at {path}")
        key = os.path.relpath(path, self.workdir)
        self.inputs[key] = sha256_file(path)
        source = self._producer(key)
        if source is not None and source not in self._upstream:
            self._upstream[source] = key
            if self._manifests[source]["config_hash"] != self.config_hash:
                self._complain(f"config hash mismatch with {source}: {key} was "
                               f"produced by a different config")
            for earlier in self.inputs:
                if earlier != key:
                    self._check_digest(source, earlier)
        for upstream in self._upstream:
            self._check_digest(upstream, key)
        return path

    def write_manifest(self):
        manifest = {
            "stage": self.stage,
            "config_hash": self.config_hash,
            "effective_config": self.config,
            "seeds": self.seeds,
            "counts": self.counts,
            "versions": {"lowmt": __version__, "numpy": numpy_version()},
            "inputs": self.inputs,
            "outputs": {os.path.relpath(p, self.workdir): sha256_file(p)
                        for p in self.outputs},
        }
        with open(self.path(self.manifest_name), "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)

    def _producer(self, key):
        """Name of the manifest in the workdir that lists key as an output."""
        if self._manifests is None:
            self._manifests = {}
            for name in sorted(os.listdir(self.workdir)):
                if name.endswith(MANIFEST_SUFFIX):
                    try:
                        self._manifests[name] = _read_manifest(self.path(name))
                    except ValueError as e:
                        # Its outputs cannot be checked; re-running its
                        # stage rewrites it.
                        self._complain(str(e))
        for name, manifest in self._manifests.items():
            if key in manifest["outputs"]:
                return name
        return None

    def _check_digest(self, source, key):
        manifest = self._manifests[source]
        outputs = manifest["outputs"]
        recorded = outputs.get(key, manifest["inputs"].get(key))
        if recorded is None or recorded == self.inputs[key]:
            return
        stage = manifest["stage"]
        if key in outputs:
            self._complain(f"{key} has changed since {stage} wrote it (see {source})")
        else:
            self._complain(f"{self._upstream[source]} is stale: {key} has changed "
                           f"since {stage} read it (see {source})")

    def _complain(self, message):
        if self.strict:
            raise ValueError(message)
        print(f"warning: {message}", file=sys.stderr)


def _read_manifest(path):
    where = f"{path}: malformed manifest"
    with open(path, "r", encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from e
    return check_record(manifest, MANIFEST_FIELDS, where, ValueError)


def arg(*flags, **kwargs):
    return flags, kwargs


def ratios(text):
    """The argparse type of --ratios: comma-separated finite numbers."""
    values = [float(r) for r in text.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(text)
    return values


def positive_int(text):
    """The argparse type of --synthetic: an integer >= 1."""
    if (value := int(text)) < 1:
        raise ValueError(text)
    return value


SIDE = arg("--side", choices=corpus.SIDES, default="src")
TOP_K = arg("--top-k", type=int, default=10)
SPLIT_DIR = arg("--split-dir")


def run_stage(name, config, args):
    """Run one stage in args.workdir under a copy of config in which each flag
    given whose dest is a dotted config key ("train.epochs", ...) sets that
    key. Then write its manifest, which hashes config as given, if it wrote
    any artifact; a stage run with --side gets one manifest per side."""
    hashed = config_hash(config)
    config = copy.deepcopy(config)
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is not None and section:
            config[section][key] = value
    os.makedirs(args.workdir, exist_ok=True)
    side = getattr(args, "side", None)
    manifest_name = (f"{name}.{side}" if side else name) + MANIFEST_SUFFIX
    ctx = StageContext(name, config, hashed, args, manifest_name)
    STAGES[name][0](ctx, args)
    if ctx.outputs:
        ctx.write_manifest()


def _load_split(ctx, args):
    split_dir = ctx.path(args.split_dir or "split")
    for name in aligner.SPLIT_FILES:
        ctx.read(os.path.join(split_dir, name), "dataset split file")
    return aligner.load_split(split_dir)


def _save_split(ctx, split, name):
    split_dir = ctx.path(name)
    aligner.save_split(split, split_dir)
    for file_name in aligner.SPLIT_FILES:
        ctx.write(os.path.join(split_dir, file_name))
    return split_dir


def _load_vocab(ctx, side):
    return subword.load_vocab(ctx.read(ctx.path(f"vocab.{side}.tsv"),
                                       f"{side} subword vocab"))


def _input_lines(ctx, args):
    """--text as one line, or the lines of the --input file."""
    if args.text is not None and args.input is not None:
        raise ValueError(f"{ctx.stage} takes --text or --input, not both")
    if args.text is not None:
        return [args.text]
    if args.input is None:
        raise ValueError(f"{ctx.stage} requires --text or --input")
    return [line for _, line in read_lines(ctx.read(args.input, "input text"))]


# --- synthetic corpus -------------------------------------------------------

_SYN_SRC = ["ba", "ce", "di", "fo", "gu", "ha", "ji", "ke", "lo", "mu",
            "na", "pe", "qi", "ro", "su", "ta", "vi", "wo", "yu", "za"]
_SYN_MAP = {w: w.upper() for w in _SYN_SRC}


def generate_synthetic_corpus(n_units, seed=0):
    """Reversible word-mapped parallel units for tests and demos. About a
    quarter of them get one extra target sentence, last: variable units."""
    rng = random.Random(derive_seed(seed, "synthetic"))
    units = []
    for i in range(n_units):
        n_sents = rng.randint(1, 3)
        src_sents, tgt_sents = [], []
        for _ in range(n_sents):
            words = [rng.choice(_SYN_SRC) for _ in range(rng.randint(3, 7))]
            src_sents.append(" ".join(words) + ".")
            tgt_sents.append(" ".join(_SYN_MAP[w] for w in words) + ".")
        if rng.random() < 0.25:
            extra = [rng.choice(_SYN_SRC) for _ in range(rng.randint(3, 5))]
            tgt_sents.append(" ".join(_SYN_MAP[w] for w in extra) + ".")
        units.append({
            "id": f"syn-{i:06d}", "book": "SYN", "chapter": 1 + i // 100,
            "verse": i % 100, "src": " ".join(src_sents),
            "tgt": " ".join(tgt_sents),
        })
    return units


# --- stages -----------------------------------------------------------------

def cmd_ingest(ctx, args):
    if args.synthetic and args.input is not None:
        raise ValueError("ingest takes --input or --synthetic N, not both")
    if args.synthetic and vars(args)["corpus.format"] is not None:
        raise ValueError("ingest --format applies to --input, not --synthetic N")
    if args.synthetic:
        # Its text is normalized already, and its keys are in field order.
        corp = corpus.Corpus(units=[
            corpus.ParallelUnit(**record)
            for record in generate_synthetic_corpus(args.synthetic, ctx.seed())])
    elif args.input:
        corp = corpus.load_corpus(ctx.read(args.input, "input corpus"),
                                  ctx.config["corpus"]["format"])
    else:
        raise ValueError("ingest requires --input or --synthetic N")
    out_path = ctx.write(ctx.path("corpus.jsonl"))
    corpus.save_corpus(corp, out_path)
    print(f"ingested {len(corp.units)} units -> {out_path}")


def cmd_stats(ctx, args):
    corp = corpus.load_corpus(ctx.read(ctx.path("corpus.jsonl"), "corpus"))
    stats = corpus.corpus_stats(corp, side=args.side, k=args.top_k)
    out_path = ctx.write(ctx.path(f"stats.{args.side}.json"))
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(dataclasses.asdict(stats), f, indent=2, ensure_ascii=False)
    print(f"units={stats.unit_count} sentences={stats.sentence_count} "
          f"words={stats.word_count} unique={stats.unique_word_count}")
    print(f"stats -> {out_path}")


def cmd_split(ctx, args):
    corp = corpus.load_corpus(ctx.read(ctx.path("corpus.jsonl"), "corpus"))
    split = aligner.split_dataset(aligner.explode_corpus(corp),
                                  ratios=tuple(ctx.config["split"]["ratios"]),
                                  seed=ctx.seed(value=args.split_seed))
    ctx.counts["units"] = len(corp.units)
    ctx.counts["pairs"] = {
        group: {part: sum(p.group == group for p in getattr(split, part))
                for part in aligner.SPLIT_PARTS}
        for group in aligner.GROUPS}
    split_dir = _save_split(ctx, split, "split")
    print(f"split: train={len(split.train)} test={len(split.test)} "
          f"validation={len(split.validation)} -> {split_dir}")


def cmd_embed(ctx, args):
    split = _load_split(ctx, args)
    sentences = [words for p in split.train
                 if (words := corpus.words(getattr(p, args.side)))]
    # Before training and before any write: an unknown query word fails at
    # once and leaves no file behind.
    if args.query and args.query not in analysis.vocabulary(
            sentences, ctx.config["embeddings"]["min_count"]):
        raise analysis.AnalysisError(f"word {args.query!r} not in vocabulary")
    model = analysis.train_embeddings(sentences, **ctx.config["embeddings"],
                                      seed=ctx.seed())
    neighbors = analysis.most_similar(model, args.query, k=10) if args.query else []
    out_path = ctx.write(ctx.path(f"embeddings.{args.side}.bin"))
    analysis.save_embeddings(model, out_path)
    print(f"trained {len(model.words)}-word embeddings (dim {model.dim}) -> {out_path}")
    for word, sim in neighbors:
        print(f"  {word}\t{sim:.4f}")


def cmd_report(ctx, args):
    corp = corpus.load_corpus(ctx.read(ctx.path("corpus.jsonl"), "corpus"))
    counts = Counter(corpus.side_tokens(corp, args.side))
    # All of it before the first write, so that a failure leaves no file.
    ranked = {direction: corpus.top_words(counts, args.top_k, direction)
              for direction in ("most", "least")}
    if args.project_word:
        model = analysis.load_embeddings(
            ctx.read(ctx.path(f"embeddings.{args.side}.bin"), "embedding model"))
        rows = analysis.project_2d(model, args.project_word, args.top_k)
    for direction, words in ranked.items():
        with open(ctx.write(ctx.path(f"freq.{args.side}.{direction}.tsv")), "w",
                  encoding="utf-8") as f:
            f.write("word\tcount\n")
            for word, count in words:
                f.write(f"{word}\t{count}\n")
    if args.project_word:
        with open(ctx.write(ctx.path(f"projection.{args.side}.tsv")), "w",
                  encoding="utf-8") as f:
            f.write("word\tx\ty\tclass\n")
            for word, x, y, cls in rows:
                f.write(f"{word}\t{x:.6f}\t{y:.6f}\t{cls}\n")
    print("report ->", ", ".join(ctx.outputs))


def cmd_tok_train(ctx, args):
    split = _load_split(ctx, args)
    vocab_size = ctx.config["tokenizer"]["vocab_size"]
    # Both sides before the first write, so that a failure leaves no file.
    vocabs = {side: subword.train_tokenizer([getattr(p, side) for p in split.train],
                                            vocab_size)
              for side in corpus.SIDES}
    for side, vocab in vocabs.items():
        path = ctx.write(ctx.path(f"vocab.{side}.tsv"))
        subword.save_vocab(vocab, path)
        print(f"{side}: {len(vocab)} pieces -> {path}")


def cmd_tok_apply(ctx, args):
    vocab = _load_vocab(ctx, args.side)
    for line in _input_lines(ctx, args):
        ids = subword.encode(vocab, corpus.normalize_text(line))
        print(" ".join(str(i) for i in ids))


def cmd_augment(ctx, args):
    split = _load_split(ctx, args)
    acfg = ctx.config["augment"]
    policy = augment.AugmentPolicy(
        ops=tuple(acfg["ops"]), alpha=acfg["alpha"], n_aug=acfg["n_aug"],
        max_pairs=acfg["max_pairs"], seed=ctx.seed())
    lexicon = augment.load_lexicon(ctx.read(acfg["lexicon"], "synonym lexicon")) \
        if acfg["lexicon"] else None
    model = None
    if "embed_replace" in policy.ops:
        model = analysis.load_embeddings(
            ctx.read(ctx.path(f"embeddings.{acfg['side']}.bin"), "embedding model"))
    augmented = augment.augment_training_set(split, acfg["side"], policy,
                                             lexicon=lexicon, model=model)
    out_dir = _save_split(ctx, augmented, "augmented")
    ctx.counts.update(train_before=len(split.train), train_after=len(augmented.train))
    print(f"augment: train {len(split.train)} -> {len(augmented.train)} pairs "
          f"-> {out_dir}")


def _encode_pairs(pairs, src_vocab, tgt_vocab, max_len):
    encoded = [(subword.encode(src_vocab, p.src), subword.encode(tgt_vocab, p.tgt))
               for p in pairs]
    kept = [pair for pair in encoded if nmt.length_error(max_len, *pair) is None]
    return kept, len(encoded) - len(kept)


def cmd_train(ctx, args):
    split = _load_split(ctx, args)
    src_vocab, tgt_vocab = _load_vocab(ctx, "src"), _load_vocab(ctx, "tgt")
    model_config = nmt.ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
        **ctx.config["model"], seed=ctx.seed("model-init"))
    train_config = nmt.TrainConfig(**ctx.config["train"], seed=ctx.seed())

    pairs, skipped = _encode_pairs(split.train, src_vocab, tgt_vocab,
                                   model_config.max_len)
    if skipped:
        print(f"warning: skipped {skipped} over-length pairs", file=sys.stderr)
    val_pairs, val_skipped = _encode_pairs(split.validation, src_vocab, tgt_vocab,
                                           model_config.max_len)
    if val_skipped:
        print(f"warning: skipped {val_skipped} over-length validation pairs",
              file=sys.stderr)
    ctx.counts.update(pairs=len(pairs), skipped=skipped,
                      validation_pairs=len(val_pairs), validation_skipped=val_skipped)
    model = nmt.init_model(model_config)
    start = last = time.perf_counter()

    def report(entry):
        # stderr, not a file: wall times would make artifacts differ run to run
        nonlocal last
        now = time.perf_counter()
        print(json.dumps({"event": "epoch", **entry, "pairs": len(pairs),
                          "pairs_per_s": len(pairs) / (now - last),
                          "elapsed_s": now - start}), file=sys.stderr)
        last = now

    model, history = nmt.train(model, pairs, train_config,
                               validation_pairs=val_pairs or None, on_epoch=report)
    ckpt = ctx.write(ctx.path("model.ckpt"))
    nmt.save_checkpoint(model, ckpt)
    nmt.save_loss_history(history, ctx.write(ctx.path("loss.csv")))
    print(f"trained {train_config.epochs} epochs, "
          f"final loss {history[-1]['mean_loss']:.4f} -> {ckpt}")


def cmd_translate(ctx, args):
    model = nmt.load_checkpoint(ctx.read(ctx.path("model.ckpt"), "model checkpoint"))
    src_vocab, tgt_vocab = _load_vocab(ctx, "src"), _load_vocab(ctx, "tgt")
    for side, vocab in (("src", src_vocab), ("tgt", tgt_vocab)):
        trained = getattr(model.config, f"{side}_vocab_size")
        if len(vocab) != trained:
            raise ValueError(f"{ctx.path(f'vocab.{side}.tsv')} has {len(vocab)} pieces, "
                             f"but {ctx.path('model.ckpt')} was trained with {trained}")
    max_len = model.config.max_len
    sources = []
    truncated = []
    for lineno, line in enumerate(_input_lines(ctx, args), start=1):
        src_ids = subword.encode(src_vocab, corpus.normalize_text(line))
        if len(src_ids) > max_len:
            truncated.append(lineno)
            src_ids = src_ids[:max_len]
        sources.append(src_ids)
    # A blank line translates to a blank line, keeping one output per input.
    nonblank = [i for i, src_ids in enumerate(sources) if src_ids]
    results = nmt.translate_batch(model, [sources[i] for i in nonblank])
    out = [""] * len(sources)
    for i, tgt_ids in zip(nonblank, results):
        out[i] = subword.decode(tgt_vocab, tgt_ids)
    if truncated:
        print(f"warning: truncated {len(truncated)} source lines longer than "
              f"max_len={max_len} tokens (first: line {truncated[0]})", file=sys.stderr)
    if args.output:
        ctx.counts.update(lines=len(out), truncated=len(truncated))
        with open(ctx.write(args.output), "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in out))
        print(f"translated {len(out)} lines -> {args.output}")
    else:
        for line in out:
            print(line)


def cmd_evaluate(ctx, args):
    hyps = [corpus.normalize_text(h).split()
            for _, h in read_lines(ctx.read(args.hyp, "hypothesis file"))]
    refs = [corpus.normalize_text(r).split()
            for _, r in read_lines(ctx.read(args.ref, "reference file"))]
    if len(hyps) != len(refs):
        raise ValueError(f"hypothesis/reference count mismatch: {args.hyp} has "
                         f"{len(hyps)} lines, {args.ref} has {len(refs)}")
    if not hyps:
        raise ValueError(f"empty corpus: {args.hyp} and {args.ref} have no lines")
    report = bleu.corpus_bleu(hyps, refs, smoothing=ctx.config["evaluation"]["smoothing"])
    with open(ctx.write(ctx.path("bleu.json")), "w", encoding="utf-8") as f:
        json.dump(dataclasses.asdict(report), f, indent=2)
    print(report.summary_line())


def export_records(split):
    # Needs no check of its own: src, tgt and group come from pairs that
    # aligner built or that load_split checked, and the rest is an f-string
    # id, a SPLIT_PARTS name and a bool.
    return [{"id": f"{name}-{i:06d}", "source": p.src, "target": p.tgt, "split": name,
             "group": p.group, "augmented": bool(p.augmented)}
            for name in aligner.SPLIT_PARTS for i, p in enumerate(getattr(split, name))]


def cmd_export_ft(ctx, args):
    records = export_records(_load_split(ctx, args))
    out_path = ctx.write(ctx.path("finetune.jsonl"))
    write_jsonl(out_path, records)
    print(f"exported {len(records)} records -> {out_path}")


# --- argument parsing -------------------------------------------------------

STAGES = {  # name -> (run(ctx, args), help, argparse option specs...)
    "ingest": (cmd_ingest, "load (or synthesize) a parallel corpus",
               arg("--input"), arg("--format", dest="corpus.format", choices=corpus.FORMATS),
               arg("--synthetic", type=positive_int, metavar="N",
                   help="generate N synthetic units instead of reading a file")),
    "stats": (cmd_stats, "corpus-level word statistics", SIDE, TOP_K),
    "split": (cmd_split, "segment, classify and split the corpus",
              arg("--ratios", dest="split.ratios", type=ratios,
                  help="comma-separated train,test,validation ratios"),
              arg("--seed", dest="split_seed", type=int)),
    "embed": (cmd_embed, "train word embeddings on the train split", SIDE,
              arg("--dim", dest="embeddings.dim", type=int),
              arg("--epochs", dest="embeddings.epochs", type=int), SPLIT_DIR,
              arg("--query", help="print nearest neighbors of this word")),
    "report": (cmd_report, "frequency and projection TSVs for plotting", SIDE, TOP_K,
               arg("--project-word")),
    "tok-train": (cmd_tok_train, "train subword vocabularies per side",
                  arg("--vocab-size", dest="tokenizer.vocab_size", type=int), SPLIT_DIR),
    "tok-apply": (cmd_tok_apply, "encode text with a trained vocab", SIDE,
                  arg("--text"), arg("--input")),
    "augment": (cmd_augment, "augment one-to-one train pairs",
                arg("--lexicon", dest="augment.lexicon",
                    help="synonym lexicon file (word TAB syn,syn,...)"),
                SPLIT_DIR),
    "train": (cmd_train, "train the seq2seq model", SPLIT_DIR,
              arg("--epochs", dest="train.epochs", type=int),
              arg("--hidden", dest="model.hidden", type=int)),
    "translate": (cmd_translate, "greedy-decode text with the trained model",
                  arg("--text"), arg("--input"), arg("--output")),
    "evaluate": (cmd_evaluate, "corpus BLEU-4 of hypothesis vs reference",
                 arg("--hyp", required=True), arg("--ref", required=True),
                 arg("--smoothing", dest="evaluation.smoothing",
                     choices=bleu.SMOOTHING_MODES)),
    "export-ft": (cmd_export_ft, "emit fine-tuning-ready JSONL", SPLIT_DIR),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lowmt", description="Low-resource MT pipeline toolkit")
    parser.add_argument("--config", help="YAML pipeline config")
    parser.add_argument("--workdir", default=os.environ.get("LOWMT_WORKDIR") or "work",
                        help="artifact directory (default: $LOWMT_WORKDIR, else work)")
    parser.add_argument("--strict", action="store_true",
                        help="treat stale inputs and config hash mismatches as errors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, *options) in STAGES.items():
        p = sub.add_parser(name, help=help)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        run_stage(args.command, load_config(args.config), args)
    except DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    # A RuntimeError, so checking it second changes no outcome; checked first,
    # it would load nmt for a data error in a stage that never used nmt.
    except nmt.NmtNumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
