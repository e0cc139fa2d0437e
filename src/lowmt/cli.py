"""Pipeline command line: ingest -> split -> stats/embed -> tokenize ->
augment -> train -> translate -> evaluate -> export-ft.

Every stage is one entry of STAGES, run by run_stage() with a StageContext
that checks what the stage reads and records it, with what it writes, the
seeds it draws and the lowmt and numpy versions, in <stage>.manifest.json
(<stage>.<side>.manifest.json for a stage run with --side). A single
top-level seed derives every stage seed via derive_seed(seed, stage_name).
"""

import argparse
import copy
import dataclasses
import json
import os
import random
import sys

import numpy as np
import yaml

from . import __version__, aligner, analysis, augment, bleu, corpus, nmt, subword
from .util import config_hash, derive_seed, sha256_file, write_jsonl

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERICAL = 4

DEFAULT_CONFIG = {
    "seed": 0,
    "workdir": "work",
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

EXPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "id": {"type": "string"},
        "source": {"type": "string", "minLength": 1},
        "target": {"type": "string", "minLength": 1},
        "split": {"enum": ["train", "test", "validation"]},
        "group": {"enum": [aligner.GROUP_ONE2ONE, aligner.GROUP_VARIABLE]},
        "augmented": {"type": "boolean"},
    },
    "required": ["id", "source", "target", "split", "group"],
    "additionalProperties": False,
}

MANIFEST_SUFFIX = ".manifest.json"
MANIFEST_KEYS = {"stage", "config_hash", "inputs", "outputs"}
SPLIT_FILES = ("train.jsonl", "test.jsonl", "validation.jsonl", "manifest.json")


def _deep_merge(base, override, path, prefix=""):
    """base with override's values merged in; a key that base lacks, or a
    non-mapping where base has a section, raises naming its dotted key."""
    merged = dict(base)
    for key, value in override.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            raise ValueError(f"{path}: unknown config key {dotted!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"{path}: config key {dotted!r} must be a mapping")
            value = _deep_merge(base[key], value, path, dotted + ".")
        merged[key] = value
    return merged


def load_config(path=None):
    """Built-in defaults, deep-merged with the YAML file at path; always a
    fresh object that the caller may change."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        with open(path, "r", encoding="utf-8") as f:
            user = yaml.safe_load(f) or {}
        if not isinstance(user, dict):
            raise ValueError(f"{path}: config must be a mapping")
        config = _deep_merge(config, user, path)
    return config


def _override(flag, value):
    """A CLI flag's value if it was given, else the config value."""
    return value if flag is None else flag


def stage_seed(config, stage):
    return derive_seed(config["seed"], stage)


# --- stage runner -----------------------------------------------------------

class StageContext:
    """One stage run: its config and workdir, and the inputs, outputs and
    seeds recorded for its manifest.

    read() checks each artifact against the manifest of the stage that wrote
    it: that stage must have run under the same config, and every file it
    recorded that this stage also reads must still have the recorded digest.
    A mismatch warns, or raises under --strict.
    """

    def __init__(self, stage, config, workdir, strict, manifest_name):
        self.stage = stage
        self.manifest_name = manifest_name
        self.config = config
        self.workdir = workdir
        self.strict = strict
        self.inputs = {}      # path relative to the workdir -> sha256
        self.outputs = []     # paths, in write order
        self.seeds = {}
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
            if self._manifests[source]["config_hash"] != config_hash(self.config):
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
            "config_hash": config_hash(self.config),
            "seeds": self.seeds,
            "versions": {"lowmt": __version__, "numpy": np.__version__},
            "inputs": self.inputs,
            "outputs": {os.path.relpath(p, self.workdir): sha256_file(p)
                        for p in self.outputs},
        }
        with open(self.path(self.manifest_name), "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
        shared = self.stage + MANIFEST_SUFFIX
        if self.manifest_name != shared and os.path.exists(self.path(shared)):
            # Left by a lowmt before per-side names; it would be found first
            # and its stale digests checked instead of this manifest's.
            os.remove(self.path(shared))

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
                        self._complain(f"{self.path(name)}: malformed manifest: {e}")
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
    with open(path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if not (isinstance(manifest, dict) and MANIFEST_KEYS <= manifest.keys()
            and isinstance(manifest["inputs"], dict)
            and isinstance(manifest["outputs"], dict)):
        raise ValueError("expected an object with stage, config_hash, inputs "
                         "and outputs, the last two mappings")
    return manifest


def arg(*flags, **kwargs):
    return flags, kwargs


SIDE = arg("--side", choices=["src", "tgt"], default="src")
TOP_K = arg("--top-k", type=int, default=10)
SPLIT_DIR = arg("--split-dir")


def run_stage(name, config, args):
    """Run one stage, then write its manifest if it wrote any artifact; a
    stage run with --side gets one manifest per side."""
    workdir = args.workdir or os.environ.get("LOWMT_WORKDIR") or config["workdir"]
    os.makedirs(workdir, exist_ok=True)
    side = getattr(args, "side", None)
    manifest_name = (f"{name}.{side}" if side else name) + MANIFEST_SUFFIX
    ctx = StageContext(name, config, workdir, args.strict, manifest_name)
    STAGES[name][0](ctx, args)
    if ctx.outputs:
        ctx.write_manifest()


def _load_split(ctx, args):
    split_dir = ctx.path(args.split_dir or "split")
    for name in SPLIT_FILES:
        path = os.path.join(split_dir, name)
        if name != "manifest.json" or os.path.exists(path):  # manifest is optional
            ctx.read(path, "dataset split file")
    return aligner.load_split(split_dir)


def _save_split(ctx, split, name):
    split_dir = ctx.path(name)
    aligner.save_split(split, split_dir)
    for file_name in SPLIT_FILES:
        ctx.write(os.path.join(split_dir, file_name))
    return split_dir


def _load_vocab(ctx, side):
    return subword.load_vocab(ctx.read(ctx.path(f"vocab.{side}.tsv"),
                                       f"{side} subword vocab"))


def _input_lines(ctx, args):
    """--text as one line, or the lines of the --input file."""
    if args.text is not None:
        return [args.text]
    if args.input is None:
        raise ValueError(f"{ctx.stage} requires --text or --input")
    with open(ctx.read(args.input, "input text"), "r", encoding="utf-8") as f:
        return [ln.rstrip("\n") for ln in f]


# --- synthetic corpus -------------------------------------------------------

_SYN_SRC = ["ba", "ce", "di", "fo", "gu", "ha", "ji", "ke", "lo", "mu",
            "na", "pe", "qi", "ro", "su", "ta", "vi", "wo", "yu", "za"]
_SYN_MAP = {w: w.upper() for w in _SYN_SRC}


def generate_synthetic_corpus(n_units, seed=0, variable_fraction=0.25):
    """Reversible word-mapped parallel units for tests and demos."""
    rng = random.Random(derive_seed(seed, "synthetic"))
    units = []
    for i in range(n_units):
        n_sents = rng.randint(1, 3)
        src_sents, tgt_sents = [], []
        for _ in range(n_sents):
            words = [rng.choice(_SYN_SRC) for _ in range(rng.randint(3, 7))]
            src_sents.append(" ".join(words) + ".")
            tgt_sents.append(" ".join(_SYN_MAP[w] for w in words) + ".")
        if rng.random() < variable_fraction:
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
    if args.synthetic:
        raw = ctx.write(ctx.path("synthetic_raw.jsonl"))
        write_jsonl(raw, generate_synthetic_corpus(args.synthetic, ctx.seed()))
        corp = corpus.load_corpus(raw, "jsonl")
    elif args.input:
        corp = corpus.load_corpus(ctx.read(args.input, "input corpus"),
                                  args.format or ctx.config["corpus"]["format"])
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
    ratios = tuple(float(r) for r in args.ratios.split(",")) if args.ratios \
        else tuple(ctx.config["split"]["ratios"])
    pairs, variables = aligner.explode_corpus(corp)
    split = aligner.split_dataset(pairs, variables, ratios=ratios,
                                  seed=ctx.seed(value=args.seed))
    split.manifest["pre_explosion_units"] = len(corp.units)
    split.manifest["post_explosion"] = {"one2one": len(pairs),
                                        "variable": len(variables)}
    split_dir = _save_split(ctx, split, "split")
    print(f"split: train={len(split.train)} test={len(split.test)} "
          f"validation={len(split.validation)} -> {split_dir}")


def _side_sentences(pairs, side):
    sentences = []
    for p in pairs:
        toks = [corpus.strip_terminal(t) for t in getattr(p, side).split()]
        toks = [t for t in toks if t]
        if toks:
            sentences.append(toks)
    return sentences


def cmd_embed(ctx, args):
    split = _load_split(ctx, args)
    sentences = _side_sentences(split.train, args.side)
    ecfg = ctx.config["embeddings"]
    model = analysis.train_embeddings(
        sentences, dim=_override(args.dim, ecfg["dim"]), window=ecfg["window"],
        negatives=ecfg["negatives"], epochs=_override(args.epochs, ecfg["epochs"]),
        min_count=ecfg["min_count"], seed=ctx.seed())
    out_path = ctx.write(ctx.path(f"embeddings.{args.side}.bin"))
    analysis.save_embeddings(model, out_path)
    print(f"trained {len(model.words)}-word embeddings (dim {model.dim}) -> {out_path}")
    if args.query:
        for word, sim in analysis.most_similar(model, args.query, k=10):
            print(f"  {word}\t{sim:.4f}")


def cmd_report(ctx, args):
    corp = corpus.load_corpus(ctx.read(ctx.path("corpus.jsonl"), "corpus"))
    tokens = corpus.side_tokens(corp, args.side)
    for direction in ("most", "least"):
        ranked = analysis.frequency_report(tokens, args.top_k, direction)
        with open(ctx.write(ctx.path(f"freq.{args.side}.{direction}.tsv")), "w",
                  encoding="utf-8") as f:
            f.write("word\tcount\n")
            for word, count in ranked:
                f.write(f"{word}\t{count}\n")
    if args.project_word:
        model = analysis.load_embeddings(
            ctx.read(ctx.path(f"embeddings.{args.side}.bin"), "embedding model"))
        rows = analysis.project_2d(model, args.project_word, args.top_k, args.top_k)
        with open(ctx.write(ctx.path(f"projection.{args.side}.tsv")), "w",
                  encoding="utf-8") as f:
            f.write("word\tx\ty\tclass\n")
            for word, x, y, cls in rows:
                f.write(f"{word}\t{x:.6f}\t{y:.6f}\t{cls}\n")
    print("report ->", ", ".join(ctx.outputs))


def cmd_tok_train(ctx, args):
    split = _load_split(ctx, args)
    vocab_size = _override(args.vocab_size, ctx.config["tokenizer"]["vocab_size"])
    for side in ("src", "tgt"):
        sentences = [getattr(p, side) for p in split.train]
        vocab = subword.train_tokenizer(sentences, vocab_size)
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
    lexicon_path = args.lexicon or acfg["lexicon"]
    lexicon = augment.load_lexicon(ctx.read(lexicon_path, "synonym lexicon")) \
        if lexicon_path else None
    model = None
    if "embed_replace" in policy.ops:
        model = analysis.load_embeddings(
            ctx.read(ctx.path(f"embeddings.{acfg['side']}.bin"), "embedding model"))
    augmented = augment.augment_training_set(split, acfg["side"], policy,
                                             lexicon=lexicon, model=model)
    out_dir = _save_split(ctx, augmented, "augmented")
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
    mcfg = ctx.config["model"]
    tcfg = ctx.config["train"]
    model_config = nmt.ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
        hidden=_override(args.hidden, mcfg["hidden"]), max_len=mcfg["max_len"],
        dropout_p=mcfg["dropout_p"], seed=ctx.seed("model-init"))
    train_config = nmt.TrainConfig(
        epochs=_override(args.epochs, tcfg["epochs"]),
        learning_rate=tcfg["learning_rate"],
        teacher_forcing_ratio=tcfg["teacher_forcing_ratio"],
        grad_clip_norm=tcfg["grad_clip_norm"], seed=ctx.seed())

    pairs, skipped = _encode_pairs(split.train, src_vocab, tgt_vocab,
                                   model_config.max_len)
    if skipped:
        print(f"warning: skipped {skipped} over-length pairs", file=sys.stderr)
    val_pairs, _ = _encode_pairs(split.validation, src_vocab, tgt_vocab,
                                 model_config.max_len)
    model = nmt.init_model(model_config)
    model, history = nmt.train(model, pairs, train_config,
                               validation_pairs=val_pairs or None)
    ckpt = ctx.write(ctx.path("model.ckpt"))
    nmt.save_checkpoint(model, ckpt)
    nmt.save_loss_history(history, ctx.write(ctx.path("loss.csv")))
    print(f"trained {train_config.epochs} epochs, "
          f"final loss {history[-1]['mean_loss']:.4f} -> {ckpt}")


def cmd_translate(ctx, args):
    model = nmt.load_checkpoint(ctx.read(ctx.path("model.ckpt"), "model checkpoint"))
    src_vocab, tgt_vocab = _load_vocab(ctx, "src"), _load_vocab(ctx, "tgt")
    max_len = model.config.max_len
    out = []
    truncated = []
    for lineno, line in enumerate(_input_lines(ctx, args), start=1):
        src_ids = subword.encode(src_vocab, corpus.normalize_text(line))
        if len(src_ids) > max_len:
            truncated.append(lineno)
            src_ids = src_ids[:max_len]
        # A blank line translates to a blank line, keeping one output per input.
        tgt_ids = nmt.translate(model, src_ids)[0] if src_ids else []
        out.append(subword.decode(tgt_vocab, tgt_ids))
    if truncated:
        print(f"warning: truncated {len(truncated)} source lines longer than "
              f"max_len={max_len} tokens (first: line {truncated[0]})", file=sys.stderr)
    if args.output:
        with open(ctx.write(args.output), "w", encoding="utf-8") as f:
            f.write("\n".join(out) + "\n")
        print(f"translated {len(out)} lines -> {args.output}")
    else:
        for line in out:
            print(line)


def cmd_evaluate(ctx, args):
    with open(ctx.read(args.hyp, "hypothesis file"), "r", encoding="utf-8") as f:
        hyps = [corpus.normalize_text(ln).split() for ln in f.read().splitlines()]
    with open(ctx.read(args.ref, "reference file"), "r", encoding="utf-8") as f:
        refs = [corpus.normalize_text(ln).split() for ln in f.read().splitlines()]
    smoothing = args.smoothing or ctx.config["evaluation"]["smoothing"]
    report = bleu.corpus_bleu(hyps, refs, smoothing=smoothing)
    with open(ctx.write(ctx.path("bleu.json")), "w", encoding="utf-8") as f:
        json.dump(dataclasses.asdict(report), f, indent=2)
    print(report.summary_line())


def export_records(split):
    records = []
    for name, pairs in (("train", split.train), ("test", split.test),
                        ("validation", split.validation)):
        for i, p in enumerate(pairs):
            records.append({"id": f"{name}-{i:06d}", "source": p.src,
                            "target": p.tgt, "split": name, "group": p.group,
                            "augmented": bool(p.augmented)})
    return records


def validate_export(records):
    """Check export records against the fine-tuning JSONL schema."""
    import jsonschema
    validator = jsonschema.Draft7Validator(EXPORT_SCHEMA)
    for i, rec in enumerate(records):
        errors = list(validator.iter_errors(rec))
        if errors:
            raise ValueError(f"export record {i} invalid: {errors[0].message}")


def cmd_export_ft(ctx, args):
    records = export_records(_load_split(ctx, args))
    validate_export(records)
    out_path = ctx.write(ctx.path("finetune.jsonl"))
    write_jsonl(out_path, records)
    print(f"exported {len(records)} records -> {out_path}")


# --- argument parsing -------------------------------------------------------

STAGES = {  # name -> (run(ctx, args), help, argparse option specs...)
    "ingest": (cmd_ingest, "load (or synthesize) a parallel corpus",
               arg("--input"), arg("--format", choices=["jsonl", "tsv"]),
               arg("--synthetic", type=int, metavar="N",
                   help="generate N synthetic units instead of reading a file")),
    "stats": (cmd_stats, "corpus-level word statistics", SIDE, TOP_K),
    "split": (cmd_split, "segment, classify and split the corpus",
              arg("--ratios", help="comma-separated train,test,validation ratios"),
              arg("--seed", type=int)),
    "embed": (cmd_embed, "train word embeddings on the train split", SIDE,
              arg("--dim", type=int), arg("--epochs", type=int), SPLIT_DIR,
              arg("--query", help="print nearest neighbors of this word")),
    "report": (cmd_report, "frequency and projection TSVs for plotting", SIDE, TOP_K,
               arg("--project-word")),
    "tok-train": (cmd_tok_train, "train subword vocabularies per side",
                  arg("--vocab-size", type=int), SPLIT_DIR),
    "tok-apply": (cmd_tok_apply, "encode text with a trained vocab", SIDE,
                  arg("--text"), arg("--input")),
    "augment": (cmd_augment, "augment one-to-one train pairs",
                arg("--lexicon", help="synonym lexicon file (word TAB syn,syn,...)"),
                SPLIT_DIR),
    "train": (cmd_train, "train the seq2seq model", SPLIT_DIR,
              arg("--epochs", type=int), arg("--hidden", type=int)),
    "translate": (cmd_translate, "greedy-decode text with the trained model",
                  arg("--text"), arg("--input"), arg("--output")),
    "evaluate": (cmd_evaluate, "corpus BLEU-4 of hypothesis vs reference",
                 arg("--hyp", required=True), arg("--ref", required=True),
                 arg("--smoothing", choices=list(bleu.SMOOTHING_MODES))),
    "export-ft": (cmd_export_ft, "emit fine-tuning-ready JSONL", SPLIT_DIR),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lowmt", description="Low-resource MT pipeline toolkit")
    parser.add_argument("--config", help="YAML pipeline config")
    parser.add_argument("--workdir", help="artifact directory (or $LOWMT_WORKDIR)")
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
    except nmt.NmtNumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
