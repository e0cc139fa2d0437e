"""Sentence segmentation, unit classification/explosion, and dataset splitting.

Units whose two sides segment into the same number of sentences are exploded
into one-to-one sentence pairs; units with unequal counts are kept whole.
Both groups are split 0.8/0.1/0.1 independently and merged partition-wise.
"""

import json
import os
import random
import re
from dataclasses import dataclass, field

from .util import derive_seed, write_jsonl, read_jsonl

# Sentence boundary: terminal mark, optional closing quotes/brackets that
# adhere to the preceding sentence, then whitespace or end of text.
_BOUNDARY = re.compile(r'[.!?]["\'\)\]\}”’»]*(?=\s|$)')

GROUP_ONE2ONE = "one2one"
GROUP_VARIABLE = "variable"
RECORD_KEYS = ("src", "tgt", "origin_id", "group")   # required in split files
_TEXT = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
# key -> (check of its value, what the check asks for); the last two keys
# are optional.
RECORD_VALUES = {
    "src": _TEXT, "tgt": _TEXT,
    "origin_id": (lambda v: isinstance(v, str), "a string"),
    "group": (lambda v: v in (GROUP_ONE2ONE, GROUP_VARIABLE),
              f"{GROUP_ONE2ONE} or {GROUP_VARIABLE}"),
    "augmented": (lambda v: isinstance(v, bool), "a bool"),
    "aug_ops": (lambda v: isinstance(v, list) and all(isinstance(op, str) for op in v),
                "a list of strings"),
}
SPLIT_PARTS = ("train", "test", "validation")
SPLIT_FILES = tuple(f"{part}.jsonl" for part in SPLIT_PARTS) + ("manifest.json",)


class AlignError(ValueError):
    """Unit cannot be segmented or split parameters are invalid."""


@dataclass(frozen=True)
class SentencePair:
    src: str
    tgt: str
    origin_id: str
    index: int


@dataclass(frozen=True)
class VariableUnit:
    src: str
    tgt: str
    origin_id: str
    src_sentence_count: int
    tgt_sentence_count: int


@dataclass(frozen=True)
class TextPair:
    """One split item: either an exploded sentence pair or a whole variable unit."""

    src: str
    tgt: str
    origin_id: str
    group: str
    augmented: bool = False
    aug_ops: tuple = ()

    def to_record(self):
        rec = {"src": self.src, "tgt": self.tgt,
               "origin_id": self.origin_id, "group": self.group}
        if self.augmented:
            rec["augmented"] = True
            rec["aug_ops"] = list(self.aug_ops)
        return rec

    @classmethod
    def from_record(cls, rec):
        return cls(src=rec["src"], tgt=rec["tgt"], origin_id=rec["origin_id"],
                   group=rec["group"], augmented=rec.get("augmented", False),
                   aug_ops=tuple(rec.get("aug_ops", ())))


@dataclass
class DatasetSplit:
    train: list
    test: list
    validation: list
    manifest: dict = field(default_factory=dict)


def segment_sentences(text):
    """Split normalized text into sentences at ., !, ? boundaries.

    Joining the result with single spaces reproduces the input.
    """
    if not text:
        return []
    sentences = []
    start = 0
    for m in _BOUNDARY.finditer(text):
        sent = text[start:m.end()].strip()
        if sent:
            sentences.append(sent)
        start = m.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def classify_and_explode(unit):
    """Return a list of SentencePair (same-length unit) or a VariableUnit."""
    src_sents = segment_sentences(unit.src)
    tgt_sents = segment_sentences(unit.tgt)
    if not src_sents or not tgt_sents:
        raise AlignError(f"unit {unit.id}: zero sentences on one side")
    if len(src_sents) == len(tgt_sents):
        return [SentencePair(src=s, tgt=t, origin_id=unit.id, index=i)
                for i, (s, t) in enumerate(zip(src_sents, tgt_sents))]
    return VariableUnit(src=unit.src, tgt=unit.tgt, origin_id=unit.id,
                        src_sentence_count=len(src_sents),
                        tgt_sentence_count=len(tgt_sents))


def explode_corpus(corpus):
    """Classify every unit; returns (sentence_pairs, variable_units)."""
    pairs, variables = [], []
    for unit in corpus.units:
        out = classify_and_explode(unit)
        if isinstance(out, VariableUnit):
            variables.append(out)
        else:
            pairs.extend(out)
    return pairs, variables


def _partition(items, ratios, rng):
    """Shuffle then slice: test first, validation second, train the remainder.

    Remainder items from floor rounding always land in train.
    """
    shuffled = list(items)
    rng.shuffle(shuffled)
    n = len(shuffled)
    # +1e-9 guards against 0.1 rounding just below an exact multiple
    n_test = int(n * ratios[1] + 1e-9)
    n_val = int(n * ratios[2] + 1e-9)
    test = shuffled[:n_test]
    validation = shuffled[n_test:n_test + n_val]
    train = shuffled[n_test + n_val:]
    return train, test, validation


def split_dataset(one2one, variable, ratios=(0.8, 0.1, 0.1), seed=0):
    """Split both groups independently and merge partition-wise.

    Shuffling uses Python's random.Random (Mersenne Twister, stable across
    CPython versions) seeded per group via derive_seed(seed, group).
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise AlignError(f"invalid split ratios {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise AlignError(f"split ratios {ratios} do not sum to 1")

    o_pairs = [TextPair(p.src, p.tgt, p.origin_id, GROUP_ONE2ONE) for p in one2one]
    v_pairs = [TextPair(v.src, v.tgt, v.origin_id, GROUP_VARIABLE) for v in variable]

    o_train, o_test, o_val = _partition(
        o_pairs, ratios, random.Random(derive_seed(seed, "split", GROUP_ONE2ONE)))
    v_train, v_test, v_val = _partition(
        v_pairs, ratios, random.Random(derive_seed(seed, "split", GROUP_VARIABLE)))

    manifest = {
        "seed": seed,
        "ratios": list(ratios),
        "group_counts": {
            GROUP_ONE2ONE: {"total": len(o_pairs), "train": len(o_train),
                            "test": len(o_test), "validation": len(o_val)},
            GROUP_VARIABLE: {"total": len(v_pairs), "train": len(v_train),
                             "test": len(v_test), "validation": len(v_val)},
        },
    }
    return DatasetSplit(train=o_train + v_train, test=o_test + v_test,
                        validation=o_val + v_val, manifest=manifest)


def save_split(split, outdir):
    os.makedirs(outdir, exist_ok=True)
    for part in SPLIT_PARTS:
        write_jsonl(os.path.join(outdir, f"{part}.jsonl"),
                    [p.to_record() for p in getattr(split, part)])
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(split.manifest, f, indent=2, ensure_ascii=False)


def _pairs_from_file(path):
    pairs = []
    for lineno, rec in read_jsonl(path):
        missing = [k for k in RECORD_KEYS if not isinstance(rec, dict) or k not in rec]
        if missing:
            raise AlignError(f"{path}: line {lineno}: record lacks {', '.join(missing)}")
        for key, (check, kind) in RECORD_VALUES.items():
            if key in rec and not check(rec[key]):
                raise AlignError(f"{path}: line {lineno}: record key {key!r} must be "
                                 f"{kind}, got {rec[key]!r}")
        pairs.append(TextPair.from_record(rec))
    return pairs


def load_split(outdir):
    """Read a save_split directory; a record without the keys TextPair needs
    or with a value that RECORD_VALUES rejects, or a manifest.json that is
    not a JSON object, raises AlignError naming the file (and the line)."""
    parts = {part: _pairs_from_file(os.path.join(outdir, f"{part}.jsonl"))
             for part in SPLIT_PARTS}
    manifest_path = os.path.join(outdir, "manifest.json")
    manifest = {}
    if os.path.exists(manifest_path):
        with open(manifest_path, "r", encoding="utf-8") as f:
            try:
                manifest = json.load(f)
            except ValueError as e:
                raise AlignError(f"{manifest_path}: not valid JSON: {e}") from e
        if not isinstance(manifest, dict):
            raise AlignError(f"{manifest_path}: expected a JSON object")
    return DatasetSplit(**parts, manifest=manifest)
