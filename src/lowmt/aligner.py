"""Sentence segmentation, unit classification/explosion, and dataset splitting.

A unit whose two sides segment into the same number of sentences becomes one
`one2one` TextPair per sentence, any other unit one `variable` TextPair
holding it whole. split_dataset splits each group 0.8/0.1/0.1 on its own and
merges the parts in group order. A split directory holds the SPLIT_FILES,
one JSONL file per part, and nothing else: the split stage's manifest, which
cli writes, records the seed, the ratios and the counts.
"""

import os
import random
import re
from dataclasses import dataclass

from .corpus import TERMINAL_MARKS
from .util import check_record, derive_seed, read_jsonl, write_jsonl

# Sentence boundary: terminal mark, optional closing quotes/brackets that
# adhere to the preceding sentence, then whitespace or end of text.
_BOUNDARY = re.compile(f"[{re.escape(TERMINAL_MARKS)}]" + r'["\'\)\]\}”’»]*(?=\s|$)')

GROUP_ONE2ONE = "one2one"
GROUP_VARIABLE = "variable"
GROUPS = (GROUP_ONE2ONE, GROUP_VARIABLE)
_TEXT = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
RECORD_FIELDS = {
    "src": (True, *_TEXT), "tgt": (True, *_TEXT),
    "origin_id": (True, lambda v: isinstance(v, str), "a string"),
    "group": (True, lambda v: v in GROUPS, " or ".join(GROUPS)),
    "augmented": (False, lambda v: isinstance(v, bool), "a bool"),
    "aug_ops": (False, lambda v: isinstance(v, list)
                and all(isinstance(op, str) for op in v), "a list of strings"),
}
SPLIT_PARTS = ("train", "test", "validation")
SPLIT_FILES = tuple(f"{part}.jsonl" for part in SPLIT_PARTS)


class AlignError(ValueError):
    """Unit cannot be segmented or split parameters are invalid."""


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
    """Return the unit's TextPairs: one one2one pair per sentence when both
    sides have as many sentences, else one variable pair holding the unit."""
    src_sents = segment_sentences(unit.src)
    tgt_sents = segment_sentences(unit.tgt)
    if not src_sents or not tgt_sents:
        raise AlignError(f"unit {unit.id}: zero sentences on one side")
    if len(src_sents) == len(tgt_sents):
        return [TextPair(s, t, unit.id, GROUP_ONE2ONE)
                for s, t in zip(src_sents, tgt_sents)]
    return [TextPair(unit.src, unit.tgt, unit.id, GROUP_VARIABLE)]


def explode_corpus(corpus):
    """Classify every unit; returns all their TextPairs in corpus order."""
    return [pair for unit in corpus.units for pair in classify_and_explode(unit)]


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


def split_dataset(pairs, ratios=(0.8, 0.1, 0.1), seed=0):
    """Split each group in GROUPS independently and merge partition-wise.

    Shuffling uses Python's random.Random (Mersenne Twister, stable across
    CPython versions) seeded per group via derive_seed(seed, "split", group).
    A pair of any other group raises AlignError naming it: none is dropped.
    """
    # Written so that a NaN ratio fails: every comparison with NaN is false.
    if len(ratios) != 3 or not all(r >= 0 for r in ratios):
        raise AlignError(f"invalid split ratios {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise AlignError(f"split ratios {ratios} do not sum to 1")
    stray = next((p for p in pairs if p.group not in GROUPS), None)
    if stray is not None:
        raise AlignError(f"pair from {stray.origin_id}: group {stray.group!r} "
                         f"is not {' or '.join(GROUPS)}")

    parts = {part: [] for part in SPLIT_PARTS}
    for group in GROUPS:
        members = [p for p in pairs if p.group == group]
        rng = random.Random(derive_seed(seed, "split", group))
        for part, items in zip(SPLIT_PARTS, _partition(members, ratios, rng)):
            parts[part].extend(items)
    return DatasetSplit(**parts)


def save_split(split, outdir):
    os.makedirs(outdir, exist_ok=True)
    for part, name in zip(SPLIT_PARTS, SPLIT_FILES):
        write_jsonl(os.path.join(outdir, name),
                    [p.to_record() for p in getattr(split, part)])


def _pairs_from_file(path):
    return [TextPair.from_record(
        check_record(rec, RECORD_FIELDS, f"{path}: line {lineno}", AlignError))
        for lineno, rec in read_jsonl(path)]


def load_split(outdir):
    """Read the SPLIT_FILES of a save_split directory; a record that
    RECORD_FIELDS rejects raises AlignError naming the file and the line."""
    return DatasetSplit(**{part: _pairs_from_file(os.path.join(outdir, name))
                           for part, name in zip(SPLIT_PARTS, SPLIT_FILES)})
