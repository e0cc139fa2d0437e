"""Verse-aligned parallel corpus: loading, normalization, statistics.

Corpus files are JSONL (one object per line, UTF-8) with keys
{id, book, chapter, verse, src, tgt}, or TSV with the same columns and a
header row.
"""

import json
import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass, field

from .util import check_record, read_jsonl, read_lines, write_jsonl

TERMINAL_MARKS = ".!?"

TSV_COLUMNS = ["id", "book", "chapter", "verse", "src", "tgt"]
FORMATS = ("jsonl", "tsv")
SIDES = ("src", "tgt")


class CorpusError(ValueError):
    """Malformed corpus input or invalid text."""


def normalize_text(raw):
    """NFC-normalize, replace punctuation by spaces, collapse whitespace.

    Sentence-terminal marks (. ! ?) are kept so the aligner can still segment;
    they are stripped later for word counting and model input. Combining
    diacritics are never touched (Santali Roman needs them).
    """
    if not isinstance(raw, str):
        raise CorpusError(f"expected text, got {type(raw).__name__}")
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as e:
        raise CorpusError(f"invalid Unicode input: {e}") from e
    out = []
    for ch in unicodedata.normalize("NFC", raw):
        if ch not in TERMINAL_MARKS and unicodedata.category(ch).startswith("P"):
            out.append(" ")
        else:
            out.append(ch)
    return " ".join("".join(out).split())


@dataclass(frozen=True)
class ParallelUnit:
    id: str
    book: str
    chapter: int
    verse: int
    src: str
    tgt: str


@dataclass
class Corpus:
    units: list


@dataclass
class CorpusStats:
    unit_count: int
    sentence_count: int
    word_count: int
    unique_word_count: int
    count_histogram: dict = field(default_factory=dict)
    top_k: list = field(default_factory=list)
    bottom_k: list = field(default_factory=list)


_TEXT = (lambda v: isinstance(v, str), "a string")
# A TSV cell is always text, so a count may be one of decimal digits.
_COUNT = (lambda v: (type(v) is int and v >= 0) or (isinstance(v, str) and v.isdecimal()),
          "a non-negative integer or a string of decimal digits")
RECORD_FIELDS = {
    "id": (True, lambda v: isinstance(v, str) or type(v) is int, "a string or an integer"),
    "book": (False, *_TEXT), "chapter": (False, *_COUNT), "verse": (False, *_COUNT),
    "src": (True, *_TEXT), "tgt": (True, *_TEXT),
}


def _unit_from_record(record, where):
    check_record(record, RECORD_FIELDS, where, CorpusError)
    src = normalize_text(record["src"])
    tgt = normalize_text(record["tgt"])
    if not src or not tgt:
        raise CorpusError(f"{where}: empty src or tgt")
    return ParallelUnit(
        id=str(record["id"]),
        book=record.get("book", ""),
        chapter=int(record.get("chapter", 0)),
        verse=int(record.get("verse", 0)),
        src=src,
        tgt=tgt,
    )


def _tsv_records(path):
    """(line number, record) for each non-blank row under the header."""
    rows = [(lineno, line.split("\t")) for lineno, line in read_lines(path)
            if lineno == 1 or line.strip()]
    if rows and rows[0][1] != TSV_COLUMNS:
        raise CorpusError(f"{path}: bad TSV header {rows[0][1]}")
    for lineno, cells in rows[1:]:
        if len(cells) != len(TSV_COLUMNS):
            raise CorpusError(f"{path}: malformed record at line {lineno}: "
                              f"expected {len(TSV_COLUMNS)} columns, got {len(cells)}")
    return [(lineno, dict(zip(TSV_COLUMNS, cells))) for lineno, cells in rows[1:]]


def load_corpus(path, format="jsonl"):
    """Read a corpus file, normalizing every text via normalize_text."""
    if format == "tsv":
        records = _tsv_records(path)
    elif format == "jsonl":
        try:
            records = read_jsonl(path)
        except ValueError as e:
            raise CorpusError(str(e)) from e
    else:
        raise CorpusError(f"unknown corpus format {format!r}")
    units = []
    seen_ids = set()
    for lineno, record in records:
        unit = _unit_from_record(record, f"{path}: line {lineno}")
        if unit.id in seen_ids:
            raise CorpusError(f"{path}: duplicate id {unit.id!r} at line {lineno}")
        seen_ids.add(unit.id)
        units.append(unit)
    if not units:
        raise CorpusError(f"{path}: empty corpus file")
    return Corpus(units=units)


def save_corpus(corpus, path):
    write_jsonl(path, [asdict(u) for u in corpus.units])


def words(text):
    """Whitespace tokens of text with terminal punctuation stripped."""
    return [w for w in (tok.rstrip(TERMINAL_MARKS) for tok in text.split()) if w]


def side_tokens(corpus, side):
    """words() of one corpus side, unit after unit."""
    if side not in SIDES:
        raise CorpusError(f"unknown side {side!r}")
    return [w for unit in corpus.units for w in words(getattr(unit, side))]


def top_words(counts, k, direction="most"):
    """The k most (direction "least": fewest) frequent (word, count) pairs; ties by word."""
    if k < 1:
        raise CorpusError(f"k must be >= 1, got {k}")
    if direction not in ("most", "least"):
        raise CorpusError(f"unknown direction {direction!r}")
    sign = -1 if direction == "most" else 1
    return sorted(counts.items(), key=lambda wc: (sign * wc[1], wc[0]))[:k]


def corpus_stats(corpus, side="src", k=10):
    """Word/sentence statistics for one side of the corpus."""
    from .aligner import segment_sentences

    tokens = side_tokens(corpus, side)
    sentence_count = sum(len(segment_sentences(getattr(u, side))) for u in corpus.units)
    counts = Counter(tokens)
    histogram = Counter(counts.values())
    return CorpusStats(
        unit_count=len(corpus.units),
        sentence_count=sentence_count,
        word_count=len(tokens),
        unique_word_count=len(counts),
        count_histogram=dict(sorted(histogram.items())),
        top_k=top_words(counts, k),
        bottom_k=top_words(counts, k, "least"),
    )
