"""Verse-aligned parallel corpus: loading, normalization, statistics.

Corpus files are JSONL (one object per line, UTF-8) with keys
{id, book, chapter, verse, src, tgt}, or TSV with the same columns and a
header row.
"""

import json
import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass, field

from .util import write_jsonl

TERMINAL_MARKS = ".!?"

TSV_COLUMNS = ["id", "book", "chapter", "verse", "src", "tgt"]


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

    def __post_init__(self):
        if self.chapter < 0 or self.verse < 0:
            raise CorpusError(f"unit {self.id}: negative chapter/verse")
        if not self.src or not self.tgt:
            raise CorpusError(f"unit {self.id}: empty src or tgt after normalization")


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


def _unit_from_record(record, lineno):
    missing = [k for k in ("id", "src", "tgt") if k not in record]
    if missing:
        raise CorpusError(f"line {lineno}: missing fields {missing}")
    src = normalize_text(str(record["src"]))
    tgt = normalize_text(str(record["tgt"]))
    if not src or not tgt:
        raise CorpusError(f"line {lineno}: empty src or tgt")
    try:
        return ParallelUnit(
            id=str(record["id"]),
            book=str(record.get("book", "")),
            chapter=int(record.get("chapter", 0)),
            verse=int(record.get("verse", 0)),
            src=src,
            tgt=tgt,
        )
    except (ValueError, TypeError) as e:
        raise CorpusError(f"line {lineno}: {e}") from e


def load_corpus(path, format="jsonl"):
    """Read a corpus file, normalizing every text via normalize_text."""
    if format not in ("jsonl", "tsv"):
        raise CorpusError(f"unknown corpus format {format!r}")
    units = []
    seen_ids = set()
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if format == "tsv":
        if not lines:
            raise CorpusError(f"{path}: empty corpus file")
        header = lines[0].split("\t")
        if header != TSV_COLUMNS:
            raise CorpusError(f"{path}: bad TSV header {header}")
        lines = lines[1:]
        start = 2
    else:
        start = 1
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        if format == "jsonl":
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{path}: malformed record at line {lineno}: {e}") from e
        else:
            cells = line.split("\t")
            if len(cells) != len(TSV_COLUMNS):
                raise CorpusError(
                    f"{path}: malformed record at line {lineno}: "
                    f"expected {len(TSV_COLUMNS)} columns, got {len(cells)}"
                )
            record = dict(zip(TSV_COLUMNS, cells))
        unit = _unit_from_record(record, lineno)
        if unit.id in seen_ids:
            raise CorpusError(f"{path}: duplicate id {unit.id!r} at line {lineno}")
        seen_ids.add(unit.id)
        units.append(unit)
    if not units:
        raise CorpusError(f"{path}: empty corpus file")
    return Corpus(units=units)


def save_corpus(corpus, path):
    write_jsonl(path, [asdict(u) for u in corpus.units])


def strip_terminal(token):
    return token.rstrip(TERMINAL_MARKS)


def side_tokens(corpus, side):
    """Whitespace tokens of one corpus side with terminal punctuation stripped."""
    if side not in ("src", "tgt"):
        raise CorpusError(f"unknown side {side!r}")
    tokens = []
    for unit in corpus.units:
        for tok in getattr(unit, side).split():
            tok = strip_terminal(tok)
            if tok:
                tokens.append(tok)
    return tokens


def top_words(counts, k, direction="most"):
    """The k most (direction "least": fewest) frequent (word, count) pairs; ties by word."""
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
