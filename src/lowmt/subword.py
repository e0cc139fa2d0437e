"""Byte-pair-encoding subword tokenizer with lossless round-trip.

Words are split into characters behind a word-boundary marker; merges are
learned by pair frequency with a deterministic tie-break (lexicographic on the
merged string, then on the pair). The full character alphabet is always kept
so training text never hits <unk>.
"""

import heapq
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .util import read_lines

MARKER = "▁"  # same visual convention as sentencepiece

PAD, UNK, SOS, EOS = "<pad>", "<unk>", "<s>", "</s>"
PAD_ID, UNK_ID, SOS_ID, EOS_ID = 0, 1, 2, 3
SPECIALS = [PAD, UNK, SOS, EOS]


class SubwordError(ValueError):
    pass


@dataclass
class SubwordVocab:
    pieces: list            # [(piece, id, score)] with dense ids
    merges: list            # [(left, right)] in learned order
    piece_to_id: dict = field(init=False)
    _merge_rank: dict = field(init=False)
    _word_ids: dict = field(init=False, compare=False, repr=False)  # encode's memo

    def __post_init__(self):
        self.piece_to_id = {p: i for p, i, _ in self.pieces}
        self._merge_rank = {pair: r for r, pair in enumerate(self.merges)}
        self._word_ids = {}

    def __len__(self):
        return len(self.pieces)


def _word_symbols(word):
    return (MARKER,) + tuple(word)


def _merge_sequence(symbols, pair, joined):
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(joined)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def train_tokenizer(sentences, vocab_size):
    """Learn a BPE vocab of exactly vocab_size pieces (or fewer if merges run
    out). Training is deterministic and draws no randomness."""
    words = Counter()
    for sent in sentences:
        words.update(sent.split())
    if not words:
        raise SubwordError("no non-empty training sentences")

    alphabet = sorted({ch for w in words for ch in w} | {MARKER})
    minimum = len(SPECIALS) + len(alphabet)
    if vocab_size < minimum:
        raise SubwordError(
            f"vocab_size {vocab_size} too small: need at least {minimum} "
            f"({len(SPECIALS)} specials + {len(alphabet)} alphabet characters)")

    char_freq = Counter()
    for w, c in words.items():
        char_freq[MARKER] += c
        for ch in w:
            char_freq[ch] += c

    # Pair counts and the words each pair occurs in are built once; a merge
    # re-merges only the words that hold its pair and updates the counts of
    # the pairs those words lose and gain (subword-nmt's learn_bpe.py).
    sequences = [_word_symbols(w) for w in words]
    weights = list(words.values())
    counts = Counter()
    where = defaultdict(set)
    for i, symbols in enumerate(sequences):
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += weights[i]
            where[pair].add(i)
    # The best pair is the least (-count, merged string, pair). Entries go
    # stale when a count changes; a fresh one is pushed each time, and an
    # entry whose count is no longer the pair's is skipped when popped.
    heap = [(-c, p[0] + p[1], p) for p, c in counts.items()]
    heapq.heapify(heap)

    merges = []
    merge_scores = []
    n_pieces = minimum
    while n_pieces < vocab_size:
        while heap and -heap[0][0] != counts.get(heap[0][2]):
            heapq.heappop(heap)
        if not heap:
            break
        freq, joined, pair = heapq.heappop(heap)
        merges.append(pair)
        merge_scores.append(-freq)
        delta = Counter()
        for i in where.pop(pair):
            old = sequences[i]
            new = sequences[i] = _merge_sequence(old, pair, joined)
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for p in old_pairs:
                delta[p] -= weights[i]
            for p in new_pairs:
                delta[p] += weights[i]
                where[p].add(i)
            for p in set(old_pairs).difference(new_pairs):
                where[p].discard(i)
        for p, d in delta.items():
            if d:
                counts[p] += d
                if counts[p]:
                    heapq.heappush(heap, (-counts[p], p[0] + p[1], p))
                else:
                    del counts[p]
                    where.pop(p, None)
        n_pieces += 1

    scored = ([(sp, 0.0) for sp in SPECIALS]
              + [(ch, float(char_freq[ch])) for ch in alphabet]
              + [(left + right, float(score))
                 for (left, right), score in zip(merges, merge_scores)])
    pieces = [(piece, i, score) for i, (piece, score) in enumerate(scored)]

    return SubwordVocab(pieces=pieces, merges=merges)


def _encode_word(vocab, word):
    symbols = _word_symbols(word)
    rank = vocab._merge_rank
    while len(symbols) > 1:
        pairs = [pair for pair in zip(symbols, symbols[1:]) if pair in rank]
        if not pairs:
            break
        pair = min(pairs, key=rank.get)  # the earliest-learned merge
        symbols = _merge_sequence(symbols, pair, pair[0] + pair[1])
    return list(symbols)


def encode(vocab, text):
    """Token ids for normalized text; unknown characters map to <unk>."""
    ids = []
    for word in text.split():
        word_ids = vocab._word_ids.get(word)
        if word_ids is None:
            word_ids = vocab._word_ids[word] = [vocab.piece_to_id.get(sym, UNK_ID)
                                                for sym in _encode_word(vocab, word)]
        ids += word_ids
    return ids


def decode(vocab, ids):
    """Inverse of encode: concatenate pieces, marker becomes a space."""
    chunks = []
    for i in ids:
        if not (0 <= i < len(vocab.pieces)):
            raise SubwordError(f"token id {i} out of range (vocab size {len(vocab.pieces)})")
        if i in (PAD_ID, SOS_ID, EOS_ID):
            continue
        chunks.append(vocab.pieces[i][0])
    return "".join(chunks).replace(MARKER, " ").strip()


def save_vocab(vocab, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# marker\t{MARKER}\n")
        for left, right in vocab.merges:
            f.write(f"# merge\t{left}\t{right}\n")
        for piece, pid, score in vocab.pieces:
            f.write(f"{piece}\t{pid}\t{score}\n")


def load_vocab(path):
    """Read a save_vocab file; a marker line must name MARKER, each piece must
    be new and have its position as id, ids 0-3 must be the SPECIALS, and
    each merge must join two strings into a listed piece. Other "# " lines,
    such as 0.11.0's algorithm, vocab_size and specials, are skipped."""
    name = os.path.basename(path)
    pieces = []
    merges = []
    merge_lines = []
    seen = set()
    for lineno, line in read_lines(path):
        if not line:
            continue
        if line.startswith("# marker") and line != f"# marker\t{MARKER}":
            raise SubwordError(f"{name}: line {lineno}: {line!r} does not set the marker "
                               f"{MARKER!r}")
        try:
            if line.startswith("# "):
                fields = line[2:].split("\t")
                if fields[0] == "merge":
                    merges.append((fields[1], fields[2]))
                    merge_lines.append(lineno)
                continue
            piece, pid, score = line.split("\t")
            pieces.append((piece, int(pid), float(score)))
        except (ValueError, IndexError) as e:
            raise SubwordError(f"{name}: malformed line {lineno}: {line!r}") from e
        if pieces[-1][1] != len(pieces) - 1 or piece in seen:
            raise SubwordError(f"{name}: line {lineno}: piece {piece!r} with id {pid} is "
                               f"listed twice or not at position {len(pieces) - 1}")
        if len(pieces) <= len(SPECIALS) and piece != SPECIALS[len(pieces) - 1]:
            raise SubwordError(f"{name}: line {lineno}: id {pid} must be "
                               f"{SPECIALS[len(pieces) - 1]!r}, got {piece!r}")
        seen.add(piece)
    if len(pieces) < len(SPECIALS):
        raise SubwordError(f"{name}: {len(pieces)} pieces, fewer than the "
                           f"{len(SPECIALS)} specials {' '.join(SPECIALS)}")
    for lineno, (left, right) in zip(merge_lines, merges):
        if left + right not in seen:
            raise SubwordError(f"{name}: line {lineno}: merge {left!r} {right!r} makes "
                               f"{left + right!r}, which is not a listed piece")
    return SubwordVocab(pieces=pieces, merges=merges)
