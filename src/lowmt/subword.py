"""Byte-pair-encoding subword tokenizer with lossless round-trip.

Words are split into characters behind a word-boundary marker; merges are
learned by pair frequency with a deterministic tie-break (lexicographic on the
merged string, then on the pair). The full character alphabet is always kept
so training text never hits <unk>.
"""

import os
from collections import Counter
from dataclasses import dataclass, field

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
    target_size: int
    marker: str = MARKER
    piece_to_id: dict = field(default_factory=dict)
    _merge_rank: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.piece_to_id:
            self.piece_to_id = {p: i for p, i, _ in self.pieces}
        if not self._merge_rank:
            self._merge_rank = {pair: r for r, pair in enumerate(self.merges)}

    def __len__(self):
        return len(self.pieces)


def _word_symbols(word, marker):
    return (marker,) + tuple(word)


def _pair_counts(sequences):
    counts = Counter()
    for symbols, weight in sequences.items():
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += weight
    return counts


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

    sequences = {_word_symbols(w, MARKER): c for w, c in words.items()}

    merges = []
    merge_scores = []
    n_pieces = minimum
    while n_pieces < vocab_size:
        counts = _pair_counts(sequences)
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0][0] + kv[0][1], kv[0]))
        pair, freq = best
        joined = pair[0] + pair[1]
        merges.append(pair)
        merge_scores.append(freq)
        sequences = {_merge_sequence(s, pair, joined): c for s, c in sequences.items()}
        n_pieces += 1

    scored = ([(sp, 0.0) for sp in SPECIALS]
              + [(ch, float(char_freq[ch])) for ch in alphabet]
              + [(left + right, float(score))
                 for (left, right), score in zip(merges, merge_scores)])
    pieces = [(piece, i, score) for i, (piece, score) in enumerate(scored)]

    return SubwordVocab(pieces=pieces, merges=merges, target_size=vocab_size)


def _encode_word(vocab, word):
    symbols = _word_symbols(word, vocab.marker)
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
    return [vocab.piece_to_id.get(sym, UNK_ID)
            for word in text.split() for sym in _encode_word(vocab, word)]


def decode(vocab, ids):
    """Inverse of encode: concatenate pieces, marker becomes a space."""
    chunks = []
    for i in ids:
        if not (0 <= i < len(vocab.pieces)):
            raise SubwordError(f"token id {i} out of range (vocab size {len(vocab.pieces)})")
        if i in (PAD_ID, SOS_ID, EOS_ID):
            continue
        chunks.append(vocab.pieces[i][0])
    return "".join(chunks).replace(vocab.marker, " ").strip()


def save_vocab(vocab, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# algorithm\tbpe\n")
        f.write(f"# vocab_size\t{vocab.target_size}\n")
        f.write(f"# marker\t{vocab.marker}\n")
        f.write("# specials\t" + " ".join(SPECIALS) + "\n")
        for left, right in vocab.merges:
            f.write(f"# merge\t{left}\t{right}\n")
        for piece, pid, score in vocab.pieces:
            f.write(f"{piece}\t{pid}\t{score}\n")


def load_vocab(path):
    pieces = []
    merges = []
    target_size = None
    marker = MARKER
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("# "):
                    fields = line[2:].split("\t")
                    if fields[0] == "vocab_size":
                        target_size = int(fields[1])
                    elif fields[0] == "marker":
                        marker = fields[1]
                    elif fields[0] == "merge":
                        merges.append((fields[1], fields[2]))
                    continue
                piece, pid, score = line.split("\t")
                pieces.append((piece, int(pid), float(score)))
            except (ValueError, IndexError) as e:
                raise SubwordError(f"{os.path.basename(path)}: malformed line "
                                   f"{lineno}: {line!r}") from e
    if target_size is None:
        target_size = len(pieces)
    if not pieces:
        raise SubwordError(f"{os.path.basename(path)}: empty vocab file")
    return SubwordVocab(pieces=pieces, merges=merges, target_size=target_size,
                        marker=marker)
