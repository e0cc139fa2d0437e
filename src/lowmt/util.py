"""Shared helpers: seed derivation, file hashing, binary reads, line and JSONL I/O."""

import hashlib
import json
import os


def derive_seed(base_seed, *labels):
    """Derive an independent 63-bit seed from a base seed and a label path.

    Every module draws its seed as derive_seed(top_seed, module_name) so that a
    single config seed pins the whole pipeline while streams stay decorrelated.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        h.update(b"\x00")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest(), "little") & 0x7FFFFFFFFFFFFFFF


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_exact(f, size, error, what):
    """The next size bytes of binary file f, or error naming it if fewer remain."""
    if size > os.fstat(f.fileno()).st_size - f.tell():
        raise error(f"{f.name}: truncated at {what}")
    return f.read(size)


def config_hash(obj):
    """Stable hash of a JSON-serializable config."""
    blob = json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def read_lines(path):
    r"""Yield (line number, text) for each line of a UTF-8 text file. Lines
    end only at \n, \r\n or \r, never at U+2028, U+2029 or U+0085."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            yield lineno, line.rstrip("\n")


def read_jsonl(path):
    """(line number, record) for each non-blank line of a JSONL file."""
    records = []
    for lineno, line in read_lines(path):
        if line.strip():
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: malformed JSON at line {lineno}: {e}") from e
    return records


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")
