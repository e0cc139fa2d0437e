"""Shared helpers: seed derivation, file hashing, binary reads, line and JSONL
I/O, and a numpy whose import runs only when a stage first uses it."""

import hashlib
import importlib.util
import json
import os
import sys
import types


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
    end only at \n, \r\n or \r, never at U+2028, U+2029 or U+0085. Bytes
    that are not UTF-8 raise ValueError naming the file and line."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError:
            raise ValueError(_utf8_error(path)) from None


def _utf8_error(path):
    """Where the first byte of path that is not UTF-8 lies. The text reader
    decodes a block at a time, so its error does not tell the line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[:e.start]  # line ends: \n, \r\n or \r
        lineno = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        return f"{path}: line {lineno}: byte {data[e.start]:#04x} is not UTF-8"
    return f"{path}: not UTF-8"  # it changed while it was read


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


def lazy_numpy():
    """The numpy module: the one this process has already imported, or else
    one whose import runs at its first attribute access, so that a stage that
    does no numerics never runs numpy's import."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


def numpy_version():
    """numpy's version string. numpy.__version__ once numpy has been
    imported; otherwise the installed distribution's version, which is the
    same string and leaves numpy unimported."""
    module = sys.modules.get("numpy")
    # A lazily imported numpy that nothing has used yet is of a ModuleType
    # subclass until its first attribute access runs its import.
    if type(module) is types.ModuleType:
        return module.__version__
    from importlib.metadata import version
    return version("numpy")
