"""Shared helpers: seed derivation, file hashing, line and JSONL I/O, record
checks, one binary container of arrays, modules whose import runs only when a
stage first uses them, and numpy's version read without running its import."""

import hashlib
import importlib.machinery
import importlib.util
import json
import math
import os
import struct
import sys


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


def at_least(low):
    """The field table entry of a required integer >= low."""
    return True, lambda v: type(v) is int and v >= low, f"an integer >= {low}"


def check_record(record, fields, where, error):
    """record, if it is a JSON object that passes fields, a table of
    key -> (required, check, kind): check(value) says if a value is allowed
    (None: any is), kind what it asks for. Else error naming where."""
    if not isinstance(record, dict):
        raise error(f"{where}: expected a JSON object")
    missing = [key for key, (required, _, _) in fields.items()
               if required and key not in record]
    if missing:
        raise error(f"{where}: record lacks {', '.join(missing)}")
    for key, (_, check, kind) in fields.items():
        if check and key in record and not check(record[key]):
            raise error(f"{where}: record key {key!r} must be {kind}, got {record[key]!r}")
    return record


def save_arrays(path, magic, version, header, arrays):
    """Write magic, <II (version, header length), header as JSON with sorted
    keys, then each array as little-endian float64 in C order."""
    import numpy as np  # here, so that stages that never run numpy skip its import
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<II", version, len(blob)) + blob)
        for array in arrays:
            # A view of its bytes: no copy if it is <f8 in C order already.
            f.write(memoryview(np.ascontiguousarray(array, dtype="<f8")).cast("B"))


def load_arrays(path, magic, version, fields, shapes, error, what):
    """(header, name -> array) of a save_arrays file whose header passes fields,
    whose arrays have shapes(header), name -> shape in file order, and whose
    values are all finite; else error."""
    import numpy as np
    with open(path, "rb") as f:
        if f.read(len(magic)) != magic:
            raise error(f"{path}: not {'an' if what[0] in 'aeiou' else 'a'} {what} file")
        found, size = struct.unpack("<II", read_exact(f, 8, error, "header"))
        if found != version:
            raise error(f"{path}: unsupported {what} version {found}")
        blob = read_exact(f, size, error, "config")
        where = f"{path}: bad {what} config"
        try:
            header = json.loads(blob)
        except ValueError as e:
            raise error(f"{where}: {e}") from e
        check_record(header, fields, where, error)
        try:
            layout = shapes(header)
        except (TypeError, ValueError) as e:
            raise error(f"{where}: {e}") from e
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != 8 * sum(math.prod(shape) for shape in layout.values()):
            raise error(f"{path}: {size} bytes of parameters do not match its config")
        arrays = {name: np.empty(shape, dtype="<f8") for name, shape in layout.items()}
        for array in arrays.values():
            f.readinto(memoryview(array).cast("B"))
            # One array at a time: the mask is one byte per value of one array.
            if not np.isfinite(array).all():
                raise error(f"{path}: non-finite {what} values")
    return header, arrays


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def lazy_module(name):
    """The module name: the one this process has already imported, or else
    one whose import runs at its first attribute access, so that a stage
    never runs the import of a module it does not use."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    parent, _, child = name.rpartition(".")
    if parent:  # as the import system binds a submodule on its package
        setattr(sys.modules[parent], child, module)
    spec.loader.exec_module(module)
    return module


def numpy_version():
    """numpy.__version__, read from numpy/version.py, the file numpy.__init__
    takes it from, so that numpy's import does not run."""
    # Not importlib.util.find_spec: it returns a lazy numpy's __spec__, and
    # reading that runs numpy's import.
    spec = importlib.machinery.PathFinder.find_spec("numpy")
    path = os.path.join(spec.submodule_search_locations[0], "version.py")
    # Run as numpy.version: from numpy 1.26 on it only assigns strings; before,
    # it imports from numpy, which then runs numpy's import.
    namespace = {"__name__": "numpy.version", "__package__": "numpy"}
    with open(path, "rb") as f:
        exec(compile(f.read(), path, "exec"), namespace)
    return namespace["__version__"]
