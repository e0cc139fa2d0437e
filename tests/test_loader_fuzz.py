"""Loader fuzz: one record of each input that a stage reads is mutated (a key
dropped, a value swapped for one of another JSON type, or the line cut
short), and the stage runs through cli.main. Every run must exit 0 (the
record stayed valid) or 3 with a message naming the file; none may raise."""

import contextlib
import io
import json
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from lowmt import cli, corpus

# Small enough that a translate decodes at most 8 steps.
CONFIG = ("tokenizer:\n  vocab_size: 60\nmodel:\n  hidden: 8\n  max_len: 8\n"
          "train:\n  epochs: 1\nembeddings:\n  dim: 8\n  epochs: 1\n")


def retyped(value):
    """value put into each JSON type (int and float apart), keeping what it
    says where the type can: 8 gives 8.0, "8", true, [8], ..."""
    number = value if type(value) in (int, float) else None
    if isinstance(value, str) and value.isdecimal():
        number = int(value)
    return [None, True, 3 if number is None else int(number),
            1.7 if number is None else float(number),
            value if isinstance(value, str) else json.dumps(value), [value], {"v": value}]


# The two records of each corpus input; the fuzz mutates the second.
CORPUS = [{"id": "u0", "book": "B", "chapter": 1, "verse": 1, "src": "ba ce.",
           "tgt": "BA CE."},
          {"id": "u1", "book": "B", "chapter": 1, "verse": 2, "src": "di fo. gu.",
           "tgt": "DI FO. GU."}]


def _tsv_cell(value):
    return value if isinstance(value, str) else json.dumps(value)


def _line(path, index, parse, dump):
    """The record on line index of a text file, parsed; how to dump a
    record; and how to put text in that line's place."""
    lines = path.read_text(encoding="utf-8").split("\n")

    def put(text):
        lines[index] = text
        path.write_text("\n".join(lines), encoding="utf-8")
    return parse(lines[index]), dump, put


def _json_file(path):
    return (json.loads(path.read_text(encoding="utf-8")), json.dumps,
            lambda text: path.write_text(text, encoding="utf-8"))


def _arrays_header(path):
    """The JSON header of a checkpoint or embedding file (util.save_arrays)."""
    blob = path.read_bytes()
    (clen,) = struct.unpack("<I", blob[8:12])
    params = blob[12 + clen:]

    def put(text):
        header = text.encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header + params)
    return json.loads(blob[12:12 + clen]), json.dumps, put


# input -> (file in the workdir, its record reader, the stage that reads it)
CASES = {
    "corpus-jsonl": ("in.jsonl", lambda p: _line(p, 1, json.loads, json.dumps),
                     ["ingest", "--input", "{file}"]),
    "corpus-tsv": ("in.tsv", lambda p: _line(
        p, 2, lambda line: dict(zip(corpus.TSV_COLUMNS, line.split("\t"))),
        lambda rec: "\t".join(map(_tsv_cell, rec.values()))),
        ["ingest", "--input", "{file}", "--format", "tsv"]),
    "split": ("split/train.jsonl", lambda p: _line(p, 0, json.loads, json.dumps),
              ["export-ft"]),
    "stage-manifest": ("ingest.manifest.json", _json_file, ["--strict", "stats"]),
    "checkpoint": ("model.ckpt", _arrays_header, ["translate", "--text", "ba ce."]),
    "embeddings": ("embeddings.src.bin", _arrays_header,
                   ["report", "--project-word", "ba", "--top-k", "3"]),
}


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A workdir that every stage above can run in, with both corpus inputs."""
    work = tmp_path_factory.mktemp("fuzz") / "work"
    work.mkdir()
    (work / "fuzz.yaml").write_text(CONFIG)
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in ("ingest", "split", "tok-train", "train", "embed"):
            args = ["--synthetic", "30"] if stage == "ingest" else []
            assert cli.main(base_args(work) + [stage] + args) == 0
    (work / "in.jsonl").write_text("".join(json.dumps(r) + "\n" for r in CORPUS))
    rows = [corpus.TSV_COLUMNS] + [[_tsv_cell(v) for v in r.values()] for r in CORPUS]
    (work / "in.tsv").write_text("".join("\t".join(row) + "\n" for row in rows))
    return work


def base_args(work):
    return ["--workdir", str(work), "--config", str(work / "fuzz.yaml")]


def mutations(keys):
    return st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(keys)),
        st.tuples(st.just("swap"), st.sampled_from(keys), st.integers(0, 6)),
        st.tuples(st.just("cut"), st.integers(min_value=0)))


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_record_exits_0_or_3_naming_its_file(template, case, data):
    name, reader, stage = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(template, work)
        path = work / name
        record, dump, put = reader(path)
        op, *rest = data.draw(mutations(sorted(record)), label="mutation")
        if op == "drop":
            del record[rest[0]]
        elif op == "swap":
            key, index = rest
            value = retyped(record[key])[index]
            assume(type(value) is not type(record[key]))
            record[key] = value
        text = dump(record)
        put(text[:rest[0] % len(text)] if op == "cut" else text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(base_args(work) + [arg.format(file=path) for arg in stage])
    assert code in (cli.EXIT_OK, cli.EXIT_DATA), err.getvalue()
    if code == cli.EXIT_DATA:
        assert path.name in err.getvalue(), err.getvalue()
