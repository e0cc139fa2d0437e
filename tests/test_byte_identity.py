"""The byte-identity contract: the CLI chain writes the same bytes as the
release that recorded BYTE_TABLES did.

One chain runs in process through cli.main: ingest --synthetic, split,
stats, report (no projection), tok-train, augment (with a lexicon written
here) and export-ft. The sha256 of every artifact it writes that numpy never
touches is compared with the table recorded for lowmt.__version__. Stage
manifests are left out: they record numpy's version. Artifacts of float
arithmetic (embeddings, checkpoint, loss curve) depend on the BLAS build, so
they are checked run against run instead.

To record the table of a new version, run this file as a script on a
checkout of that version:

    PYTHONPATH=src python3 tests/test_byte_identity.py

and add the dict it prints to BYTE_TABLES under that version.
"""

import contextlib
import sys
import tempfile
from pathlib import Path

import lowmt
from lowmt import cli
from lowmt.util import sha256_file

LEXICON = "BA\tBAA,BAX\nCE\tCEE\nDI\tDII,DIX,DIY\nFO\tFOO\n"

CHAIN = [
    ["ingest", "--synthetic", "40"],
    ["split"],
    ["stats", "--side", "src"],
    ["report", "--side", "tgt", "--top-k", "5"],
    ["tok-train"],
    ["augment", "--lexicon", "{lexicon}"],
    ["export-ft"],
]

ARTIFACTS = [
    "corpus.jsonl",
    *(f"{part}/{name}" for part in ("split", "augmented")
      for name in ("train.jsonl", "test.jsonl", "validation.jsonl")),
    "stats.src.json", "freq.tgt.most.tsv", "freq.tgt.least.tsv",
    "vocab.src.tsv", "vocab.tgt.tsv", "finetune.jsonl",
]

BYTE_TABLES = {
    "0.8.0": {
        "synthetic_raw.jsonl": "9d87d2abb785ae740af156a494ca9414d2a564bdf48b1783884d540679cc4c3a",
        "corpus.jsonl": "9d87d2abb785ae740af156a494ca9414d2a564bdf48b1783884d540679cc4c3a",
        "split/train.jsonl": "3b878a87e415eed7f3cb04bc097c5d1b0ee3ec857b0d79b0a2afaab9713662d6",
        "split/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "split/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "split/manifest.json": "b091d4d6a93685ee628f2adb935f720708c179ad565f534cb421395eaa15e874",
        "augmented/train.jsonl": "97aee980a15184095ba35477db5213ec7e8a7bd742eb20f48766659822899797",
        "augmented/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "augmented/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "augmented/manifest.json": "d0db7d24cc7db2f6b84fca5181edcd4c6c612f008e916da7c7f678a74eec2d88",
        "stats.src.json": "f17632cb0ee23174429b5576a77ff8f1d6a13c0e73e1e0ff563669511efe5bf0",
        "freq.tgt.most.tsv": "ee2157812677f9814ed959b2fb3ced3166ad057b2ffacdb1714b157507543710",
        "freq.tgt.least.tsv": "e79b3eb2bab8002304ad5449845eb9b7e1f8fbefdbf70ea44ca8fd3a8f90d71a",
        "vocab.src.tsv": "5bd3e10cc132297ae4cf5534fd8d8af5f37fa896a4daf9c002865407af92cfc2",
        "vocab.tgt.tsv": "10cc241b8ab002021f54bfa03c36839effe5e1e6aca0f82362527ae52144fd88",
        "finetune.jsonl": "6084c7050b258ca8a0d20dbe83a35bde95b7cf134328bca46a9ef328d094e52b",
    },
    "0.9.0": {
        "synthetic_raw.jsonl": "9d87d2abb785ae740af156a494ca9414d2a564bdf48b1783884d540679cc4c3a",
        "corpus.jsonl": "9d87d2abb785ae740af156a494ca9414d2a564bdf48b1783884d540679cc4c3a",
        "split/train.jsonl": "3b878a87e415eed7f3cb04bc097c5d1b0ee3ec857b0d79b0a2afaab9713662d6",
        "split/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "split/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "split/manifest.json": "b091d4d6a93685ee628f2adb935f720708c179ad565f534cb421395eaa15e874",
        "augmented/train.jsonl": "97aee980a15184095ba35477db5213ec7e8a7bd742eb20f48766659822899797",
        "augmented/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "augmented/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "augmented/manifest.json": "d0db7d24cc7db2f6b84fca5181edcd4c6c612f008e916da7c7f678a74eec2d88",
        "stats.src.json": "f17632cb0ee23174429b5576a77ff8f1d6a13c0e73e1e0ff563669511efe5bf0",
        "freq.tgt.most.tsv": "ee2157812677f9814ed959b2fb3ced3166ad057b2ffacdb1714b157507543710",
        "freq.tgt.least.tsv": "e79b3eb2bab8002304ad5449845eb9b7e1f8fbefdbf70ea44ca8fd3a8f90d71a",
        "vocab.src.tsv": "5bd3e10cc132297ae4cf5534fd8d8af5f37fa896a4daf9c002865407af92cfc2",
        "vocab.tgt.tsv": "10cc241b8ab002021f54bfa03c36839effe5e1e6aca0f82362527ae52144fd88",
        "finetune.jsonl": "6084c7050b258ca8a0d20dbe83a35bde95b7cf134328bca46a9ef328d094e52b",
    },
    "0.10.0": {
        "synthetic_raw.jsonl": "9d87d2abb785ae740af156a494ca9414d2a564bdf48b1783884d540679cc4c3a",
        "corpus.jsonl": "9d87d2abb785ae740af156a494ca9414d2a564bdf48b1783884d540679cc4c3a",
        "split/train.jsonl": "3b878a87e415eed7f3cb04bc097c5d1b0ee3ec857b0d79b0a2afaab9713662d6",
        "split/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "split/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "augmented/train.jsonl": "97aee980a15184095ba35477db5213ec7e8a7bd742eb20f48766659822899797",
        "augmented/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "augmented/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "stats.src.json": "f17632cb0ee23174429b5576a77ff8f1d6a13c0e73e1e0ff563669511efe5bf0",
        "freq.tgt.most.tsv": "ee2157812677f9814ed959b2fb3ced3166ad057b2ffacdb1714b157507543710",
        "freq.tgt.least.tsv": "e79b3eb2bab8002304ad5449845eb9b7e1f8fbefdbf70ea44ca8fd3a8f90d71a",
        "vocab.src.tsv": "5bd3e10cc132297ae4cf5534fd8d8af5f37fa896a4daf9c002865407af92cfc2",
        "vocab.tgt.tsv": "10cc241b8ab002021f54bfa03c36839effe5e1e6aca0f82362527ae52144fd88",
        "finetune.jsonl": "6084c7050b258ca8a0d20dbe83a35bde95b7cf134328bca46a9ef328d094e52b",
    },
    "0.11.0": {
        "corpus.jsonl": "9d87d2abb785ae740af156a494ca9414d2a564bdf48b1783884d540679cc4c3a",
        "split/train.jsonl": "3b878a87e415eed7f3cb04bc097c5d1b0ee3ec857b0d79b0a2afaab9713662d6",
        "split/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "split/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "augmented/train.jsonl": "97aee980a15184095ba35477db5213ec7e8a7bd742eb20f48766659822899797",
        "augmented/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "augmented/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "stats.src.json": "f17632cb0ee23174429b5576a77ff8f1d6a13c0e73e1e0ff563669511efe5bf0",
        "freq.tgt.most.tsv": "ee2157812677f9814ed959b2fb3ced3166ad057b2ffacdb1714b157507543710",
        "freq.tgt.least.tsv": "e79b3eb2bab8002304ad5449845eb9b7e1f8fbefdbf70ea44ca8fd3a8f90d71a",
        "vocab.src.tsv": "5bd3e10cc132297ae4cf5534fd8d8af5f37fa896a4daf9c002865407af92cfc2",
        "vocab.tgt.tsv": "10cc241b8ab002021f54bfa03c36839effe5e1e6aca0f82362527ae52144fd88",
        "finetune.jsonl": "6084c7050b258ca8a0d20dbe83a35bde95b7cf134328bca46a9ef328d094e52b",
    },
    "0.12.0": {
        "corpus.jsonl": "9d87d2abb785ae740af156a494ca9414d2a564bdf48b1783884d540679cc4c3a",
        "split/train.jsonl": "3b878a87e415eed7f3cb04bc097c5d1b0ee3ec857b0d79b0a2afaab9713662d6",
        "split/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "split/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "augmented/train.jsonl": "97aee980a15184095ba35477db5213ec7e8a7bd742eb20f48766659822899797",
        "augmented/test.jsonl": "35a393abf8ba9f64b9ce2ec33d8f741a20ffc9ca9596acb3cabdcd0cf06032c4",
        "augmented/validation.jsonl": "cc056fd4d5c8cc30db40fcf0400291b61310ed15bd0799a9f72958c85294db3a",
        "stats.src.json": "f17632cb0ee23174429b5576a77ff8f1d6a13c0e73e1e0ff563669511efe5bf0",
        "freq.tgt.most.tsv": "ee2157812677f9814ed959b2fb3ced3166ad057b2ffacdb1714b157507543710",
        "freq.tgt.least.tsv": "e79b3eb2bab8002304ad5449845eb9b7e1f8fbefdbf70ea44ca8fd3a8f90d71a",
        "vocab.src.tsv": "65c99770f2854f64c1c063437ad2415adc3276226b77266bef3b6ddeeb228cca",
        "vocab.tgt.tsv": "f8f231e5ffed3d27817434d418dfd134c2e9dcc3b126837329763ae82811e9cd",
        "finetune.jsonl": "6084c7050b258ca8a0d20dbe83a35bde95b7cf134328bca46a9ef328d094e52b",
    },
}


def run_chain(root):
    """Run CHAIN in root/work; returns artifact -> sha256."""
    root = Path(root)
    work = root / "work"
    lexicon = root / "lexicon.tsv"
    lexicon.write_text(LEXICON, encoding="utf-8")
    for args in CHAIN:
        args = [a.format(lexicon=lexicon) for a in args]
        code = cli.main(["--workdir", str(work)] + args)
        assert code == cli.EXIT_OK, f"{args[0]} exited {code}"
    return {name: sha256_file(work / name) for name in ARTIFACTS}


def _float_artifacts(work):
    assert cli.main(["--workdir", str(work), "embed", "--dim", "8", "--epochs", "1"]) == 0
    assert cli.main(["--workdir", str(work), "train", "--epochs", "1", "--hidden", "8"]) == 0
    return {name: sha256_file(work / name)
            for name in ("embeddings.src.bin", "model.ckpt", "loss.csv")}


def test_chain_writes_the_recorded_bytes(tmp_path):
    table = BYTE_TABLES.get(lowmt.__version__)
    assert table is not None, (
        f"no byte table for lowmt {lowmt.__version__}: record one by running "
        f"'PYTHONPATH=src python3 tests/test_byte_identity.py' on a checkout of it "
        f"and add its output to BYTE_TABLES")
    assert run_chain(tmp_path) == table


def test_float_artifacts_repeat_run_to_run(tmp_path):
    run_chain(tmp_path)
    first = _float_artifacts(tmp_path / "work")
    assert _float_artifacts(tmp_path / "work") == first


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = run_chain(tmp)
    print(f'    "{lowmt.__version__}": {{')
    for name, digest in digests.items():
        print(f'        "{name}": "{digest}",')
    print("    },")
