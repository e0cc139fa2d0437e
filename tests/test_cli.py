import importlib.util
import json
import os
from pathlib import Path

import numpy
import pytest

import lowmt
from lowmt import cli
from lowmt.util import sha256_file


ROOT = Path(__file__).resolve().parent.parent


def run(args, workdir):
    return cli.main(["--workdir", str(workdir)] + args)


@pytest.fixture
def work(tmp_path):
    return tmp_path / "work"


class TestSyntheticCorpus:
    def test_deterministic(self):
        a = cli.generate_synthetic_corpus(50, seed=3)
        b = cli.generate_synthetic_corpus(50, seed=3)
        assert a == b

    def test_reversible_mapping(self):
        for rec in cli.generate_synthetic_corpus(20, seed=0, variable_fraction=0.0):
            src_words = rec["src"].replace(".", "").split()
            tgt_words = rec["tgt"].replace(".", "").split()
            assert [w.upper() for w in src_words] == tgt_words


class TestIngestSplit:
    def test_ingest_synthetic(self, work):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        assert (work / "corpus.jsonl").exists()
        assert (work / "ingest.manifest.json").exists()

    def test_split_deterministic_digests(self, work):
        assert run(["ingest", "--synthetic", "60"], work) == 0
        assert run(["split", "--ratios", "0.8,0.1,0.1", "--seed", "7"], work) == 0
        digests1 = {n: sha256_file(work / "split" / n)
                    for n in ("train.jsonl", "test.jsonl", "validation.jsonl")}
        assert run(["split", "--ratios", "0.8,0.1,0.1", "--seed", "7"], work) == 0
        digests2 = {n: sha256_file(work / "split" / n)
                    for n in ("train.jsonl", "test.jsonl", "validation.jsonl")}
        assert digests1 == digests2

    def test_missing_corpus_is_data_error(self, work):
        assert run(["split"], work) == cli.EXIT_DATA

    def test_missing_input_flag(self, work):
        assert run(["ingest"], work) == cli.EXIT_DATA

    def test_stats_runs(self, work):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        assert run(["stats", "--side", "src"], work) == 0
        stats = json.loads((work / "stats.src.json").read_text())
        assert stats["word_count"] > 0


class TestTokenizerStages:
    def test_tok_train_and_apply(self, work, capsys):
        run(["ingest", "--synthetic", "40"], work)
        run(["split"], work)
        assert run(["tok-train", "--vocab-size", "80"], work) == 0
        capsys.readouterr()
        assert run(["tok-apply", "--side", "src", "--text", "ba ce di."], work) == 0
        out = capsys.readouterr().out.strip()
        assert all(tok.isdigit() for tok in out.split())


class TestEvaluate:
    def test_identity_prints_100(self, work, tmp_path, capsys):
        os.makedirs(work, exist_ok=True)
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        text = "the cat is on the mat\nthe dog sat on the log\n"
        hyp.write_text(text)
        ref.write_text(text)
        assert run(["evaluate", "--hyp", str(hyp), "--ref", str(ref)], work) == 0
        out = capsys.readouterr().out
        assert "BLEU4 = 100.00" in out

    def test_report_json_written(self, work, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b c d\n")
        ref.write_text("a b c e\n")
        os.makedirs(work, exist_ok=True)
        run(["evaluate", "--hyp", str(hyp), "--ref", str(ref),
             "--smoothing", "add_one_for_n_ge_2"], work)
        report = json.loads((work / "bleu.json").read_text())
        assert report["smoothing"] == "add_one_for_n_ge_2"
        assert 0.0 <= report["score"] <= 1.0


class TestExport:
    def test_export_validates_and_writes(self, work):
        run(["ingest", "--synthetic", "40"], work)
        run(["split"], work)
        assert run(["export-ft"], work) == 0
        records = [json.loads(l) for l in
                   (work / "finetune.jsonl").read_text().splitlines()]
        cli.validate_export(records)
        assert {r["split"] for r in records} == {"train", "test", "validation"}

    def test_schema_rejects_bad_record(self):
        with pytest.raises(ValueError, match="invalid"):
            cli.validate_export([{"id": "x", "source": "", "target": "y",
                                  "split": "train", "group": "one2one"}])


class TestStrictManifests:
    def test_config_mismatch_errors_under_strict(self, work, tmp_path):
        run(["ingest", "--synthetic", "20"], work)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 12345\n")
        code = cli.main(["--workdir", str(work), "--config", str(cfg),
                         "--strict", "split"])
        assert code == cli.EXIT_DATA

    def test_config_mismatch_warns_by_default(self, work, tmp_path, capsys):
        run(["ingest", "--synthetic", "20"], work)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 12345\n")
        code = cli.main(["--workdir", str(work), "--config", str(cfg), "split"])
        assert code == 0
        assert "warning" in capsys.readouterr().err


class TestConfig:
    def test_defaults_load(self):
        config = cli.load_config(None)
        assert config["split"]["ratios"] == [0.8, 0.1, 0.1]

    def test_override_merges(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 9\nmodel:\n  hidden: 32\n")
        config = cli.load_config(cfg)
        assert config["seed"] == 9
        assert config["model"]["hidden"] == 32
        assert config["model"]["max_len"] == 64

    @pytest.mark.parametrize("text, message", [
        ("train:\n  epoch: 1\n", "unknown config key 'train.epoch'"),
        ("seeds: 3\n", "unknown config key 'seeds'"),
        ("corpus:\n  path: c.jsonl\n", "unknown config key 'corpus.path'"),
        ("model: 64\n", "config key 'model' must be a mapping"),
        ("train:\n", "config key 'train' must be a mapping"),
    ], ids=["train.epoch", "seeds", "corpus.path", "model", "train"])
    def test_unknown_key_exits_3_naming_it(self, work, tmp_path, capsys, text,
                                           message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "ingest", "--synthetic", "3"]) == cli.EXIT_DATA
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not (work / "corpus.jsonl").exists()

    def test_readme_and_bench_configs_load(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = readme.split("```yaml\n")[1].split("```")[0]
        (tmp_path / "readme.yaml").write_text(example)
        assert cli.load_config(tmp_path / "readme.yaml")["model"]["hidden"] == 64
        spec = importlib.util.spec_from_file_location("bench_gen",
                                                      ROOT / "bench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        for workload in ("synthetic-demo", "zipf-wide-vocab", "translate-bulk"):
            path = tmp_path / f"{workload}.yaml"
            gen.write_config(path, gen.config(workload, 1))
            assert cli.load_config(path)["tokenizer"] == \
                gen.config(workload, 1)["tokenizer"]

    def test_stage_seeds_differ_by_stage(self):
        config = cli.load_config(None)
        assert cli.stage_seed(config, "split") != cli.stage_seed(config, "train")


class TestSmallPipeline:
    def test_train_translate_evaluate(self, work, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "model:\n  hidden: 16\n  max_len: 24\n  dropout_p: 0.0\n"
            "train:\n  epochs: 1\n  learning_rate: 0.05\n"
        )
        base = ["--workdir", str(work), "--config", str(cfg)]
        assert cli.main(base + ["ingest", "--synthetic", "30"]) == 0
        assert cli.main(base + ["split"]) == 0
        assert cli.main(base + ["tok-train", "--vocab-size", "80"]) == 0
        assert cli.main(base + ["train"]) == 0
        assert (work / "model.ckpt").exists()
        assert (work / "loss.csv").exists()
        capsys.readouterr()
        assert cli.main(base + ["translate", "--text", "ba ce di fo."]) == 0
        out = capsys.readouterr().out
        assert isinstance(out, str)


SMALL_CONFIG = (
    "model:\n  hidden: 16\n  max_len: 24\n  dropout_p: 0.0\n"
    "train:\n  epochs: 1\n  learning_rate: 0.05\n"
    "embeddings:\n  dim: 8\n  epochs: 1\n"
    "augment:\n  ops: [random_delete, random_swap]\n"
)


@pytest.fixture
def small(work, tmp_path):
    """Runs stages in work under SMALL_CONFIG; returns the exit code."""
    cfg = tmp_path / "small.yaml"
    cfg.write_text(SMALL_CONFIG)

    def run_small(*args, strict=False):
        flags = ["--strict"] if strict else []
        return cli.main(["--workdir", str(work), "--config", str(cfg)] + flags
                        + list(args))
    return run_small


def manifest(work, stage):
    return json.loads((work / f"{stage}.manifest.json").read_text())


def train_small(small):
    for args in (["ingest", "--synthetic", "30"], ["split"],
                 ["tok-train", "--vocab-size", "80"], ["train"]):
        assert small(*args) == 0


class TestRunContext:
    def test_manifests_list_split_files_read(self, small, work):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        for stage, name in (("embed", "embed.src"), ("tok-train", "tok-train"),
                            ("augment", "augment"), ("export-ft", "export-ft")):
            assert small(stage) == 0
            inputs = manifest(work, name)["inputs"]
            for name in ("train.jsonl", "test.jsonl", "validation.jsonl",
                         "manifest.json"):
                key = f"split/{name}"
                assert inputs[key] == sha256_file(work / key), (stage, key)

    def test_manifest_records_seed_used(self, small, work):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split", "--seed", "99") == 0
        assert manifest(work, "split")["seeds"] == {"split": 99}
        assert small("split") == 0
        config = cli.load_config(None)
        assert manifest(work, "split")["seeds"] == {
            "split": cli.stage_seed(config, "split")}

    def test_stale_checkpoint_exits_3_under_strict(self, small, capsys):
        train_small(small)
        assert small("tok-train", "--vocab-size", "60") == 0
        capsys.readouterr()
        code = small("translate", "--text", "ba ce di fo.", strict=True)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "model.ckpt is stale" in err and "vocab.src.tsv" in err

    def test_stale_checkpoint_warns_by_default(self, small, capsys):
        train_small(small)
        assert small("tok-train", "--vocab-size", "60") == 0
        capsys.readouterr()
        assert small("translate", "--text", "ba ce di fo.") == 0
        err = capsys.readouterr().err
        assert "warning: model.ckpt is stale" in err

    def test_resplit_makes_vocab_stale(self, small, capsys):
        for args in (["ingest", "--synthetic", "30"], ["split"],
                     ["tok-train", "--vocab-size", "80"], ["split", "--seed", "5"]):
            assert small(*args) == 0
        capsys.readouterr()
        assert small("train", strict=True) == cli.EXIT_DATA
        assert ("vocab.src.tsv is stale: split/train.jsonl has changed since "
                "tok-train read it") in capsys.readouterr().err

    def test_edited_artifact_warns(self, small, work, capsys):
        assert small("ingest", "--synthetic", "30") == 0
        with open(work / "corpus.jsonl", "a") as f:
            f.write("\n")
        capsys.readouterr()
        assert small("stats") == 0
        assert ("warning: corpus.jsonl has changed since ingest wrote it"
                in capsys.readouterr().err)

    def test_malformed_manifest_warns_or_fails_strict(self, small, work, capsys):
        for blob in ('{"stage": "ing', '{"stage": "x"}', '[]',
                     '{"stage": "x", "config_hash": "", "inputs": {}, "outputs": []}'):
            assert small("ingest", "--synthetic", "30") == 0
            (work / "ingest.manifest.json").write_text(blob)
            capsys.readouterr()
            assert small("split", strict=True) == cli.EXIT_DATA, blob
            assert "ingest.manifest.json: malformed manifest" in capsys.readouterr().err
            assert small("split") == 0, blob
            assert small("ingest", "--synthetic", "30") == 0
            assert small("split", strict=True) == 0

    def test_split_record_without_key_exits_3(self, small, work, capsys):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        path = work / "split" / "train.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        del record["src"]
        path.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
        capsys.readouterr()
        assert small("tok-train") == cli.EXIT_DATA
        assert "train.jsonl: line 1: record lacks src" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("train", "--epochs", "0"), ("train", "--hidden", "0"),
        ("embed", "--dim", "0"), ("embed", "--epochs", "0"),
        ("tok-train", "--vocab-size", "0")], ids=" ".join)
    def test_zero_override_exits_3(self, small, work, args):
        for setup in (["ingest", "--synthetic", "30"], ["split"],
                      ["tok-train", "--vocab-size", "80"]):
            assert small(*setup) == 0
        before = sorted(os.listdir(work))
        assert small(*args) == cli.EXIT_DATA
        assert sorted(os.listdir(work)) == before

    def test_zero_epochs_in_config_exits_3(self, small, work, tmp_path):
        for setup in (["ingest", "--synthetic", "30"], ["split"],
                      ["tok-train", "--vocab-size", "80"]):
            assert small(*setup) == 0
        cfg = tmp_path / "zero.yaml"
        cfg.write_text(SMALL_CONFIG.replace("epochs: 1\n  learning_rate",
                                            "epochs: 0\n  learning_rate"))
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "train"]) == cli.EXIT_DATA
        assert not (work / "model.ckpt").exists()

    def test_unreadable_paths_are_data_errors(self, small, work, tmp_path):
        assert small("evaluate", "--hyp", str(tmp_path), "--ref",
                     str(tmp_path)) == cli.EXIT_DATA
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert run(["ingest", "--synthetic", "3"], not_a_dir) == cli.EXIT_DATA

    def test_fresh_chain_passes_strict(self, small, work, tmp_path, capsys):
        train_small(small)
        src = tmp_path / "src.txt"
        src.write_text("ba ce.\n")
        hyp = tmp_path / "hyp.txt"
        assert small("translate", "--input", str(src), "--output", str(hyp),
                     strict=True) == 0
        assert small("evaluate", "--hyp", str(hyp), "--ref", str(src),
                     strict=True) == 0
        assert "warning" not in capsys.readouterr().err
        assert manifest(work, "evaluate")["inputs"] == {
            os.path.relpath(hyp, work): sha256_file(hyp),
            os.path.relpath(src, work): sha256_file(src)}

    def test_translate_blank_line_keeps_its_place(self, small, tmp_path):
        train_small(small)
        src = tmp_path / "src.txt"
        src.write_text("ba ce di.\n\nfo gu.\n")
        hyp = tmp_path / "hyp.txt"
        assert small("translate", "--input", str(src), "--output", str(hyp)) == 0
        lines = hyp.read_text().split("\n")
        assert len(lines) == 4 and lines[1] == "" and lines[3] == ""

    def test_manifest_records_versions(self, small, work):
        assert small("ingest", "--synthetic", "30") == 0
        assert manifest(work, "ingest")["versions"] == {
            "lowmt": lowmt.__version__, "numpy": numpy.__version__}

    def test_each_side_keeps_its_manifest(self, small, work, capsys):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        assert small("embed", "--side", "src") == 0
        assert small("embed", "--side", "tgt") == 0
        for side in ("src", "tgt"):
            out = f"embeddings.{side}.bin"
            assert manifest(work, f"embed.{side}")["outputs"] == {
                out: sha256_file(work / out)}
        with open(work / "embeddings.src.bin", "ab") as f:
            f.write(b"\0")
        capsys.readouterr()
        assert small("report", "--side", "src", "--project-word", "ba",
                     "--top-k", "3", strict=True) == cli.EXIT_DATA
        assert ("embeddings.src.bin has changed since embed wrote it"
                in capsys.readouterr().err)

    def test_side_manifest_replaces_shared_one(self, small, work):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        (work / "embed.manifest.json").write_text(json.dumps(
            {"stage": "embed", "config_hash": "old", "seeds": {}, "inputs": {},
             "outputs": {"embeddings.src.bin": "0" * 64}}))
        assert small("embed", "--side", "src") == 0
        assert not (work / "embed.manifest.json").exists()
        assert small("report", "--side", "src", "--project-word", "ba",
                     "--top-k", "3", strict=True) == 0

    def test_translate_warns_on_truncated_source(self, small, capsys):
        train_small(small)
        capsys.readouterr()
        long_line = " ".join(["ba"] * 100) + "."
        assert small("translate", "--text", long_line) == 0
        assert ("warning: truncated 1 source lines longer than max_len=24 tokens "
                "(first: line 1)") in capsys.readouterr().err
        assert small("translate", "--text", "ba ce di.") == 0
        assert "truncated" not in capsys.readouterr().err

    def test_tok_train_records_no_seed(self, small, work):
        for args in (["ingest", "--synthetic", "30"], ["split"],
                     ["tok-train", "--vocab-size", "80"]):
            assert small(*args) == 0
        assert manifest(work, "tok-train")["seeds"] == {}

    @pytest.mark.parametrize("blob", [b"LMTS\x01", b"LMTS\x01\0\0\0\x02\0\0\0{}"])
    def test_malformed_checkpoint_exits_3_naming_it(self, small, work, capsys,
                                                    blob):
        train_small(small)
        (work / "model.ckpt").write_bytes(blob)
        capsys.readouterr()
        assert small("translate", "--text", "ba ce.") == cli.EXIT_DATA
        assert "model.ckpt: " in capsys.readouterr().err

    def test_tok_apply_writes_no_manifest(self, small, work):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        assert small("tok-train", "--vocab-size", "80") == 0
        assert small("tok-apply", "--text", "ba ce.") == 0
        assert not (work / "tok-apply.manifest.json").exists()


class TestConfigCopy:
    def test_load_returns_fresh_copy(self):
        first = cli.load_config(None)
        first["model"]["hidden"] = 7
        first["augment"]["ops"].append("embed_replace")
        second = cli.load_config(None)
        assert second["model"]["hidden"] == 256
        assert "embed_replace" not in second["augment"]["ops"]

    def test_merged_load_does_not_share_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seed: 9\n")
        cli.load_config(cfg)["model"]["hidden"] = 7
        assert cli.load_config(None)["model"]["hidden"] == 256
