import dataclasses
import importlib.util
import inspect
import json
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy
import pytest

import lowmt
from lowmt import aligner, analysis, augment, bleu, cli, corpus, nmt, subword
from lowmt.util import config_hash, sha256_file


ROOT = Path(__file__).resolve().parent.parent

# The fine-tuning JSONL record that export-ft writes.
EXPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "id": {"type": "string"},
        "source": {"type": "string", "minLength": 1},
        "target": {"type": "string", "minLength": 1},
        "split": {"enum": ["train", "test", "validation"]},
        "group": {"enum": [aligner.GROUP_ONE2ONE, aligner.GROUP_VARIABLE]},
        "augmented": {"type": "boolean"},
    },
    "required": ["id", "source", "target", "split", "group"],
    "additionalProperties": False,
}


def validate_export(records):
    """Check export records against EXPORT_SCHEMA (Draft 7)."""
    validator = jsonschema.Draft7Validator(EXPORT_SCHEMA)
    for i, rec in enumerate(records):
        errors = list(validator.iter_errors(rec))
        assert not errors, f"export record {i} invalid: {errors[0].message}"


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
        for rec in cli.generate_synthetic_corpus(20, seed=0):
            src_words = rec["src"].replace(".", "").split()
            tgt_words = rec["tgt"].replace(".", "").split()
            # A variable unit's extra target sentence comes last.
            assert [w.upper() for w in src_words] == tgt_words[:len(src_words)]


class TestIngestSplit:
    def test_ingest_synthetic(self, work):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        assert (work / "corpus.jsonl").exists()
        assert (work / "ingest.manifest.json").exists()

    def test_ingest_synthetic_writes_only_the_corpus(self, work):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        assert sorted(os.listdir(work)) == ["corpus.jsonl", "ingest.manifest.json"]
        assert list(manifest(work, "ingest")["outputs"]) == ["corpus.jsonl"]

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

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_synthetic_below_one_exits_2_before_any_write(self, work, capsys, n):
        work.mkdir()
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--synthetic", n], work)
        assert exc.value.code == 2
        assert f"argument --synthetic: invalid positive_int value: '{n}'" in \
            capsys.readouterr().err
        assert list(work.iterdir()) == []

    def test_input_with_synthetic_exits_3_before_any_write(self, work, tmp_path,
                                                           capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text('{"id": "u1", "src": "ba.", "tgt": "BA."}\n')
        assert run(["ingest", "--input", str(corpus_path), "--synthetic", "5"],
                   work) == cli.EXIT_DATA
        assert ("error: ingest takes --input or --synthetic N, not both"
                in capsys.readouterr().err)
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("fmt", corpus.FORMATS)
    def test_format_with_synthetic_exits_3_before_any_write(self, work, capsys, fmt):
        assert run(["ingest", "--synthetic", "5", "--format", fmt], work) == cli.EXIT_DATA
        assert ("error: ingest --format applies to --input, not --synthetic N"
                in capsys.readouterr().err)
        assert list(work.iterdir()) == []

    def test_stats_runs(self, work):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        assert run(["stats", "--side", "src"], work) == 0
        stats = json.loads((work / "stats.src.json").read_text())
        assert stats["word_count"] > 0

    @pytest.mark.parametrize("stage", ["stats", "report"])
    def test_top_k_0_exits_3(self, work, stage):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        assert run([stage, "--top-k", "0"], work) == cli.EXIT_DATA
        assert not (work / "stats.src.json").exists()

    def test_bad_ratios_exit_2_naming_the_flag(self, work, capsys):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        with pytest.raises(SystemExit) as exc:
            run(["split", "--ratios", "0.8,x,0.1"], work)
        assert exc.value.code == 2
        assert "argument --ratios: invalid ratios value: '0.8,x,0.1'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "0.5,inf,0.5", "0.8,0.1,-inf"])
    def test_non_finite_ratios_exit_2_naming_the_flag(self, work, capsys, ratios):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        with pytest.raises(SystemExit) as exc:
            run(["split", "--ratios", ratios], work)
        assert exc.value.code == 2
        assert f"argument --ratios: invalid ratios value: '{ratios}'" in \
            capsys.readouterr().err
        assert not (work / "split").exists()

    def test_a_part_with_ratio_0_gets_no_pairs(self, work, capsys):
        assert run(["ingest", "--synthetic", "30"], work) == 0
        assert run(["split", "--ratios", "0,0.5,0.5"], work) == 0
        assert "split: train=0 " in capsys.readouterr().out
        pairs = manifest(work, "split")["counts"]["pairs"]
        assert all(counts["train"] == 0 for counts in pairs.values())
        assert sum(counts["test"] + counts["validation"] for counts in pairs.values()) > 0

    def test_manifests_do_not_depend_on_the_workdir(self, tmp_path):
        for workdir in (tmp_path / "a" / "work", tmp_path / "b" / "work"):
            for args in (["ingest", "--synthetic", "30"], ["split"],
                         ["tok-train", "--vocab-size", "60"]):
                assert run(args, workdir) == 0
        for stage in ("ingest", "split", "tok-train"):
            name = f"{stage}.manifest.json"
            assert (tmp_path / "a" / "work" / name).read_bytes() == \
                (tmp_path / "b" / "work" / name).read_bytes(), stage

    def test_workdir_defaults_to_env_else_work(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("LOWMT_WORKDIR", raising=False)
        assert cli.main(["ingest", "--synthetic", "3"]) == 0
        monkeypatch.setenv("LOWMT_WORKDIR", "elsewhere")
        assert cli.main(["ingest", "--synthetic", "3"]) == 0
        for workdir in ("work", "elsewhere"):
            assert sorted(os.listdir(tmp_path / workdir)) == ["corpus.jsonl",
                                                             "ingest.manifest.json"]

    def test_flags_override_config_keys(self, work):
        assert run(["ingest", "--synthetic", "60"], work) == 0
        assert run(["split", "--ratios", "0.5,0.25,0.25"], work) == 0
        split = manifest(work, "split")
        assert split["effective_config"]["split"]["ratios"] == [0.5, 0.25, 0.25]
        assert split["config_hash"] == config_hash(cli.load_config(None))
        assert run(["tok-train", "--vocab-size", "40"], work) == 0
        assert manifest(work, "tok-train")["effective_config"]["tokenizer"] == \
            {"vocab_size": 40}
        # the manifests hash the config as given, without the flags
        hashes = {json.loads((work / f"{stage}.manifest.json").read_text())["config_hash"]
                  for stage in ("ingest", "split", "tok-train")}
        assert len(hashes) == 1


def test_ingest_non_text_jsonl_value_exits_3(work, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "u1", "src": null, "tgt": "x."}\n', encoding="utf-8")
    assert run(["ingest", "--input", str(path)], work) == cli.EXIT_DATA
    assert (f"error: {path}: line 1: record key 'src' must be a string, got None"
            in capsys.readouterr().err)
    assert not (work / "corpus.jsonl").exists()


# Line breaks to str.splitlines(), but not to a file's lines.
ODD_BREAKS = "\u2028\u0085"


class TestLineBreaks:
    def check_ingest_then_strict_stats(self, work, path, fmt):
        assert run(["ingest", "--input", str(path), "--format", fmt], work) == 0
        assert run(["--strict", "stats"], work) == 0
        units = corpus.load_corpus(work / "corpus.jsonl").units
        assert [(u.id, u.src) for u in units] == [(f"u{ODD_BREAKS}1", "a b c."),
                                                  ("u2", "d e.")]
        assert json.loads((work / "stats.src.json").read_text())["word_count"] == 5

    def test_jsonl_corpus(self, work, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [{"id": f"u{ODD_BREAKS}1", "src": f"a{ODD_BREAKS}b c.", "tgt": "x."},
                   {"id": "u2", "src": "d e.", "tgt": "y."}]
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                                for r in records), encoding="utf-8")
        self.check_ingest_then_strict_stats(work, path, "jsonl")

    def test_tsv_corpus(self, work, tmp_path):
        path = tmp_path / "c.tsv"
        rows = [corpus.TSV_COLUMNS, [f"u{ODD_BREAKS}1", "B", "1", "1",
                                     f"a{ODD_BREAKS}b c.", "x."],
                ["u2", "B", "1", "2", "d e.", "y."]]
        path.write_text("".join("\t".join(row) + "\n" for row in rows),
                        encoding="utf-8")
        self.check_ingest_then_strict_stats(work, path, "tsv")

    def test_evaluate_scores_one_segment_per_newline(self, work, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b c d\ne f g h\n", encoding="utf-8")
        ref.write_text(f"a b{ODD_BREAKS}c d\ne f g h\n", encoding="utf-8")
        assert run(["evaluate", "--hyp", str(hyp), "--ref", str(ref)], work) == 0
        report = json.loads((work / "bleu.json").read_text())
        assert (report["score"], report["hyp_length"], report["ref_length"]) == (1.0, 8, 8)


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
    def test_line_count_mismatch_names_both_files(self, work, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b c\nd e f\n")
        ref.write_text("a b c\n")
        assert run(["evaluate", "--hyp", str(hyp), "--ref", str(ref)],
                   work) == cli.EXIT_DATA
        assert (f"error: hypothesis/reference count mismatch: {hyp} has 2 lines, "
                f"{ref} has 1" in capsys.readouterr().err)

    def test_empty_files_name_both(self, work, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("")
        ref.write_text("")
        assert run(["evaluate", "--hyp", str(hyp), "--ref", str(ref)],
                   work) == cli.EXIT_DATA
        assert (f"error: empty corpus: {hyp} and {ref} have no lines"
                in capsys.readouterr().err)

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


    def test_non_utf8_hypothesis_exits_3_naming_line(self, work, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_bytes(b"a b c\na \xff b\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a b c\na b c\n")
        assert run(["evaluate", "--hyp", str(hyp), "--ref", str(ref)],
                   work) == cli.EXIT_DATA
        assert (f"error: {hyp}: line 2: byte 0xff is not UTF-8"
                in capsys.readouterr().err)


class TestExport:
    def test_export_validates_and_writes(self, work):
        run(["ingest", "--synthetic", "40"], work)
        run(["split"], work)
        assert run(["export-ft"], work) == 0
        records = [json.loads(l) for l in
                   (work / "finetune.jsonl").read_text().splitlines()]
        validate_export(records)
        assert {r["split"] for r in records} == {"train", "test", "validation"}

    def test_empty_source_exits_3_naming_file_and_line(self, work, capsys):
        run(["ingest", "--synthetic", "40"], work)
        run(["split"], work)
        path = work / "split" / "validation.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), "src": ""}) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(["export-ft"], work) == cli.EXIT_DATA
        assert ("validation.jsonl: line 2: record key 'src' must be a non-empty "
                "string" in capsys.readouterr().err)
        assert not (work / "finetune.jsonl").exists()


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

    def test_library_defaults_match_default_config(self):
        """Each library default that mirrors a config key equals it, so a
        library call without that argument runs as the pipeline does."""
        def defaults(obj):
            if dataclasses.is_dataclass(obj):
                return {f.name: f.default for f in dataclasses.fields(obj)}
            return {name: p.default
                    for name, p in inspect.signature(obj).parameters.items()}

        mirrors = [
            (nmt.ModelConfig, "model", ["hidden", "max_len", "dropout_p"]),
            (nmt.TrainConfig, "train",
             ["epochs", "learning_rate", "teacher_forcing_ratio", "grad_clip_norm"]),
            (augment.AugmentPolicy, "augment", ["ops", "alpha", "n_aug", "max_pairs"]),
            (analysis.train_embeddings, "embeddings",
             ["dim", "window", "negatives", "epochs", "min_count"]),
            (aligner.split_dataset, "split", ["ratios"]),
            (corpus.load_corpus, "corpus", ["format"]),
            (bleu.corpus_bleu, "evaluation", ["smoothing"]),
        ]
        for obj, section, keys in mirrors:
            found = defaults(obj)
            for key in keys:
                default = found[key]
                if isinstance(default, tuple):
                    default = list(default)
                assert default == cli.DEFAULT_CONFIG[section][key], \
                    f"{obj.__qualname__} {key}: {default!r}"

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
        ("workdir: elsewhere\n", "unknown config key 'workdir'"),
    ], ids=["train.epoch", "seeds", "corpus.path", "model", "train", "workdir"])
    def test_unknown_key_exits_3_naming_it(self, work, tmp_path, capsys, text,
                                           message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "ingest", "--synthetic", "3"]) == cli.EXIT_DATA
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not (work / "corpus.jsonl").exists()

    @pytest.mark.parametrize("text", ["[]\n", "0\n", "false\n", "''\n"],
                             ids=["list", "zero", "false", "empty-string"])
    def test_falsy_document_is_not_a_mapping(self, work, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "ingest", "--synthetic", "3"]) == cli.EXIT_DATA
        assert f"{cfg}: config must be a mapping" in capsys.readouterr().err
        assert not (work / "corpus.jsonl").exists()

    def test_empty_document_means_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("# no overrides\n")
        assert cli.load_config(cfg) == cli.load_config()

    @pytest.mark.parametrize("text, message", [
        ("a: [\n", "line 2: invalid YAML: expected the node content"),
        ("seed: 1\ntrain: a: b\n", "line 2: invalid YAML: mapping values are not allowed"),
        ("seed: \x01\n", "invalid YAML: unacceptable character #x0001"),
    ], ids=["open-flow", "nested-mapping", "control-char"])
    def test_yaml_syntax_error_exits_3_naming_file_and_line(self, work, tmp_path,
                                                            capsys, text, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "stats"]) == cli.EXIT_DATA
        assert f"error: {cfg}: {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text, message", [
        ('train:\n  epochs: "2"\n', "'train.epochs' must be int, got '2'"),
        ("model:\n  hidden: 8.5\n", "'model.hidden' must be int, got 8.5"),
        ("seed: abc\n", "'seed' must be int, got 'abc'"),
        ("seed: null\n", "'seed' must be int, got None"),
        ("train:\n  learning_rate: true\n", "'train.learning_rate' must be float, got True"),
        ("model:\n  hidden: true\n", "'model.hidden' must be int, got True"),
        ("split:\n  ratios: [0.8, x, 0.1]\n",
         "'split.ratios' must be a list of float, got [0.8, 'x', 0.1]"),
        ("split:\n  ratios: 0.8\n", "'split.ratios' must be a list of float, got 0.8"),
        ("augment:\n  ops: [random_swap, 3]\n",
         "'augment.ops' must be a list of str, got ['random_swap', 3]"),
        ("augment:\n  lexicon: 3\n", "'augment.lexicon' must be str, got 3"),
        ("augment:\n  max_pairs: 2.0\n", "'augment.max_pairs' must be int, got 2.0"),
        ("train:\n  grad_clip_norm: .nan\n", "'train.grad_clip_norm' must be finite, got nan"),
        ("train:\n  learning_rate: .inf\n", "'train.learning_rate' must be finite, got inf"),
        ("split:\n  ratios: [.nan, 0.5, 0.5]\n",
         "'split.ratios' must be finite, got [nan, 0.5, 0.5]"),
    ], ids=["epochs-str", "hidden-float", "seed-str", "seed-null", "lr-bool",
            "hidden-bool", "ratios-item", "ratios-scalar", "ops-item", "lexicon",
            "max_pairs", "clip-nan", "lr-inf", "ratios-nan"])
    def test_wrong_value_type_exits_3_naming_key_and_file(self, work, tmp_path,
                                                         capsys, text, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "stats"]) == cli.EXIT_DATA
        assert f"error: {cfg}: config key {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key, got", [
        ("evaluation:\n  smoothing: add1\n", "evaluation.smoothing", "'add1'"),
        ("corpus:\n  format: csv\n", "corpus.format", "'csv'"),
        ("augment:\n  side: both\n", "augment.side", "'both'"),
        ("augment:\n  ops: [random_swap, round_trip]\n", "augment.ops", "'round_trip'"),
    ], ids=["smoothing", "format", "side", "ops"])
    def test_value_outside_choices_exits_3_naming_key_and_file(
            self, work, tmp_path, capsys, text, key, got):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "stats"]) == cli.EXIT_DATA
        allowed = ", ".join(cli.CONFIG_CHOICES[key])
        assert (f"error: {cfg}: config key {key!r} takes {allowed}; got {got}"
                in capsys.readouterr().err)

    def test_value_types_that_fit(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("train:\n  learning_rate: 1\nsplit:\n  ratios: [1, 0, 0.0]\n"
                       "augment:\n  lexicon: lex.tsv\n  max_pairs: 5\n")
        config = cli.load_config(cfg)
        assert config["train"]["learning_rate"] == 1
        assert config["split"]["ratios"] == [1, 0, 0.0]
        assert (config["augment"]["lexicon"], config["augment"]["max_pairs"]) == \
            ("lex.tsv", 5)
        cfg.write_text("augment:\n  lexicon: null\n  max_pairs: null\n")
        config = cli.load_config(cfg)
        assert (config["augment"]["lexicon"], config["augment"]["max_pairs"]) == \
            (None, None)

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


class TestTrainReporting:
    def chain(self, work, tmp_path, max_len, epochs):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"model:\n  hidden: 8\n  max_len: {max_len}\n  dropout_p: 0.0\n"
                       f"train:\n  epochs: {epochs}\n")
        base = ["--workdir", str(work), "--config", str(cfg)]
        for args in (["ingest", "--synthetic", "30"], ["split"],
                     ["tok-train", "--vocab-size", "80"], ["train"]):
            assert cli.main(base + args) == 0

    def over_length(self, work, part, max_len):
        split = aligner.load_split(work / "split")
        vocabs = [subword.load_vocab(work / f"vocab.{side}.tsv") for side in ("src", "tgt")]
        return cli._encode_pairs(getattr(split, part), *vocabs, max_len)

    @pytest.mark.parametrize("max_len", [6, 4], ids=["some", "all"])
    def test_over_length_validation_pairs_are_reported(self, work, tmp_path, capsys,
                                                       max_len):
        self.chain(work, tmp_path, max_len=max_len, epochs=1)
        kept, skipped = self.over_length(work, "validation", max_len)
        assert skipped and bool(kept) == (max_len == 6)
        header = (work / "loss.csv").read_text().splitlines()[0]
        assert header == "epoch,mean_loss" + (",val_loss" if kept else "")
        err = capsys.readouterr().err
        assert f"warning: skipped {skipped} over-length validation pairs\n" in err
        # bench/run.py subtracts the count of lines with "over-length pairs"
        # from the train pairs
        assert sum("over-length pairs" in line for line in err.splitlines()) == 1

    def test_one_json_event_per_epoch_on_stderr(self, work, tmp_path, capsys):
        self.chain(work, tmp_path, max_len=24, epochs=3)
        kept, _ = self.over_length(work, "train", 24)
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()
                  if line.startswith("{")]
        assert [e["epoch"] for e in events] == [0, 1, 2]
        history = (work / "loss.csv").read_text().splitlines()[1:]
        for event, row in zip(events, history):
            assert event["event"] == "epoch"
            assert event["pairs"] == len(kept)
            assert row == f"{event['epoch']},{event['mean_loss']},{event['val_loss']}"
            assert 0.0 <= event["clip_rate"] <= 1.0 and event["grad_norm"] > 0
            assert event["pairs_per_s"] > 0
        assert 0 < events[0]["elapsed_s"] < events[1]["elapsed_s"] < events[2]["elapsed_s"]
        assert manifest(work, "train")["outputs"].keys() == {"model.ckpt", "loss.csv"}

    def test_manifest_counts_kept_and_skipped_pairs(self, work, tmp_path, capsys):
        self.chain(work, tmp_path, max_len=6, epochs=1)
        kept, skipped = self.over_length(work, "train", 6)
        val_kept, val_skipped = self.over_length(work, "validation", 6)
        assert kept and skipped and val_kept and val_skipped
        assert manifest(work, "train")["counts"] == {
            "pairs": len(kept), "skipped": skipped,
            "validation_pairs": len(val_kept), "validation_skipped": val_skipped}
        err = capsys.readouterr().err
        assert f"warning: skipped {skipped} over-length pairs\n" in err

    @pytest.mark.parametrize("failure", ["updates", "validation"])
    def test_non_finite_training_exits_4_before_writing(self, work, tmp_path, capsys,
                                                        monkeypatch, failure):
        cfg = tmp_path / "cfg.yaml"
        lr = "1.0e+300" if failure == "updates" else "0.05"
        cfg.write_text("model:\n  hidden: 8\n  max_len: 24\n  dropout_p: 0.0\n"
                       f"train:\n  epochs: 1\n  learning_rate: {lr}\n"
                       "  grad_clip_norm: 0\n")
        base = ["--workdir", str(work), "--config", str(cfg)]
        for args in (["ingest", "--synthetic", "30"], ["split"],
                     ["tok-train", "--vocab-size", "80"]):
            assert cli.main(base + args) == 0
        if failure == "validation":
            monkeypatch.setattr(nmt, "mean_loss", lambda model, pairs: float("nan"))
        capsys.readouterr()
        with numpy.errstate(all="ignore"):
            assert cli.main(base + ["train"]) == cli.EXIT_NUMERICAL
        assert "numerical failure: non-finite" in capsys.readouterr().err
        assert not any((work / name).exists()
                       for name in ("model.ckpt", "loss.csv", "train.manifest.json"))


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


def rewrite_header(path, edit):
    """Put edit(header) in place of the JSON header of a checkpoint or
    embedding file."""
    blob = path.read_bytes()
    (size,) = struct.unpack("<I", blob[8:12])
    header = json.dumps(edit(json.loads(blob[12:12 + size]))).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                     + blob[12 + size:])


class TestRunContext:
    def test_manifests_list_split_files_read(self, small, work):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        for stage, name in (("embed", "embed.src"), ("tok-train", "tok-train"),
                            ("augment", "augment"), ("export-ft", "export-ft")):
            assert small(stage) == 0
            inputs = manifest(work, name)["inputs"]
            for name in ("train.jsonl", "test.jsonl", "validation.jsonl"):
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

    def test_stale_checkpoint_warns_by_default(self, small, work, capsys):
        train_small(small)
        # A changed vocab file of the size the checkpoint was trained with.
        with open(work / "vocab.src.tsv", "a") as f:
            f.write("\n")
        capsys.readouterr()
        assert small("translate", "--text", "ba ce di fo.") == 0
        err = capsys.readouterr().err
        assert "warning: model.ckpt is stale" in err

    @pytest.mark.parametrize("vocab_size", ["60", "32"])
    def test_vocab_size_mismatch_exits_3_before_decoding(self, small, work, tmp_path,
                                                         capsys, monkeypatch, vocab_size):
        train_small(small)
        trained = len(subword.load_vocab(work / "vocab.src.tsv"))
        assert small("tok-train", "--vocab-size", vocab_size) == 0
        size = len(subword.load_vocab(work / "vocab.src.tsv"))
        assert size != trained
        monkeypatch.setattr(nmt, "translate_batch", lambda *args: pytest.fail("decoded"))
        capsys.readouterr()
        out = tmp_path / "hyp.txt"
        assert small("translate", "--text", "ba ce di fo.",
                     "--output", str(out)) == cli.EXIT_DATA
        assert (f"error: {work / 'vocab.src.tsv'} has {size} pieces, but "
                f"{work / 'model.ckpt'} was trained with {trained}"
                in capsys.readouterr().err)
        assert not out.exists()

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

    @pytest.mark.parametrize("change", [
        {"src": 5}, {"src": ""}, {"group": "foo"}, {"augmented": "no"},
        {"aug_ops": "abc"}, {"origin_id": 7}],
        ids=["int-src", "empty-src", "group", "augmented", "aug_ops", "origin_id"])
    def test_bad_split_record_exits_3_in_every_reader(self, small, work, capsys,
                                                      change):
        for setup in (["ingest", "--synthetic", "30"], ["split"],
                      ["tok-train", "--vocab-size", "80"]):
            assert small(*setup) == 0
        path = work / "split" / "train.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = json.dumps({**json.loads(lines[0]), **change}) + "\n"
        path.write_text("".join(lines))
        key = next(iter(change))
        for stage in ("embed", "tok-train", "augment", "train", "export-ft"):
            capsys.readouterr()
            assert small(stage) == cli.EXIT_DATA, stage
            assert (f"train.jsonl: line 1: record key {key!r} must be "
                    in capsys.readouterr().err), stage

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

    @pytest.mark.parametrize("key, value, low", [("min_count", -1, 0), ("dim", 1, 2)])
    def test_embedding_setting_exits_3_naming_key(self, work, tmp_path, capsys, key,
                                                  value, low):
        cfg = tmp_path / "embed.yaml"
        cfg.write_text(f"embeddings:\n  {key}: {value}\n  epochs: 1\n")
        for args in (["ingest", "--synthetic", "30"], ["split"]):
            assert cli.main(["--workdir", str(work), "--config", str(cfg)] + args) == 0
        capsys.readouterr()
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "embed"]) == cli.EXIT_DATA
        assert (f"error: embedding settings: record key {key!r} must be an integer "
                f">= {low}, got {value}\n") == capsys.readouterr().err
        assert not (work / "embeddings.src.bin").exists()

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "after-good-run"])
    def test_failed_tok_train_writes_nothing(self, work, capsys, earlier):
        """The target side needs more pieces than the source: tok-train fails
        on it after the source side trained, and leaves the workdir as it was."""
        corpus_path = work.parent / "two.jsonl"
        corpus_path.write_text('{"id": 1, "src": "ab ab.", "tgt": "xyzw qrst."}\n'
                               '{"id": 2, "src": "ba ab.", "tgt": "uvmn opkl."}\n')
        for args in (["ingest", "--input", str(corpus_path)], ["split", "--ratios", "1,0,0"]):
            assert run(args, work) == 0
        if earlier:
            assert run(["tok-train", "--vocab-size", "40"], work) == 0
        before = {name: sha256_file(work / name) for name in os.listdir(work)
                  if (work / name).is_file()}
        capsys.readouterr()
        assert run(["tok-train", "--vocab-size", "9"], work) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and "need at least 22" in err
        assert {name: sha256_file(work / name) for name in os.listdir(work)
                if (work / name).is_file()} == before
        assert ("vocab.src.tsv" in before) == earlier

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

    def test_translate_empty_input_writes_empty_file(self, small, tmp_path, capsys):
        train_small(small)
        src = tmp_path / "src.txt"
        src.write_text("")
        hyp = tmp_path / "hyp.txt"
        capsys.readouterr()
        assert small("translate", "--input", str(src), "--output", str(hyp)) == 0
        assert hyp.read_bytes() == b""
        assert "translated 0 lines" in capsys.readouterr().out
        assert small("evaluate", "--hyp", str(hyp), "--ref", str(src)) == cli.EXIT_DATA
        assert "empty corpus" in capsys.readouterr().err

    def test_translate_buckets_keep_order_blanks_and_warning(self, small, work,
                                                             tmp_path, capsys):
        train_small(small)
        rng = random.Random(3)
        words = ["ba", "ce", "di", "fo", "gu", "ha", "ji", "ke"]
        lines = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 12))) + "."
                 for _ in range(2 * nmt.BUCKET_SIZE + 11)]
        for lineno in (1, 7, nmt.BUCKET_SIZE + 3, len(lines)):
            lines[lineno - 1] = ""
        long_line = " ".join(["ba"] * 40) + "."
        for lineno in (nmt.BUCKET_SIZE + 6, 2 * nmt.BUCKET_SIZE + 2):
            lines[lineno - 1] = long_line
        src = tmp_path / "src.txt"
        src.write_text("".join(line + "\n" for line in lines))
        hyp = tmp_path / "hyp.txt"
        capsys.readouterr()
        assert small("translate", "--input", str(src), "--output", str(hyp)) == 0
        assert capsys.readouterr().err == (
            "warning: truncated 2 source lines longer than max_len=24 tokens "
            f"(first: line {nmt.BUCKET_SIZE + 6})\n")

        # One sentence at a time, as lowmt 0.4.0 translated them.
        model = nmt.load_checkpoint(work / "model.ckpt")
        src_vocab = subword.load_vocab(work / "vocab.src.tsv")
        tgt_vocab = subword.load_vocab(work / "vocab.tgt.tsv")
        expected = []
        for line in lines:
            ids = subword.encode(src_vocab, corpus.normalize_text(line))[:24]
            expected.append(subword.decode(tgt_vocab, nmt.translate(model, ids))
                            if ids else "")
        assert hyp.read_text().split("\n") == expected + [""]
        assert [i for i, line in enumerate(expected) if not line] == [
            0, 6, nmt.BUCKET_SIZE + 2, len(lines) - 1]

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

    def test_translate_warns_on_truncated_source(self, small, capsys):
        train_small(small)
        capsys.readouterr()
        long_line = " ".join(["ba"] * 100) + "."
        assert small("translate", "--text", long_line) == 0
        assert ("warning: truncated 1 source lines longer than max_len=24 tokens "
                "(first: line 1)") in capsys.readouterr().err
        assert small("translate", "--text", "ba ce di.") == 0
        assert "truncated" not in capsys.readouterr().err

    def test_translate_output_records_lines_and_truncated(self, small, work,
                                                         tmp_path):
        train_small(small)
        src = tmp_path / "src.txt"
        src.write_text("ba ce di.\n\n" + " ".join(["ba"] * 40) + ".\n")
        hyp = tmp_path / "hyp.txt"
        assert small("translate", "--input", str(src), "--output", str(hyp)) == 0
        assert manifest(work, "translate")["counts"] == {"lines": 3, "truncated": 1}

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

    def test_non_finite_checkpoint_exits_3_naming_it(self, small, work, capsys):
        train_small(small)
        blob = (work / "model.ckpt").read_bytes()
        (work / "model.ckpt").write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
        capsys.readouterr()
        assert small("translate", "--text", "ba ce di.") == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert "model.ckpt: non-finite checkpoint values" in err

    @pytest.mark.parametrize("key, value, kind", [("hidden", 16.0, "an integer >= 1"),
                                                  ("seed", "x", "an integer >= 0")],
                             ids=["hidden-16.0", "seed-x"])
    def test_checkpoint_header_type_exits_3_naming_key(self, small, work, capsys,
                                                       key, value, kind):
        train_small(small)
        rewrite_header(work / "model.ckpt", lambda header: {**header, key: value})
        capsys.readouterr()
        assert small("translate", "--text", "ba ce.") == cli.EXIT_DATA
        assert (f"model.ckpt: bad checkpoint config: record key {key!r} must be "
                f"{kind}, got {value!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda h: {**h, "window": "x"},
         "record key 'window' must be an integer >= 1, got 'x'"),
        (lambda h: {**h, "seed": 1.5},
         "record key 'seed' must be an integer >= 0, got 1.5"),
        (lambda h: {**h, "words": h["words"][:1] * len(h["words"])},
         "record key 'words' must be a list of distinct strings"),
        (lambda h: {**h, "colour": 1}, "unexpected key 'colour'")],
        ids=["window-str", "seed-float", "duplicate-word", "unknown-key"])
    def test_embedding_header_exits_3_naming_key(self, small, work, capsys, edit,
                                                 message):
        for args in (["ingest", "--synthetic", "30"], ["split"], ["embed"]):
            assert small(*args) == 0
        rewrite_header(work / "embeddings.src.bin", edit)
        capsys.readouterr()
        assert small("report", "--project-word", "ba", "--top-k", "3") == cli.EXIT_DATA
        assert (f"embeddings.src.bin: bad embedding config: {message}"
                in capsys.readouterr().err)

    def test_format_1_embeddings_exit_3(self, small, work, capsys):
        for args in (["ingest", "--synthetic", "30"], ["split"], ["embed"]):
            assert small(*args) == 0
        # The layout lowmt 0.7.0 wrote: <IIII (version, words, dim, config
        # length), the config, <I vocab length, the vocab, the vectors.
        config = (b'{"dim": 2, "epochs": 1, "min_count": 1, "negatives": 5, '
                  b'"seed": 0, "window": 5}')
        (work / "embeddings.src.bin").write_bytes(
            analysis.MAGIC + struct.pack("<IIII", 1, 2, 2, len(config)) + config
            + struct.pack("<I", 5) + b"ba\nce" + bytes(32))
        capsys.readouterr()
        assert small("report", "--project-word", "ba", "--top-k", "3") == cli.EXIT_DATA
        assert ("embeddings.src.bin: unsupported embedding version 1"
                in capsys.readouterr().err)

    def test_tok_apply_writes_no_manifest(self, small, work):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        assert small("tok-train", "--vocab-size", "80") == 0
        assert small("tok-apply", "--text", "ba ce.") == 0
        assert not (work / "tok-apply.manifest.json").exists()

    def test_text_with_input_exits_3(self, small, work, tmp_path, capsys):
        train_small(small)
        src = tmp_path / "src.txt"
        src.write_text("ba ce.\n")
        before = sorted(os.listdir(work))
        for stage in ("tok-apply", "translate"):
            for args, message in ((["--text", "di fo.", "--input", str(src)],
                                   "takes --text or --input, not both"),
                                  ([], "requires --text or --input")):
                capsys.readouterr()
                assert small(stage, *args) == cli.EXIT_DATA
                assert f"error: {stage} {message}" in capsys.readouterr().err
        assert sorted(os.listdir(work)) == before

    def test_unknown_query_word_leaves_no_file(self, small, work, capsys):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        before = sorted(os.listdir(work))
        capsys.readouterr()
        assert small("embed", "--query", "zz") == cli.EXIT_DATA
        assert "word 'zz' not in vocabulary" in capsys.readouterr().err
        assert sorted(os.listdir(work)) == before
        # A report whose projection fails, for an unknown word or a --top-k
        # beyond the vocabulary, writes no frequency table either.
        assert small("embed") == 0
        before = sorted(os.listdir(work))
        for args, message in (
                (["--project-word", "zz"], "word 'zz' not in vocabulary"),
                (["--project-word", "ba", "--top-k", "1000"], "vocabulary too small")):
            capsys.readouterr()
            assert small("report", *args) == cli.EXIT_DATA
            assert message in capsys.readouterr().err
        assert sorted(os.listdir(work)) == before

    def test_query_word_is_checked_before_training(self, small, work, capsys,
                                                  monkeypatch):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        calls = []
        train = analysis.train_embeddings
        monkeypatch.setattr(analysis, "train_embeddings",
                            lambda *args, **kwargs: calls.append(1) or train(*args, **kwargs))
        assert small("embed", "--query", "zz") == cli.EXIT_DATA
        assert calls == []
        capsys.readouterr()
        assert small("embed", "--query", "ba") == 0
        assert calls == [1]
        assert len(capsys.readouterr().out.splitlines()) == 11  # 10 neighbours

    def test_tsv_with_a_bad_header_exits_3(self, small, work, tmp_path, capsys):
        assert small("ingest", "--synthetic", "30") == 0
        path = tmp_path / "corpus.tsv"
        path.write_text("id\tsrc\ttgt\nu1\tba ce.\tBA CE.\n", encoding="utf-8")
        before = sorted(os.listdir(work))
        capsys.readouterr()
        assert small("ingest", "--input", str(path), "--format", "tsv") == cli.EXIT_DATA
        assert (f"error: {path}: bad TSV header ['id', 'src', 'tgt']"
                in capsys.readouterr().err)
        assert sorted(os.listdir(work)) == before

    def test_train_with_no_pair_within_max_len_exits_3(self, work, tmp_path, capsys):
        cfg = tmp_path / "short.yaml"
        cfg.write_text(SMALL_CONFIG.replace("max_len: 24", "max_len: 2"))
        for args in (["ingest", "--synthetic", "30"], ["split"],
                     ["tok-train", "--vocab-size", "80"]):
            assert cli.main(["--workdir", str(work), "--config", str(cfg), *args]) == 0
        before = sorted(os.listdir(work))
        capsys.readouterr()
        assert cli.main(["--workdir", str(work), "--config", str(cfg),
                         "train"]) == cli.EXIT_DATA
        assert "error: no training pairs" in capsys.readouterr().err
        assert sorted(os.listdir(work)) == before
        assert not {"model.ckpt", "loss.csv", "train.manifest.json"} & set(before)

    def test_embed_on_an_empty_train_split_exits_3(self, small, work, capsys):
        # 20 units make groups of even size, so no remainder lands in train.
        assert small("ingest", "--synthetic", "20") == 0
        assert small("split", "--ratios", "0,0.5,0.5") == 0
        assert (work / "split" / "train.jsonl").read_bytes() == b""
        before = sorted(os.listdir(work))
        capsys.readouterr()
        assert small("embed") == cli.EXIT_DATA
        assert "error: no training sentences" in capsys.readouterr().err
        assert sorted(os.listdir(work)) == before


class TestStageRecord:
    """The stage manifest is a stage run's only record: the split directories
    hold their three JSONL files, and the manifest the counts and the config
    the stage ran under."""

    @staticmethod
    def lines(path):
        return path.read_text(encoding="utf-8").splitlines()

    def test_split_counts_tally_the_split_files(self, small, work):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        assert sorted(os.listdir(work / "split")) == sorted(aligner.SPLIT_FILES)
        tally = {group: dict.fromkeys(aligner.SPLIT_PARTS, 0) for group in aligner.GROUPS}
        for part in aligner.SPLIT_PARTS:
            for line in self.lines(work / "split" / f"{part}.jsonl"):
                tally[json.loads(line)["group"]][part] += 1
        assert all(sum(parts.values()) for parts in tally.values())
        assert manifest(work, "split")["counts"] == {
            "units": len(self.lines(work / "corpus.jsonl")), "pairs": tally}

    def test_augment_counts_match_the_augmented_train_file(self, work, tmp_path):
        cfg = tmp_path / "n_aug.yaml"
        cfg.write_text(SMALL_CONFIG + "  n_aug: 2\n")
        for args in (["ingest", "--synthetic", "30"], ["split"], ["augment"]):
            assert cli.main(["--workdir", str(work), "--config", str(cfg), *args]) == 0
        assert sorted(os.listdir(work / "augmented")) == sorted(aligner.SPLIT_FILES)
        before = [json.loads(line) for line in self.lines(work / "split" / "train.jsonl")]
        after = [json.loads(line)
                 for line in self.lines(work / "augmented" / "train.jsonl")]
        record = manifest(work, "augment")
        assert record["counts"] == {"train_before": len(before),
                                    "train_after": len(after)}
        n_aug = record["effective_config"]["augment"]["n_aug"]
        assert n_aug == 2
        assert len(after) - len(before) == sum(r.get("augmented", False) for r in after)
        # Every one2one train pair is augmented n_aug times.
        assert (len(after) - len(before)) // n_aug == sum(
            r["group"] == aligner.GROUP_ONE2ONE for r in before) > 0

    def test_every_manifest_holds_effective_config_and_counts(self, small, work):
        train_small(small)
        for stage in ("ingest", "split", "tok-train", "train"):
            record = manifest(work, stage)
            assert record["effective_config"]["model"]["hidden"] == 16, stage
            assert isinstance(record["counts"], dict), stage
        assert manifest(work, "tok-train")["effective_config"]["tokenizer"] == {
            "vocab_size": 80}
        assert manifest(work, "ingest")["counts"] == {}

    @pytest.mark.parametrize("text", [
        '{"seed": 0, "ratios": [0.8, 0.1, 0.1], "group_counts": {}}', '{"seed": 3,'],
        ids=["0.9.0", "malformed"])
    def test_old_split_manifest_is_ignored(self, small, work, text):
        assert small("ingest", "--synthetic", "30") == 0
        assert small("split") == 0
        (work / "split" / "manifest.json").write_text(text)
        for args, name in ((["embed"], "embed.src"),
                           (["tok-train", "--vocab-size", "80"], "tok-train"),
                           (["train"], "train")):
            assert small(*args, strict=True) == 0, args
            assert "split/manifest.json" not in manifest(work, name)["inputs"], args


class TestAugmentedSplit:
    """embed_replace, the projection TSV and --split-dir augmented: the path
    by which augmented pairs reach training and the export."""

    def test_embed_replace_reads_the_embedding_file(self, work, tmp_path, capsys):
        cfg = tmp_path / "embed_replace.yaml"
        cfg.write_text(SMALL_CONFIG.replace("[random_delete, random_swap]",
                                            "[embed_replace]"))

        def stage(*args):
            return cli.main(["--workdir", str(work), "--config", str(cfg), *args])
        assert stage("ingest", "--synthetic", "30") == 0
        assert stage("split") == 0
        capsys.readouterr()
        assert stage("augment") == cli.EXIT_DATA
        assert "missing embedding model" in capsys.readouterr().err
        assert not (work / "augmented").exists()
        assert stage("embed", "--side", "tgt") == 0
        assert stage("augment") == 0
        train = aligner.load_split(work / "augmented").train
        augmented = [p for p in train if p.augmented]
        assert augmented and all(p.aug_ops == ("embed_replace",) for p in augmented)
        inputs = manifest(work, "augment")["inputs"]
        assert inputs["embeddings.tgt.bin"] == sha256_file(work / "embeddings.tgt.bin")

    def test_empty_ops_exit_3_writing_nothing(self, work, tmp_path, capsys):
        cfg = tmp_path / "no_ops.yaml"
        cfg.write_text(SMALL_CONFIG.replace("[random_delete, random_swap]", "[]"))

        def stage(*args):
            return cli.main(["--workdir", str(work), "--config", str(cfg), *args])
        assert stage("ingest", "--synthetic", "30") == 0
        assert stage("split") == 0
        capsys.readouterr()
        assert stage("augment") == cli.EXIT_DATA
        assert ("error: augmentation ops must not be empty"
                in capsys.readouterr().err)
        assert not (work / "augmented").exists()
        assert not (work / "augment.manifest.json").exists()

    def test_report_writes_the_projection(self, small, work):
        for args in (["ingest", "--synthetic", "30"], ["split"], ["embed"],
                     ["report", "--project-word", "ba", "--top-k", "3"]):
            assert small(*args) == 0
        lines = (work / "projection.src.tsv").read_text().splitlines()
        assert lines[0] == "word\tx\ty\tclass"
        rows = [line.split("\t") for line in lines[1:]]
        assert [row[3] for row in rows] == ["source"] + ["similar"] * 3 + ["dissimilar"] * 3
        assert rows[0][0] == "ba"
        assert "projection.src.tsv" in manifest(work, "report.src")["outputs"]

    def test_train_and_export_read_the_augmented_split(self, small, work, capsys):
        for args in (["ingest", "--synthetic", "30"], ["split"],
                     ["tok-train", "--vocab-size", "80"], ["augment"]):
            assert small(*args) == 0
        train = aligner.load_split(work / "augmented").train
        n_augmented = sum(p.augmented for p in train)
        assert n_augmented > 0
        capsys.readouterr()
        assert small("train", "--split-dir", "augmented") == 0
        err = capsys.readouterr().err
        inputs = manifest(work, "train")["inputs"]
        for name in aligner.SPLIT_FILES:
            key = f"augmented/{name}"
            assert inputs[key] == sha256_file(work / key), key
        assert not any(key.startswith("split/") for key in inputs)
        assert "skipped" not in err
        epoch = json.loads(next(line for line in err.splitlines()
                                if line.startswith('{"event": "epoch"')))
        assert epoch["pairs"] == len(train)
        assert small("export-ft", "--split-dir", "augmented") == 0
        records = [json.loads(line)
                   for line in (work / "finetune.jsonl").read_text().splitlines()]
        validate_export(records)
        assert sum(r["augmented"] for r in records) == n_augmented
        assert all(r["split"] == "train" for r in records if r["augmented"])


class TestImportCost:
    """A stage process imports only what it runs: no jsonschema, which only
    the tests need (its import would add about 0.1 s to a stage's start-up),
    and of lowmt and numpy only what the stage uses."""

    @staticmethod
    def python(*args):
        """Run python with args in a fresh interpreter that imports lowmt
        from src/."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True)

    @pytest.mark.parametrize("stage", ["stats", "evaluate", "export-ft"])
    def test_stage_leaves_jsonschema_unimported(self, work, tmp_path, stage):
        assert run(["ingest", "--synthetic", "10"], work) == 0
        assert run(["split"], work) == 0
        text = tmp_path / "text.txt"
        text.write_text("a b c d\n")
        args = {"stats": ["stats"], "export-ft": ["export-ft"],
                "evaluate": ["evaluate", "--hyp", str(text), "--ref", str(text)]}[stage]
        code = ("import sys\nfrom lowmt import cli\nrc = cli.main(sys.argv[1:])\n"
                "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n"
                "sys.exit(rc)\n")
        result = self.python("-c", code, "--workdir", str(work), *args)
        assert result.returncode == 0, result.stderr

    def test_runtime_chain_runs_without_jsonschema(self, work):
        """The CI chain, ingest through translate, runs where jsonschema
        cannot be imported, as after an install of the runtime dependencies
        alone."""
        code = ("import sys\nsys.modules['jsonschema'] = None\nfrom lowmt import cli\n"
                "for args in (['ingest', '--synthetic', '30'], ['split'], ['export-ft'],\n"
                "             ['tok-train'], ['train', '--epochs', '1', '--hidden', '8'],\n"
                "             ['translate', '--text', 'ba ce di.']):\n"
                "    rc = cli.main(['--workdir', sys.argv[1], *args])\n"
                "    if rc:\n        sys.exit(rc)\n")
        result = self.python("-c", code, str(work))
        assert result.returncode == 0, result.stderr
        assert (work / "finetune.jsonl").exists()
        assert (work / "model.ckpt").exists() and result.stdout.strip()

    def test_numpy_runs_only_in_numeric_stages(self, work, tmp_path):
        """Stages that do no numerics never run numpy's import, and a stage
        runs only the lowmt modules it uses; both kinds record numpy's version
        in their manifest, and none imports importlib.metadata to find it."""
        cfg = tmp_path / "small.yaml"
        cfg.write_text(SMALL_CONFIG)
        text = tmp_path / "text.txt"
        text.write_text("a b c d\n")
        # A lazily bound module whose import has not run is of a subclass.
        code = ("import sys, types\nfrom lowmt import cli\nrc = cli.main(sys.argv[1:])\n"
                "print('numpy._core' in sys.modules, 'importlib.metadata' in sys.modules,"
                " *[n for n, m in sys.modules.items()\n"
                "    if n.startswith('lowmt.') and type(m) is types.ModuleType])\n"
                "sys.exit(rc)\n")
        numeric, ran = {}, {}
        for args in (["ingest", "--synthetic", "30"], ["stats"], ["split"],
                     ["tok-train", "--vocab-size", "80"], ["augment"],
                     ["evaluate", "--hyp", str(text), "--ref", str(text)],
                     ["export-ft"], ["train"]):
            result = self.python("-c", code, "--workdir", str(work), "--config",
                                 str(cfg), *args)
            assert result.returncode == 0, result.stderr
            uses_numpy, metadata, *modules = result.stdout.splitlines()[-1].split()
            numeric[args[0]] = uses_numpy == "True"
            assert metadata == "False", f"{args[0]} imported importlib.metadata"
            ran[args[0]] = set(modules)
            name = "stats.src" if args[0] == "stats" else args[0]
            assert manifest(work, name)["versions"]["numpy"] == numpy.__version__
        assert [stage for stage, ran in numeric.items() if ran] == ["train"]
        for stage in ("ingest", "stats", "split", "evaluate", "export-ft"):
            assert not ran[stage] & {"lowmt.nmt", "lowmt.subword"}, stage
        assert "lowmt.analysis" not in ran["evaluate"]
        assert {"lowmt.nmt", "lowmt.subword"} <= ran["train"]

    @pytest.mark.parametrize("stage, spans", [
        ("evaluate", {"bleu.corpus_bleu", "util.sha256_file"}),
        ("augment", {"augment.augment_training_set", "aligner.load_split",
                     "aligner.save_split", "util.sha256_file"}),
        ("split", {"corpus.load_corpus", "aligner.explode_corpus",
                   "aligner.split_dataset", "aligner.save_split", "util.sha256_file"}),
    ])
    def test_tracer_wraps_lazily_bound_modules(self, small, work, tmp_path, stage, spans):
        """bench/tracer.py wraps the functions of modules that cli binds
        lazily: it loads them when it looks their targets up."""
        for args in (["ingest", "--synthetic", "30"], ["split"]):
            assert small(*args) == 0
        text = tmp_path / "text.txt"
        text.write_text("a b c d\n")
        stage_args = {"evaluate": ["evaluate", "--hyp", str(text), "--ref", str(text)],
                      "augment": ["augment"], "split": ["split"]}[stage]
        spans_path = tmp_path / "spans.json"
        result = self.python(str(ROOT / "bench" / "tracer.py"), str(spans_path), "run-0",
                             "--workdir", str(work), "--config",
                             str(tmp_path / "small.yaml"), *stage_args)
        assert result.returncode == 0, result.stderr
        assert "tracer:" not in result.stderr
        recorded = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
        assert spans | {"cli.main"} <= recorded


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
