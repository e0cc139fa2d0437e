#!/usr/bin/env python3
"""lowmt benchmark: drive the real CLI, stage by stage, on generated workloads.

Run from the repository root:

    python3 bench/run.py --workload synthetic-demo --seed 1 --seconds 42 --trace 0

Each stage is its own ``python3 -m lowmt.cli`` process and stages run in
sequence from this process, with BLAS pinned to BLAS_THREADS threads. A run
sets the workload up several times, interleaved with repetitions of the
timed stage sequence (at least two) while they fit in ``--seconds``. Every
stage run is checked:
exit code, expected outputs, finite losses, a BLEU floor, and sha256 digests
that must match between set-ups and between repetitions of the same seed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates plain
repetitions with repetitions under ``bench/tracer.py`` and prints the
per-layer metrics. The last stdout line is the JSON result; the lines before
it give per-stage timings, the provenance block and the quality figures.
A copy of everything goes to ``.bench_work/results/``. See bench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402

BLAS_THREADS = 1
DEADLINE_S = 165.0
MAX_REPS = 40
WORK_ROOT = ".bench_work"
CONFIG = gen.CONFIG

# Compute-bound stages; every other stage's wall time goes to other_stages_s,
# which is meant to show CLI, manifest, I/O and start-up cost. train and
# translate have their own throughput metric; BPE (tok-train) and SGNS
# (embed) show in pipeline_s and in the trace.
COMPUTE_STAGES = ("train", "tok-train", "translate", "embed")
CLI_STAGES = ("ingest", "stats", "split", "embed", "report", "tok-train",
              "augment", "train", "translate", "evaluate", "export-ft")

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "train.pairs_per_s": "pairs/s",
    "translate.sents_per_s": "lines/s", "other_stages_s": "s",
    "peak_rss_mb": "MiB", "val_loss": "nats",
}

LAYER_SPANS = {
    "nmt.train": ("busy_s", "self_s", "pairs", "target_steps"),
    "nmt.encode_sequence": ("calls", "busy_s"),
    "nmt.mean_loss": ("busy_s",),
    "nmt.translate": ("calls", "busy_s", "self_s", "tokens_out"),
    "nmt.save_checkpoint": ("busy_s",),
    "nmt.load_checkpoint": ("busy_s",),
    "subword.train_tokenizer": ("busy_s", "merges"),
    "subword.encode": ("calls", "busy_s"),
    "subword.decode": ("busy_s",),
    "subword.load_vocab": ("busy_s",),
    "analysis.train_embeddings": ("busy_s", "centers"),
    "analysis.project_2d": ("busy_s",),
    "corpus.load_corpus": ("busy_s", "units"),
    "corpus.corpus_stats": ("busy_s",),
    "aligner.explode_corpus": ("busy_s",),
    "aligner.split_dataset": ("busy_s",),
    "aligner.save_split": ("busy_s",),
    "aligner.load_split": ("calls", "busy_s"),
    "augment.augment_training_set": ("busy_s", "pairs_out"),
    "bleu.corpus_bleu": ("busy_s", "segments"),
    "util.sha256_file": ("calls", "busy_s", "bytes"),
}


def layer_units():
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for span, fields in LAYER_SPANS.items():
        for field in fields:
            units[f"{span}.{field}"] = "s" if field.endswith("_s") else (
                "bytes" if field == "bytes" else "count")
    units["nmt.translate.p50_ms"] = "ms"
    units["nmt.translate.p99_ms"] = "ms"
    units["nmt.checkpoint.bytes"] = "bytes"
    for stage in CLI_STAGES:
        units[f"cli.{stage}.startup_s"] = "s"
        units[f"cli.{stage}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class StageFailed(Exception):
    pass


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def scan(d):
    """relative path -> (size, mtime_ns) of every file under d."""
    out = {}
    for base, _, files in os.walk(d):
        for name in files:
            path = os.path.join(base, name)
            st = os.stat(path)
            out[os.path.relpath(path, d)] = (st.st_size, st.st_mtime_ns)
    return out


def count_lines(path):
    with open(path, "r", encoding="utf-8") as f:
        return len(f.read().splitlines())


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


class Runner:
    """Starts stage processes, times them and records every stage run."""

    def __init__(self, root, run_dir, deadline):
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.log_dir = os.path.join(run_dir, "logs")
        os.makedirs(self.log_dir)
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        self.env = env
        self.records = []

    def time_left(self):
        return self.deadline - time.monotonic()

    def spawn(self, cmd, cwd, log_base):
        """Run cmd to completion; returns (exit code, wall s, max RSS KiB)."""
        with open(log_base + ".out", "w") as out, open(log_base + ".err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.time_left()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def probe(self):
        """Import lowmt from the checkout in a child (this also fills the
        bytecode cache) and return versions for the provenance block."""
        code = (
            "import json, platform, numpy, lowmt, lowmt.cli\n"
            "try:\n"
            "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "except Exception as e:\n"
            "    blas = {'error': repr(e)}\n"
            "print(json.dumps({'python': platform.python_version(),\n"
            "                  'numpy': numpy.__version__, 'numpy_blas': blas,\n"
            "                  'lowmt': lowmt.__version__, 'lowmt_file': lowmt.__file__}))\n")
        log = os.path.join(self.log_dir, "probe")
        rc, _, _ = self.spawn([sys.executable, "-c", code], self.run_dir, log)
        if rc != 0:
            return None
        with open(log + ".out") as f:
            info = json.loads(f.read().strip().splitlines()[-1])
        src = os.path.realpath(os.path.join(self.root, "src"))
        if not os.path.realpath(info["lowmt_file"]).startswith(src + os.sep):
            return None
        return info


class Step:
    """One set-up or one repetition of a workload in its own directory."""

    def __init__(self, runner, wl, seed, d, phase, index, traced=False):
        self.runner = runner
        self.wl = wl
        self.seed = seed
        self.d = d
        self.phase = phase
        self.index = index
        self.traced = traced
        self.records = []
        self.elapsed = 0.0
        self._state = scan(d)

    def path(self, *parts):
        return os.path.join(self.d, *parts)

    def _new_digests(self):
        state = scan(self.d)
        changed = sorted(p for p, v in state.items() if self._state.get(p) != v)
        self._state = state
        return {p: sha256_file(self.path(p)) for p in changed}

    def _record(self, stage, wall, ok, why, **extra):
        rec = {"phase": self.phase, "index": self.index, "stage": stage,
               "wall_s": wall, "ok": ok, "why": why,
               "digests": self._new_digests(), **extra}
        self.records.append(rec)
        self.runner.records.append(rec)
        return rec

    def glue(self, fn):
        """Timed in-process step of the user's sequence (e.g. writing inputs)."""
        t0 = time.perf_counter()
        value = fn()
        self.elapsed += time.perf_counter() - t0
        return value

    def generate(self, part, outputs):
        """Write seeded inputs with bench/gen.py, in a process of its own."""
        cmd = [sys.executable, os.path.join(BENCH_DIR, "gen.py"), "--workload",
               self.wl.name, "--seed", str(self.seed), "--dir", ".", "--part", part]
        return self._process(f"gen-{part}", cmd, outputs)

    def stage(self, name, args=(), outputs=(), work=None, check=None):
        """Run one lowmt stage; work(step, stderr) counts the items it handled
        and check(step, rec) returns an error message or None."""
        common = ["--config", CONFIG, "--workdir", ".", "--strict", name, *args]
        spans = None
        if self.traced:
            spans = os.path.join(self.runner.log_dir,
                                 f"{self.phase}{self.index}-{name}.spans.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans,
                   f"{self.phase}{self.index}-{name}", *common]
        else:
            cmd = [sys.executable, "-m", "lowmt.cli", *common]
        return self._process(name, cmd, outputs, work, check, spans)

    def _process(self, name, cmd, outputs, work=None, check=None, spans=None):
        tag = f"{self.phase}{self.index}-{name}"
        log_base = os.path.join(self.runner.log_dir, tag)
        rc, wall, rss = self.runner.spawn(cmd, self.d, log_base)
        self.elapsed += wall
        with open(log_base + ".err", encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        why = None
        if rc != 0:
            why = f"exit {rc}: {stderr.strip().splitlines()[-1:] or ''}"
        else:
            missing = [p for p in outputs if not os.path.exists(self.path(p))]
            if missing:
                why = f"missing outputs {missing}"
        rec = self._record(name, wall, why is None, why, maxrss_kb=rss, spans=spans)
        if why is None:
            rec["work"] = work(self, stderr) if work else None
            why = check(self, rec) if check else None
            if why:
                rec["ok"], rec["why"] = False, why
        if why:
            raise StageFailed(f"{tag}: {why}")
        return rec


# --- per-stage work counts and output checks --------------------------------

def train_pairs(step, stderr):
    pairs = count_lines(step.path("split", "train.jsonl"))
    for line in stderr.splitlines():
        if line.startswith("warning: skipped") and "over-length pairs" in line:
            pairs -= int(line.split()[2])
    return pairs * gen.config(step.wl.name, step.seed)["train"]["epochs"]


def input_lines(flag):
    def count(step, stderr):
        return count_lines(step.path(flag))
    return count


def check_val_loss(step, rec):
    with open(step.path("loss.csv"), encoding="utf-8") as f:
        rows = [line.strip().split(",") for line in f if line.strip()]
    header, last = rows[0], rows[-1]
    if "val_loss" not in header:
        return "loss.csv has no val_loss column"
    rec["val_loss"] = float(last[header.index("val_loss")])
    return None if math.isfinite(rec["val_loss"]) else f"val_loss {rec['val_loss']}"


def check_translation(src, hyp):
    def check(step, rec):
        n_src, n_hyp = count_lines(step.path(src)), count_lines(step.path(hyp))
        return None if n_src == n_hyp else f"{hyp}: {n_hyp} lines for {n_src} inputs"
    return check


def check_bleu(step, rec):
    with open(step.path("bleu.json"), encoding="utf-8") as f:
        rec["bleu4"] = 100.0 * json.load(f)["score"]
    if not math.isfinite(rec["bleu4"]):
        return f"bleu4 {rec['bleu4']}"
    floor = step.wl.bleu_floor
    if floor is not None and rec["bleu4"] < floor:
        return f"bleu4 {rec['bleu4']:.3f} below floor {floor}"
    return None


def write_test_split(step, src_name, ref_name, lines=None):
    """Source and reference files of the test split, or of its first
    ``lines`` lines."""
    src, ref = [], []
    with open(step.path("split", "test.jsonl"), encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                src.append(rec["src"])
                ref.append(rec["tgt"])
    if lines is not None:
        if len(src) < lines:
            raise StageFailed(f"test split has {len(src)} lines, fewer than {lines}")
        src, ref = src[:lines], ref[:lines]
    gen.write_lines(step.path(src_name), src)
    gen.write_lines(step.path(ref_name), ref)


def translate_and_evaluate(step, src, ref, hyp):
    step.stage("translate", ["--input", src, "--output", hyp], [hyp],
               work=input_lines(src), check=check_translation(src, hyp))
    step.stage("evaluate", ["--hyp", hyp, "--ref", ref], ["bleu.json"],
               check=check_bleu)


# --- workloads ---------------------------------------------------------------

class SyntheticDemo:
    """README stage chain on the built-in synthetic corpus."""
    name = "synthetic-demo"
    setups = 9
    units = 200
    # The test split of 200 units has 31-37 lines (seeds 1-40). The
    # translate stage is mostly process start-up at this size, so lines/s
    # would follow the line count; every seed translates the same number.
    test_lines = 24
    bleu_floor = 0.3

    def setup(self, step):
        step.generate("inputs", [CONFIG, "lexicon.tsv"])

    def pipeline(self, step):
        step.stage("ingest", ["--synthetic", str(self.units)], ["corpus.jsonl"])
        step.stage("stats", ["--side", "src"], ["stats.src.json"])
        step.stage("split", [], ["split/train.jsonl", "split/test.jsonl"])
        step.glue(lambda: write_test_split(step, "test.src.txt", "test.ref.txt",
                                           self.test_lines))
        step.stage("embed", ["--side", "src"], ["embeddings.src.bin"])
        word = step.glue(lambda: top_word(step))
        step.stage("report", ["--side", "src", "--project-word", word, "--top-k", "5"],
                   ["projection.src.tsv"])
        step.stage("tok-train", [], ["vocab.src.tsv", "vocab.tgt.tsv"])
        step.stage("augment", ["--lexicon", "lexicon.tsv"], ["augmented/train.jsonl"])
        step.stage("train", [], ["model.ckpt", "loss.csv"], work=train_pairs,
                   check=check_val_loss)
        translate_and_evaluate(step, "test.src.txt", "test.ref.txt", "test.hyp.txt")
        step.stage("export-ft", [], ["finetune.jsonl"])


def top_word(step):
    with open(step.path("stats.src.json"), encoding="utf-8") as f:
        return json.load(f)["top_k"][0][0]


class ZipfWideVocab:
    """Zipfian syllable corpus with a wide BPE vocab and a wide model."""
    name = "zipf-wide-vocab"
    setups = 9
    bleu_floor = None  # one epoch over 48 pairs learns almost nothing

    def setup(self, step):
        step.generate("inputs", [CONFIG, "zipf.jsonl"])

    def pipeline(self, step):
        step.stage("ingest", ["--input", "zipf.jsonl"], ["corpus.jsonl"])
        step.stage("split", [], ["split/train.jsonl", "split/test.jsonl"])
        step.glue(lambda: write_test_split(step, "test.src.txt", "test.ref.txt"))
        step.stage("tok-train", [], ["vocab.src.tsv", "vocab.tgt.tsv"])
        step.stage("train", [], ["model.ckpt", "loss.csv"], work=train_pairs,
                   check=check_val_loss)
        translate_and_evaluate(step, "test.src.txt", "test.ref.txt", "test.hyp.txt")
        step.stage("export-ft", [], ["finetune.jsonl"])


class TranslateBulk:
    """Many lines through a small trained checkpoint: the read side of nmt.

    The checkpoint is trained from the fixed config seed gen.CHECKPOINT_SEED;
    the workload seed draws only the bulk lines.
    """
    name = "translate-bulk"
    setups = 5
    units = 250
    bleu_floor = 0.12

    def setup(self, step):
        step.generate("inputs", [CONFIG])
        step.stage("ingest", ["--synthetic", str(self.units)], ["corpus.jsonl"])
        step.stage("split", [], ["split/train.jsonl"])
        step.stage("tok-train", [], ["vocab.src.tsv", "vocab.tgt.tsv"])
        step.stage("train", [], ["model.ckpt", "loss.csv"], work=train_pairs,
                   check=check_val_loss)
        step.generate("bulk", ["bulk.src.txt", "bulk.ref.txt"])

    def pipeline(self, step):
        translate_and_evaluate(step, "bulk.src.txt", "bulk.ref.txt", "bulk.hyp.txt")


WORKLOADS = {wl.name: wl for wl in (SyntheticDemo(), ZipfWideVocab(), TranslateBulk())}


# --- checks and metrics --------------------------------------------------------

def check_same_outputs(steps):
    """Mark stage runs whose output digests differ from the first step's."""
    first = steps[0].records
    for step in steps[1:]:
        for ref, rec in zip(first, step.records):
            if rec["ok"] and ref["ok"] and rec["digests"] != ref["digests"]:
                diff = sorted(p for p in set(rec["digests"]) | set(ref["digests"])
                              if rec["digests"].get(p) != ref["digests"].get(p))
                rec["ok"] = False
                rec["why"] = f"outputs differ from {ref['phase']}{ref['index']}: {diff}"


def end_to_end_metrics(setups, reps, records):
    """Metric values, and the per-sample values each one is made from.

    Set-up time is a median over set-ups. Times and rates of the timed
    sequence are totals over the whole run: the mean repetition time, and
    all work of a stage over all its wall time. On a shared host slowdowns
    come in phases of seconds, so the times of one stage within a run are
    bimodal; their median jumps between the two modes with the share of slow
    time, while the mean moves with it smoothly (bench/README.md, "Noise").
    """
    def stage_runs(stage):
        return [r for r in records if r["stage"] == stage and r["ok"] and r.get("work")]

    def rate(stage):
        runs = stage_runs(stage)
        return sum(r["work"] for r in runs) / sum(r["wall_s"] for r in runs)

    samples = {
        "setup_s": [s.elapsed for s in setups],
        "pipeline_s": [rep.elapsed for rep in reps],
        "train.pairs_per_s": [r["work"] / r["wall_s"] for r in stage_runs("train")],
        "translate.sents_per_s": [r["work"] / r["wall_s"]
                                  for r in stage_runs("translate")],
        "other_stages_s": [sum(r["wall_s"] for r in rep.records
                               if r["stage"] not in COMPUTE_STAGES) for rep in reps],
        "peak_rss_mb": [max(r["maxrss_kb"] for r in rep.records) / 1024.0
                        for rep in reps],
        "val_loss": [r["val_loss"] for r in records if "val_loss" in r],
    }
    values = {
        "setup_s": median(samples["setup_s"]),
        "pipeline_s": statistics.fmean(samples["pipeline_s"]),
        "train.pairs_per_s": rate("train"),
        "translate.sents_per_s": rate("translate"),
        "other_stages_s": statistics.fmean(samples["other_stages_s"]),
        "peak_rss_mb": median(samples["peak_rss_mb"]),
        "val_loss": median(samples["val_loss"]),
    }
    return values, samples


def layer_metrics(rep):
    """Per-layer values from the spans of one traced repetition."""
    busy, self_time, calls, counts = (defaultdict(float), defaultdict(float),
                                      Counter(), defaultdict(int))
    translate_ms = []
    cli = {}
    checkpoint_bytes = 0
    for rec in rep.records:
        if not rec.get("spans"):
            continue
        with open(rec["spans"], encoding="utf-8") as f:
            spans = json.load(f)["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        main_busy = main_self = 0.0
        for i, (name, start, end, parent, extra) in enumerate(spans):
            if end is None:
                continue
            busy[name] += end - start
            self_time[name] += end - start - covered[i]
            calls[name] += 1
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] += value
            if name == "nmt.translate":
                translate_ms.append(1000.0 * (end - start))
            if name in ("nmt.save_checkpoint", "nmt.load_checkpoint"):
                checkpoint_bytes = max(checkpoint_bytes, extra["bytes"])
            if name == "cli.main":
                main_busy, main_self = end - start, end - start - covered[i]
        cli[rec["stage"]] = (rec["wall_s"] - main_busy, main_self)

    values = {}
    for span, fields in LAYER_SPANS.items():
        for field in fields:
            timing = {"busy_s": busy[span], "self_s": self_time[span],
                      "calls": calls[span]}
            values[f"{span}.{field}"] = timing.get(field, counts[f"{span}.{field}"])
    for stage in CLI_STAGES:
        startup, self_s = cli.get(stage, (0.0, 0.0))
        values[f"cli.{stage}.startup_s"] = startup
        values[f"cli.{stage}.self_s"] = self_s
    values["nmt.translate.p50_ms"] = percentile(translate_ms, 0.50)
    values["nmt.translate.p99_ms"] = percentile(translate_ms, 0.99)
    values["nmt.checkpoint.bytes"] = checkpoint_bytes
    return values


def traced_metrics(reps):
    """Median per-layer values over the traced (odd) repetitions; the plain
    (even) ones give the tracing overhead."""
    plain, traced = reps[0::2], reps[1::2]
    per_rep = [layer_metrics(rep) for rep in traced]
    values = {k: median([v[k] for v in per_rep]) for k in per_rep[0]}
    values["trace.overhead_s"] = (median([r.elapsed for r in traced]) -
                                  median([r.elapsed for r in plain]))
    return values


def provenance(root, probe):
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError) as e:
            sha = f"unknown ({e})"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "blas_threads": BLAS_THREADS,
            "python": probe["python"], "numpy": probe["numpy"],
            "numpy_blas": probe["numpy_blas"], "lowmt": probe["lowmt"],
            "git_sha": sha, "machine": platform.machine(),
            "platform": platform.platform()}


# --- entry point ---------------------------------------------------------------

def run(args, root):
    wl = WORKLOADS[args.workload]
    start = time.monotonic()
    work_root = os.path.join(root, WORK_ROOT)
    run_dir = os.path.join(work_root, f"run-{wl.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        runner = Runner(root, run_dir, start + DEADLINE_S)
        probe = runner.probe()
        if probe is None:
            with open(os.path.join(runner.log_dir, "probe.err")) as f:
                detail = f.read().strip()
            print(f"error: cannot import lowmt from {os.path.join(root, 'src')}\n"
                  f"{detail}", file=sys.stderr)
            return None
        prov = provenance(root, probe)

        # Set-ups are interleaved with the first repetitions, so that their
        # times sample the same stretch of the run as the repetitions do.
        # Set-up and repetitions share the --seconds budget; every set-up
        # runs, and at least two repetitions.
        setups, reps = [], []
        try:
            while len(reps) < MAX_REPS:
                if len(setups) < wl.setups:
                    d = os.path.join(run_dir, f"setup{len(setups)}")
                    os.makedirs(d)
                    setups.append(Step(runner, wl, args.seed, d, "setup", len(setups)))
                    wl.setup(setups[-1])
                mean = sum(rep.elapsed for rep in reps) / max(1, len(reps))
                if len(reps) >= 2 and (time.monotonic() - start + mean > args.seconds
                                       or mean * 1.5 > runner.time_left()):
                    if len(setups) == wl.setups:
                        break
                    continue
                d = os.path.join(run_dir, f"rep{len(reps)}")
                shutil.copytree(setups[0].d, d)
                traced = bool(args.trace) and len(reps) % 2 == 1
                reps.append(Step(runner, wl, args.seed, d, "rep", len(reps), traced))
                wl.pipeline(reps[-1])
        except StageFailed as e:
            print(f"failed: {e}", file=sys.stderr)
        check_same_outputs(setups)
        check_same_outputs(reps)

        records = runner.records
        failed = sum(not r["ok"] for r in records)
        complete = len(reps) >= 2 and all(len(rep.records) == len(reps[0].records)
                                          for rep in reps)
        correct = failed == 0 and complete
        samples = {}
        if correct and args.trace:
            values, units = traced_metrics(reps), layer_units()
        elif correct:
            values, samples = end_to_end_metrics(setups, reps, records)
            units = END_TO_END
        else:
            values, units = {}, {}
        # Sample count, median and range behind each end-to-end metric.
        spread = {k: {"n": len(v), "median": median(v), "min": min(v), "max": max(v)}
                  for k, v in samples.items()}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

        quality = {k: median([r[k] for r in records if k in r])
                   for k in ("bleu4", "val_loss")}
        for rec in records:
            status = "ok" if rec["ok"] else f"FAILED {rec['why']}"
            print(f"stage {rec['phase']}{rec['index']} {rec['stage']:<10} "
                  f"{rec['wall_s']:8.3f} s  {status}")
        print("provenance: " + json.dumps(prov, sort_keys=True))
        print("quality: " + json.dumps(quality, sort_keys=True))
        for k, v in spread.items():
            print(f"samples {k:<22} n={v['n']:<3} median={v['median']:.6g} "
                  f"min={v['min']:.6g} max={v['max']:.6g}")
        result = {"correct": correct, "attempted": len(records), "failed": failed,
                  "metrics": metrics}
        results_dir = os.path.join(work_root, "results")
        os.makedirs(results_dir, exist_ok=True)
        with open(os.path.join(results_dir, f"{wl.name}-seed{args.seed}-trace"
                               f"{args.trace}.json"), "w", encoding="utf-8") as f:
            json.dump({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, "provenance": prov, "quality": quality,
                       "result": result, "samples": spread,
                       "stage_runs": [{k: v for k, v in r.items() if k != "spans"}
                                      for r in records]}, f, indent=1)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: the running stage is killed and reaped,
    # and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lowmt", "cli.py")):
        print(f"error: {root} has no src/lowmt/cli.py; run from the lowmt "
              f"repository root", file=sys.stderr)
        return 2
    result = run(args, root)
    if result is None:
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
