"""Traced launcher: run one lowmt CLI stage with spans around module calls.

    python3 bench/tracer.py SPANS_JSON RUN_ID [lowmt arguments ...]

behaves like ``python3 -m lowmt.cli [lowmt arguments ...]`` but first
replaces each public function listed in TARGETS by a wrapper that records a
span (name, start, end, parent, run id) and, for some functions, counts taken
from the arguments and the return value. A function is replaced at every
module-level binding in the ``lowmt`` package, so calls through
``from .util import sha256_file`` and through module globals such as
``nmt.encode_sequence`` are both seen. Spans stay in memory and are written
to SPANS_JSON when the stage ends. The wrappers change no argument and no
result, so traced artifacts are byte-identical to untraced ones.
"""

import functools
import inspect
import json
import os
import sys
import time

TARGETS = {
    "nmt": ("train", "encode_sequence", "mean_loss", "translate",
            "save_checkpoint", "load_checkpoint"),
    "subword": ("train_tokenizer", "encode", "decode", "load_vocab"),
    "analysis": ("train_embeddings", "project_2d"),
    "corpus": ("load_corpus", "corpus_stats"),
    "aligner": ("explode_corpus", "split_dataset", "save_split", "load_split"),
    "augment": ("augment_training_set",),
    "bleu": ("corpus_bleu",),
    "util": ("sha256_file",),
}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _train_counts(args, result):
    epochs = args["train_config"].epochs
    pairs = args["pairs"]
    return {"pairs": len(pairs) * epochs,
            "target_steps": sum(len(tgt) + 1 for _, tgt in pairs) * epochs}


def _embedding_centers(args, result):
    index = result.index
    return {"centers": sum(1 for sent in args["sentences"] for tok in sent
                           if tok in index) * result.epochs}


# Counts computed after the span closes, from bound arguments and the result.
COUNTERS = {
    "nmt.train": _train_counts,
    "nmt.translate": lambda args, result: {"tokens_out": len(result[0])},
    "nmt.save_checkpoint": _file_bytes,
    "nmt.load_checkpoint": _file_bytes,
    "subword.train_tokenizer": lambda args, result: {"merges": len(result.merges)},
    "analysis.train_embeddings": _embedding_centers,
    "corpus.load_corpus": lambda args, result: {"units": len(result.units)},
    "augment.augment_training_set":
        lambda args, result: {"pairs_out": len(result.train) - len(args["split"].train)},
    "bleu.corpus_bleu": lambda args, result: {"segments": len(args["hypotheses"])},
    "util.sha256_file": _file_bytes,
}


class Tracer:
    """In-memory span recorder; a span is [name, start, end, parent, counts]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._warned = set()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                try:
                    span[4] = counter(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError) as e:
                    self._warn(f"cannot count {name}: {e!r}")
            return result

        return traced

    def install(self):
        """Replace every lowmt module-level binding of each target function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "lowmt" or n.startswith("lowmt.")]
        for module_name, names in TARGETS.items():
            module = sys.modules.get(f"lowmt.{module_name}")
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    self._warn(f"lowmt.{module_name}.{fname} not found; "
                               f"its spans are missing")
                    continue
                wrapper = self.wrap(f"{module_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _warn(self, message):
        if message not in self._warned:
            self._warned.add(message)
            print(f"tracer: {message}", file=sys.stderr)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans}, f)


def main():
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import lowmt.cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.wrap("cli.main", lowmt.cli.main)(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
