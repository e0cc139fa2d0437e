"""Low-resource machine translation pipeline toolkit.

Stages: corpus ingestion/normalization, sentence alignment and dataset
splitting, frequency/embedding analysis, subword tokenization, training-set
augmentation, a from-scratch GRU attention seq2seq model, and BLEU-4
evaluation. Every stage is deterministic under a single top-level seed.
"""

__version__ = "0.13.0"
