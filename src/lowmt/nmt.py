"""GRU encoder + attention decoder seq2seq with hand-written gradients.

Everything runs in float64 on numpy; randomness (init, dropout, teacher
forcing, epoch order) comes from seeded streams so training is fully
reproducible. The backward pass is verified against central finite
differences (gradient_check).

Row blocks: the encoder, the GRU step and the decoder step work on blocks of
B rows (hidden B x d). Training runs one pair at a time, as blocks of B=1.
Greedy translation and the validation loss sort their inputs by length into
buckets of BUCKET_SIZE rows and run each in lockstep: the encoder freezes a
row's hidden state past its source length and leaves its outputs there zero,
so attention over the max_len positions means what it does for one sentence.
Training and the loss share one gold-fed loop, _decode_gold, which ends each
row's loss at its gold </s>; translate_batch's own loop has a done-mask that
ends each row at the </s> it emits.

Gate equations, per step with input x and previous hidden h:
    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    c = tanh(Wh x + Uh (r*h) + bh)
    h' = (1 - z)*h + z*c
Each GRU (enc, dec) stacks its gates in the order z|r|h: {side}_W and {side}_U
are 3d x d ([Wz; Wr; Wh], [Uz; Ur; Uh]) and {side}_b is [bz; br; bh].

Decoder step: embed previous token (dropout in train mode), attention weights
softmax(W_attn [x; h] + b) over encoder positions, context = weights @
encoder_outputs, combined = relu(W_comb [x; context] + b), GRU step on the
combined vector, log-softmax output layer.

Backward (BPTT): _pair_grads runs one pair's forward through _decode_gold,
keeping per step only what the backward cannot rebuild exactly, as 1-row
blocks: log-probs, h', attention weights, context, comb_pre, z|r and c. Its
backward concatenates each into one T-row array once and rebuilds the rest
by elementwise ops and concatenation (probs, the decoder GRU's input, r*h,
[x; h], [x; context], the encoder's inputs and previous hidden states). Only
the dh recurrence runs step by step, in reverse: each step writes its gate
pre-activation gradients as a row of DA (T x 3d, z|r|h order) and its comb
and attention gradients as rows of T x d arrays. The output layer's come
before the loop.

Factored gradients: every weight gradient is a sum over the sequence, so it
is one product A^T B of two T-row factors (dW = DA^T X, dU = DA^T H per gate
block, d out_W = dlogits^T h'), and the backward returns it as such terms,
(rows, A, B), never as a dense array. Its L2 norm comes from the T x T Gram
matrices: |A^T B|^2 = <A A^T, B B^T> (Goodfellow 2015, arXiv:1510.01799).
The SGD step and the dense view (_dense_grads) add scale * gradient by one
function, _add_grads. It multiplies each term out UPDATE_CHUNK_BYTES at a
time, into a chunk that each product allocates for itself, so the step forms
no dense gradient in full (at H=256 and V=8k it would be 23 MB per pair).
Bias and embedding gradients are (rows, values) pairs, all rows for a bias
and the touched rows for an embedding: train updates only those. Both count
in the clip norm.

Checkpoint format 2 (util.save_arrays) holds the config, then PARAM_ORDER.
"""

import math
import random
from dataclasses import asdict, dataclass

from .subword import PAD_ID, SOS_ID, EOS_ID, UNK_ID
from .util import at_least, check_record, derive_seed, lazy_module, load_arrays, save_arrays

np = lazy_module("numpy")

MAGIC = b"LMTS"
FORMAT_VERSION = 2

# Rows decoded in lockstep: per-step Python overhead is paid once per bucket,
# while the buffers of one bucket stay well under a MiB at the bench sizes.
BUCKET_SIZE = 32

# _add_product multiplies a factored weight gradient out in row chunks of at
# most this many bytes (at least two rows), into one chunk per product.
UPDATE_CHUNK_BYTES = 256 * 1024

PARAM_ORDER = [
    "enc_embed", "enc_W", "enc_U", "enc_b",
    "dec_embed", "attn_W", "attn_b", "comb_W", "comb_b",
    "dec_W", "dec_U", "dec_b",
    "out_W", "out_b",
]
_GRU_PARAMS = {f"{side}_{kind}" for side in ("enc", "dec") for kind in "WUb"}


class NmtError(ValueError):
    pass


class NmtNumericalError(RuntimeError):
    """Training produced a NaN/inf loss or gradient norm."""


# The model config, as the checkpoint header holds it and ModelConfig checks it.
HEADER_FIELDS = {"src_vocab_size": at_least(EOS_ID + 1),
                 "tgt_vocab_size": at_least(EOS_ID + 1),
                 "hidden": at_least(1), "max_len": at_least(2),
                 "dropout_p": (True, lambda v: type(v) in (int, float) and 0 <= v < 1,
                               "a number in [0, 1)"), "seed": at_least(0)}


@dataclass
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    hidden: int = 256
    max_len: int = 64
    dropout_p: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_record(asdict(self), HEADER_FIELDS, "model config", NmtError)


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.01
    teacher_forcing_ratio: float = 0.5
    grad_clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise NmtError("epochs must be >= 1")
        # not x >= 0, so that NaN fails too: a NaN clip norm would clip nothing.
        if not self.learning_rate >= 0:
            raise NmtError("learning_rate must be >= 0")
        if not (0.0 <= self.teacher_forcing_ratio <= 1.0):
            raise NmtError("teacher_forcing_ratio must be in [0, 1]")
        if not self.grad_clip_norm >= 0:
            raise NmtError("grad_clip_norm must be >= 0 (0: no clipping)")


@dataclass
class Seq2SeqModel:
    params: dict
    config: ModelConfig


def param_shapes(config):
    """The shape of every parameter, in the order init_model draws them."""
    d, L, V = config.hidden, config.max_len, config.tgt_vocab_size
    gru = {"W": (3 * d, d), "U": (3 * d, d), "b": (3 * d,)}
    return {"enc_embed": (config.src_vocab_size, d), "dec_embed": (V, d),
            "attn_W": (L, 2 * d), "attn_b": (L,), "comb_W": (d, 2 * d), "comb_b": (d,),
            "out_W": (V, d), "out_b": (V,),
            **{f"{side}_{k}": shape for side in ("enc", "dec") for k, shape in gru.items()}}


def _gate_blocks(names, d):
    """(name, rows) of each array in names, each GRU split gate by gate as
    lowmt 0.2.0 drew and stored it: W U b of z, then r, then h."""
    blocks = []
    for name in names:
        side, kind = name.split("_", 1)
        if name not in _GRU_PARAMS:
            blocks.append((name, slice(None)))
        elif kind == "W":  # U and b come with it
            blocks += [(f"{side}_{k}", slice(i * d, (i + 1) * d))
                       for i in range(3) for k in "WUb"]
    return blocks


def init_model(config):
    """Allocate parameters uniformly in [-1/sqrt(hidden), +1/sqrt(hidden)]."""
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / math.sqrt(config.hidden)
    shapes = param_shapes(config)
    params = {name: np.empty(shape) for name, shape in shapes.items()}
    for name, rows in _gate_blocks(shapes, config.hidden):
        # In place, the same draws and bits as rng.uniform(-bound, bound).
        block = rng.random(out=params[name][rows])
        block *= 2.0 * bound
        block += -bound
    return Seq2SeqModel(params=params, config=config)


def _affine(X, W, b):
    """X @ W.T + b for a block X of B rows, with less overhead per call at
    small sizes: np.dot runs the same gemv (B=1) or gemm as @, with the same
    bits, and a 1-row block adds the 1-row b[None] without a broadcast."""
    return np.dot(X, W.T) + b[None]


def _gru_forward(W, U, b, x, h):
    """One GRU step on a row block: x and h are B x d. Returns (h', the gates
    z|r, the candidate c)."""
    d = h.shape[1]
    a = _affine(x, W, b)
    zr = 1.0 / (1.0 + np.exp(-(a[:, :2 * d] + np.dot(h, U[:2 * d].T))))
    z, r = zr[:, :d], zr[:, d:]
    c = np.tanh(a[:, 2 * d:] + np.dot(r * h, U[2 * d:].T))
    return (1.0 - z) * h + z * c, zr, c


def _gru_tape(U, X, H, ZR, C):
    """One sequence's GRU steps as rows: inputs X, previous hidden H, z|r, c.

    Precomputes, per step, the factors that turn dL/dh' into the gate
    pre-activation gradients, and allocates DA (T x 3d), whose row t
    _gru_step_back fills with [da_z | da_r | da_h].
    """
    d = H.shape[1]
    Z, R = ZR[:, :d], ZR[:, d:]
    return {
        "X": X, "H": H, "RH": R * H, "R": R, "carry": 1.0 - Z,
        "kz": (C - H) * Z * (1.0 - Z), "kr": H * R * (1.0 - R),
        "kh": Z * (1.0 - C * C),
        "DA": np.empty((len(H), 3 * d)),
        "Uzr": U[:2 * d], "Uh": U[2 * d:],
    }


def _gru_step_back(tape, t, dh_new):
    """Fill tape["DA"][t] from dL/dh' of step t; returns dL/dh through the GRU."""
    d = dh_new.shape[0]
    da = tape["DA"][t]
    np.multiply(dh_new, tape["kh"][t], out=da[2 * d:])
    drh = da[2 * d:] @ tape["Uh"]
    np.multiply(drh, tape["kr"][t], out=da[d:2 * d])
    np.multiply(dh_new, tape["kz"][t], out=da[:d])
    return dh_new * tape["carry"][t] + drh * tape["R"][t] + da[:2 * d] @ tape["Uzr"]


def _gru_weight_grads(tape):
    """The GRU's W and U gradients over the whole sequence, as factored terms
    (see _pair_grads), and its bias gradient as a row gradient."""
    DA = tape["DA"]
    d = tape["H"].shape[1]
    return ([(slice(None), DA, tape["X"])],
            [(slice(None, 2 * d), DA[:, :2 * d], tape["H"]),
             (slice(2 * d, None), DA[:, 2 * d:], tape["RH"])],
            (slice(None), np.sum(DA, axis=0)))


def _padded(seqs):
    """(B x longest id array of seqs, right-padded with PAD_ID; lengths)."""
    lengths = [len(seq) for seq in seqs]
    ids = np.full((len(seqs), max(lengths)), PAD_ID)
    for row, seq in zip(ids, seqs):
        row[:len(seq)] = seq
    return ids, np.array(lengths)


def encode_sequence(model, sources, gates=None):
    """Run the encoder on a block of B sources; returns the outputs
    (B x max_len x d) and the final hidden state (B x d). Each step's
    (z|r, c) is appended to gates, if given.

    A row's hidden state is frozen past its source length and its outputs
    there stay zero. Sources must have passed _check_pairs.
    """
    cfg, p = model.config, model.params
    ids, lengths = _padded(sources)
    gru = p["enc_W"], p["enc_U"], p["enc_b"]
    X = p["enc_embed"][ids.T]  # time-major: X[t] is step t's B x d block
    h = np.zeros((len(sources), cfg.hidden))
    outputs = np.zeros((len(sources), cfg.max_len, cfg.hidden))
    shortest = lengths.min()
    for t, x in enumerate(X):
        h_new, zr, c = _gru_forward(*gru, x, h)
        if t < shortest:
            h = outputs[:, t] = h_new
        else:
            live = (t < lengths)[:, None]
            h = np.where(live, h_new, h)
            outputs[:, t] = np.where(live, h, 0.0)
        if gates is not None:
            gates.append((zr, c))
    return outputs, h


def _decode_step(model, prev_ids, hidden, encoder_outputs, dropout_mask=None):
    """One decoder step on a row block: prev_ids (B), hidden (B x d) and
    encoder_outputs (B x max_len x d). Returns (log-probs, h', attention,
    (context, comb_pre, z|r, c) for the backward)."""
    p = model.params
    # take, not [prev_ids]: the same rows with less overhead per call.
    xd = p["dec_embed"].take(prev_ids, 0)
    if dropout_mask is not None:
        xd = xd * dropout_mask
    # The ufuncs' reduce, not the ndarray methods: the same bits, less overhead.
    attn_logits = _affine(np.concatenate([xd, hidden], axis=1), p["attn_W"], p["attn_b"])
    attn_logits = attn_logits - np.maximum.reduce(attn_logits, axis=1, keepdims=True)
    a = np.exp(attn_logits)
    a /= np.add.reduce(a, axis=1, keepdims=True)
    context = (a[:, None] @ encoder_outputs)[:, 0]
    comb_pre = _affine(np.concatenate([xd, context], axis=1), p["comb_W"], p["comb_b"])
    h_new, zr, c = _gru_forward(p["dec_W"], p["dec_U"], p["dec_b"],
                                np.maximum(comb_pre, 0.0), hidden)
    logits = _affine(h_new, p["out_W"], p["out_b"])
    top = np.maximum.reduce(logits, axis=1, keepdims=True)
    logp = logits - (top + np.log(np.add.reduce(np.exp(logits - top), axis=1,
                                                keepdims=True)))
    return logp, h_new, a, (context, comb_pre, zr, c)


def _dropout_mask(cfg, rng):
    """Inverted-dropout mask for one step's embedding (one rng.random draw)."""
    keep = 1.0 - cfg.dropout_p
    return (rng.random(cfg.hidden) < keep).astype(np.float64) / keep


def _decode_gold(model, enc_out, h, gold, lengths, tf_gold=None, masks=None, steps=None):
    """Decode a row block against gold, B x T ids with </s> included, padded
    past each row's length in lengths. Step t+1 feeds gold where tf_gold[t + 1]
    (default: always) and the greedy id elsewhere; masks[t] is step t's
    dropout mask; steps, if given, gets each step's outputs. Returns (each
    row's NLL summed over its length, the B x T ids fed, SOS first)."""
    block = np.arange(len(gold))
    fed = np.full(gold.T.shape, SOS_ID)
    fed[1:] = gold.T[:-1]
    # nll[t] is each row's NLL over its first t steps, summed in step order.
    nll = np.zeros((len(fed) + 1, len(gold)))
    for t, gold_ids in enumerate(gold.T):
        logp, h, a, rest = _decode_step(model, fed[t], h, enc_out,
                                        None if masks is None else masks[t])
        if steps is not None:
            steps.append((logp, h, a, *rest))
        np.subtract(nll[t], logp[block, gold_ids], out=nll[t + 1])
        if tf_gold is not None and t + 1 < len(fed) and not tf_gold[t + 1]:
            fed[t + 1] = _greedy_ids(logp)
    return nll[lengths, block], fed.T


def _greedy_ids(logp):
    """Each row's most likely next token that is neither PAD nor SOS."""
    masked = logp.copy()
    masked[..., PAD_ID] = masked[..., SOS_ID] = -np.inf
    return np.argmax(masked, axis=-1)


def _buckets(lengths):
    """Indices sorted by length (stably), in chunks of at most BUCKET_SIZE."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    return [order[i:i + BUCKET_SIZE] for i in range(0, len(order), BUCKET_SIZE)]


def _row_grads(ids, grads):
    """Sparse embedding gradient: (unique rows, summed row gradients)."""
    # A dict, not np.unique: its first call costs 0.75 MiB of peak RSS.
    index = {row: i for i, row in enumerate(sorted(set(ids)))}
    summed = np.zeros((len(index), grads.shape[1]))
    np.add.at(summed, [index[row] for row in ids], grads)
    return np.array(list(index)), summed


def _pair_grads(model, src_ids, tgt_ids, tf_gold=None, masks=None):
    """One pair's mean NLL and its gradients by name, from _decode_gold on
    one row (tf_gold and masks as there).

    Only the dh recurrence runs step by step in reverse; each step records
    its gate, comb and attention gradients as rows. Every weight gradient is
    then a list of factored terms (rows, A, B): the gradient of
    param[rows] is A.T @ B, a product over the whole sequence that is never
    formed here (see _add_grads). Biases and embeddings get (rows, values)
    pairs, a bias over all rows; _dense_grads turns both forms into arrays.
    """
    p = model.params
    d = model.config.hidden
    src_ids = list(src_ids)
    enc_gates, steps = [], []
    enc_out, h = encode_sequence(model, [src_ids], enc_gates)
    gold = list(tgt_ids) + [EOS_ID]
    loss, fed = _decode_gold(model, enc_out, h, *_padded([gold]), tf_gold, masks, steps)
    LOGP, H_NEW, A, CTX, COMB_PRE, ZR, C = map(np.concatenate, zip(*steps))
    del steps  # each step's 1-row blocks die here, not at the return
    T = len(LOGP)
    prev_ids, enc_out = fed[0].tolist(), enc_out[0]
    S = len(src_ids)
    masks = 1.0 if masks is None else np.array(masks)
    XD = p["dec_embed"][prev_ids] * masks
    H = np.concatenate([enc_out[S - 1:S], H_NEW[:-1]])

    # The output layer does not depend on the recurrence. In place: at a
    # large vocabulary LOGP is the largest array of the backward.
    dlogits = np.exp(LOGP, out=LOGP)
    dlogits /= T
    dlogits[np.arange(T), gold] -= 1.0 / T
    g = {"out_W": [(slice(None), dlogits, H_NEW)], "out_b": (slice(None), np.sum(dlogits, axis=0))}
    dh_out = dlogits @ p["out_W"]

    tape = _gru_tape(p["dec_U"], np.maximum(COMB_PRE, 0.0), H, ZR, C)
    comb_ctx = p["comb_W"][:, d:]
    attn_h = p["attn_W"][:, d:]
    relu = COMB_PRE > 0.0
    dcomb_pre = np.empty((T, d))
    dcontext = np.empty((T, d))
    dattn = np.empty_like(A)
    dh_next = np.zeros(d)
    for t in range(T - 1, -1, -1):
        dh_prev = _gru_step_back(tape, t, dh_out[t] + dh_next)
        np.multiply(tape["DA"][t] @ p["dec_W"], relu[t], out=dcomb_pre[t])
        np.matmul(dcomb_pre[t], comb_ctx, out=dcontext[t])
        da = enc_out @ dcontext[t]
        np.multiply(A[t], da - np.dot(A[t], da), out=dattn[t])
        dh_next = dh_prev + dattn[t] @ attn_h

    g["dec_W"], g["dec_U"], g["dec_b"] = _gru_weight_grads(tape)
    g["comb_W"] = [(slice(None), dcomb_pre, np.concatenate([XD, CTX], axis=1))]
    g["comb_b"] = (slice(None), np.sum(dcomb_pre, axis=0))
    g["attn_W"] = [(slice(None), dattn, np.concatenate([XD, H], axis=1))]
    g["attn_b"] = (slice(None), np.sum(dattn, axis=0))
    dxd = dcomb_pre @ p["comb_W"][:, :d] + dattn @ p["attn_W"][:, :d]
    g["dec_embed"] = _row_grads(prev_ids, dxd * masks)

    denc_out = A[:, :S].T @ dcontext
    tape = _gru_tape(p["enc_U"], p["enc_embed"][src_ids],
                     np.concatenate([np.zeros((1, d)), enc_out[:S - 1]]),
                     *map(np.concatenate, zip(*enc_gates)))
    dh_carry = dh_next
    for t in range(S - 1, -1, -1):
        dh_carry = _gru_step_back(tape, t, denc_out[t] + dh_carry)
    g["enc_W"], g["enc_U"], g["enc_b"] = _gru_weight_grads(tape)
    g["enc_embed"] = _row_grads(src_ids, tape["DA"] @ p["enc_W"])
    return loss[0] / len(gold), g


def _dense_grads(model, grads):
    """grads as full-size arrays: _add_grads on zeros, so each array holds
    the bits of its products and row values."""
    dense = {name: np.zeros_like(model.params[name]) for name in grads}
    _add_grads(dense, grads, 1.0)
    return dense


def _grad_norm(grads):
    """L2 norm of _pair_grads' gradients, row gradients included.

    A term's square |A^T B|^2 is <A A^T, B B^T>, from two T x T Gram
    matrices. Rounding can take an exactly cancelling term just below 0, so
    each is clamped there; max(nan, 0.0) is nan, so a NaN still shows.
    """
    squares = 0.0
    for grad in grads.values():
        if isinstance(grad, list):
            for _, A, B in grad:
                squares += max(float(np.vdot(A @ A.T, B @ B.T)), 0.0)
        else:
            squares += float(np.vdot(grad[1], grad[1]))
    return math.sqrt(squares)


def _add_product(target, A, B, scale):
    """target += scale * (A.T @ B), multiplied out in row chunks of at most
    UPDATE_CHUNK_BYTES, into one chunk this call allocates.

    Every chunk has at least two rows, a short last one being recomputed from
    a full chunk: numpy multiplies a single row by gemv, whose bits can differ
    from that row of the whole product's gemm.
    """
    m, n = target.shape
    k = min(m, max(2, UPDATE_CHUNK_BYTES // (8 * n)))
    chunk = np.empty((k, n))
    for i in range(0, m, k):
        lo = min(i, m - k)
        np.matmul(A[:, lo:lo + k].T, B, out=chunk)
        rows = chunk[i - lo:]
        rows *= scale
        target[i:i + k] += rows


def _add_grads(arrays, grads, scale):
    """arrays[name] += scale * gradient in place, for each of grads (from
    _pair_grads): a factored term through _add_product, a (rows, values)
    pair directly."""
    for name, grad in grads.items():
        if isinstance(grad, list):
            for rows, A, B in grad:
                _add_product(arrays[name][rows], A, B, scale)
        else:
            rows, values = grad
            arrays[name][rows] += scale * values


def _sgd_step(params, grads, learning_rate, max_norm):
    """Clip grads (from _pair_grads) to L2 norm max_norm and take one SGD
    step in place, by _add_grads. A non-finite norm raises
    NmtNumericalError before any parameter moves.

    Returns (pre-clip norm, whether it was clipped).
    """
    total = _grad_norm(grads)
    if not math.isfinite(total):
        raise NmtNumericalError(f"non-finite gradient norm {total}")
    clipped = max_norm > 0 and total > max_norm
    _add_grads(params, grads, -learning_rate * (max_norm / total if clipped else 1.0))
    return total, clipped


def length_error(max_len, src_ids, tgt_ids=()):
    """Why a pair does not fit a model of this max_len, or None if it does:
    the source needs 1..max_len tokens and the target room for </s>."""
    if not 1 <= len(src_ids) <= max_len:
        return f"source length {len(src_ids)} outside [1, max_len={max_len}]"
    if len(tgt_ids) + 1 > max_len:
        return f"target length {len(tgt_ids)}+eos exceeds max_len={max_len}"
    return None


def _check_pairs(cfg, pairs):
    """Raise NmtError on the first (source, target) pair that does not fit
    the model: its length_error, or an id outside its side's vocabulary."""
    for src_ids, tgt_ids in pairs:
        if error := length_error(cfg.max_len, src_ids, tgt_ids):
            raise NmtError(error)
        for ids, vocab_size, side in ((src_ids, cfg.src_vocab_size, "source"),
                                      (tgt_ids, cfg.tgt_vocab_size, "target")):
            for tid in ids:
                if not (0 <= tid < vocab_size):
                    raise NmtError(f"{side} token id {tid} out of range")


def train(model, pairs, train_config, validation_pairs=None, on_epoch=None):
    """Per-pair SGD with teacher forcing; returns (model, history).

    Each history entry has the epoch, its mean_loss, the mean pre-clip
    gradient L2 norm (grad_norm), the fraction of pairs whose gradient was
    clipped (clip_rate) and, with validation pairs, val_loss. on_epoch, if
    given, is called with each entry as soon as its epoch ends. A training or
    validation pair that does not fit the model raises NmtError before the
    first update. A non-finite loss or gradient norm (naming the epoch and
    pair) or val_loss (naming the epoch) raises NmtNumericalError.
    """
    cfg = model.config
    if not pairs:
        raise NmtError("no training pairs")
    _check_pairs(cfg, [*pairs, *(validation_pairs or ())])

    tf_rng = random.Random(derive_seed(train_config.seed, "teacher_forcing"))
    drop_rng = np.random.default_rng(derive_seed(train_config.seed, "dropout"))
    history = []
    for epoch in range(train_config.epochs):
        order = list(range(len(pairs)))
        random.Random(derive_seed(train_config.seed, "order", epoch)).shuffle(order)
        epoch_loss = norm_sum = 0.0
        n_clipped = 0
        for idx in order:
            src_ids, tgt_ids = pairs[idx]
            n_steps = len(tgt_ids) + 1
            tf_gold = [tf_rng.random() < train_config.teacher_forcing_ratio
                       for _ in range(n_steps)]
            masks = ([_dropout_mask(cfg, drop_rng) for _ in range(n_steps)]
                     if cfg.dropout_p > 0.0 else None)
            loss, grads = _pair_grads(model, src_ids, tgt_ids, tf_gold, masks)
            if not np.isfinite(loss):
                raise NmtNumericalError(
                    f"non-finite loss at epoch {epoch}, pair {idx}: {loss}")
            try:
                norm, clipped = _sgd_step(model.params, grads, train_config.learning_rate,
                                          train_config.grad_clip_norm)
            except NmtNumericalError as e:
                raise NmtNumericalError(f"{e} at epoch {epoch}, pair {idx}") from None
            del grads  # before the next pair's forward, not after it
            epoch_loss += loss
            norm_sum += norm
            n_clipped += clipped
        entry = {"epoch": epoch, "mean_loss": epoch_loss / len(pairs),
                 "grad_norm": norm_sum / len(pairs),
                 "clip_rate": n_clipped / len(pairs)}
        if validation_pairs:
            entry["val_loss"] = mean_loss(model, validation_pairs)
            if not math.isfinite(entry["val_loss"]):
                raise NmtNumericalError(
                    f"non-finite validation loss at epoch {epoch}: {entry['val_loss']}")
        history.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    return model, history


def mean_loss(model, pairs):
    """Mean teacher-forced NLL without dropout (evaluation loss).

    Pairs run through _decode_gold in length-sorted row blocks, and the
    per-pair losses are summed in input order.
    """
    if not pairs:
        raise NmtError("no pairs to score")
    _check_pairs(model.config, pairs)
    losses = [0.0] * len(pairs)
    for rows in _buckets([len(tgt_ids) for _, tgt_ids in pairs]):
        enc_out, h = encode_sequence(model, [pairs[i][0] for i in rows])
        gold, n_steps = _padded([list(pairs[i][1]) + [EOS_ID] for i in rows])
        loss, _ = _decode_gold(model, enc_out, h, gold, n_steps)
        for b, i in enumerate(rows):
            losses[i] = loss[b] / n_steps[b]
    total = 0.0
    for value in losses:
        total += value
    return total / len(pairs)


def translate_batch(model, sources):
    """Greedy decoding of many sources; returns the generated ids of each,
    without eos, in input order.

    Source ids out of the source vocabulary map to UNK. Each length-sorted
    bucket decodes in lockstep until every row has emitted eos or max_len
    steps have run; a row's ids end at its eos.
    """
    cfg = model.config
    sources = [[tid if 0 <= tid < cfg.src_vocab_size else UNK_ID for tid in src_ids]
               for src_ids in sources]
    _check_pairs(cfg, [(src_ids, ()) for src_ids in sources])
    results = [None] * len(sources)
    for rows in _buckets([len(src_ids) for src_ids in sources]):
        enc_out, h = encode_sequence(model, [sources[i] for i in rows])
        out = np.empty((len(rows), cfg.max_len), dtype=np.int64)
        n_steps = np.zeros(len(rows), dtype=np.int64)
        done = np.zeros(len(rows), dtype=bool)
        prev = np.full(len(rows), SOS_ID)
        for t in range(cfg.max_len):
            logp, h, _, _ = _decode_step(model, prev, h, enc_out)
            prev = out[:, t] = _greedy_ids(logp)
            n_steps += ~done
            done |= prev == EOS_ID
            if done.all():
                break
        for b, i in enumerate(rows):
            results[i] = out[b, :n_steps[b] - done[b]].tolist()
    return results


def translate(model, src_ids):
    """Greedy decoding of one source; returns the generated ids without eos."""
    return translate_batch(model, [src_ids])[0]


def pair_gradients(model, src_ids, tgt_ids):
    """(loss, dense gradients) from the backward pass that train uses."""
    _check_pairs(model.config, [(src_ids, tgt_ids)])
    loss, grads = _pair_grads(model, src_ids, tgt_ids)
    return loss, _dense_grads(model, grads)


def gradient_check(model, pair, epsilon=1e-5, n_params_sampled=200, seed=0):
    """Max relative error between analytic and central-difference gradients."""
    _, grads = pair_gradients(model, *pair)

    # Flat indices run over lowmt 0.2.0's per-gate layout, so a seed samples
    # the same scalars as it did there.
    blocks = [(model.params[name][rows], grads[name][rows])
              for name, rows in _gate_blocks(PARAM_ORDER, model.config.hidden)]
    total = sum(arr.size for arr, _ in blocks)
    rng = random.Random(seed)
    picks = (rng.sample(range(total), n_params_sampled)
             if n_params_sampled < total else range(total))

    max_err = 0.0
    for flat_idx in picks:
        offset = flat_idx
        for arr, grad in blocks:
            if offset < arr.size:
                break
            offset -= arr.size
        orig = arr.flat[offset]
        arr.flat[offset] = orig + epsilon
        lp = mean_loss(model, [pair])
        arr.flat[offset] = orig - epsilon
        lm = mean_loss(model, [pair])
        arr.flat[offset] = orig
        numeric = (lp - lm) / (2.0 * epsilon)
        analytic = grad.flat[offset]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        max_err = max(max_err, err)
    return max_err


def save_checkpoint(model, path):
    save_arrays(path, MAGIC, FORMAT_VERSION, asdict(model.config),
                [model.params[name] for name in PARAM_ORDER])


def _checkpoint_shapes(header):
    shapes = param_shapes(ModelConfig(**header))
    return {name: shapes[name] for name in PARAM_ORDER}


def load_checkpoint(path):
    """Read a format 2 checkpoint; a malformed file raises NmtError naming it."""
    header, params = load_arrays(path, MAGIC, FORMAT_VERSION, HEADER_FIELDS,
                                 _checkpoint_shapes, NmtError, "checkpoint")
    return Seq2SeqModel(params=params, config=ModelConfig(**header))


def save_loss_history(history, path):
    with open(path, "w", encoding="utf-8") as f:
        cols = ["epoch", "mean_loss"] + (["val_loss"] if history and "val_loss" in history[0] else [])
        f.write(",".join(cols) + "\n")
        for entry in history:
            f.write(",".join(str(entry[c]) for c in cols) + "\n")
