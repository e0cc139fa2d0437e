"""GRU encoder + attention decoder seq2seq with hand-written gradients.

Everything runs in float64 on numpy; randomness (init, dropout, teacher
forcing, epoch order) comes from seeded streams so training is fully
reproducible. The backward pass is verified against central finite
differences (gradient_check).

Row blocks: the GRU step and the decoder step work on a block of B rows at
once (hidden B x d, products X @ W.T), or on a single row given as a vector.
Training runs one pair at a time, as single rows. Greedy translation and the
validation loss sort their inputs by length into buckets of BUCKET_SIZE rows
and run each bucket in lockstep: the batched encoder freezes a row's hidden
state past its source length and leaves its encoder outputs there zero, so
attention over the max_len positions means what it does for one sentence; a
done-mask (translation) or a target mask (loss) ends each row at its </s>.

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

Backward (BPTT): the training forward records the pair's inputs once (source,
previous-token and gold ids, dropout masks) and, per step, only what the
backward cannot rebuild exactly: log-probs, h', attention weights, context,
comb_pre, z|r and c. The backward stacks each once and rebuilds the rest by
elementwise ops and concatenation (probs, the decoder GRU's input, r*h, [x; h],
[x; context], the encoder's inputs and previous hidden states). Only the dh
recurrence runs step by step, in reverse: each step writes its gate
pre-activation gradients as a row of DA (T x 3d, z|r|h order) and its comb and
attention gradients as rows of T x d arrays; then every weight gradient is one
product over the whole sequence (dW = DA^T X, input gradient DA W) and every
bias gradient a column sum. The output layer's come before the loop. Those
products and sums write into a gradient workspace, one buffer per dense
parameter, that train allocates once: at H=256, when each pair allocated its
own (about 9 MB), the OS took them back after the SGD step and the next pair
page-faulted them in again. Embedding gradients are sparse (touched rows, row gradients); they
count in the clip norm and train updates only those rows.

Checkpoint format 2 stores PARAM_ORDER; format 1 (lowmt 0.2.0 and earlier),
with a separate W, U and b per gate, is still read.
"""

import json
import math
import os
import random
import struct
from dataclasses import asdict, dataclass

from .subword import PAD_ID, SOS_ID, EOS_ID, UNK_ID
from .util import derive_seed, lazy_module, read_exact

np = lazy_module("numpy")

MAGIC = b"LMTS"
FORMAT_VERSION = 2

# Rows decoded in lockstep: per-step Python overhead is paid once per bucket,
# while the buffers of one bucket stay well under a MiB at the bench sizes.
BUCKET_SIZE = 32

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
    """Training produced a NaN/inf loss."""


@dataclass
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    hidden: int = 256
    max_len: int = 32
    dropout_p: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.src_vocab_size < 4 or self.tgt_vocab_size < 4:
            raise NmtError("vocab sizes must be >= 4 (pad/unk/sos/eos)")
        if self.max_len < 2:
            raise NmtError("max_len must be >= 2")
        if not (0.0 <= self.dropout_p < 1.0):
            raise NmtError("dropout_p must be in [0, 1)")
        if self.hidden < 1:
            raise NmtError("hidden must be positive")


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
        if self.learning_rate < 0:
            raise NmtError("learning_rate must be >= 0")
        if not (0.0 <= self.teacher_forcing_ratio <= 1.0):
            raise NmtError("teacher_forcing_ratio must be in [0, 1]")
        if self.grad_clip_norm < 0:
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
    lowmt 0.2.0 drew and format 1 stored it: W U b of z, then r, then h."""
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
        block = params[name][rows]
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return Seq2SeqModel(params=params, config=config)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru_forward(W, U, b, x, h):
    """One GRU step on a row block: x and h are B x d, or single rows.
    Returns (h', the gates z|r, the candidate c)."""
    d = h.shape[-1]
    a = x @ W.T + b
    zr = _sigmoid(a[..., :2 * d] + h @ U[:2 * d].T)
    z, r = zr[..., :d], zr[..., d:]
    c = np.tanh(a[..., 2 * d:] + (r * h) @ U[2 * d:].T)
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


def _gru_weight_grads(tape, dW, dU, db):
    """Write dW, dU and db of the GRU over the whole sequence; returns them."""
    DA = tape["DA"]
    d = tape["H"].shape[1]
    np.matmul(DA[:, :2 * d].T, tape["H"], out=dU[:2 * d])
    np.matmul(DA[:, 2 * d:].T, tape["RH"], out=dU[2 * d:])
    return np.matmul(DA.T, tape["X"], out=dW), dU, np.sum(DA, axis=0, out=db)


def _padded(seqs):
    """(B x longest id array of seqs, right-padded with PAD_ID; lengths)."""
    lengths = np.array([len(seq) for seq in seqs])
    ids = np.full((len(seqs), lengths.max()), PAD_ID)
    for row, seq in zip(ids, seqs):
        row[:len(seq)] = seq
    return ids, lengths


def _encode(model, ids, lengths, gates=None):
    """Run the encoder on one source (ids, its length) or on a block of
    sources (B x T ids padded as by _padded, B lengths); returns the outputs
    ([B x] max_len x d) and the final hidden state ([B x] d). Each step's
    (z|r, c) is appended to gates, if given.

    A row's hidden state is frozen past its length and its outputs there
    stay zero.
    """
    cfg, p = model.config, model.params
    gru = p["enc_W"], p["enc_U"], p["enc_b"]
    X = p["enc_embed"][ids]
    h = np.zeros(X.shape[:-2] + (cfg.hidden,))
    outputs = np.zeros(X.shape[:-2] + (cfg.max_len, cfg.hidden))
    shortest = np.min(lengths)
    for t in range(X.shape[-2]):
        h_new, zr, c = _gru_forward(*gru, X[..., t, :], h)
        if t < shortest:
            h = outputs[..., t, :] = h_new
        else:
            live = (t < lengths)[:, None]
            h = np.where(live, h_new, h)
            outputs[:, t] = np.where(live, h, 0.0)
        if gates is not None:
            gates.append((zr, c))
    return outputs, h


def _encode_rows(model, sources):
    """The encoder over a block of sources: (B x max_len x d, B x d)."""
    for src_ids in sources:
        _check_source(model.config, src_ids)
    return _encode(model, *_padded(sources))


def encode_sequence(model, src_ids):
    """Run the encoder on one source; returns (max_len x d outputs, final
    hidden, each step's (z|r, c))."""
    _check_source(model.config, src_ids)
    gates = []
    outputs, h = _encode(model, src_ids, len(src_ids), gates)
    return outputs, h, gates


def _decode_step(model, prev_ids, hidden, encoder_outputs, dropout_mask=1.0):
    """One decoder step on a row block: prev_ids (B), hidden (B x d) and
    encoder_outputs (B x max_len x d), or a single row without the B axis.
    Returns (log-probs, h', attention, (context, comb_pre, z|r, c) for the backward)."""
    p = model.params
    try:
        xd = p["dec_embed"][prev_ids] * dropout_mask
    except IndexError:
        raise NmtError(f"target token id {prev_ids} out of range") from None
    attn_logits = np.concatenate([xd, hidden], axis=-1) @ p["attn_W"].T + p["attn_b"]
    attn_logits = attn_logits - attn_logits.max(axis=-1, keepdims=True)
    a = np.exp(attn_logits)
    a /= a.sum(axis=-1, keepdims=True)
    context = (a[..., None, :] @ encoder_outputs)[..., 0, :]
    comb_pre = np.concatenate([xd, context], axis=-1) @ p["comb_W"].T + p["comb_b"]
    h_new, zr, c = _gru_forward(p["dec_W"], p["dec_U"], p["dec_b"],
                                np.maximum(comb_pre, 0.0), hidden)
    logits = h_new @ p["out_W"].T + p["out_b"]
    top = logits.max(axis=-1, keepdims=True)
    logp = logits - (top + np.log(np.exp(logits - top).sum(axis=-1, keepdims=True)))
    return logp, h_new, a, (context, comb_pre, zr, c)


def _dropout_mask(cfg, rng):
    """Inverted-dropout mask for one step's embedding (one rng.random draw)."""
    keep = 1.0 - cfg.dropout_p
    return (rng.random(cfg.hidden) < keep).astype(np.float64) / keep


def _forward_pair(model, src_ids, tgt_ids, tf_gold=None, dropout_masks=None):
    """Teacher-forced/free decoding of one pair.

    tf_gold[t] says whether step t consumes the gold previous token (default:
    every step does); step 0 always starts from SOS. Returns (mean NLL, the
    record that _backward_pair reads; see the module docstring).
    """
    _check_ids(tgt_ids, model.config.tgt_vocab_size, "target")
    enc_out, h, enc_gates = encode_sequence(model, src_ids)
    gold = list(tgt_ids) + [EOS_ID]
    prev_ids = [SOS_ID]
    steps = []
    loss = 0.0
    for t, gold_id in enumerate(gold):
        mask = dropout_masks[t] if dropout_masks is not None else 1.0
        logp, h, a, rest = _decode_step(model, prev_ids[t], h, enc_out, mask)
        steps.append((logp, h, a, *rest))
        loss -= logp[gold_id]
        if t + 1 < len(gold):
            prev_ids.append(gold_id if tf_gold is None or tf_gold[t + 1]
                            else _greedy_ids(logp))
    loss /= len(gold)
    return loss, {"src_ids": list(src_ids), "prev_ids": prev_ids, "gold": gold,
                  "masks": dropout_masks, "enc_out": enc_out, "enc_gates": enc_gates,
                  "steps": steps}


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


def _grad_workspace(config):
    """One buffer per dense (non-embedding) parameter gradient, for
    _backward_pair to overwrite pair after pair."""
    return {name: np.empty(shape) for name, shape in param_shapes(config).items()
            if not name.endswith("_embed")}


def _backward_pair(model, fwd, workspace):
    """Gradients of the pair's mean NLL.

    Only the dh recurrence runs step by step in reverse; each step records
    its gate, comb and attention gradients as rows, and every weight
    gradient is then one product over the whole sequence, written into its
    buffer of workspace (see _grad_workspace). The returned dict holds those
    buffers and the embedding gradients, sparse (rows, row grads) pairs; see
    _dense_grads.
    """
    p = model.params
    d = model.config.hidden
    LOGP, H_NEW, A, CTX, COMB_PRE, ZR, C = map(np.stack, zip(*fwd["steps"]))
    T = len(LOGP)
    src_ids, prev_ids, enc_out = fwd["src_ids"], fwd["prev_ids"], fwd["enc_out"]
    S = len(src_ids)
    masks = 1.0 if fwd["masks"] is None else np.stack(fwd["masks"])
    XD = p["dec_embed"][prev_ids] * masks
    H = np.concatenate([enc_out[S - 1:S], H_NEW[:-1]])

    # The output layer does not depend on the recurrence.
    dlogits = np.exp(LOGP) / T
    dlogits[np.arange(T), fwd["gold"]] -= 1.0 / T
    g = {"out_W": np.matmul(dlogits.T, H_NEW, out=workspace["out_W"]),
         "out_b": np.sum(dlogits, axis=0, out=workspace["out_b"])}
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

    g["dec_W"], g["dec_U"], g["dec_b"] = _gru_weight_grads(
        tape, workspace["dec_W"], workspace["dec_U"], workspace["dec_b"])
    g["comb_W"] = np.matmul(dcomb_pre.T, np.concatenate([XD, CTX], axis=1),
                            out=workspace["comb_W"])
    g["comb_b"] = np.sum(dcomb_pre, axis=0, out=workspace["comb_b"])
    g["attn_W"] = np.matmul(dattn.T, np.concatenate([XD, H], axis=1),
                            out=workspace["attn_W"])
    g["attn_b"] = np.sum(dattn, axis=0, out=workspace["attn_b"])
    dxd = dcomb_pre @ p["comb_W"][:, :d] + dattn @ p["attn_W"][:, :d]
    g["dec_embed"] = _row_grads(prev_ids, dxd * masks)

    denc_out = A[:, :S].T @ dcontext
    tape = _gru_tape(p["enc_U"], p["enc_embed"][src_ids],
                     np.concatenate([np.zeros((1, d)), enc_out[:S - 1]]),
                     *map(np.stack, zip(*fwd["enc_gates"])))
    dh_carry = dh_next
    for t in range(S - 1, -1, -1):
        dh_carry = _gru_step_back(tape, t, denc_out[t] + dh_carry)
    g["enc_W"], g["enc_U"], g["enc_b"] = _gru_weight_grads(
        tape, workspace["enc_W"], workspace["enc_U"], workspace["enc_b"])
    g["enc_embed"] = _row_grads(src_ids, tape["DA"] @ p["enc_W"])
    return g


def _dense_grads(model, grads):
    """grads with each sparse embedding gradient as a full-size array."""
    dense = dict(grads)
    for name in ("enc_embed", "dec_embed"):
        rows, row_grads = grads[name]
        dense[name] = np.zeros_like(model.params[name])
        dense[name][rows] = row_grads
    return dense


def _sgd_step(params, grads, learning_rate, max_norm):
    """Clip grads to L2 norm max_norm (sparse embedding rows included) and
    take one SGD step in place; grads are scaled in place too.

    Returns (pre-clip norm, whether it was clipped).
    """
    arrays = [grad[1] if isinstance(grad, tuple) else grad for grad in grads.values()]
    total = math.sqrt(sum(float(np.vdot(v, v)) for v in arrays))
    clipped = max_norm > 0 and total > max_norm
    step = learning_rate * (max_norm / total if clipped else 1.0)
    for name, grad in grads.items():
        if isinstance(grad, tuple):
            rows, row_grads = grad
            row_grads *= step
            params[name][rows] -= row_grads
        else:
            grad *= step
            params[name] -= grad
    return total, clipped


def length_error(max_len, src_ids, tgt_ids=()):
    """Why a pair does not fit a model of this max_len, or None if it does:
    the source needs 1..max_len tokens and the target room for </s>."""
    if not 1 <= len(src_ids) <= max_len:
        return f"source length {len(src_ids)} outside [1, max_len={max_len}]"
    if len(tgt_ids) + 1 > max_len:
        return f"target length {len(tgt_ids)}+eos exceeds max_len={max_len}"
    return None


def _check_pair(cfg, src_ids, tgt_ids=()):
    if error := length_error(cfg.max_len, src_ids, tgt_ids):
        raise NmtError(error)


def _check_ids(ids, vocab_size, side):
    for tid in ids:
        if not (0 <= tid < vocab_size):
            raise NmtError(f"{side} token id {tid} out of range")


def _check_source(cfg, src_ids):
    _check_pair(cfg, src_ids)
    _check_ids(src_ids, cfg.src_vocab_size, "source")


def train(model, pairs, train_config, validation_pairs=None, on_epoch=None):
    """Per-pair SGD with teacher forcing; returns (model, history).

    Each history entry has the epoch, its mean_loss, the mean pre-clip
    gradient L2 norm (grad_norm), the fraction of pairs whose gradient was
    clipped (clip_rate) and, with validation pairs, val_loss. on_epoch, if
    given, is called with each entry as soon as its epoch ends.
    """
    cfg = model.config
    if not pairs:
        raise NmtError("no training pairs")
    for src_ids, tgt_ids in pairs:
        _check_pair(cfg, src_ids, tgt_ids)

    tf_rng = random.Random(derive_seed(train_config.seed, "teacher_forcing"))
    drop_rng = np.random.default_rng(derive_seed(train_config.seed, "dropout"))
    workspace = _grad_workspace(cfg)
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
            loss, fwd = _forward_pair(model, src_ids, tgt_ids, tf_gold, masks)
            if not np.isfinite(loss):
                raise NmtNumericalError(
                    f"non-finite loss at epoch {epoch}, pair {idx}: {loss}")
            norm, clipped = _sgd_step(model.params,
                                      _backward_pair(model, fwd, workspace),
                                      train_config.learning_rate,
                                      train_config.grad_clip_norm)
            epoch_loss += loss
            norm_sum += norm
            n_clipped += clipped
        entry = {"epoch": epoch, "mean_loss": epoch_loss / len(pairs),
                 "grad_norm": norm_sum / len(pairs),
                 "clip_rate": n_clipped / len(pairs)}
        if validation_pairs:
            entry["val_loss"] = mean_loss(model, validation_pairs)
        history.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    return model, history


def mean_loss(model, pairs):
    """Mean teacher-forced NLL without dropout (evaluation loss).

    Pairs run in length-sorted row blocks; a target mask ends each row's
    loss at its </s>, and the per-pair losses are summed in input order.
    """
    for _, tgt_ids in pairs:
        _check_ids(tgt_ids, model.config.tgt_vocab_size, "target")
    losses = [0.0] * len(pairs)
    for rows in _buckets([len(tgt_ids) for _, tgt_ids in pairs]):
        enc_out, h = _encode_rows(model, [pairs[i][0] for i in rows])
        gold, n_steps = _padded([list(pairs[i][1]) + [EOS_ID] for i in rows])
        block = np.arange(len(rows))
        loss = np.zeros(len(rows))
        prev = np.full(len(rows), SOS_ID)
        for t in range(gold.shape[1]):
            logp, h, _, _ = _decode_step(model, prev, h, enc_out)
            loss -= np.where(t < n_steps, logp[block, gold[:, t]], 0.0)
            prev = gold[:, t]
        for b, i in enumerate(rows):
            losses[i] = loss[b] / n_steps[b]
    total = 0.0
    for value in losses:
        total += value
    return total / len(pairs)


def translate_batch(model, sources, max_out_len=None, attention=True):
    """Greedy decoding of many sources; returns one (generated ids without
    eos, attention rows) per source, in input order.

    Source ids out of the source vocabulary map to UNK. Each length-sorted
    bucket decodes in lockstep until every row has emitted eos or
    max_out_len steps have run; a row's ids and attention rows end at its
    eos. With attention=False no attention is kept (None per source), which
    spares 8 * max_len bytes per output step.
    """
    cfg = model.config
    if max_out_len is None:
        max_out_len = cfg.max_len
    results = [None] * len(sources)
    for rows in _buckets([len(src_ids) for src_ids in sources]):
        enc_out, h = _encode_rows(model, [
            [tid if 0 <= tid < cfg.src_vocab_size else UNK_ID for tid in sources[i]]
            for i in rows])
        out = np.empty((len(rows), max_out_len), dtype=np.int64)
        attn = np.empty((len(rows), max_out_len, cfg.max_len)) if attention else None
        n_steps = np.zeros(len(rows), dtype=np.int64)
        done = np.zeros(len(rows), dtype=bool)
        prev = np.full(len(rows), SOS_ID)
        for t in range(max_out_len):
            logp, h, a, _ = _decode_step(model, prev, h, enc_out)
            prev = out[:, t] = _greedy_ids(logp)
            if attention:
                attn[:, t] = a
            n_steps += ~done
            done |= prev == EOS_ID
            if done.all():
                break
        if attention:
            # One compact array of the steps each row ran, split into views.
            ran = np.arange(max_out_len) < n_steps[:, None]
            attn = np.split(attn[ran], np.cumsum(n_steps)[:-1])
        for b, i in enumerate(rows):
            results[i] = (out[b, :n_steps[b] - done[b]].tolist(),
                          attn[b] if attention else None)
    return results


def translate(model, src_ids, max_out_len=None):
    """Greedy decoding of one source; returns (generated ids without eos,
    attention rows)."""
    return translate_batch(model, [src_ids], max_out_len)[0]


def pair_loss(model, src_ids, tgt_ids):
    """Deterministic loss (teacher forcing 1, no dropout). Used by gradient_check."""
    return mean_loss(model, [(src_ids, tgt_ids)])


def pair_gradients(model, src_ids, tgt_ids):
    """(loss, dense gradients) from the backward pass that train uses."""
    loss, fwd = _forward_pair(model, src_ids, tgt_ids)
    grads = _backward_pair(model, fwd, _grad_workspace(model.config))
    return loss, _dense_grads(model, grads)


def gradient_check(model, pair, epsilon=1e-5, n_params_sampled=200, seed=0):
    """Max relative error between analytic and central-difference gradients."""
    src_ids, tgt_ids = pair
    _check_pair(model.config, src_ids, tgt_ids)
    _, grads = pair_gradients(model, src_ids, tgt_ids)

    # Flat indices run over the per-gate layout of checkpoint format 1, so a
    # seed samples the same scalars as in lowmt 0.2.0.
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
        lp = pair_loss(model, src_ids, tgt_ids)
        arr.flat[offset] = orig - epsilon
        lm = pair_loss(model, src_ids, tgt_ids)
        arr.flat[offset] = orig
        numeric = (lp - lm) / (2.0 * epsilon)
        analytic = grad.flat[offset]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        max_err = max(max_err, err)
    return max_err


def save_checkpoint(model, path):
    config_blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(config_blob)))
        f.write(config_blob)
        for name in PARAM_ORDER:
            f.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a format 2 or format 1 checkpoint; a malformed file raises
    NmtError naming it."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise NmtError(f"{path}: not a checkpoint file")
        version, clen = struct.unpack("<II", read_exact(f, 8, NmtError, "header"))
        if version not in (1, FORMAT_VERSION):
            raise NmtError(f"{path}: unsupported checkpoint version {version}")
        blob = read_exact(f, clen, NmtError, "config")
        try:
            cfg = ModelConfig(**json.loads(blob))
        except (TypeError, ValueError) as e:
            raise NmtError(f"{path}: bad checkpoint config: {e}") from e
        shapes = param_shapes(cfg)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != 8 * sum(math.prod(shape) for shape in shapes.values()):
            raise NmtError(f"{path}: {size} bytes of parameters do not match its config")
        params = {name: np.empty(shape, dtype="<f8") for name, shape in shapes.items()}
        blocks = (_gate_blocks(PARAM_ORDER, cfg.hidden) if version == 1
                  else [(name, slice(None)) for name in PARAM_ORDER])
        for name, rows in blocks:
            f.readinto(memoryview(params[name][rows]).cast("B"))
    return Seq2SeqModel(params=params, config=cfg)


def save_loss_history(history, path):
    with open(path, "w", encoding="utf-8") as f:
        cols = ["epoch", "mean_loss"] + (["val_loss"] if history and "val_loss" in history[0] else [])
        f.write(",".join(cols) + "\n")
        for entry in history:
            f.write(",".join(str(entry[c]) for c in cols) + "\n")
