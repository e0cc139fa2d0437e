import copy
import functools
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest

from lowmt import nmt
from lowmt.subword import PAD_ID, SOS_ID, EOS_ID
from lowmt.util import derive_seed


def tiny_config(**kw):
    defaults = dict(src_vocab_size=12, tgt_vocab_size=12, hidden=8, max_len=6,
                    dropout_p=0.0, seed=0)
    defaults.update(kw)
    return nmt.ModelConfig(**defaults)


@pytest.fixture
def tiny_model():
    return nmt.init_model(tiny_config())


PAIR = ([4, 5, 6, 7], [5, 6, 4])


def _gate_views(arrays):
    """arrays plus a {side}_{W,U,b}{z,r,h} view of each gate's rows of every
    fused GRU array: the per-gate parameters of lowmt 0.2.0."""
    views = dict(arrays)
    for side in ("enc", "dec"):
        for kind in "WUb":
            fused = arrays[f"{side}_{kind}"]
            d = fused.shape[0] // 3
            for i, gate in enumerate("zrh"):
                views[f"{side}_{kind}{gate}"] = fused[i * d:(i + 1) * d]
    return views


# Frozen copy of the per-step backward that the whole-sequence one replaced:
# the reference the current backward must match. It runs on per-gate views
# of the fused parameters and gradients.
def _ref_gru_backward(p, g, prefix, dh_new, cache):
    x, h, z, r, rh, c = (cache["x"], cache["h"], cache["z"], cache["r"],
                         cache["rh"], cache["c"])
    dz = dh_new * (c - h)
    dc = dh_new * z
    dh = dh_new * (1.0 - z)

    da_c = dc * (1.0 - c * c)
    g[f"{prefix}_Wh"] += np.outer(da_c, x)
    g[f"{prefix}_Uh"] += np.outer(da_c, rh)
    g[f"{prefix}_bh"] += da_c
    dx = p[f"{prefix}_Wh"].T @ da_c
    drh = p[f"{prefix}_Uh"].T @ da_c
    dr = drh * h
    dh += drh * r

    da_r = dr * r * (1.0 - r)
    g[f"{prefix}_Wr"] += np.outer(da_r, x)
    g[f"{prefix}_Ur"] += np.outer(da_r, h)
    g[f"{prefix}_br"] += da_r
    dx += p[f"{prefix}_Wr"].T @ da_r
    dh += p[f"{prefix}_Ur"].T @ da_r

    da_z = dz * z * (1.0 - z)
    g[f"{prefix}_Wz"] += np.outer(da_z, x)
    g[f"{prefix}_Uz"] += np.outer(da_z, h)
    g[f"{prefix}_bz"] += da_z
    dx += p[f"{prefix}_Wz"].T @ da_z
    dh += p[f"{prefix}_Uz"].T @ da_z
    return dx, dh


def _ref_backward_pair(model, fwd):
    fused = {k: np.zeros_like(v) for k, v in model.params.items()}
    p, g = _gate_views(model.params), _gate_views(fused)
    steps = fwd["steps"]
    T = len(steps)
    d = model.config.hidden
    denc_out = np.zeros_like(fwd["enc_out"])
    dh_next = np.zeros(d)

    for cache in reversed(steps):
        probs = cache["probs"]
        dlogits = probs / T
        dlogits[cache["gold"]] -= 1.0 / T
        g["out_W"] += np.outer(dlogits, cache["h_new"])
        g["out_b"] += dlogits
        dh_new = p["out_W"].T @ dlogits + dh_next

        dcomb, dh_prev = _ref_gru_backward(p, g, "dec", dh_new, cache["gru"])
        dcomb_pre = dcomb * (cache["comb_pre"] > 0.0)
        g["comb_W"] += np.outer(dcomb_pre, cache["xc"])
        g["comb_b"] += dcomb_pre
        dxc = p["comb_W"].T @ dcomb_pre
        dxd = dxc[:d].copy()
        dcontext = dxc[d:]

        a = cache["a"]
        da = cache["enc_out"] @ dcontext
        denc_out += np.outer(a, dcontext)
        dattn_logits = a * (da - np.dot(a, da))
        g["attn_W"] += np.outer(dattn_logits, cache["eh"])
        g["attn_b"] += dattn_logits
        deh = p["attn_W"].T @ dattn_logits
        dxd += deh[:d]
        dh_prev += deh[d:]

        g["dec_embed"][cache["prev_id"]] += dxd * cache["mask"]
        dh_next = dh_prev

    dh_carry = dh_next
    for t in range(len(fwd["src_ids"]) - 1, -1, -1):
        dh_t = denc_out[t] + dh_carry
        dx, dh_carry = _ref_gru_backward(p, g, "enc", dh_t, fwd["enc_caches"][t])
        g["enc_embed"][fwd["src_ids"][t]] += dx
    return fused


# Frozen copy of lowmt 0.6.0's training forward, one vector at a time: it
# builds the per-step cache dicts that _ref_backward_pair reads.
def _ref_gru_cache(W, U, b, x, h):
    d = h.shape[0]
    a = x @ W.T + b
    zr = 1.0 / (1.0 + np.exp(-(a[:2 * d] + h @ U[:2 * d].T)))
    z, r = zr[:d], zr[d:]
    rh = r * h
    c = np.tanh(a[2 * d:] + rh @ U[2 * d:].T)
    return (1.0 - z) * h + z * c, {"x": x, "h": h, "z": z, "r": r, "rh": rh, "c": c}


def _ref_forward_pair(model, src_ids, tgt_ids, tf_gold=None, dropout_masks=None):
    cfg, p = model.config, model.params
    enc_out = np.zeros((cfg.max_len, cfg.hidden))
    h = np.zeros(cfg.hidden)
    enc_caches = []
    for t, tid in enumerate(src_ids):
        h, cache = _ref_gru_cache(p["enc_W"], p["enc_U"], p["enc_b"],
                                  p["enc_embed"][tid], h)
        enc_out[t] = h
        enc_caches.append(cache)
    gold = list(tgt_ids) + [EOS_ID]
    steps = []
    loss = 0.0
    prev = SOS_ID
    for t, gold_id in enumerate(gold):
        mask = dropout_masks[t] if dropout_masks is not None else np.ones(cfg.hidden)
        xd = p["dec_embed"][prev] * mask
        eh = np.concatenate([xd, h])
        attn_logits = eh @ p["attn_W"].T + p["attn_b"]
        attn_logits = attn_logits - attn_logits.max()
        a = np.exp(attn_logits)
        a /= a.sum()
        context = (a[None, :] @ enc_out)[0]
        xc = np.concatenate([xd, context])
        comb_pre = xc @ p["comb_W"].T + p["comb_b"]
        h_new, gru = _ref_gru_cache(p["dec_W"], p["dec_U"], p["dec_b"],
                                    np.maximum(comb_pre, 0.0), h)
        logits = h_new @ p["out_W"].T + p["out_b"]
        logp = logits - (logits.max() + np.log(np.exp(logits - logits.max()).sum()))
        steps.append({"prev_id": prev, "mask": mask, "xd": xd, "eh": eh, "a": a,
                      "context": context, "xc": xc, "comb_pre": comb_pre,
                      "gru": gru, "h_new": h_new, "probs": np.exp(logp),
                      "enc_out": enc_out, "gold": gold_id})
        loss -= logp[gold_id]
        h = h_new
        if tf_gold is None or t + 1 == len(gold) or tf_gold[t + 1]:
            prev = gold_id
        else:
            masked = logp.copy()
            masked[[PAD_ID, SOS_ID]] = -np.inf
            prev = int(np.argmax(masked))
    return loss / len(gold), {"enc_caches": enc_caches, "enc_out": enc_out,
                              "src_ids": list(src_ids), "steps": steps}


def _ref_gradients(model, *pair):
    """The frozen forward and backward's loss and gradients of one pair."""
    loss, fwd = _ref_forward_pair(model, *pair)
    return loss, _ref_backward_pair(model, fwd)


def _ref_sgd_step(params, grads, learning_rate, max_norm):
    total = np.sqrt(sum(float(np.sum(v * v)) for v in grads.values()))
    if max_norm > 0 and total > max_norm:
        for v in grads.values():
            v *= max_norm / total
    for name, grad in grads.items():
        params[name] -= learning_rate * grad
    return total


def _random_case(seed):
    """A random tiny model and pair with dropout masks, mixed teacher forcing
    and few distinct token ids, so rows repeat on both sides."""
    rng = random.Random(seed)
    cfg = tiny_config(src_vocab_size=rng.randint(6, 10),
                      tgt_vocab_size=rng.randint(6, 10),
                      hidden=rng.randint(3, 9), max_len=rng.randint(5, 8),
                      dropout_p=0.3, seed=seed)
    model = nmt.init_model(cfg)
    src = [rng.randrange(4, 6) for _ in range(rng.randint(1, cfg.max_len))]
    tgt = [rng.randrange(4, 6) for _ in range(rng.randint(1, cfg.max_len - 1))]
    tf_gold = [rng.random() < 0.5 for _ in range(len(tgt) + 1)]
    drop_rng = np.random.default_rng(seed)
    masks = [nmt._dropout_mask(cfg, drop_rng) for _ in tf_gold]
    return model, src, tgt, tf_gold, masks


# Frozen copy of lowmt 0.2.0's init_model: per-gate arrays.
def _init_model_0_2_0(config):
    d = config.hidden
    L = config.max_len
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / math.sqrt(d)

    def u(*shape):
        return rng.uniform(-bound, bound, size=shape)

    params = {
        "enc_embed": u(config.src_vocab_size, d),
        "dec_embed": u(config.tgt_vocab_size, d),
        "attn_W": u(L, 2 * d), "attn_b": u(L),
        "comb_W": u(d, 2 * d), "comb_b": u(d),
        "out_W": u(config.tgt_vocab_size, d), "out_b": u(config.tgt_vocab_size),
    }
    for side in ("enc", "dec"):
        for gate in ("z", "r", "h"):
            params[f"{side}_W{gate}"] = u(d, d)
            params[f"{side}_U{gate}"] = u(d, d)
            params[f"{side}_b{gate}"] = u(d)
    return params


# Frozen copy of lowmt 0.4.0's per-sentence forward, one vector at a time:
# the reference for the row-block encoder and decoder step.
def _ref_gru_forward(W, U, b, x, h):
    d = h.shape[0]
    a = W @ x + b
    zr = 1.0 / (1.0 + np.exp(-(a[:2 * d] + U[:2 * d] @ h)))
    z, r = zr[:d], zr[d:]
    c = np.tanh(a[2 * d:] + U[2 * d:] @ (r * h))
    return (1.0 - z) * h + z * c


def _ref_encode(model, src_ids):
    cfg, p = model.config, model.params
    h = np.zeros(cfg.hidden)
    outputs = np.zeros((cfg.max_len, cfg.hidden))
    for t, tid in enumerate(src_ids):
        h = _ref_gru_forward(p["enc_W"], p["enc_U"], p["enc_b"], p["enc_embed"][tid], h)
        outputs[t] = h
    return outputs, h


def _ref_decode_step(model, prev_id, hidden, encoder_outputs):
    p = model.params
    xd = p["dec_embed"][prev_id] * np.ones(model.config.hidden)
    attn_logits = p["attn_W"] @ np.concatenate([xd, hidden]) + p["attn_b"]
    attn_logits = attn_logits - attn_logits.max()
    a = np.exp(attn_logits)
    a /= a.sum()
    context = encoder_outputs.T @ a
    comb = np.maximum(p["comb_W"] @ np.concatenate([xd, context]) + p["comb_b"], 0.0)
    h_new = _ref_gru_forward(p["dec_W"], p["dec_U"], p["dec_b"], comb, hidden)
    logits = p["out_W"] @ h_new + p["out_b"]
    logp = logits - (logits.max() + np.log(np.exp(logits - logits.max()).sum()))
    return logp, h_new, a


def _ref_translate(model, src_ids):
    cfg = model.config
    src_ids = [tid if 0 <= tid < cfg.src_vocab_size else nmt.UNK_ID for tid in src_ids]
    enc_out, h = _ref_encode(model, src_ids)
    out_ids = []
    prev = SOS_ID
    for _ in range(cfg.max_len):
        logp, h, _ = _ref_decode_step(model, prev, h, enc_out)
        masked = logp.copy()
        masked[PAD_ID] = masked[SOS_ID] = -np.inf
        nxt = int(np.argmax(masked))
        if nxt == EOS_ID:
            break
        out_ids.append(nxt)
        prev = nxt
    return out_ids


def _ref_pair_loss(model, src_ids, tgt_ids):
    enc_out, h = _ref_encode(model, src_ids)
    gold = list(tgt_ids) + [EOS_ID]
    loss = 0.0
    prev = SOS_ID
    for gold_id in gold:
        logp, h, _ = _ref_decode_step(model, prev, h, enc_out)
        loss -= logp[gold_id]
        prev = gold_id
    return loss / len(gold)


# Frozen copy of lowmt 0.8.0's mean_loss, with its own per-bucket loop: the
# reference that val_loss, and so loss.csv, keeps its bits against.
def _ref_bucket_mean_loss(model, pairs):
    losses = [0.0] * len(pairs)
    for rows in nmt._buckets([len(tgt_ids) for _, tgt_ids in pairs]):
        enc_out, h = nmt.encode_sequence(model, [pairs[i][0] for i in rows])
        gold, n_steps = nmt._padded([list(pairs[i][1]) + [EOS_ID] for i in rows])
        block = np.arange(len(rows))
        loss = np.zeros(len(rows))
        prev = np.full(len(rows), SOS_ID)
        for t in range(gold.shape[1]):
            logp, h, _, _ = nmt._decode_step(model, prev, h, enc_out)
            loss -= np.where(t < n_steps, logp[block, gold[:, t]], 0.0)
            prev = gold[:, t]
        for b, i in enumerate(rows):
            losses[i] = loss[b] / n_steps[b]
    total = 0.0
    for value in losses:
        total += value
    return total / len(pairs)


@functools.lru_cache(maxsize=None)
def _batch_case(seed, n):
    """A random tiny model and n sources in unsorted order, lengths 1 to
    max_len with both ends present, some ids out of the source vocabulary.
    The model is briefly trained to copy, so rows end at different steps."""
    rng = random.Random(seed)
    cfg = tiny_config(src_vocab_size=rng.randint(6, 12),
                      tgt_vocab_size=rng.randint(6, 12),
                      hidden=rng.randint(3, 12), max_len=rng.randint(4, 9),
                      seed=seed)
    model = nmt.init_model(cfg)
    lengths = [1, cfg.max_len] + [rng.randint(1, cfg.max_len) for _ in range(n - 2)]
    rng.shuffle(lengths)
    sources = [[rng.randrange(cfg.src_vocab_size + 3) for _ in range(k)]
               for k in lengths]
    copies = [([tid % cfg.src_vocab_size for tid in src],
               [4 + tid % (cfg.tgt_vocab_size - 4) for tid in src[:cfg.max_len - 1]])
              for src in sources]
    nmt.train(model, copies, nmt.TrainConfig(epochs=3, learning_rate=0.3,
                                             teacher_forcing_ratio=1.0, seed=seed))
    return model, sources

class TestConfigValidation:
    def test_small_vocab_rejected(self):
        with pytest.raises(nmt.NmtError):
            tiny_config(src_vocab_size=3)

    def test_max_len_rejected(self):
        with pytest.raises(nmt.NmtError):
            tiny_config(max_len=1)

    def test_dropout_range(self):
        with pytest.raises(nmt.NmtError):
            tiny_config(dropout_p=1.0)

    def test_train_config_validation(self):
        with pytest.raises(nmt.NmtError):
            nmt.TrainConfig(learning_rate=-1)
        with pytest.raises(nmt.NmtError):
            nmt.TrainConfig(teacher_forcing_ratio=1.5)
        with pytest.raises(nmt.NmtError, match="epochs"):
            nmt.TrainConfig(epochs=0)
        with pytest.raises(nmt.NmtError, match="grad_clip_norm"):
            nmt.TrainConfig(grad_clip_norm=-1.0)
        with pytest.raises(nmt.NmtError, match="learning_rate"):
            nmt.TrainConfig(learning_rate=math.nan)
        with pytest.raises(nmt.NmtError, match="grad_clip_norm"):
            nmt.TrainConfig(grad_clip_norm=math.nan)
        assert nmt.TrainConfig(grad_clip_norm=0.0).grad_clip_norm == 0.0


class TestInitModel:
    def test_same_seed_bitwise_identical(self):
        a = nmt.init_model(tiny_config(seed=3))
        b = nmt.init_model(tiny_config(seed=3))
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(a.params[name], b.params[name])

    def test_different_seeds_differ(self):
        a = nmt.init_model(tiny_config(seed=1))
        b = nmt.init_model(tiny_config(seed=2))
        assert not np.array_equal(a.params["enc_embed"], b.params["enc_embed"])

    def test_shapes(self, tiny_model):
        p = tiny_model.params
        assert p["enc_embed"].shape == (12, 8)
        assert p["attn_W"].shape == (6, 16)
        assert p["comb_W"].shape == (8, 16)
        assert p["out_W"].shape == (12, 8)
        assert p["dec_U"].shape == (24, 8)
        assert p["dec_b"].shape == (24,)
        assert len(nmt.PARAM_ORDER) == 14
        assert p.keys() == set(nmt.PARAM_ORDER)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_per_gate_draws_of_0_2_0(self, seed):
        cfg = tiny_config(seed=seed, src_vocab_size=9, hidden=5, max_len=7)
        old = _init_model_0_2_0(cfg)
        new = nmt.init_model(cfg).params
        for name in nmt.PARAM_ORDER:
            if name in old:
                assert np.array_equal(new[name], old[name]), name
            else:
                stacked = np.concatenate([old[name + gate] for gate in "zrh"])
                assert np.array_equal(new[name], stacked), name

    def test_init_bound(self, tiny_model):
        bound = 1.0 / np.sqrt(8)
        for name in nmt.PARAM_ORDER:
            arr = tiny_model.params[name]
            assert np.all(np.abs(arr) <= bound)


class TestEncodeSequence:
    def test_zero_params_keep_hidden_zero(self, tiny_model):
        model = nmt.Seq2SeqModel(
            params={k: np.zeros_like(v) for k, v in tiny_model.params.items()},
            config=tiny_model.config)
        outputs, h = nmt.encode_sequence(model, [[4, 5, 6]])
        assert np.array_equal(outputs, np.zeros_like(outputs))
        assert np.array_equal(h, np.zeros((1, 8)))

    def test_padding_rows_zero(self, tiny_model):
        outputs, _ = nmt.encode_sequence(tiny_model, [[4]])
        assert np.array_equal(outputs[0, 1:], np.zeros((5, 8)))
        assert np.any(outputs[0, 0] != 0)

    def test_too_long_rejected(self, tiny_model):
        with pytest.raises(nmt.NmtError, match="max_len"):
            nmt.translate_batch(tiny_model, [[4] * 7])

    def test_finiteness_random_inputs(self, tiny_model):
        rng = random.Random(0)
        for _ in range(1000):
            ids = [rng.randrange(12) for _ in range(rng.randint(1, 6))]
            outputs, h = nmt.encode_sequence(tiny_model, [ids])
            assert np.all(np.isfinite(outputs))
            assert np.all(np.isfinite(h))

    def test_one_row_block_matches_0_4_0(self, tiny_model):
        gates = []
        outputs, h = nmt.encode_sequence(tiny_model, [PAIR[0]], gates)
        ref_outputs, ref_h = _ref_encode(tiny_model, PAIR[0])
        assert np.array_equal(outputs[0], ref_outputs)
        assert np.array_equal(h[0], ref_h)
        assert [(zr.shape, c.shape) for zr, c in gates] == [((1, 16), (1, 8))] * 4


SOS = np.array([SOS_ID])


class TestDecodeStep:
    def test_attention_sums_to_one(self, tiny_model):
        enc_out, h = nmt.encode_sequence(tiny_model, [PAIR[0]])
        _, _, attn, _ = nmt._decode_step(tiny_model, SOS, h, enc_out)
        assert abs(attn.sum() - 1.0) < 1e-12

    def test_log_probs_normalize(self, tiny_model):
        enc_out, h = nmt.encode_sequence(tiny_model, [PAIR[0]])
        logp, _, _, _ = nmt._decode_step(tiny_model, SOS, h, enc_out)
        assert abs(np.exp(logp).sum() - 1.0) < 1e-6

    def test_eval_mode_deterministic(self, tiny_model):
        enc_out, h = nmt.encode_sequence(tiny_model, [PAIR[0]])
        a = nmt._decode_step(tiny_model, SOS, h, enc_out)
        b = nmt._decode_step(tiny_model, SOS, h, enc_out)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_bad_token_rejected(self, tiny_model):
        # mean_loss and train check target ids before any step.
        with pytest.raises(nmt.NmtError, match="target token id 99 out of range"):
            nmt.mean_loss(tiny_model, [(PAIR[0], [99])])

    def test_train_mode_dropout_draws_one_mask(self):
        model = nmt.init_model(tiny_config(dropout_p=0.4))
        enc_out, h = nmt.encode_sequence(model, [PAIR[0]])
        logp, _, _, _ = nmt._decode_step(
            model, SOS, h, enc_out,
            nmt._dropout_mask(model.config, np.random.default_rng(5)))
        draw = np.random.default_rng(5).random(8)
        mask = (draw < 0.6).astype(np.float64) / 0.6
        expected, _, _, _ = nmt._decode_step(model, SOS, h, enc_out, mask)
        assert np.array_equal(logp, expected)

    def test_one_row_block_matches_0_4_0(self, tiny_model):
        enc_out, h = nmt.encode_sequence(tiny_model, [PAIR[0]])
        logp, h_new, attn, _ = nmt._decode_step(tiny_model, SOS, h, enc_out)
        ref = _ref_decode_step(tiny_model, SOS_ID, h[0], enc_out[0])
        for got, want in zip((logp, h_new, attn), ref):
            assert got.shape == (1,) + want.shape
            assert np.array_equal(got[0], want)


class TestTraining:
    def test_zero_lr_leaves_params_unchanged(self, tiny_model):
        before = copy.deepcopy(tiny_model.params)
        cfg = nmt.TrainConfig(epochs=2, learning_rate=0.0, seed=0)
        nmt.train(tiny_model, [PAIR], cfg)
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(before[name], tiny_model.params[name])

    def test_determinism(self):
        cfg = nmt.TrainConfig(epochs=2, learning_rate=0.05, seed=4)
        pairs = [PAIR, ([5, 4], [4, 5, 6])]
        m1, h1 = nmt.train(nmt.init_model(tiny_config(dropout_p=0.1, seed=2)),
                           pairs, cfg)
        m2, h2 = nmt.train(nmt.init_model(tiny_config(dropout_p=0.1, seed=2)),
                           pairs, cfg)
        assert h1 == h2
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_over_length_pair_rejected(self, tiny_model):
        cfg = nmt.TrainConfig(epochs=1, seed=0)
        with pytest.raises(nmt.NmtError):
            nmt.train(tiny_model, [([4] * 7, [5])], cfg)
        with pytest.raises(nmt.NmtError):
            nmt.train(tiny_model, [([4], [5] * 6)], cfg)

    def test_bad_validation_pair_rejected_before_any_update(self, tiny_model):
        before = copy.deepcopy(tiny_model.params)
        cfg = nmt.TrainConfig(epochs=1, learning_rate=0.1, seed=0)
        with pytest.raises(nmt.NmtError, match="target token id 99 out of range"):
            nmt.train(tiny_model, [PAIR], cfg, validation_pairs=[([4], [99])])
        with pytest.raises(nmt.NmtError, match="target length 6[+]eos exceeds max_len=6"):
            nmt.train(tiny_model, [PAIR], cfg, validation_pairs=[([4], [5] * 6)])
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(before[name], tiny_model.params[name]), name

    def test_history_records_grad_norm_and_clip_rate(self, tiny_model):
        _, grads = nmt.pair_gradients(tiny_model, *PAIR)
        norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
        for max_norm, clip_rate in ((0.0, 0.0), (norm / 2, 1.0)):
            cfg = nmt.TrainConfig(epochs=1, learning_rate=0.0,
                                  teacher_forcing_ratio=1.0,
                                  grad_clip_norm=max_norm, seed=0)
            _, history = nmt.train(tiny_model, [PAIR, PAIR], cfg)
            assert abs(history[0]["grad_norm"] - norm) <= 1e-12
            assert history[0]["clip_rate"] == clip_rate

    def test_loss_history_length(self, tiny_model):
        cfg = nmt.TrainConfig(epochs=3, learning_rate=0.01, seed=0)
        _, history = nmt.train(tiny_model, [PAIR], cfg)
        assert [h["epoch"] for h in history] == [0, 1, 2]
        assert all(np.isfinite(h["mean_loss"]) for h in history)

    def test_non_finite_validation_loss_raises(self, tiny_model):
        cfg = nmt.TrainConfig(epochs=1, learning_rate=1e300, grad_clip_norm=0.0,
                              seed=0)
        with np.errstate(all="ignore"), pytest.raises(
                nmt.NmtNumericalError, match="non-finite validation loss at epoch 0"):
            nmt.train(tiny_model, [PAIR], cfg, validation_pairs=[PAIR])

    def test_non_finite_gradient_norm_names_epoch_and_pair(self, tiny_model):
        # Saturated encoder gates keep the loss finite, while dW = DA^T X with
        # inputs of 1e200 has a norm that overflows.
        tiny_model.params["enc_embed"][PAIR[0]] = 1e200
        before = copy.deepcopy(tiny_model.params)
        cfg = nmt.TrainConfig(epochs=1, grad_clip_norm=1.0, seed=0)
        with np.errstate(all="ignore"):
            assert np.isfinite(nmt.mean_loss(tiny_model, [PAIR]))
        with np.errstate(all="ignore"), pytest.raises(
                nmt.NmtNumericalError,
                match=r"non-finite gradient norm (inf|nan) at epoch 0, pair 0"):
            nmt.train(tiny_model, [PAIR], cfg)
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(before[name], tiny_model.params[name]), name

    def test_copy_task_loss_decreases(self):
        rng = random.Random(11)
        pairs = []
        for _ in range(60):
            seq = [rng.randrange(4, 16) for _ in range(rng.randint(3, 5))]
            pairs.append((seq, list(seq)))
        model = nmt.init_model(nmt.ModelConfig(src_vocab_size=16, tgt_vocab_size=16,
                                               hidden=24, max_len=8, dropout_p=0.0,
                                               seed=1))
        cfg = nmt.TrainConfig(epochs=5, learning_rate=0.2,
                              teacher_forcing_ratio=0.5, seed=1)
        _, history = nmt.train(model, pairs, cfg)
        losses = [h["mean_loss"] for h in history]
        assert losses[-1] < losses[0]


class TestTranslate:
    def test_output_length_bounded(self, tiny_model):
        out = nmt.translate(tiny_model, PAIR[0])
        assert len(out) <= tiny_model.config.max_len

    def test_never_emits_pad_or_sos(self, tiny_model):
        out = nmt.translate(tiny_model, PAIR[0])
        assert PAD_ID not in out
        assert SOS_ID not in out
        assert EOS_ID not in out

    def test_oov_source_mapped_to_unk(self, tiny_model):
        assert nmt.translate(tiny_model, [4, 999]) == nmt.translate(tiny_model, [4, 1])


class TestTranslateBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_sentence_loop_of_0_4_0(self, seed):
        model, sources = _batch_case(seed, 2 * nmt.BUCKET_SIZE + 7)
        assert any(tid >= model.config.src_vocab_size for src in sources for tid in src)
        batch = nmt.translate_batch(model, sources)
        assert len(batch) == len(sources)
        assert len({len(ids) for ids in batch}) > 1
        for src, ids in zip(sources, batch):
            assert ids == _ref_translate(model, src)

    def test_done_rows_stay_done(self, tiny_model, monkeypatch):
        # A stand-in step: row b emits word 4 until step len(source b), then
        # </s>, then word 4 again; the hidden state's first column counts steps.
        def step(model, prev_ids, hidden, encoder_outputs, dropout_mask=None):
            lengths = np.count_nonzero(encoder_outputs[:, :, 0], axis=1)
            hidden = hidden.copy()
            hidden[:, 0] += 1.0
            logp = np.full((len(prev_ids), 12), -9.0)
            logp[:, 4] = -1.0
            logp[hidden[:, 0] == lengths, EOS_ID] = 0.0
            return logp, hidden, None, None

        sources = [[5] * k for k in (3, 1, 6, 2)]
        monkeypatch.setattr(nmt, "encode_sequence", lambda model, sources: (
            np.array([[[1.0]] * len(s) + [[0.0]] * (6 - len(s)) for s in sources]),
            np.zeros((len(sources), 1))))
        monkeypatch.setattr(nmt, "_decode_step", step)
        assert tiny_model.config.max_len == 6
        assert nmt.translate_batch(tiny_model, sources) == [[4, 4], [], [4] * 5, [4]]

    def test_never_emits_pad_or_sos_even_when_most_likely(self):
        model, sources = _batch_case(0, 40)
        model = copy.deepcopy(model)
        model.params["out_b"][[PAD_ID, SOS_ID]] += 100.0
        for src, ids in zip(sources, nmt.translate_batch(model, sources)):
            assert ids == _ref_translate(model, src)
            assert PAD_ID not in ids and SOS_ID not in ids

    def test_translate_is_one_row_of_the_batch(self, tiny_model):
        assert nmt.translate(tiny_model, PAIR[0]) == _ref_translate(tiny_model, PAIR[0])

    def test_empty_source_rejected(self, tiny_model):
        with pytest.raises(nmt.NmtError, match="source length 0"):
            nmt.translate_batch(tiny_model, [[4], []])
        assert nmt.translate_batch(tiny_model, []) == []


class TestBatchedMeanLoss:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_mean_of_per_pair_losses(self, seed):
        model, sources = _batch_case(seed, nmt.BUCKET_SIZE + 9)
        cfg = model.config
        rng = random.Random(seed)
        pairs = [([tid % cfg.src_vocab_size for tid in src],
                  [rng.randrange(4, cfg.tgt_vocab_size)
                   for _ in range(rng.randint(0, cfg.max_len - 1))])
                 for src in sources]
        assert len({len(tgt) for _, tgt in pairs}) > 2
        per_pair = [nmt._pair_grads(model, src, tgt)[0] for src, tgt in pairs]
        expected = sum(per_pair) / len(pairs)
        assert abs(nmt.mean_loss(model, pairs) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_frozen_bucket_loop(self, seed):
        model, sources = _batch_case(seed, nmt.BUCKET_SIZE + 9)
        cfg = model.config
        rng = random.Random(50 + seed)
        # Gold ids include PAD_ID, so only the lengths can end a row's loss.
        pairs = [([tid % cfg.src_vocab_size for tid in src],
                  [rng.randrange(cfg.tgt_vocab_size)
                   for _ in range(rng.randint(0, cfg.max_len - 1))])
                 for src in sources]
        buckets = nmt._buckets([len(tgt) for _, tgt in pairs])
        assert len(buckets[0]) > 1
        assert any(len({len(pairs[i][1]) for i in rows}) > 1 for rows in buckets)
        assert nmt.mean_loss(model, pairs) == _ref_bucket_mean_loss(model, pairs)
        # Two-row buckets too: a mean over many pairs can round away a
        # last-bit change in one pair's loss.
        for i in range(0, len(pairs) - 1, 2):
            two = pairs[i:i + 2]
            assert nmt.mean_loss(model, two) == _ref_bucket_mean_loss(model, two), i

    def test_no_pairs_rejected(self, tiny_model):
        with pytest.raises(nmt.NmtError, match="no pairs"):
            nmt.mean_loss(tiny_model, [])

    @pytest.mark.parametrize("score", [
        lambda model, pair: nmt.mean_loss(model, [pair]),
        lambda model, pair: nmt.pair_gradients(model, *pair)])
    def test_target_without_room_for_eos_rejected_as_train_does(self, tiny_model, score):
        too_long = ([4], [5] * tiny_model.config.max_len)
        with pytest.raises(nmt.NmtError) as train_error:
            nmt.train(tiny_model, [too_long], nmt.TrainConfig(epochs=1, seed=0))
        with pytest.raises(nmt.NmtError) as error:
            score(tiny_model, too_long)
        assert str(error.value) == str(train_error.value) == \
            "target length 6+eos exceeds max_len=6"

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_loss_bit_identical_to_0_4_0(self, seed):
        model, src, tgt, _, _ = _random_case(seed)
        loss = nmt.mean_loss(model, [(src, tgt)])
        assert loss == _ref_pair_loss(model, src, tgt)
        assert loss == nmt._pair_grads(model, src, tgt)[0]

class TestGradientCheck:
    def test_tiny_model_below_threshold(self, tiny_model):
        err = nmt.gradient_check(tiny_model, PAIR, epsilon=1e-5,
                                 n_params_sampled=200, seed=0)
        assert err < 1e-4

    def test_sign_flip_negative_control(self, tiny_model):
        corrupted = copy.deepcopy(tiny_model)
        src_ids, tgt_ids = PAIR
        _, good = nmt.pair_gradients(corrupted, src_ids, tgt_ids)
        # numeric gradient of out_W entries vs sign-flipped analytic gradient
        name = "out_W"
        idx = int(np.argmax(np.abs(good[name])))
        arr = corrupted.params[name]
        eps = 1e-5
        orig = arr.flat[idx]
        arr.flat[idx] = orig + eps
        lp = nmt.mean_loss(corrupted, [(src_ids, tgt_ids)])
        arr.flat[idx] = orig - eps
        lm = nmt.mean_loss(corrupted, [(src_ids, tgt_ids)])
        arr.flat[idx] = orig
        numeric = (lp - lm) / (2 * eps)
        flipped = -good[name].flat[idx]
        err = abs(flipped - numeric) / max(abs(flipped), abs(numeric), 1e-12)
        assert err > 0.5

    def test_unused_embedding_rows_zero_gradient(self, tiny_model):
        _, grads = nmt.pair_gradients(tiny_model, *PAIR)
        used_src = set(PAIR[0])
        for row in range(12):
            if row not in used_src:
                assert np.array_equal(grads["enc_embed"][row], np.zeros(8))


class TestBackwardEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_frozen_per_step_backward(self, seed):
        model, src, tgt, tf_gold, masks = _random_case(seed)
        loss, grads = nmt._pair_grads(model, src, tgt, tf_gold, masks)
        assert len(set(src)) < len(src) or len(set(tgt)) < len(tgt) + 1
        new = nmt._dense_grads(model, grads)
        ref_loss, ref = _ref_gradients(model, src, tgt, tf_gold, masks)
        assert loss == ref_loss
        assert new.keys() == ref.keys()
        for name in nmt.PARAM_ORDER:
            assert np.max(np.abs(new[name] - ref[name])) <= 1e-10, name

    @pytest.mark.parametrize("seed", range(4))
    def test_one_workspace_for_two_pairs(self, seed):
        """Two SGD steps in a row: the second pair's products are
        multiplied out on the parameters the first step left."""
        model, src, tgt, tf_gold, masks = _random_case(seed)
        cfg = model.config
        rng = random.Random(100 + seed)
        src2 = [rng.randrange(4, cfg.src_vocab_size) for _ in range(cfg.max_len)]
        tgt2 = [rng.randrange(4, cfg.tgt_vocab_size) for _ in range(2)]
        masks2 = [nmt._dropout_mask(cfg, np.random.default_rng(seed)) for _ in range(3)]
        ref_params = copy.deepcopy(model.params)
        for pair in ((src, tgt, tf_gold, masks), (src2, tgt2, None, masks2)):
            nmt._sgd_step(model.params, nmt._pair_grads(model, *pair)[1], 0.1, 0.0)
            ref_model = nmt.Seq2SeqModel(ref_params, cfg)
            _ref_sgd_step(ref_params, _ref_gradients(ref_model, *pair)[1], 0.1, 0.0)
            for name in nmt.PARAM_ORDER:
                assert np.max(np.abs(model.params[name] - ref_params[name])) <= 1e-10, name

    def test_train_equals_fresh_workspace_per_pair(self):
        cfg = tiny_config(dropout_p=0.2, seed=5)
        tcfg = nmt.TrainConfig(epochs=2, learning_rate=0.1,
                               teacher_forcing_ratio=0.5, grad_clip_norm=1.0,
                               seed=7)
        pairs = [PAIR, ([5, 4, 4], [6, 5]), ([7], [4, 4, 5, 6])]
        trained, _ = nmt.train(nmt.init_model(cfg), pairs, tcfg)

        # train's seeded streams and order, one _sgd_step per pair
        model = nmt.init_model(cfg)
        tf_rng = random.Random(derive_seed(tcfg.seed, "teacher_forcing"))
        drop_rng = np.random.default_rng(derive_seed(tcfg.seed, "dropout"))
        for epoch in range(tcfg.epochs):
            order = list(range(len(pairs)))
            random.Random(derive_seed(tcfg.seed, "order", epoch)).shuffle(order)
            for idx in order:
                src, tgt = pairs[idx]
                tf_gold = [tf_rng.random() < tcfg.teacher_forcing_ratio
                           for _ in range(len(tgt) + 1)]
                masks = [nmt._dropout_mask(cfg, drop_rng) for _ in tf_gold]
                _, grads = nmt._pair_grads(model, src, tgt, tf_gold, masks)
                nmt._sgd_step(model.params, grads,
                              tcfg.learning_rate, tcfg.grad_clip_norm)
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(trained.params[name], model.params[name]), name

    def test_pair_gradients_calls_do_not_share_arrays(self, tiny_model):
        _, first = nmt.pair_gradients(tiny_model, *PAIR)
        kept = copy.deepcopy(first)
        nmt.pair_gradients(tiny_model, [7, 6], [4, 4, 4, 4])
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(first[name], kept[name]), name

    @pytest.mark.parametrize("max_norm", [0.0, 1e-3, 1e6])
    def test_sgd_step_matches_dense_clip_and_update(self, max_norm):
        model, src, tgt, tf_gold, masks = _random_case(3)
        _, grads = nmt._pair_grads(model, src, tgt, tf_gold, masks)
        ref_params = copy.deepcopy(model.params)
        ref_norm = _ref_sgd_step(ref_params,
                                 _ref_gradients(model, src, tgt, tf_gold, masks)[1],
                                 0.1, max_norm)
        norm, clipped = nmt._sgd_step(model.params, grads, 0.1, max_norm)
        assert abs(norm - ref_norm) <= 1e-12
        assert clipped == (max_norm == 1e-3)
        for name in nmt.PARAM_ORDER:
            assert np.max(np.abs(model.params[name] - ref_params[name])) <= 1e-10


def _dense_sgd_step(params, dense, step):
    """The update with dense gradients, in the order train used before the
    factored update: scale each gradient, then subtract it."""
    for name, grad in dense.items():
        grad = grad.copy()
        grad *= step
        params[name] -= grad


class TestFactoredUpdate:
    @pytest.mark.parametrize("seed", range(8))
    def test_gram_norm_equals_dense_norm(self, seed):
        model, src, tgt, tf_gold, masks = _random_case(seed)
        _, grads = nmt._pair_grads(model, src, tgt, tf_gold, masks)
        dense = nmt._dense_grads(model, grads)
        expected = math.sqrt(sum(float(np.vdot(g, g)) for g in dense.values()))
        assert abs(nmt._grad_norm(grads) - expected) <= 1e-12 * expected

    def test_exactly_zero_term_has_norm_zero(self):
        # A^T B is exactly 0, but <A A^T, B B^T> rounds to about -5.5e-18
        # with OpenBLAS, and math.sqrt of that would raise.
        x, y = 0.1257302210933933, -0.1321048632913019
        A, B = np.ones((3, 1)), np.array([[x], [y], [-(x + y)]])
        assert (A.T @ B == 0.0).all()
        assert nmt._grad_norm({"out_W": [(slice(None), A, B)]}) == 0.0

    def test_non_finite_norm_raises_before_any_update(self, tiny_model):
        _, grads = nmt._pair_grads(tiny_model, *PAIR)
        grads["out_b"][1][0] = np.nan
        before = copy.deepcopy(tiny_model.params)
        with pytest.raises(nmt.NmtNumericalError, match="non-finite gradient norm nan"):
            nmt._sgd_step(tiny_model.params, grads, 0.1, 1.0)
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(before[name], tiny_model.params[name]), name

    @pytest.mark.parametrize("chunk", ["one row", "default"])
    @pytest.mark.parametrize("max_norm", [0.0, 1e-3])
    def test_chunked_update_bit_identical_to_dense(self, monkeypatch, chunk, max_norm):
        """Chunks, their recomputed tails included, give the bits of the
        whole products, scaled and subtracted as dense gradients."""
        cfg = tiny_config(src_vocab_size=30, tgt_vocab_size=37, hidden=12,
                          max_len=9, dropout_p=0.3, seed=4)
        if chunk == "one row":
            monkeypatch.setattr(nmt, "UPDATE_CHUNK_BYTES", 8 * cfg.hidden)
        rng = random.Random(4)
        src = [rng.randrange(4, 30) for _ in range(9)]
        tgt = [rng.randrange(4, 37) for _ in range(7)]
        masks = [nmt._dropout_mask(cfg, np.random.default_rng(4)) for _ in range(8)]
        model = nmt.init_model(cfg)
        _, grads = nmt._pair_grads(model, src, tgt, [True, False] * 4, masks)
        dense = nmt._dense_grads(model, grads)
        ref_params = copy.deepcopy(model.params)
        # Step 1 on zero parameters leaves -A.T @ B itself, every bit of it.
        zeros = {name: np.zeros_like(value) for name, value in model.params.items()}
        nmt._sgd_step(zeros, grads, 1.0, 0.0)
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(zeros[name], -dense[name]), name
        norm, clipped = nmt._sgd_step(model.params, grads, 0.1, max_norm)
        assert clipped == (max_norm > 0)
        _dense_sgd_step(ref_params, dense, 0.1 * (max_norm / norm if clipped else 1.0))
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(model.params[name], ref_params[name]), name

    @pytest.mark.parametrize("case", [*range(8), "wide"])
    def test_dense_view_equals_direct_products(self, case):
        """pair_gradients' arrays against products formed here, not by the
        chunked update that _dense_grads shares with _sgd_step."""
        if case == "wide":
            cfg = nmt.ModelConfig(src_vocab_size=2000, tgt_vocab_size=2000, hidden=64,
                                  max_len=24, dropout_p=0.1, seed=0)
            model = nmt.init_model(cfg)
            rng = random.Random(0)
            src = [rng.randrange(4, 2000) for _ in range(rng.randint(8, 20))]
            tgt = [rng.randrange(4, 2000) for _ in range(rng.randint(8, 20))]
        else:
            model, src, tgt, _, _ = _random_case(case)
        _, dense = nmt.pair_gradients(model, src, tgt)
        _, grads = nmt._pair_grads(model, src, tgt)
        assert dense.keys() == grads.keys()
        for name, grad in grads.items():
            if isinstance(grad, list):
                for rows, A, B in grad:
                    assert np.array_equal(dense[name][rows], A.T @ B), name
            else:
                rows, values = grad
                expected = np.zeros_like(dense[name])
                expected[rows] = values
                assert np.array_equal(dense[name], expected), name

    def test_update_leaves_its_gradients_unchanged(self):
        model, src, tgt, tf_gold, masks = _random_case(2)
        _, grads = nmt._pair_grads(model, src, tgt, tf_gold, masks)
        kept = copy.deepcopy(grads)
        _, clipped = nmt._sgd_step(model.params, grads, 0.1, 1e-3)
        assert clipped

        def arrays(grads):
            """The values of each (rows, values) pair, A and B of each term."""
            return [array for grad in grads.values()
                    for term in ([grad] if isinstance(grad, tuple) else grad)
                    for array in term[1:]]

        assert all(map(np.array_equal, arrays(grads), arrays(kept)))

    def test_train_allocates_less_than_dense_gradients(self):
        cfg = nmt.ModelConfig(src_vocab_size=2000, tgt_vocab_size=2000, hidden=64,
                              max_len=24, dropout_p=0.1, seed=0)
        dense_bytes = sum(8 * math.prod(shape)
                          for name, shape in nmt.param_shapes(cfg).items()
                          if not name.endswith("_embed"))
        rng = random.Random(0)
        pairs = [([rng.randrange(4, 2000) for _ in range(rng.randint(8, 20))],
                  [rng.randrange(4, 2000) for _ in range(rng.randint(8, 20))])
                 for _ in range(3)]
        model = nmt.init_model(cfg)
        tracemalloc.start()
        try:
            nmt.train(model, pairs, nmt.TrainConfig(epochs=1, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes

    def test_finished_pair_is_freed_before_the_next_forward(self, monkeypatch):
        cfg = nmt.ModelConfig(src_vocab_size=2000, tgt_vocab_size=2000, hidden=64,
                              max_len=24, dropout_p=0.1, seed=0)
        rng = random.Random(0)
        pairs = [([rng.randrange(4, 2000) for _ in range(rng.randint(8, 20))],
                  [rng.randrange(4, 2000) for _ in range(rng.randint(8, 20))])
                 for _ in range(3)]
        model = nmt.init_model(cfg)
        forward, at_entry = nmt._pair_grads, []

        def traced_forward(*args, **kwargs):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(nmt, "_pair_grads", traced_forward)
        tracemalloc.start()
        try:
            nmt.train(model, pairs, nmt.TrainConfig(epochs=1, seed=0))
        finally:
            tracemalloc.stop()
        # One decoder step's log-probs alone take 16 KB here; a record left
        # alive from the previous pair holds hundreds of KB.
        assert len(at_entry) == 3
        assert max(at_entry[1:]) - at_entry[0] < 32 * 1024


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        nmt.save_checkpoint(tiny_model, path)
        loaded = nmt.load_checkpoint(path)
        for name in nmt.PARAM_ORDER:
            assert np.array_equal(loaded.params[name], tiny_model.params[name])
        assert nmt.translate(tiny_model, PAIR[0]) == nmt.translate(loaded, PAIR[0])

    def test_format_2_layout(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        nmt.save_checkpoint(tiny_model, path)
        blob = path.read_bytes()
        assert struct.unpack("<I", blob[4:8]) == (2,)
        params = b"".join(tiny_model.params[name].astype("<f8").tobytes()
                          for name in nmt.PARAM_ORDER)
        assert blob.endswith(params)

    def test_format_1_is_refused(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        nmt.save_checkpoint(tiny_model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        with pytest.raises(nmt.NmtError, match="m.ckpt: unsupported checkpoint version 1"):
            nmt.load_checkpoint(path)

    @pytest.mark.parametrize("cut, message", [
        (5, "truncated at header"), (12, "truncated at config"),
        (40, "truncated at config"), (-1, "do not match its config")])
    def test_truncated_file_names_it(self, tiny_model, tmp_path, cut, message):
        path = tmp_path / "m.ckpt"
        nmt.save_checkpoint(tiny_model, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(nmt.NmtError, match=f"m.ckpt: .*{message}"):
            nmt.load_checkpoint(path)

    def test_size_is_checked_before_allocating(self, tiny_model, tmp_path):
        path = tmp_path / "m.ckpt"
        nmt.save_checkpoint(tiny_model, path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\0" * 8)
        with pytest.raises(nmt.NmtError, match="m.ckpt: .*do not match its config"):
            nmt.load_checkpoint(path)
        # A config whose parameters would need petabytes fails on size alone.
        config = (b'{"dropout_p": 0.1, "hidden": 100000000, "max_len": 6, "seed": 0, '
                  b'"src_vocab_size": 12, "tgt_vocab_size": 12}')
        path.write_bytes(blob[:4] + struct.pack("<II", 2, len(config)) + config)
        with pytest.raises(nmt.NmtError, match="do not match its config"):
            nmt.load_checkpoint(path)
        # A length field of 4 GiB - 1 fails before reading.
        path.write_bytes(blob[:8] + struct.pack("<I", 2 ** 32 - 1) + blob[12:])
        with pytest.raises(nmt.NmtError, match="m.ckpt: truncated at config"):
            nmt.load_checkpoint(path)

    @pytest.mark.parametrize("blob", [
        b'{"tgt_vocab_size": 12}', b'{"src_vocab_size": 12, "tgt_vocab_size": 2}',
        b'{"src_vocab_size": 12, "tgt_vocab_size": 12, "colour": 1}', b"[1, 2]",
        b"{not json", b'{"src_vocab_size": 12, "tgt_vocab_size": 12, "hidden": 4.0}',
        b'{"src_vocab_size": 12, "tgt_vocab_size": 12, "seed": "x"}',
        b'{"src_vocab_size": true, "tgt_vocab_size": 12}',
        b'{"src_vocab_size": 12, "tgt_vocab_size": 12, "dropout_p": "0.1"}',
        b'{"src_vocab_size": 12, "tgt_vocab_size": 12, "hidden": 4}'])
    def test_bad_config_names_file(self, tmp_path, blob):
        path = tmp_path / "m.ckpt"
        path.write_bytes(nmt.MAGIC + struct.pack("<II", 2, len(blob)) + blob)
        with pytest.raises(nmt.NmtError, match="m.ckpt: bad checkpoint config"):
            nmt.load_checkpoint(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_names_file(self, tiny_model, tmp_path, value):
        path = tmp_path / "m.ckpt"
        nmt.save_checkpoint(tiny_model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + struct.pack("<d", value))
        with pytest.raises(nmt.NmtError, match="m.ckpt: non-finite checkpoint values"):
            nmt.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"junkdata")
        with pytest.raises(nmt.NmtError):
            nmt.load_checkpoint(path)

    def test_loss_history_csv(self, tmp_path):
        history = [{"epoch": 0, "mean_loss": 1.5}, {"epoch": 1, "mean_loss": 1.2}]
        path = tmp_path / "loss.csv"
        nmt.save_loss_history(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1].startswith("0,1.5")

    def test_loss_csv_keeps_its_columns(self, tiny_model, tmp_path):
        cfg = nmt.TrainConfig(epochs=2, learning_rate=0.01, seed=0)
        _, history = nmt.train(tiny_model, [PAIR], cfg, validation_pairs=[PAIR])
        assert {"grad_norm", "clip_rate"} <= history[0].keys()
        path = tmp_path / "loss.csv"
        nmt.save_loss_history(history, path)
        assert path.read_text() == "epoch,mean_loss,val_loss\n" + "".join(
            f"{h['epoch']},{h['mean_loss']},{h['val_loss']}\n" for h in history)
