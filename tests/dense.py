"""A dense float64 reference of the trunk, written from the model description alone.

The trunk is a pre-norm transformer over token plus position embeddings:
each block adds multi-head self-attention of its first layer norm, then a
bias-free GELU (tanh form) feed-forward of its second, and a final layer norm
closes the pass. Here it runs on the padded (B, S) batch as it is: no length
groups, no packed rows and no reads. Attention takes a full (B, H, S, S)
mask. A key is visible when it holds a token and, on a causal pass, when it
is not after the query. The hidden states come back at every cell, PAD cells
included.
"""

import numpy as np

LN_EPS = 1e-5


def layer_norm(x, gain, bias):
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred / np.sqrt((centred ** 2).mean(axis=-1, keepdims=True) + LN_EPS) * gain + bias


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def trunk(w: dict, ids: np.ndarray, lengths: np.ndarray, causal: bool, n_heads: int) -> np.ndarray:
    """Final-normed hidden states (B, S, E) of the padded ids (B, S), whose row b holds lengths[b] tokens.

    ``w`` maps the model's parameter names to float64 arrays.
    """
    B, S = ids.shape
    E = w["tok_emb"].shape[1]
    hd = E // n_heads
    pos = np.arange(S)
    visible = pos[None, None, None, :] < lengths[:, None, None, None]  # keys that hold a token
    if causal:
        visible = visible & (pos[None, None, None, :] <= pos[None, None, :, None])
    visible = np.broadcast_to(visible, (B, n_heads, S, S))

    def heads(t):  # (B, S, E) -> (B, H, S, hd)
        return t.reshape(B, S, n_heads, hd).transpose(0, 2, 1, 3)

    x = w["tok_emb"][ids] + w["pos_emb"][pos]
    layers = sum(1 for name in w if name.endswith(".attn.wqkv"))
    for i in range(layers):
        p = f"h{i}."
        a = layer_norm(x, w[p + "ln1.g"], w[p + "ln1.b"])
        q, k, v = (heads(t) for t in np.split(a @ w[p + "attn.wqkv"] + w[p + "attn.bqkv"], 3, axis=-1))
        scores = np.where(visible, q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd), -np.inf)
        prob = np.exp(scores - scores.max(axis=-1, keepdims=True))
        prob /= prob.sum(axis=-1, keepdims=True)
        y = (prob @ v).transpose(0, 2, 1, 3).reshape(B, S, E)
        x = x + y @ w[p + "attn.wo"] + w[p + "attn.bo"]
        x = x + gelu(layer_norm(x, w[p + "ln2.g"], w[p + "ln2.b"]) @ w[p + "ff.w1"]) @ w[p + "ff.w2"]
    return layer_norm(x, w["ln_f.g"], w["ln_f.b"])
