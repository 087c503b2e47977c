"""Shared-trunk transformer with switchable attention masking.

One set of trunk weights serves two modes: causal masking for next-token
generation and bidirectional masking (with MASK-token substitution at
hidden positions) for masked-token reconstruction. A small MLP head on
the first output position regresses the scalar target; only that head has
its own weights, everything else is shared between the modes.

Losses:
  * ``loss_decoder``    mean next-token NLL under causal masking (PAD excluded)
  * ``loss_encoder``    mean NLL of the hidden tokens at masked positions
  * ``loss_prediction`` 0.5 * (mean - y)^2, the unit-variance Gaussian NLL
                        up to a constant
  * ``loss_joint``      per-step branch: generation -> decoder loss,
                        prediction -> encoder (+ prediction when labeled)

Packed cells: every trunk pass, for training and inference alike, runs its
position-wise ops (embedding add, layer norms, the feed-forward block,
residual adds, dropout) as one tape op per layer over the batch's non-PAD
cells, packed into rows in row-major (row, position) order, and nothing else.
Attention runs per length group: rows are sorted by non-PAD length (stable)
and cut into ``min(MAX_GROUPS, B // MIN_GROUP_ROWS)`` groups of equal count,
and neighbours that trim to the same width merge. ``numerics.attention``, one
tape op per layer, projects every packed row in one q|k|v GEMM and runs each
group on a zero-filled (rows, width) copy, the group's longest row wide. Its
cells, -1 at PAD after each row's tokens, hold every packed row once, a layout
attention takes as given: a causal pass adds only the shared triangle, which
hides a row's PAD cells behind its tokens, and a bidirectional one masks PAD
keys. Every dropout mask is a bool array drawn per token cell, in the packed
order: (tokens, E) for each residual dropout, and (tokens, n_heads, S) for
each layer's attention, one row per query token over every head and the
batch's S keys, which each group gathers at its query cells. Draw counts
depend only on the token count and S, so masks and RNG use depend on neither
the grouping nor the packing; only GEMM rounding can. The tape ops keep each
mask as bool and build its float multipliers only to use them. A pass ends
with one gather of the final norm's rows at the cells its caller reads, in
row-major (row, position) order: ``loss_decoder`` reads the cells with a next
token, ``loss_encoder`` the masked cells and ``forward_predictor`` position 0,
so the token head, ``cross_entropy`` and the predictor MLP see only rows that
are scored. Nothing after the last attention mixes positions, so a
bidirectional pass given reads runs that block's queries, the rest of the
block and the final norm only at each row's reads, padded per group with the
row's first other positions (a zero row at a PAD cell). A causal pass given
reads first drops every cell after its row's last read and every row with no
read, before it groups and packs: no query reads them. So ``loss_decoder``
never runs a row's last token, and draws its masks over the cells that stay.
``forward_decoder`` and ``forward_encoder`` run the head on every non-PAD
cell's row and gather its logits into (B, S, V), zero at PAD.
``predict_target`` is ``forward_predictor`` with no tape recording.

Decoding: ``forward_decoder`` with a ``KVCache`` runs ``_decode_step`` on
the new columns only, one group without dropout (one new column needs no
causal mask), on plain arrays: the ``numerics`` kernels the tape ops run, with
no Tensor but the logits and every check the tape ops make. Each step
reads the live parameter arrays by name (q|k|v is one GEMM on a block's
``attn.wqkv``). A cache serves the params and rows it was made for, in
one time-major buffer of every layer's keys and values, (max_len,
n_layers, 2, rows, n_heads, head_dim), allocated once and written in
place; attention reads them, and the keys' transpose, as strided views.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import numerics as nm
from .numerics import Rng, Tensor
from .smiles import MASK_ID, PAD_ID, TokenSequence

# length groups per trunk pass: at most MAX_GROUPS, each of at least MIN_GROUP_ROWS
# rows (a group's per-op overhead outweighs the PAD cells it saves on fewer)
MAX_GROUPS = 4
MIN_GROUP_ROWS = 16


def bounded(default=MISSING, lo=-math.inf, hi=math.inf, open_lo=False, open_hi=False):
    """A config dataclass field whose values lie between ``lo`` and ``hi``, each end excluded when open;
    an end at infinity bounds nothing unless it is open (then the value must be finite there)."""
    return field(default=default, metadata={"bounds": (lo, hi, open_lo, open_hi)})


def _bound_text(lo, hi, open_lo, open_hi) -> str:
    if hi < math.inf:
        return f"lie in {'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"
    finite = "finite and " if open_hi else ""
    if lo > -math.inf:
        return f"be {finite}{'>' if open_lo else '>='} {lo:g}"
    return "be finite" if open_lo else "be finite or -inf"


def check_bounds(cfg) -> None:
    """ValueError naming the first field of the config dataclass ``cfg`` outside its ``bounded`` bounds.

    NaN lies outside every bound, and None (an unset optional field) passes.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "bounds" not in f.metadata or value is None:
            continue
        lo, hi, open_lo, open_hi = f.metadata["bounds"]
        if not ((lo < value if open_lo else lo <= value) and (value < hi if open_hi else value <= hi)):
            raise ValueError(f"{f.name} must {_bound_text(*f.metadata['bounds'])}, got {value}")


@dataclass
class ModelConfig:
    vocab_size: int = bounded(lo=1)
    max_len: int = bounded(128, lo=1)
    embed_dim: int = bounded(256, lo=1)
    n_layers: int = bounded(6, lo=1)
    n_heads: int = bounded(8, lo=1)
    ff_dim: int = bounded(1024, lo=1)
    predictor_hidden_dim: int = bounded(100, lo=1)
    predictor_layers: int = bounded(1, lo=0)

    def __post_init__(self):
        check_bounds(self)
        if self.embed_dim % self.n_heads != 0:
            raise ValueError("embed_dim must be divisible by n_heads")


class Task(enum.Enum):
    GENERATION = "generation"
    PREDICTION = "prediction"


class JointModelParams:
    """All trainable tensors, keyed by name in a fixed order.

    Trunk tensors (embeddings, blocks, final norm, token head) serve both
    masking modes; names under ``pred.`` belong to the predictor MLP. Each
    block's q, k and v projections sit side by side in one (E, 3E)
    ``attn.wqkv`` and one (3E) ``attn.bqkv``, as GPT-2's ``c_attn`` does.
    """

    def __init__(self, config: ModelConfig, rng: Rng | None = None, init_std: float = 0.02):
        self.config = config
        self.tensors: dict[str, Tensor] = {}
        E, F, V = config.embed_dim, config.ff_dim, config.vocab_size
        H = config.predictor_hidden_dim

        def w(name, *shape, parts=1):
            # ``parts`` blocks of ``shape``, drawn one after another and joined side by side
            shape = (parts,) + shape
            data = rng.normal(shape, std=init_std) if rng is not None else np.zeros(shape)
            self.tensors[name] = Tensor(np.hstack(data), name=name)

        def zeros(name, *shape):
            self.tensors[name] = Tensor(np.zeros(shape), name=name)

        def ones(name, *shape):
            self.tensors[name] = Tensor(np.ones(shape), name=name)

        w("tok_emb", V, E)
        w("pos_emb", config.max_len, E)
        for i in range(config.n_layers):
            p = f"h{i}."
            ones(p + "ln1.g", E)
            zeros(p + "ln1.b", E)
            w(p + "attn.wqkv", E, E, parts=3)
            w(p + "attn.wo", E, E)
            zeros(p + "attn.bqkv", 3 * E)
            zeros(p + "attn.bo", E)
            ones(p + "ln2.g", E)
            zeros(p + "ln2.b", E)
            w(p + "ff.w1", E, F)  # feed-forward carries no bias terms
            w(p + "ff.w2", F, E)
        ones("ln_f.g", E)
        zeros("ln_f.b", E)
        w("head.w", E, V)

        dims = [E] + [H] * config.predictor_layers + [1]
        for i in range(len(dims) - 1):
            w(f"pred.l{i}.w", dims[i], dims[i + 1])
            zeros(f"pred.l{i}.b", dims[i + 1])

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def predictor_names(self) -> list[str]:
        return [n for n in self.tensors if n.startswith("pred.")]

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors.values())


def pad_batch(seqs: list[TokenSequence]) -> np.ndarray:
    """Stack sequences into a (B, S) id array, padding to the longest."""
    out = np.full((len(seqs), max(len(s) for s in seqs)), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s.ids
    return out


def sample_mask_vector(ids: np.ndarray, mask_rate: float, rng: Rng) -> np.ndarray:
    """Per-position Bernoulli(mask_rate) mask; specials are never masked."""
    maskable = ids > MASK_ID  # specials sit at fixed ids 0..3
    return (rng.random(ids.shape) < mask_rate) & maskable


def _keep_mask(shape, rate: float, rng: Rng | None) -> np.ndarray | None:
    """The bool dropout mask, True where a float32 uniform is >= rate; None when dropout is off."""
    return None if rate <= 0.0 or rng is None else rng.random_at_least(shape, rate)


class KVCache:
    """Every layer's keys and values for the columns decoded so far (see "Decoding").

    Inference only: the cached arrays are constants to the tape. A cache
    decodes ``rows`` rows with the ``params`` it was made for; ``keep``
    drops rows that stopped decoding.
    """

    def __init__(self, params: JointModelParams, rows: int):
        cfg = params.config
        self.params, self.length = params, 0
        # time-major: (max_len, n_layers, keys|values, rows, n_heads, head_dim)
        self.buf = np.empty((cfg.max_len, cfg.n_layers, 2, rows, cfg.n_heads, cfg.embed_dim // cfg.n_heads),
                            params["tok_emb"].data.dtype)
        self._spare: np.ndarray | None = None  # the buffer the last keep freed, flat

    @property
    def rows(self) -> int:
        return self.buf.shape[3]

    @property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each layer's (keys, values), as (rows, n_heads, length, head_dim) views."""
        return [tuple(kv) for kv in self.buf[:self.length].transpose(1, 2, 3, 4, 0, 5)]

    def extend(self, i: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write layer i's new columns at ``length``; returns views of all its columns, as ``layers``
        does. The last layer's write advances ``length``."""
        t = self.length + k.shape[2]
        kv = self.buf[:t, i].transpose(1, 2, 3, 0, 4)
        kv[0, :, :, self.length:], kv[1, :, :, self.length:] = k, v
        if i == self.buf.shape[1] - 1:
            self.length = t
        return tuple(kv)

    def keep(self, rows: np.ndarray) -> None:
        """Keep the rows where the bool mask ``rows`` is True, in order.

        One gather of the filled columns into the buffer the last keep freed
        (only the first keep allocates), which then holds the cache.
        """
        if len(rows) != self.rows:
            raise ValueError(f"a keep mask of {len(rows)} rows on a KV cache of {self.rows} live rows")
        live = np.flatnonzero(rows)
        shape = self.buf.shape[:3] + (len(live),) + self.buf.shape[4:]
        spare = np.empty(self.buf.size, self.buf.dtype) if self._spare is None else self._spare
        new = spare[:np.prod(shape)].reshape(shape)
        # the indices are in range; mode "raise" would gather into a temporary copy of out first
        np.take(self.buf[:self.length], live, axis=3, out=new[:self.length], mode="clip")
        self.buf, self._spare = new, self.buf.reshape(-1)


def _length_groups(lengths: np.ndarray) -> list[np.ndarray]:
    """Split row indices into groups of similar length, shortest first.

    Rows are sorted by length (stable) and cut into ``min(MAX_GROUPS,
    B // MIN_GROUP_ROWS)`` groups of equal count (at least one);
    neighbours whose longest rows trim to the same width merge. Each group
    lists its rows in ascending order.
    """
    order = np.argsort(lengths, kind="stable")
    width = np.maximum(lengths[order], 1)
    n = max(1, min(MAX_GROUPS, len(lengths) // MIN_GROUP_ROWS))
    groups: list[np.ndarray] = []
    for part in np.array_split(np.arange(len(order)), n):
        if groups and width[groups[-1][-1]] == width[part[-1]]:
            groups[-1] = np.concatenate([groups[-1], part])
        else:
            groups.append(part)
    return [np.sort(order[g]) for g in groups]


def _row_numbers(cells: np.ndarray) -> np.ndarray:
    """Each cell's number among the True cells of the bool array ``cells``, in row-major order, or -1."""
    return np.where(cells, np.cumsum(cells).reshape(cells.shape) - 1, -1)


def _read_positions(reads: np.ndarray) -> np.ndarray:
    """(B, Q) distinct positions per row, its reads first; Q is the most reads in a row, or 1."""
    return np.argsort(~reads, axis=1, kind="stable")[:, :max(int(reads.sum(axis=1).max()), 1)]


def _transformer(
    params: JointModelParams,
    ids: np.ndarray,
    causal: bool,
    dropout: float = 0.0,
    rng: Rng | None = None,
    reads: np.ndarray | None = None,
) -> Tensor:
    """Run the trunk; returns the final-normed rows (N, E) at the cells ``reads``, in row-major order.

    Each row of ``ids`` is one or more non-PAD ids followed only by PAD;
    ValueError otherwise. The position-wise ops run on the token cells and
    attention per length group, with dropout masks drawn per token cell
    (see "Packed cells"). ``reads`` is a (B, S_in) bool mask of non-PAD cells,
    every one by default; N is 0 when it holds none. Given on a causal pass,
    the pass runs only the cells up to each row's last read, in the rows with
    one; on a bidirectional pass, the last block's queries run only there,
    with the masks of the cells they sit at.
    """
    cfg, S_in = params.config, ids.shape[1]
    if S_in > cfg.max_len:
        raise ValueError(f"sequence length {S_in} exceeds max_len {cfg.max_len}")
    real = ids != PAD_ID
    lengths = real.sum(axis=1)
    if not (lengths.all() and np.array_equal(real, np.arange(S_in) < lengths[:, None])):
        raise ValueError("each id row must hold one or more non-PAD ids followed only by PAD")
    if causal and reads is not None:  # no query reads a cell after its row's last read
        last = np.where(reads, np.arange(S_in), -1).max(axis=1)  # each row's last read, or -1
        if last.max() < 0:
            return Tensor(np.zeros((0, cfg.embed_dim)))
        kept, w = last >= 0, int(last.max()) + 1  # the rows with a read, and the cells up to the last one
        real, ids, reads = (a[kept, :w] for a in (real & (np.arange(S_in) <= last[:, None]), ids, reads))
        lengths = real.sum(axis=1)
    S = int(lengths.max())
    groups = _length_groups(lengths)
    widths = [int(lengths[g].max()) for g in groups]
    number = _row_numbers(real)  # each cell's packed row, or -1
    cells = [number[g, :w] for g, w in zip(groups, widths)]
    at = np.nonzero(real)  # each packed row's (row, position)
    tokens, queries = len(at[0]), None

    def drop(x: Tensor) -> Tensor:  # the last block's query rows take the masks of their cells
        keep = _keep_mask((tokens, cfg.embed_dim), dropout, rng)
        return x if keep is None else nm.dropout(x, keep if queries is None else keep[number[at]], dropout)

    x = drop(nm.add(nm.embedding(params["tok_emb"], ids[at]), nm.embedding(params["pos_emb"], at[1])))
    for i in range(cfg.n_layers):
        p = f"h{i}."
        attn = [params[p + "attn." + n] for n in ("wqkv", "bqkv", "wo", "bo")]
        keep = _keep_mask((tokens, cfg.n_heads, S), dropout, rng)  # one row per query token
        if reads is not None and not causal and i == cfg.n_layers - 1:  # nothing later mixes positions
            pos = [_read_positions(reads[g]) for g in groups]  # each group's (rows, Q) query positions
            queries = [number[g[:, None], q] for g, q in zip(groups, pos)]
            rows = np.concatenate([np.repeat(g, q.shape[1]) for g, q in zip(groups, pos)])
            at = (rows, np.concatenate([q.ravel() for q in pos]))  # each query row's (row, position)
        keeps = None if keep is None else [
            np.ascontiguousarray(keep[q, :, :w].transpose(0, 2, 1, 3)) for q, w in zip(queries or cells, widths)]
        y = nm.attention(nm.layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"]), *attn, cells, causal,
                         cfg.n_heads, keeps, queries=queries, rate=dropout)
        if queries is not None:
            x = nm.gather(x, number[at])
        x = nm.add(x, drop(y))
        y = nm.feed_forward(nm.layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"]), params[p + "ff.w1"],
                            params[p + "ff.w2"])
        x = nm.add(x, drop(y))

    h = nm.layer_norm(x, params["ln_f.g"], params["ln_f.b"])
    if queries is not None:
        number = np.full(ids.shape, -1)  # each query cell's row of h
        number[at] = np.arange(len(at[0]))
    return nm.gather(h, number[real if reads is None else reads])


def _decode_step(params: JointModelParams, ids: np.ndarray, cache: KVCache) -> Tensor:
    """Logits (B, S, V) of a decode's new columns ``ids``, on arrays (see "Decoding")."""
    cfg, t0, (B, S) = params.config, cache.length, ids.shape
    if t0 + S > cfg.max_len:
        raise ValueError(f"sequence length {t0 + S} exceeds max_len {cfg.max_len}")
    if nm.recording():
        raise RuntimeError("a KV cache is inference only: its keys and values carry no gradient")
    if params is not cache.params:
        raise ValueError("a KV cache decodes only with the params it was made for")
    if B != cache.rows:
        raise ValueError(f"a step of {B} rows on a KV cache of {cache.rows} live rows")
    w = {n: t.data for n, t in params.tensors.items()}
    ok = nm.check_finite  # every output the tape ops would check, under the same names
    bias = None if S == 1 else nm.causal_mask(S, t0 + S, nm.current_dtype())
    x = ok(ok(w["tok_emb"][ids], "embedding") + ok(w["pos_emb"][t0:t0 + S], "embedding"), "add")
    x = x.reshape(B * S, -1)
    for i in range(cfg.n_layers):
        p = f"h{i}."
        a = ok(nm.layer_norm_fwd(x, w[p + "ln1.g"], w[p + "ln1.b"])[0], "layer_norm")
        q, k, v = nm.split_heads(nm.linear(a, w[p + "attn.wqkv"], w[p + "attn.bqkv"]), B, cfg.n_heads, cfg.embed_dim)
        k, v = cache.extend(i, k, v)
        y = nm.attention_fwd(q, k.swapaxes(-1, -2), v, bias)[2]
        x = ok(x + ok(nm.linear(y, w[p + "attn.wo"], w[p + "attn.bo"]), "attention"), "add")
        f = ok(nm.layer_norm_fwd(x, w[p + "ln2.g"], w[p + "ln2.b"])[0], "layer_norm")
        f = ok(nm.gelu_fwd(ok(f @ w[p + "ff.w1"], "matmul"))[0], "gelu")
        x = ok(x + ok(f @ w[p + "ff.w2"], "matmul"), "add")
    h = ok(nm.layer_norm_fwd(x, w["ln_f.g"], w["ln_f.b"])[0], "layer_norm")
    return Tensor(ok(h @ w["head.w"], "matmul").reshape(B, S, -1), name="matmul")


def forward_decoder(
    params: JointModelParams,
    ids: np.ndarray,
    dropout: float = 0.0,
    rng: Rng | None = None,
    cache: KVCache | None = None,
) -> Tensor:
    """Causally masked forward; logits[i] depends only on tokens 0..i.

    With a ``cache``, ``ids`` are the columns after the cached ones and
    their keys and values are written into it (see ``_decode_step``).
    """
    if cache is not None:
        return _decode_step(params, ids, cache)
    h = _transformer(params, ids, causal=True, dropout=dropout, rng=rng)
    return nm.gather(nm.matmul(h, params["head.w"]), _row_numbers(ids != PAD_ID))


def forward_encoder(params: JointModelParams, ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """Bidirectional forward, without dropout, with MASK-token substitution at hidden positions."""
    h = _transformer(params, np.where(mask, MASK_ID, ids), causal=False)
    return nm.gather(nm.matmul(h, params["head.w"]), _row_numbers(ids != PAD_ID))


def forward_predictor(
    params: JointModelParams,
    ids: np.ndarray,
    dropout: float = 0.0,
    rng: Rng | None = None,
) -> Tensor:
    """Predicted means, shape (B, 1), from an all-visible bidirectional pass.

    The first-position hidden state goes through the predictor MLP.
    """
    cfg = params.config
    first = np.broadcast_to(np.arange(ids.shape[1]) == 0, ids.shape)
    z = _transformer(params, ids, causal=False, dropout=dropout, rng=rng, reads=first)
    for i in range(cfg.predictor_layers):
        z = nm.gelu(nm.add(nm.matmul(z, params[f"pred.l{i}.w"]), params[f"pred.l{i}.b"]))
    last = cfg.predictor_layers
    return nm.add(nm.matmul(z, params[f"pred.l{last}.w"]), params[f"pred.l{last}.b"])


def predict_target(params: JointModelParams, ids: np.ndarray) -> np.ndarray:
    """Predicted target means (B,): ``forward_predictor`` without dropout, recording nothing."""
    if nm.recording():
        raise RuntimeError("predict_target is inference only: record forward_predictor instead")
    return forward_predictor(params, ids).data[:, 0]


def loss_decoder(
    params: JointModelParams,
    ids: np.ndarray,
    dropout: float = 0.0,
    rng: Rng | None = None,
) -> Tensor:
    """Mean per-token next-token NLL under causal masking, scored only at the cells with a next token."""
    scored = np.pad(ids[:, 1:] != PAD_ID, [(0, 0), (0, 1)])  # the cells with a next token
    h = _transformer(params, ids, causal=True, dropout=dropout, rng=rng, reads=scored)
    return nm.cross_entropy(nm.matmul(h, params["head.w"]), np.roll(ids, -1, axis=1)[scored])


def loss_encoder(
    params: JointModelParams,
    ids: np.ndarray,
    mask: np.ndarray,
    dropout: float = 0.0,
    rng: Rng | None = None,
) -> Tensor:
    """Mean NLL of the true tokens at masked positions; 0 if none masked."""
    if not mask.any():
        return Tensor(0.0, name="encoder_loss_empty")
    h = _transformer(params, np.where(mask, MASK_ID, ids), causal=False, dropout=dropout, rng=rng,
                     reads=mask)
    return nm.cross_entropy(nm.matmul(h, params["head.w"]), ids[mask])


def loss_prediction(
    params: JointModelParams,
    ids: np.ndarray,
    y: np.ndarray,
    dropout: float = 0.0,
    rng: Rng | None = None,
) -> Tensor:
    """Target NLL up to a constant: mean 0.5*(mean - y)^2."""
    out = forward_predictor(params, ids, dropout=dropout, rng=rng)
    diff = nm.sub(out, np.asarray(y)[:, None])
    return nm.mul(nm.mean_all(nm.mul(diff, diff)), 0.5)


def loss_joint(
    params: JointModelParams,
    ids: np.ndarray,
    y: np.ndarray | None,
    mask: np.ndarray | None,
    task: Task,
    dropout: float = 0.0,
    rng: Rng | None = None,
) -> Tensor:
    """Per-step loss for the chosen branch.

    Generation: decoder NLL (never touches the predictor head).
    Prediction: encoder loss plus the prediction term when targets exist.
    """
    if task is Task.GENERATION:
        return loss_decoder(params, ids, dropout=dropout, rng=rng)
    if mask is None:
        raise ValueError("prediction branch needs a mask vector")
    loss = loss_encoder(params, ids, mask, dropout=dropout, rng=rng)
    if y is not None:
        loss = nm.add(loss, loss_prediction(params, ids, y, dropout=dropout, rng=rng))
    return loss
