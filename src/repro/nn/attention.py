"""Scaled dot-product and multi-head attention.

Used by the TGAT, DySAT, and DyGFormer baselines.  Shapes follow the
``(batch, sequence, feature)`` convention throughout.  The score and
value matmuls are batched 3-D GEMMs through ``Tensor.__matmul__``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, new_rng

_NEG_INF = -1e9


def scaled_dot_product_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Attention(Q, K, V) = softmax(Q Kᵀ / sqrt(d)) V.

    ``mask`` is a boolean array broadcastable to the score shape; True marks
    positions to *exclude*.  Rows that are fully masked produce a uniform
    distribution over the (masked) keys, which the caller is expected to
    neutralise with an output mask; this matches how TGNN libraries handle
    nodes without temporal neighbours.
    """
    d_k = query.shape[-1]
    scores = (query @ key.swapaxes(-1, -2)) * (1.0 / np.sqrt(d_k))
    if mask is not None:
        scores = F.masked_fill(scores, mask, _NEG_INF)
    weights = F.softmax(scores, axis=-1)
    return weights @ value


class MultiHeadAttention(Module):
    """Multi-head attention with separate Q/K/V input dimensions."""

    def __init__(
        self,
        query_dim: int,
        key_dim: int,
        model_dim: int,
        num_heads: int = 2,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError(
                f"model_dim {model_dim} must be divisible by num_heads {num_heads}"
            )
        rng = new_rng(rng)
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.w_query = Linear(query_dim, model_dim, rng=rng)
        self.w_key = Linear(key_dim, model_dim, rng=rng)
        self.w_value = Linear(key_dim, model_dim, rng=rng)
        self.w_out = Linear(model_dim, model_dim, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(
            (0, 2, 1, 3)
        )

    def forward(
        self,
        query: Tensor,
        key: Tensor,
        value: Tensor,
        mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """``query``: (B, Lq, Dq); ``key``/``value``: (B, Lk, Dk).

        ``mask``: optional boolean (B, Lk) array, True = exclude that key.
        Returns (B, Lq, model_dim).
        """
        q = self._split_heads(self.w_query(query))
        k = self._split_heads(self.w_key(key))
        v = self._split_heads(self.w_value(value))
        score_mask = None
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            score_mask = mask[:, None, None, :]  # broadcast over heads and Lq
        attended = scaled_dot_product_attention(q, k, v, mask=score_mask)
        batch, _, seq_q, _ = attended.shape
        merged = attended.transpose((0, 2, 1, 3)).reshape(
            batch, seq_q, self.model_dim
        )
        return self.w_out(merged)
