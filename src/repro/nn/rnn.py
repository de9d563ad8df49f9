"""Recurrent cells used by the JODIE and TGN baselines.

Each gate is a :class:`~repro.nn.layers.Linear`.
"""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, concat
from repro.utils.rng import SeedLike, new_rng


class RNNCell(Module):
    """Vanilla tanh recurrence: h' = tanh(W_x x + W_h h + b)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.x2h = Linear(input_dim, hidden_dim, rng=rng)
        self.h2h = Linear(hidden_dim, hidden_dim, bias=False, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return F.tanh(self.x2h(x) + self.h2h(h))


class GRUCell(Module):
    """Gated recurrent unit (Cho et al., 2014), the TGN memory updater."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: SeedLike = None) -> None:
        super().__init__()
        rng = new_rng(rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.gates = Linear(input_dim + hidden_dim, 2 * hidden_dim, rng=rng)
        self.candidate_x = Linear(input_dim, hidden_dim, rng=rng)
        self.candidate_h = Linear(hidden_dim, hidden_dim, bias=False, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        combined = concat([x, h], axis=-1)
        gate_logits = self.gates(combined)
        reset = F.sigmoid(gate_logits[..., : self.hidden_dim])
        update = F.sigmoid(gate_logits[..., self.hidden_dim :])
        candidate = F.tanh(self.candidate_x(x) + self.candidate_h(reset * h))
        return update * h + (1.0 - update) * candidate
