"""``repro.nn`` — a from-scratch autograd + neural-network substrate.

This subpackage replaces PyTorch for the purposes of this reproduction (the
execution environment has no GPU frameworks).  It provides:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autodiff on numpy arrays;
* layers (:class:`Linear`, :class:`MLP`, :class:`LayerNorm`, attention, GRU);
* losses (cross-entropy, soft-target cross-entropy, BCE, MSE);
* optimisers (SGD, Adam) and gradient clipping;
* state-dict (de)serialisation.

Gradient correctness is property-tested against finite differences.
"""

from repro.nn import functional
from repro.nn.attention import MultiHeadAttention, scaled_dot_product_attention
from repro.nn.layers import (
    MLP,
    Dropout,
    Embedding,
    Identity,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Sequential,
    get_activation,
)
from repro.nn.loss import bce_with_logits, cross_entropy, mse_loss, soft_cross_entropy
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.rnn import GRUCell, RNNCell
from repro.nn.serialize import (
    archive_dtype,
    load_into,
    load_state_dict,
    save_state_dict,
)
from repro.nn.tensor import (
    Tensor,
    as_tensor,
    concat,
    default_dtype,
    get_default_dtype,
    no_grad,
    set_default_dtype,
    stack,
    where,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "where",
    "no_grad",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "LayerNorm",
    "Dropout",
    "Embedding",
    "Identity",
    "Sequential",
    "get_activation",
    "MultiHeadAttention",
    "scaled_dot_product_attention",
    "GRUCell",
    "RNNCell",
    "cross_entropy",
    "soft_cross_entropy",
    "bce_with_logits",
    "mse_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_state_dict",
    "load_state_dict",
    "load_into",
    "archive_dtype",
]
