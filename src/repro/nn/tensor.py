"""A reverse-mode automatic differentiation engine on numpy arrays.

This module is the stand-in for PyTorch in this reproduction (see DESIGN.md
section 2).  It implements a :class:`Tensor` wrapping an ``ndarray`` together
with a dynamically built computation graph.  Gradients are validated against
central finite differences in ``tests/nn/test_gradcheck.py``.

Only the operations needed by the paper's models are implemented, but they
are implemented fully: broadcasting, batched matmul, fancy indexing with
scatter-add gradients, and reductions with ``axis``/``keepdims``.

The backend's working precision is runtime-configurable: float64 (the
default, used for bit-exact reproduction) or float32 (the fast path for
SLIM/baseline training).  Use :func:`set_default_dtype` or the
:func:`default_dtype` context manager; tensors created afterwards — and the
parameters of layers constructed afterwards — use the active dtype.

"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Backwards-compatible alias for the boot-time default; prefer
#: :func:`get_default_dtype`, which reflects runtime reconfiguration.
DEFAULT_DTYPE = np.float64

_SUPPORTED_DTYPES = (np.float32, np.float64)

_default_dtype = np.dtype(DEFAULT_DTYPE)

_GRAD_ENABLED = True


def _coerce_dtype(dtype) -> np.dtype:
    if dtype is None:
        # np.dtype(None) would silently mean float64; callers using None as
        # a "keep the ambient precision" sentinel must not reach this point.
        raise ValueError("unsupported default dtype None; choose float32 or float64")
    if isinstance(dtype, str):
        dtype = {"float32": np.float32, "float64": np.float64}.get(dtype, dtype)
    try:
        resolved = np.dtype(dtype)
    except TypeError as error:
        raise ValueError(
            f"unsupported default dtype {dtype!r}; choose float32 or float64"
        ) from error
    if resolved not in (np.dtype(d) for d in _SUPPORTED_DTYPES):
        raise ValueError(
            f"unsupported default dtype {dtype!r}; choose float32 or float64"
        )
    return resolved


def get_default_dtype() -> np.dtype:
    """The dtype newly created tensors (and layer parameters) use."""
    return _default_dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the backend working precision; returns the previous dtype.

    Accepts ``"float32"``/``"float64"`` strings, numpy dtypes, or scalar
    types.  Existing tensors are unaffected; mixing precisions across a
    model boundary generally promotes to float64, so switch before
    constructing the model.
    """
    global _default_dtype
    previous = _default_dtype
    _default_dtype = _coerce_dtype(dtype)
    return previous


@contextlib.contextmanager
def default_dtype(dtype) -> Iterator[np.dtype]:
    """Temporarily switch the backend precision inside a ``with`` block.

    Re-entrant and exception-safe: the previous dtype is captured by value
    and restored in a ``finally`` block, so nesting to any depth — or a
    raising body — always unwinds to the dtype that was active on entry.
    The switch is **process-global**, not thread-local: other threads see
    it too.
    """
    previous = set_default_dtype(dtype)
    try:
        yield _default_dtype
    finally:
        set_default_dtype(previous)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the ``with`` block (like torch.no_grad)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Summing over the axes that were expanded is the adjoint of broadcasting.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


TensorLike = Union["Tensor", np.ndarray, float, int]


def _as_array(value: TensorLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype or _default_dtype)


def as_tensor(value: TensorLike) -> "Tensor":
    """Coerce arrays/scalars to constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Stored as the active default dtype
        (see :func:`set_default_dtype`), so all tensors in a model share one
        precision.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` on backward.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_pending_grads",
        "name",
    )

    def __init__(self, data, requires_grad: bool = False, name: str = "") -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype != _default_dtype:
            arr = arr.astype(_default_dtype)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a single-element tensor, got {self.shape}"
            )
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing this tensor's data."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result node, attaching the backward closure when needed."""
        needs_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1.0, which requires this tensor to be a scalar.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad.
                node._accumulate(node_grad)
                continue
            if node._backward is not None:
                node._run_backward(node_grad, grads)

    def _run_backward(self, node_grad: np.ndarray, grads: dict) -> None:
        # The backward closure writes parent grads via _send.
        self._pending_grads = grads  # type: ignore[attr-defined]
        assert self._backward is not None
        self._backward(node_grad)
        del self._pending_grads  # type: ignore[attr-defined]

    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Route ``grad`` to ``parent`` during backward (internal)."""
        if not parent.requires_grad:
            return
        grads = self._pending_grads  # type: ignore[attr-defined]
        key = id(parent)
        if key in grads:
            grads[key] = grads[key] + grad
        else:
            grads[key] = np.asarray(grad, dtype=parent.data.dtype)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray, a=self, b=other_t) -> None:
            out._send(a, _unbroadcast(grad, a.shape))
            out._send(b, _unbroadcast(grad, b.shape))

        out = Tensor._make(data, (self, other_t), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, -grad)

        out = Tensor._make(-self.data, (self,), backward)
        return out

    def __sub__(self, other: TensorLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray, a=self, b=other_t) -> None:
            out._send(a, _unbroadcast(grad * b.data, a.shape))
            out._send(b, _unbroadcast(grad * a.data, b.shape))

        out = Tensor._make(data, (self, other_t), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray, a=self, b=other_t) -> None:
            out._send(a, _unbroadcast(grad / b.data, a.shape))
            out._send(b, _unbroadcast(-grad * a.data / (b.data**2), b.shape))

        out = Tensor._make(data, (self, other_t), backward)
        return out

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray, a=self, p=exponent) -> None:
            out._send(a, grad * p * a.data ** (p - 1))

        out = Tensor._make(data, (self,), backward)
        return out

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other_t = as_tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray, a=self, b=other_t) -> None:
            a_data, b_data = a.data, b.data
            if a_data.ndim == 1 and b_data.ndim == 1:
                out._send(a, grad * b_data)
                out._send(b, grad * a_data)
                return
            if a_data.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = (grad[..., None, :] * b_data).sum(axis=-1)
                out._send(a, _unbroadcast(ga, a.shape))
                gb = a_data[..., :, None] * grad[..., None, :]
                out._send(b, _unbroadcast(gb, b.shape))
                return
            if b_data.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = grad[..., :, None] * b_data
                out._send(a, _unbroadcast(ga, a.shape))
                gb = (grad[..., :, None] * a_data).sum(axis=tuple(range(grad.ndim)))
                out._send(b, _unbroadcast(gb, b.shape))
                return
            ga = grad @ np.swapaxes(b_data, -1, -2)
            gb = np.swapaxes(a_data, -1, -2) @ grad
            out._send(a, _unbroadcast(ga, a.shape))
            out._send(b, _unbroadcast(gb, b.shape))

        out = Tensor._make(data, (self, other_t), backward)
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self, ax=axis, kd=keepdims) -> None:
            g = grad
            if ax is not None and not kd:
                g = np.expand_dims(g, axis=ax)
            out._send(a, np.broadcast_to(g, a.shape).copy())

        out = Tensor._make(data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self, ax=axis, kd=keepdims) -> None:
            g = grad
            d = data
            if not kd:
                g = np.expand_dims(g, axis=ax)
                d = np.expand_dims(d, axis=ax)
            mask = (a.data == d).astype(a.data.dtype)
            # Split gradient evenly among ties to keep the op well defined.
            counts = mask.sum(axis=ax, keepdims=True)
            out._send(a, g * mask / counts)

        out = Tensor._make(data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray, a=self) -> None:
            out._send(a, grad.reshape(a.shape))

        out = Tensor._make(data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray, a=self, inv=tuple(inverse)) -> None:
            out._send(a, grad.transpose(inv))

        out = Tensor._make(data, (self,), backward)
        return out

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray, a=self, idx=index) -> None:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, grad)
            out._send(a, full)

        out = Tensor._make(data, (self,), backward)
        return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing by split."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            out._send(tensor, grad[tuple(slicer)])

    out = Tensor._make(data, tensors, backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            out._send(tensor, np.squeeze(part, axis=axis))

    out = Tensor._make(data, tensors, backward)
    return out


def where(condition: np.ndarray, x: TensorLike, y: TensorLike) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    x_t, y_t = as_tensor(x), as_tensor(y)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, x_t.data, y_t.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x_t, _unbroadcast(grad * cond, x_t.shape))
        out._send(y_t, _unbroadcast(grad * (~cond), y_t.shape))

    out = Tensor._make(data, (x_t, y_t), backward)
    return out
