"""Trainable parameter container.

A :class:`Parameter` holds a value array and a gradient array of identical
shape (layers assign the gradient on every backward pass).  Modules expose
their parameters through :meth:`repro.nn.module.Module.parameters`, and the
federated algorithms view them as one flat vector via the packing helpers on
``Module``.

Once a model has been asked for its flat vector, every parameter's ``value``
and ``grad`` are reshaped *views* into the model's :class:`FlatStorage`, so
they must only ever be mutated in place (``param.value -= ...``,
``param.assign(...)``, ``np.copyto``) — rebinding ``param.value = array``
would detach the parameter from the vector the algorithms read and write.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError


class FlatStorage:
    """One contiguous value vector and one gradient vector for a model.

    ``stale`` is raised when a parameter that lived here is moved to another
    storage or the owning model's structure changes; modules holding views
    of a stale storage rebuild them on their next flat access.
    """

    __slots__ = ("value", "grad", "stale")

    def __init__(self, size: int):
        self.value = np.empty(size, dtype=np.float64)
        self.grad = np.empty(size, dtype=np.float64)
        self.stale = False


class Parameter:
    """A named trainable tensor with an attached gradient buffer."""

    #: ``(storage, offset)`` once the parameter lives in a model's flat
    #: storage.  Dropped by copies and pickles: the copied arrays are
    #: detached, so the copy's model re-homes them on its first flat access.
    _home: tuple[FlatStorage, int] | None = None

    #: True on the copies a :class:`repro.nn.batched.BatchedModel` keeps:
    #: their ``value`` / ``grad`` are rebound, stack by stack, to
    #: ``(C, *shape)`` views of the caller's parameter rows and of the
    #: model's gradient workspace, and they never move into a flat storage.
    stacked = False

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying value array."""
        return self.value.shape

    @property
    def size(self) -> int:
        """Number of scalar entries."""
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the gradient to zero in place."""
        self.grad.fill(0.0)

    def assign(self, new_value: np.ndarray) -> None:
        """Overwrite the value in place, validating the shape."""
        new_value = np.asarray(new_value, dtype=np.float64)
        if new_value.shape != self.value.shape:
            raise ShapeError(
                f"cannot assign array of shape {new_value.shape} to parameter "
                f"{self.name!r} of shape {self.value.shape}"
            )
        np.copyto(self.value, new_value)

    def rehome(self, storage: FlatStorage, offset: int) -> None:
        """Move value and gradient into ``storage`` at ``offset``, contents kept."""
        if self.stacked:
            # It would copy every client's parameters into a vector of the
            # layer's own and detach the layer from the rows it trains.
            raise ShapeError(
                f"parameter {self.name!r} is bound to a stack of parameter "
                f"rows and has no place in a flat vector"
            )
        if self._home is not None:
            self._home[0].stale = True
        stop = offset + self.size
        value = storage.value[offset:stop].reshape(self.shape)
        grad = storage.grad[offset:stop].reshape(self.shape)
        np.copyto(value, self.value)
        np.copyto(grad, self.grad)
        self.value, self.grad = value, grad
        self._home = (storage, offset)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_home", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"
