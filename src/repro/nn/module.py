"""Base class for neural-network modules.

Modules implement ``forward(x)`` and ``backward(grad_output)``; ``backward``
must be called after ``forward`` with the gradient of the loss with respect
to the module output, assigns parameter gradients (each call overwrites the
last one's, so no ``zero_grad`` is needed between steps), and returns the
gradient with respect to the module input.

The federated algorithms never look inside a model: they exchange flat
parameter vectors produced by :meth:`get_flat_params` / consumed by
:meth:`set_flat_params`, mirroring how the paper treats the model as a single
vector :math:`\\theta \\in \\mathbb{R}^d`.  The model stores itself that way
too: see :class:`Module` and ``docs/architecture.md`` ("Model storage").
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.parameter import FlatStorage, Parameter


class _FlatView:
    """A module's cached parameter list and its slice of a flat storage."""

    __slots__ = ("params", "storage", "value", "grad")

    def __init__(
        self,
        params: list[Parameter],
        storage: FlatStorage,
        value: np.ndarray,
        grad: np.ndarray,
    ):
        self.params = params
        self.storage = storage
        self.value = value
        self.grad = grad


class Module:
    """Base class with parameter traversal and flat packing helpers.

    A module's parameters live in one contiguous value vector and one
    gradient vector (:class:`~repro.nn.parameter.FlatStorage`); each
    ``Parameter.value`` / ``.grad`` is a reshaped view into them.  The
    parameters are moved there on the first flat access, so loading a flat
    vector is one copy and reading one back is one copy — with no per-step
    walk over the attribute tree.  :attr:`flat_value` / :attr:`flat_grad`
    are the vectors themselves: local SGD steps on them in place.
    """

    #: Built lazily by :meth:`_flat`; never part of a copy or pickle.
    _flat_view: _FlatView | None = None

    #: How many client axes lead this layer's parameters and inputs: 0 for
    #: a model of its own, 1 on the private copies a
    #: :class:`repro.nn.batched.BatchedModel` binds to a ``(C, d)`` stack.
    #: A fact about the storage, set by whoever binds it — not an option.
    _client_axes: int = 0

    # ------------------------------------------------------------------ #
    # Forward / backward interface
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the module output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    def backward_params(self, grad_output: np.ndarray) -> None:
        """Assign parameter gradients when nobody needs the input gradient.

        Same parameter gradients as :meth:`backward`, bit for bit; layers
        override it to skip the work that only produces the return value.
        """
        self.backward(grad_output)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------ #
    # Parameter traversal
    # ------------------------------------------------------------------ #
    def children(self) -> Iterator["Module"]:
        """Yield direct sub-modules (attributes that are Modules)."""
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def _collect_parameters(self) -> list[Parameter]:
        """Walk the attribute tree for every trainable parameter, in order."""
        params: list[Parameter] = []
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value._collect_parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Parameter):
                        params.append(item)
                    elif isinstance(item, Module):
                        params.extend(item._collect_parameters())
        return params

    def _flat(self) -> _FlatView:
        """This module's slice of flat storage, (re)built when missing or stale."""
        view = self._flat_view
        if view is None or view.storage.stale:
            view = self._flat_view = self._build_flat()
        return view

    def _build_flat(self) -> _FlatView:
        params = self._collect_parameters()
        size = sum(param.size for param in params)
        # A sub-module of an already flat-backed model finds its parameters
        # side by side in the parent's storage and takes a slice of it, so
        # flat access on a layer never detaches the layer from its model.
        home = params[0]._home if params else None
        storage, start = home if home and not home[0].stale else (None, 0)
        offset = start
        for param in params:
            if param._home != (storage, offset):
                storage = None
                break
            offset += param.size
        if storage is None:
            storage, start, offset = FlatStorage(size), 0, 0
            for param in params:
                param.rehome(storage, offset)
                offset += param.size
        stop = start + size
        return _FlatView(
            params, storage, storage.value[start:stop], storage.grad[start:stop]
        )

    def _structure_changed(self) -> None:
        """Forget the flat layout after a parameter was added or removed.

        Marks every storage that holds one of this module's parameters
        stale, so an enclosing model caching the old layout rebuilds too.
        """
        self._flat_view = None
        for param in self._collect_parameters():
            if param._home is not None:
                param._home[0].stale = True

    def __getstate__(self) -> dict:
        # Copies and pickles carry detached parameter arrays; views into the
        # original's storage would make the copy train the wrong buffers.
        state = self.__dict__.copy()
        state.pop("_flat_view", None)
        return state

    def parameters(self) -> list[Parameter]:
        """Return every trainable parameter in a deterministic order."""
        return list(self._flat().params)

    def zero_grad(self) -> None:
        """Reset every parameter gradient to zero."""
        self._flat().grad.fill(0.0)

    @property
    def num_params(self) -> int:
        """Total number of scalar trainable parameters."""
        return self._flat().value.size

    @property
    def flat_value(self) -> np.ndarray:
        """The live value vector (not a copy): writes move the parameters."""
        return self._flat().value

    @property
    def flat_grad(self) -> np.ndarray:
        """The live gradient vector, overwritten by the next backward pass."""
        return self._flat().grad

    # ------------------------------------------------------------------ #
    # Flat packing (the representation exchanged in federated rounds)
    # ------------------------------------------------------------------ #
    def get_flat_params(self) -> np.ndarray:
        """Copy of every parameter value as one flat float64 vector."""
        return self._flat().value.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        """Load a flat vector produced by :meth:`get_flat_params`."""
        self._load_flat(self._flat().value, flat, "parameter")

    def get_flat_grad(self) -> np.ndarray:
        """Copy of every parameter gradient as one flat vector."""
        return self._flat().grad.copy()

    def set_flat_grad(self, flat: np.ndarray) -> None:
        """Load a flat gradient vector into the parameter ``grad`` buffers."""
        self._load_flat(self._flat().grad, flat, "gradient")

    @staticmethod
    def _load_flat(target: np.ndarray, flat: np.ndarray, what: str) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != target.shape:
            raise ShapeError(
                f"flat {what} vector must have shape {target.shape}, "
                f"got {flat.shape}"
            )
        np.copyto(target, flat)
