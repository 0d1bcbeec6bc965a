"""Adversarial client behaviours and robust aggregation defenses.

The faults layer (:mod:`repro.systems.faults`) models clients that fail
*honestly* — they crash or straggle, but whatever they upload is what they
trained.  This module models clients that *lie*: byzantine participants
whose uploads are corrupted after local training but before transport, and
data poisoners that train faithfully on deliberately mislabelled data.

Two registries live here:

* :data:`ADVERSARY_REGISTRY` — client behaviours.  ``sign_flip`` reverses
  the update direction, ``gaussian_noise`` drowns it in noise, ``scale``
  boosts it (the model-replacement attack; a negative factor gives the
  inner-product-manipulation variant), and ``label_flip`` poisons the
  client's local dataset (labels ``y -> K-1-y``) and then trains honestly.
* :data:`DEFENSE_REGISTRY` — robust server-side aggregation rules applied
  to the cohort's update vectors before the algorithm's own aggregation:
  coordinate-wise ``median``, ``trimmed_mean``, and ``norm_clip`` (clip to
  the cohort's median update norm).

Corruption happens at the :class:`~repro.federated.rounds.ClientWorkPipeline`
seam on the coordinator thread, with one RNG stream per ``(client, round)``
derived from the simulation's :class:`~repro.utils.rng.RngFactory`
(``adversary/round-R/client-C``), so a corrupted run is bit-identical
across the serial, thread, and vectorized executors and across
``max_workers`` settings.

Defenses decorate the algorithm's accumulator (:class:`DefendedAlgorithm`,
:class:`ScreenedAccumulator`): the round's cohort is buffered, screened once
at the root, and then summed by the algorithm's own reduction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.algorithms.base import FederatedAlgorithm, UpdateAccumulator
from repro.exceptions import ConfigurationError
from repro.obs.runtime import get_obs

if TYPE_CHECKING:  # imported lazily at runtime to avoid import cycles
    from repro.datasets.base import Dataset
    from repro.federated.messages import ClientMessage

#: Payload vectors that *are* update directions (corrupted in place).
_DIRECTION_KEYS = frozenset({"delta", "gradient", "delta_params", "delta_control"})

#: Payload vectors that are whole models (corrupted as theta + f(v - theta)).
_MODEL_KEYS = frozenset({"params", "augmented_model"})


# --------------------------------------------------------------------------- #
# Behaviours
# --------------------------------------------------------------------------- #
class AdversaryBehaviour:
    """One way a malicious client perturbs its update direction."""

    name = "base"
    #: Whether the behaviour rewrites uploads (byzantine); data poisoners
    #: corrupt the training data instead and upload honestly.
    corrupts_updates = True

    def corrupt_direction(
        self, direction: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return the corrupted update direction (must not mutate the input)."""
        raise NotImplementedError

    def poison_dataset(self, dataset: "Dataset") -> "Dataset":
        """Return a poisoned copy of a client's dataset (data poisoners only)."""
        raise ConfigurationError(
            f"adversary {self.name!r} does not poison data"
        )  # pragma: no cover - guarded by corrupts_updates


class SignFlipAdversary(AdversaryBehaviour):
    """Upload the *negated* update direction, boosted by ``scale``.

    The default boost (5x) is the static sign-flip attack the robust
    aggregation literature evaluates against: strong enough that a plain
    mean with 20% attackers moves the model *up* the loss surface, while
    rank-based defenses shrug it off.
    """

    name = "sign_flip"

    def __init__(self, scale: float = 5.0):
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = scale

    def corrupt_direction(
        self, direction: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return -self.scale * direction


class GaussianNoiseAdversary(AdversaryBehaviour):
    """Drown the honest direction in isotropic gaussian noise."""

    name = "gaussian_noise"

    def __init__(self, sigma: float = 1.0):
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self.sigma = sigma

    def corrupt_direction(
        self, direction: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return direction + self.sigma * rng.standard_normal(direction.size)


class ScaleAdversary(AdversaryBehaviour):
    """Model replacement: boost the honest direction by ``factor``.

    With a large positive factor one adversary dominates a plain mean
    (Bagdasaryan et al.'s model replacement); a negative factor yields the
    inner-product-manipulation (IPM) attack that points the aggregate away
    from the descent direction while staying norm-inconspicuous.
    """

    name = "scale"

    def __init__(self, factor: float = 10.0):
        if factor == 0:
            raise ConfigurationError("factor must be non-zero")
        self.factor = factor

    def corrupt_direction(
        self, direction: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return self.factor * direction


class LabelFlipAdversary(AdversaryBehaviour):
    """Data poisoning: train honestly on labels flipped ``y -> K-1-y``.

    ``num_classes`` pins the label permutation; ``None`` derives it per
    client dataset (correct whenever each poisoned client holds the top
    class, e.g. IID partitions — pass it explicitly for shard partitions).
    """

    name = "label_flip"
    corrupts_updates = False

    def __init__(self, num_classes: int | None = None):
        if num_classes is not None and num_classes < 2:
            raise ConfigurationError(
                f"num_classes must be at least 2, got {num_classes}"
            )
        self.num_classes = num_classes

    def poison_dataset(self, dataset: "Dataset") -> "Dataset":
        from repro.datasets.base import Dataset

        classes = (
            self.num_classes if self.num_classes is not None else dataset.num_classes
        )
        return Dataset(
            features=dataset.features,
            labels=(classes - 1) - dataset.labels,
            name=f"{dataset.name}-labelflip",
        )


ADVERSARY_REGISTRY: dict[str, type[AdversaryBehaviour]] = {
    "sign_flip": SignFlipAdversary,
    "gaussian_noise": GaussianNoiseAdversary,
    "scale": ScaleAdversary,
    "label_flip": LabelFlipAdversary,
}


# --------------------------------------------------------------------------- #
# The adversary model the pipeline consumes
# --------------------------------------------------------------------------- #
class AdversaryModel:
    """A behaviour plus the fraction of the population that exhibits it.

    The adversarial subset is drawn once per simulation from the
    ``adversary-selection`` RNG stream (``round(fraction * m)`` clients,
    without replacement), so which clients are malicious is a property of
    the seed, not of the executor or round schedule.
    """

    def __init__(self, behaviour: AdversaryBehaviour, fraction: float):
        if not 0 < fraction <= 1:
            raise ConfigurationError(
                f"adversary fraction must lie in (0, 1], got {fraction}"
            )
        self.behaviour = behaviour
        self.fraction = fraction

    @property
    def name(self) -> str:
        return self.behaviour.name

    @property
    def corrupts_updates(self) -> bool:
        return self.behaviour.corrupts_updates

    @property
    def poisons_data(self) -> bool:
        return not self.behaviour.corrupts_updates

    def select(self, num_clients: int, rng: np.random.Generator) -> frozenset[int]:
        """The adversarial client indices for a population of ``num_clients``."""
        count = int(round(self.fraction * num_clients))
        count = min(max(count, 1), num_clients)
        chosen = rng.choice(num_clients, size=count, replace=False)
        return frozenset(int(index) for index in chosen)

    def poison_dataset(self, dataset: "Dataset") -> "Dataset":
        return self.behaviour.poison_dataset(dataset)

    def corrupt_message(
        self,
        message: "ClientMessage",
        global_params: np.ndarray,
        rng: np.random.Generator,
    ) -> "ClientMessage":
        """Return a corrupted copy of one upload (the original is untouched).

        Direction payloads (deltas, gradients, control deltas) are corrupted
        directly; whole-model payloads are corrupted in direction space
        (``theta + corrupt(v - theta)``) so every behaviour has the same
        geometric meaning regardless of the algorithm's wire format.
        """
        from repro.federated.messages import ClientMessage

        payload: dict[str, np.ndarray] = {}
        for key, vector in message.payload.items():
            if key in _MODEL_KEYS:
                direction = vector - global_params
                payload[key] = global_params + self.behaviour.corrupt_direction(
                    direction, rng
                )
            elif key in _DIRECTION_KEYS:
                payload[key] = self.behaviour.corrupt_direction(vector, rng)
            else:
                raise ConfigurationError(
                    f"adversary {self.name!r} does not know whether payload "
                    f"key {key!r} is a direction or a model; extend "
                    f"repro.systems.adversaries with its semantics"
                )
        return ClientMessage(
            client_id=message.client_id,
            payload=payload,
            num_samples=message.num_samples,
            local_epochs=message.local_epochs,
            train_loss=message.train_loss,
            metadata=dict(message.metadata),
        )


def build_adversary(name: str, fraction: float, **kwargs) -> AdversaryModel:
    """Instantiate an :class:`AdversaryModel` by behaviour registry name."""
    key = name.lower()
    if key not in ADVERSARY_REGISTRY:
        raise ConfigurationError(
            f"unknown adversary {name!r}; available: {sorted(ADVERSARY_REGISTRY)}"
        )
    return AdversaryModel(ADVERSARY_REGISTRY[key](**kwargs), fraction)


# --------------------------------------------------------------------------- #
# Defenses
# --------------------------------------------------------------------------- #
class Defense:
    """A robust transform over the cohort's stacked update vectors.

    ``apply`` receives an ``(n, d)`` array of per-client update directions
    for one payload key and returns the defended ``(n, d)`` array plus how
    many of the ``n`` contributions it rejected (for the
    ``defense.rejected_updates`` counter).  Combining defenses replace every
    row with the robust combined vector — the algorithm's own mean/sum then
    reproduces exactly the robust aggregate while its participation-scaled
    step sizes still see the true cohort size.
    """

    name = "base"

    def apply(self, vectors: np.ndarray) -> tuple[np.ndarray, int]:
        raise NotImplementedError


class CoordinateMedianDefense(Defense):
    """Replace the cohort with its coordinate-wise median."""

    name = "median"

    def apply(self, vectors: np.ndarray) -> tuple[np.ndarray, int]:
        combined = np.median(vectors, axis=0)
        defended = np.broadcast_to(combined, vectors.shape).copy()
        return defended, max(vectors.shape[0] - 1, 0)


class TrimmedMeanDefense(Defense):
    """Coordinate-wise mean after trimming the ``trim`` fraction at each end."""

    name = "trimmed_mean"

    def __init__(self, trim: float = 0.25):
        if not 0 <= trim < 0.5:
            raise ConfigurationError(f"trim must lie in [0, 0.5), got {trim}")
        self.trim = trim

    def apply(self, vectors: np.ndarray) -> tuple[np.ndarray, int]:
        count = vectors.shape[0]
        cut = int(np.floor(self.trim * count))
        if 2 * cut >= count:
            cut = (count - 1) // 2
        ordered = np.sort(vectors, axis=0)
        kept = ordered[cut : count - cut] if cut else ordered
        combined = kept.mean(axis=0)
        defended = np.broadcast_to(combined, vectors.shape).copy()
        return defended, 2 * cut


class NormClipDefense(Defense):
    """Clip every update to the cohort's median update norm.

    Parameter-free: the threshold adapts to the honest majority's scale, so
    boosted (model-replacement) updates lose their amplification while
    honest updates pass through unchanged.
    """

    name = "norm_clip"

    def apply(self, vectors: np.ndarray) -> tuple[np.ndarray, int]:
        norms = np.linalg.norm(vectors, axis=1)
        threshold = float(np.median(norms))
        if threshold <= 0:
            return vectors.copy(), 0
        over = norms > threshold
        scales = np.ones_like(norms)
        scales[over] = threshold / norms[over]
        return vectors * scales[:, None], int(over.sum())


DEFENSE_REGISTRY: dict[str, type[Defense]] = {
    "median": CoordinateMedianDefense,
    "trimmed_mean": TrimmedMeanDefense,
    "norm_clip": NormClipDefense,
}


def build_defense(name: str, **kwargs) -> Defense:
    """Instantiate a :class:`Defense` by registry name."""
    key = name.lower()
    if key not in DEFENSE_REGISTRY:
        raise ConfigurationError(
            f"unknown defense {name!r}; available: {sorted(DEFENSE_REGISTRY)}"
        )
    return DEFENSE_REGISTRY[key](**kwargs)


# --------------------------------------------------------------------------- #
# Defended aggregation
# --------------------------------------------------------------------------- #
def screen_cohort(
    defense: Defense, global_params: np.ndarray, messages: Sequence["ClientMessage"]
) -> tuple[list["ClientMessage"], int]:
    """Robustly transform one cohort's messages (pure; inputs untouched).

    Returns the defended messages and how many contributions the defense
    rejected (the maximum over payload vectors).
    """
    rejected = 0
    defended_payloads: list[dict[str, np.ndarray]] = [
        dict(message.payload) for message in messages
    ]
    for key in sorted(messages[0].payload):
        stacked = np.stack(
            [np.asarray(message.payload[key], dtype=np.float64)
             for message in messages]
        )
        if key in _MODEL_KEYS:
            defended, dropped = defense.apply(stacked - global_params)
            defended = defended + global_params
        else:
            defended, dropped = defense.apply(stacked)
        rejected = max(rejected, dropped)
        for payload, row in zip(defended_payloads, defended):
            payload[key] = row
    out = [
        replace(message, payload=payload, metadata=dict(message.metadata))
        for message, payload in zip(messages, defended_payloads)
    ]
    return out, rejected


class ScreenedAccumulator:
    """Accumulator decorator: buffer the round's cohort, screen it, then sum.

    A ranking defense needs the whole cohort, so shard partials cannot
    pre-reduce — ``accumulate`` and ``merge`` only collect messages.
    ``finalise`` (once, at the root) runs the defense and feeds the
    defended messages to the inner algorithm's own accumulator.
    """

    def __init__(self, defense: Defense, inner: UpdateAccumulator):
        self.defense = defense
        self.inner = inner
        self.messages: list["ClientMessage"] = []

    @property
    def count(self) -> int:
        return len(self.messages)

    def accumulate(self, message: "ClientMessage") -> None:
        self.messages.append(message)

    def merge(self, other: "ScreenedAccumulator") -> None:
        self.messages.extend(other.messages)

    def finalise(self) -> np.ndarray:
        if not self.messages:
            raise ConfigurationError("finalise requires at least one message")
        obs = get_obs()
        with obs.tracer.span(
            "defense", defense=self.defense.name, updates=len(self.messages)
        ):
            defended, rejected = screen_cohort(
                self.defense, self.inner.global_params, self.messages
            )
        if obs.metrics is not None and rejected:
            obs.metrics.counter("defense.rejected_updates").inc(rejected)
        for message in defended:
            self.inner.accumulate(message)
        return self.inner.finalise()


#: The part of the algorithm contract a defended run changes; every other
#: attribute of a :class:`DefendedAlgorithm` is the inner algorithm's.
_DEFENDED_SURFACE = frozenset(
    {"supports_async", "supports_plan", "make_accumulator", "aggregate"}
)


class DefendedAlgorithm(FederatedAlgorithm):
    """Wrap an algorithm so a :class:`Defense` screens every cohort.

    The wrapper changes one thing in the contract: ``make_accumulator``
    returns the inner algorithm's accumulator behind a
    :class:`ScreenedAccumulator` (``aggregate``, inherited, follows).
    Buffered plans mix stale cross-version updates that a cohort-ranking
    defense cannot screen, so defended runs are also sync-only.  Local
    training, uploads, state and accounting are the inner algorithm's.
    """

    supports_async = False

    def __init__(self, inner: FederatedAlgorithm, defense: Defense):
        self.inner = inner
        self.defense = defense

    def __getattribute__(self, name: str):
        # FederatedAlgorithm supplies a default for the whole contract, so
        # __getattr__ would never fire: route every name the wrapper does
        # not own to the inner algorithm here.
        own = object.__getattribute__
        if (
            name in _DEFENDED_SURFACE
            or name.startswith("__")
            or name in own(self, "__dict__")
        ):
            return own(self, name)
        return getattr(own(self, "inner"), name)

    def make_accumulator(
        self,
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        num_clients: int,
        round_index: int,
    ) -> ScreenedAccumulator:
        return ScreenedAccumulator(
            self.defense,
            self.inner.make_accumulator(
                global_params, server_state, num_clients, round_index
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DefendedAlgorithm({self.inner!r}, defense={self.defense.name!r})"
        )
