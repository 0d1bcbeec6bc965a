"""Algorithm interface shared by FedADMM and all baselines.

A federated algorithm is defined by three pieces, mirroring Algorithm 1 in
the paper:

1. how selected clients train locally and what they upload — one
   ClientUpdate written over a leading client axis
   (:meth:`FederatedAlgorithm.batched_local_update`); every executor runs
   it, the per-client ones on a cohort of one
   (:meth:`FederatedAlgorithm.local_update`),
2. the closed-form server update on the round's summed uploads
   (:meth:`FederatedAlgorithm.server_step`; the sums themselves are kept by
   the one :class:`UpdateAccumulator`),
3. what persistent state (if any) clients and server carry across rounds
   (:meth:`init_client_state` / :meth:`init_server_state`).

The simulation engine in :mod:`repro.federated.engine` is agnostic to which
algorithm it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.batched import local_steps_per_epoch
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # imported lazily to avoid a package-level import cycle
    from repro.federated.client import ClientState
    from repro.federated.local_problem import LocalProblem
    from repro.federated.messages import ClientMessage
    from repro.nn.batched import BatchedCohort


@dataclass
class LocalTrainingConfig:
    """Per-round local-training knobs handed to :meth:`local_update`.

    ``epochs`` is the realised number of local epochs for this client in this
    round (drawn by the system-heterogeneity policy); ``batch_size=None``
    means full-batch, matching the paper's ``B = inf`` setting.
    """

    epochs: int
    batch_size: int | None
    learning_rate: float

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive or None, got {self.batch_size}"
            )
        check_positive(self.learning_rate, "learning_rate")


class UpdateAccumulator:
    """The one synchronous server-side reduction.

    Every algorithm's aggregation rule is "a running sum per payload vector
    (plus a message count and, under ``weighting="samples"``, the total
    sample weight), then a closed-form server step on those sums".  The
    sums live here; the closed form is the owning algorithm's
    :meth:`FederatedAlgorithm.server_step`, applied once by ``finalise``.

    ``accumulate`` folds one client message in, ``merge`` folds in another
    accumulator's partial (one per shard in the sharded plan, so no tier
    ever holds a cohort's message list), and ``finalise`` produces the next
    global model.  NumPy's axis-0 reductions add rows sequentially, so the
    running ``+=`` reproduces ``np.stack(vectors).sum(axis=0)`` bit for bit
    for any vector longer than one element; ``merge`` re-associates the sum
    and agrees with a single accumulator to ~1e-12.

    ``count`` is the number of messages folded in so far (merges
    included); callers skip ``finalise`` when it is zero (an abandoned
    round leaves the global model unchanged).
    """

    def __init__(
        self,
        algorithm: "FederatedAlgorithm",
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        num_clients: int,
        round_index: int,
    ):
        self.algorithm = algorithm
        self.global_params = global_params
        self.server_state = server_state
        self.num_clients = num_clients
        self.round_index = round_index
        self.weighted = algorithm.weighting == "samples"
        self.count = 0
        self.weight_total = 0.0
        self.sums: dict[str, np.ndarray] = {}

    def accumulate(self, message: ClientMessage) -> None:
        """Fold one client message into the running sums."""
        for key, vector in message.payload.items():
            if self.weighted:
                vector = vector * float(message.num_samples)
            if key in self.sums:
                self.sums[key] += vector
            else:
                self.sums[key] = np.array(vector, dtype=np.float64, copy=True)
        if self.weighted:
            self.weight_total += float(message.num_samples)
        self.count += 1

    def merge(self, other: "UpdateAccumulator") -> None:
        """Fold another accumulator's partial sums into this one."""
        for key, total in other.sums.items():
            if key in self.sums:
                self.sums[key] += total
            else:
                # Adopt the first partial's arrays: no copy, and partials
                # are discarded once merged.
                self.sums[key] = total
        self.weight_total += other.weight_total
        self.count += other.count

    def mean(self, key: str) -> np.ndarray:
        """The (sample-weighted, if so configured) mean of one payload vector."""
        if not self.weighted:
            return self.sums[key] / self.count
        if self.weight_total <= 0:
            raise ConfigurationError("total sample weight must be positive")
        return self.sums[key] / self.weight_total

    def finalise(self) -> np.ndarray:
        """Produce the next global parameter vector from the sums."""
        if self.count == 0:
            raise ConfigurationError("finalise requires at least one message")
        return self.algorithm.server_step(self)


class FederatedAlgorithm:
    """Base class for federated optimisation algorithms."""

    name = "base"

    #: Whether buffered execution plans (the fully asynchronous and the
    #: deadline-bounded semi-synchronous plan, see
    #: :mod:`repro.federated.plans`) may drive this algorithm.  Methods
    #: whose server state is inherently lock-step (SCAFFOLD's control
    #: variate, FedPD's per-round communication coin) opt out.
    supports_async = True

    #: Whether :meth:`local_update` consumes the mini-batch shuffling RNG.
    #: The vectorized executor pre-draws each task's epoch permutations in
    #: task order so its RNG stream consumption matches the serial
    #: executor's; full-gradient methods (FedSGD) never shuffle and must
    #: not trigger those draws.
    shuffles_minibatches = True

    #: ``"uniform"`` or ``"samples"``: whether the server-side sums weight
    #: each upload by its client's sample count (FedAvg/FedProx expose this
    #: as a constructor argument; every other method is uniform).
    weighting = "uniform"

    @classmethod
    def supports_plan(cls, plan_name: str) -> bool:
        """Whether the named execution plan may drive this algorithm.

        Buffered plans (``"async"``, ``"semisync"``) mix updates trained
        against different model versions and therefore require
        ``supports_async``; the lock-step ``"sync"`` plan works for every
        algorithm.  This is the single gate consulted by both the plans'
        bind-time validation and the experiments layer's algorithm
        filtering; override for finer-grained opt-outs.
        """
        if plan_name in ("async", "semisync"):
            return bool(cls.supports_async)
        return True

    # ------------------------------------------------------------------ #
    # State initialisation
    # ------------------------------------------------------------------ #
    def init_server_state(
        self, initial_params: np.ndarray, num_clients: int
    ) -> dict[str, np.ndarray]:
        """Create the server's persistent state (empty for most methods)."""
        return {}

    def init_client_state(
        self, client: ClientState, initial_params: np.ndarray
    ) -> None:
        """Lazily create the client's persistent variables (no-op by default)."""

    def rng_streams(self) -> dict[str, np.random.Generator]:
        """Generators drawn from across rounds, by label, for the checkpoint."""
        return {}

    # ------------------------------------------------------------------ #
    # The two halves of a round
    # ------------------------------------------------------------------ #
    def local_update(
        self,
        problem: LocalProblem,
        client: ClientState,
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
        rng: SeedLike = None,
    ) -> ClientMessage:
        """One selected client's update: :meth:`batched_local_update` on a
        cohort of one, for the per-client executors."""
        cohort = OneClientCohort(problem, config.epochs, rng)
        return self.batched_local_update(
            cohort, [client], global_params, server_state, config, round_index
        )[0]

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        """The closed-form server update on one round's accumulated sums.

        ``sums`` carries the per-payload-key running sums, the message
        ``count``, and the round's ``global_params`` / ``server_state`` /
        ``num_clients`` / ``round_index``.  Called exactly once per
        aggregated round, at the root — so server-side state writes
        (SCAFFOLD's control variate) and RNG draws (FedPD's communication
        coin) belong here.
        """
        raise NotImplementedError

    def make_accumulator(
        self,
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        num_clients: int,
        round_index: int,
    ) -> UpdateAccumulator:
        """Create a fresh per-round accumulator (one per shard plus a root)."""
        return UpdateAccumulator(
            self, global_params, server_state, num_clients, round_index
        )

    def aggregate(
        self,
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        messages: list[ClientMessage],
        num_clients: int,
        round_index: int,
    ) -> np.ndarray:
        """Combine a message list into the next global model.

        Accumulate-all then ``finalise``: the list form of the one
        reduction, for callers that already hold a whole cohort.
        """
        accumulator = self.make_accumulator(
            global_params, server_state, num_clients, round_index
        )
        for message in messages:
            accumulator.accumulate(message)
        return accumulator.finalise()

    def batched_local_update(
        self,
        cohort: BatchedCohort | OneClientCohort,
        clients: list[ClientState],
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
    ) -> list[ClientMessage]:
        """The algorithm's ClientUpdate, for every cohort member at once.

        ``cohort`` is the clients' training data behind a leading client
        axis — a stacked :class:`~repro.nn.batched.BatchedCohort` under the
        vectorized executor, a :class:`OneClientCohort` everywhere else —
        and offers ``num_samples``, ``epochs`` ``(C,)``,
        ``steps_per_epoch(batch_size)``, ``run_sgd(start, config,
        extra_grad)`` and ``full_loss_and_grad(params)``.  ``clients`` is
        the aligned list of :class:`ClientState` objects whose persistent
        variables the update reads and writes.  ``config`` carries the
        batch size and learning rate the cohort shares; each member's local
        epoch count is ``cohort.epochs`` (``config.epochs`` is one member's
        and must not be used).  Returns one :class:`ClientMessage` per
        cohort member, in cohort order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batched_local_update"
        )

    def build_cohort_messages(
        self,
        clients: list[ClientState],
        cohort: BatchedCohort | OneClientCohort,
        local_epochs: np.ndarray,
        train_losses: np.ndarray,
        payload: dict[str, np.ndarray],
        metadata: dict | None = None,
    ) -> list[ClientMessage]:
        """Shared upload assembly for every ``batched_local_update``.

        Records each client's participation and builds its
        :class:`ClientMessage`; ``local_epochs`` is the per-member ``(C,)``
        epoch count (``cohort.epochs`` for every SGD method) and
        ``payload`` maps each payload key to its ``(C, dim)`` stack — fresh
        arrays the caller gives away — of which member ``index`` uploads
        row ``index``: a copy, so that no message pins its whole cohort's
        stacks, except that a one-client stack is all row and is taken as
        it is.  Keeping this in one place means cohort bookkeeping
        (participation accounting, sample counts) cannot drift between
        algorithms.
        """
        from repro.federated.messages import ClientMessage

        one_row = len(clients) == 1
        messages = []
        for index, (client, epochs) in enumerate(
            zip(clients, local_epochs.tolist())
        ):
            client.record_participation(epochs)
            messages.append(
                ClientMessage(
                    client_id=client.client_id,
                    payload={
                        key: stack[index] if one_row else stack[index].copy()
                        for key, stack in payload.items()
                    },
                    num_samples=cohort.num_samples,
                    local_epochs=epochs,
                    train_loss=float(train_losses[index]),
                    metadata=dict(metadata) if metadata else {},
                )
            )
        return messages

    # ------------------------------------------------------------------ #
    # Communication accounting
    # ------------------------------------------------------------------ #
    def download_floats(self, dim: int) -> int:
        """Scalars downloaded by one selected client per round.

        Every method ships the global model; SCAFFOLD additionally ships the
        server control variate and overrides this.
        """
        return dim

    def upload_floats(self, dim: int) -> int:
        """Scalars uploaded by one selected client per round (nominal).

        Derived from :meth:`upload_vector_dims`; override that method (not
        this one) so the transport layer's per-vector wire-size prediction
        stays consistent with the float count.
        """
        return sum(self.upload_vector_dims(dim))

    def upload_vector_dims(self, dim: int) -> tuple[int, ...]:
        """Sizes of the flat vectors one upload contains.

        Transport codecs compress each payload vector separately (paying any
        per-vector overhead once per vector), so size prediction needs the
        vector structure, not just the total float count.
        """
        return (dim,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def run_local_sgd(
    problem: LocalProblem,
    start_params: np.ndarray,
    config: LocalTrainingConfig,
    rng: SeedLike,
    extra_grad=None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Run ``config.epochs`` epochs of SGD on the local loss plus an optional term.

    Parameters
    ----------
    extra_grad:
        Optional callable ``extra_grad(params) -> np.ndarray`` added to every
        stochastic gradient.  FedProx passes ``rho * (w - theta)``; FedADMM
        passes ``y + rho * (w - theta)``; SCAFFOLD passes ``c - c_i``.  The
        returned array is only read, and only before the next call, so the
        callee may return the same scratch buffer every time.  ``params`` is
        the same array on every call — the model's live value vector, to be
        read and not kept.
    out:
        Where the trained parameters are written (it may be
        ``start_params``, or the row ``start_params`` was loaded from);
        without it they come back as a fresh array.

    Returns
    -------
    (final_params, mean_train_loss)
        The locally trained parameters (``out`` when given) and the mean
        mini-batch loss observed over all steps (the value of the *local
        data loss*, excluding the extra term, which is what the paper
        plots).
    """
    # The iterate lives in the model's own value vector for the whole update:
    # one load here, one copy out below, none per step.
    params = problem.bind(start_params)
    losses: list[float] = []
    for _ in range(config.epochs):
        for features, labels in problem.minibatches(config.batch_size, rng=rng):
            loss_value, grad = problem.loss_and_grad(params, features, labels)
            losses.append(loss_value)
            # ``grad`` is the model's workspace until the next call, so the
            # step params -= lr * (grad + extra) runs without a temporary.
            if extra_grad is not None:
                grad += extra_grad(params)
            grad *= config.learning_rate
            params -= grad
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    if out is None:
        return params.copy(), mean_loss
    np.copyto(out, params)
    return out, mean_loss


class OneClientCohort:
    """One client's :class:`LocalProblem` as a cohort of one.

    The per-client implementation of the cohort interface
    :meth:`FederatedAlgorithm.batched_local_update` trains against (the
    stacked one is :class:`repro.nn.batched.BatchedCohort`).  ``run_sgd`` is
    :func:`run_local_sgd` on row 0, so the per-client kernels, the mean
    train loss and every RNG draw are the serial path's.

    ``rng`` is coerced once, here: an integer seed handed on to
    :meth:`LocalProblem.minibatches` would be re-coerced every epoch and
    replay the first epoch's shuffle.
    """

    def __init__(self, problem: LocalProblem, epochs: int, rng: SeedLike = None):
        self.problem = problem
        self.epochs = np.array([epochs], dtype=np.int64)
        self.rng = as_rng(rng)

    @property
    def num_samples(self) -> int:
        return self.problem.num_samples

    def steps_per_epoch(self, batch_size: int | None) -> int:
        return local_steps_per_epoch(self.num_samples, batch_size)

    def run_sgd(
        self,
        start_params: np.ndarray,
        config: LocalTrainingConfig,
        extra_grad=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`run_local_sgd` from ``start_params[0]``, as ``(1, dim)``
        parameters and a ``(1,)`` loss; ``extra_grad`` sees ``(1, dim)``.

        A writable ``start_params`` is trained in place and returned; a
        read-only one (a broadcast global model) is left as it is and the
        parameters come back as a fresh array.
        """
        if config.epochs != self.epochs[0]:
            raise ConfigurationError(
                f"cohort of one was built for {self.epochs[0]} epochs, "
                f"config asks for {config.epochs}"
            )
        row = start_params[0]
        live = self.problem.bind(row)
        row_extra = None
        if extra_grad is not None:
            # Every step hands ``extra_grad`` the live vector, so its
            # ``(1, dim)`` view is built once per update.
            stacked = live[None, :]

            def row_extra(_: np.ndarray) -> np.ndarray:
                return extra_grad(stacked)[0]

        in_place = start_params.flags.writeable
        params, loss = run_local_sgd(
            self.problem, live, config, self.rng, row_extra,
            out=row if in_place else None,
        )
        return (start_params if in_place else params[None, :]), np.array([loss])

    def full_loss_and_grad(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        loss, grad = self.problem.full_loss_and_grad(params)
        return np.array([loss]), grad[None, :]
