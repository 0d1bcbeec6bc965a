"""Client-systems simulation: transport, network/time model, faults, executors.

The core engine reproduces the paper's *statistical* behaviour; this package
models the client-side *system* stack the paper's robustness claims are
about:

* :mod:`repro.systems.compression` — pluggable update codecs (identity,
  float16, top-k sparsification, QSGD stochastic quantisation, signSGD),
* :mod:`repro.systems.transport` — applies a codec to every
  :class:`~repro.federated.messages.ClientMessage` payload and accounts for
  the post-compression bytes actually on the wire,
* :mod:`repro.systems.network` — per-client bandwidth/latency/compute
  profiles that turn a round into a simulated wall-clock duration
  (straggler-dominated, as in real federated deployments),
* :mod:`repro.systems.faults` — mid-round client dropout and round
  deadlines that knock stragglers out of aggregation (honest failures),
* :mod:`repro.systems.adversaries` — byzantine/poisoning client
  behaviours and robust aggregation defenses (dishonest participation),
* :mod:`repro.systems.executor` — serial, thread-pool, and vectorized
  (stacked-NumPy cohort) execution of the selected clients'
  local updates.

Every component is optional: a :class:`~repro.federated.engine.FederatedSimulation`
constructed without them behaves exactly like the idealised synchronous
engine of the seed reproduction.
"""

from repro.systems.adversaries import (
    ADVERSARY_REGISTRY,
    DEFENSE_REGISTRY,
    AdversaryBehaviour,
    AdversaryModel,
    Defense,
    DefendedAlgorithm,
    build_adversary,
    build_defense,
)
from repro.systems.compression import (
    CODEC_REGISTRY,
    Codec,
    EncodedVector,
    Float16Codec,
    IdentityCodec,
    QSGDCodec,
    SignSGDCodec,
    TopKCodec,
    build_codec,
)
from repro.systems.executor import (
    EXECUTOR_REGISTRY,
    ClientExecutor,
    LocalUpdateOutcome,
    LocalUpdateTask,
    SerialExecutor,
    ThreadPoolClientExecutor,
    VectorizedExecutor,
    build_executor,
    execute_task,
)
from repro.systems.faults import FaultInjector
from repro.systems.network import (
    NETWORK_REGISTRY,
    ClientSystemProfile,
    HomogeneousNetwork,
    LogNormalNetwork,
    NetworkModel,
    build_network,
)
from repro.systems.transport import Transport

__all__ = [
    "ADVERSARY_REGISTRY",
    "DEFENSE_REGISTRY",
    "AdversaryBehaviour",
    "AdversaryModel",
    "Defense",
    "DefendedAlgorithm",
    "build_adversary",
    "build_defense",
    "CODEC_REGISTRY",
    "Codec",
    "EncodedVector",
    "IdentityCodec",
    "Float16Codec",
    "TopKCodec",
    "QSGDCodec",
    "SignSGDCodec",
    "build_codec",
    "Transport",
    "ClientSystemProfile",
    "NetworkModel",
    "HomogeneousNetwork",
    "LogNormalNetwork",
    "NETWORK_REGISTRY",
    "build_network",
    "FaultInjector",
    "ClientExecutor",
    "SerialExecutor",
    "ThreadPoolClientExecutor",
    "VectorizedExecutor",
    "EXECUTOR_REGISTRY",
    "build_executor",
    "LocalUpdateTask",
    "LocalUpdateOutcome",
    "execute_task",
]
