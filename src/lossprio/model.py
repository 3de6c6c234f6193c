"""Plain-numpy MLP classifier trained with SGD momentum.

Layers are fully connected with tanh activations and a softmax output; the
loss is mean cross-entropy in natural log.  Everything is float64 and every
random draw comes from an explicit generator, so identical seeds give
bit-identical training trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, TrainingDivergedError


@dataclass
class TrainerConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_drop_factor: float = 0.2
    lr_drop_points: tuple[float, ...] = (0.6, 0.8)
    batch_size: int = 128
    total_epochs: int = 20
    seed: int = 0
    hidden_layers: tuple[int, ...] = (128, 128)

    def __post_init__(self):
        object.__setattr__(self, "lr_drop_points", tuple(self.lr_drop_points))
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if not self.learning_rate > 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise ConfigurationError("weight_decay must be nonnegative")
        for name in ("learning_rate", "weight_decay"):
            if getattr(self, name) == math.inf:
                raise ConfigurationError(f"{name} must be finite")
        if not 0.0 < self.lr_drop_factor <= 1.0:
            raise ConfigurationError("lr_drop_factor must lie in (0, 1]")
        pts = self.lr_drop_points
        if any(not 0.0 < p < 1.0 for p in pts) or list(pts) != sorted(set(pts)):
            raise ConfigurationError(
                "lr_drop_points must be strictly increasing and inside (0, 1)"
            )
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")
        if self.total_epochs < 1:
            raise ConfigurationError("total_epochs must be positive")
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigurationError("hidden layer widths must be positive")


class ModelParams:
    """Per-layer weight matrices (fan_in, fan_out) and bias vectors.

    All of them are views of one contiguous float64 ``vector`` laid out
    w0, b0, w1, b1, ...; building from per-layer arrays packs copies of them.
    Mutate ``weights[i]`` in place: rebinding it detaches it from ``vector``.
    """

    def __init__(self, weights, biases):
        arch = [np.shape(w)[0] for w in weights] + [np.shape(weights[-1])[1]]
        pairs = [np.ravel(a) for pair in zip(weights, biases, strict=True) for a in pair]
        self._view(np.concatenate(pairs, dtype=np.float64), arch)

    @classmethod
    def on_vector(cls, vector: np.ndarray, architecture) -> "ModelParams":
        """Parameters whose layers are views of ``vector`` itself (no copy)."""
        params = cls.__new__(cls)
        params._view(vector, [int(w) for w in architecture])
        return params

    def _view(self, vector: np.ndarray, arch: list[int]) -> None:
        self.vector, self.weights, self.biases, pos = vector, [], [], 0
        for fan_in, fan_out in zip(arch[:-1], arch[1:]):
            self.weights.append(vector[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            self.biases.append(vector[pos : pos + fan_out])
            pos += fan_out
        if pos != vector.size:
            raise ConfigurationError(f"vector of {vector.size} does not fit architecture {arch}")

    @property
    def architecture(self) -> list[int]:
        return [w.shape[0] for w in self.weights] + [self.weights[-1].shape[1]]

    def copy(self) -> "ModelParams":
        return ModelParams.on_vector(self.vector.copy(), self.architecture)


def init_params(architecture, rng) -> ModelParams:
    """Fan-in scaled uniform init: each layer is U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    arch = [int(w) for w in architecture]
    if len(arch) < 2 or any(w < 1 for w in arch):
        raise ConfigurationError(f"bad architecture {arch}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    weights, biases = [], []
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return ModelParams(weights, biases)


class Workspace:
    """Arrays that forward, sgd_step and evaluate_error write into: a batch
    gathered from a split, each layer's activations, the back-propagated
    deltas, the flat gradient and the weight-decay term.

    Calls take the first n rows of each buffer, so one workspace serves any
    batch of at most ``rows`` examples; a call given none makes its own, sized
    to its batch.  Whatever a call returns that lives in the workspace (a
    ForwardResult's probabilities, say) is overwritten by the next call given
    it, so two threads must never share one.
    """

    def __init__(self, params: ModelParams, rows: int):
        arch = params.architecture
        self.features = np.empty((rows, arch[0]))
        self.labels = np.empty(rows, dtype=np.int64)
        self.acts = [np.empty((rows, width)) for width in arch[1:]]
        self.deltas = [np.empty((rows, width)) for width in arch[1:-1]]
        self.grad = ModelParams.on_vector(np.empty_like(params.vector), arch)
        self.decay = np.empty_like(params.vector)

    def gather(self, features, labels, rows) -> tuple[np.ndarray, np.ndarray]:
        """features[rows] and labels[rows], written into the workspace."""
        n = len(rows)
        # callers pass row ids of the split, so "clip" never alters an index;
        # unlike the default "raise" it writes into `out` without a temporary
        return (np.take(features, rows, axis=0, out=self.features[:n], mode="clip"),
                np.take(labels, rows, out=self.labels[:n], mode="clip"))


@dataclass
class ForwardResult:
    """Batch outputs: per-example loss, class distribution, and argmax class."""

    losses: np.ndarray
    probabilities: np.ndarray
    predictions: np.ndarray


def _activations(params: ModelParams, features: np.ndarray,
                 workspace: Workspace) -> list[np.ndarray]:
    """Post-activation values per layer; the last entry is the logits."""
    acts = [features]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(acts[-1], w, out=workspace.acts[i][: len(features)])
        z += b
        acts.append(z if i == last else np.tanh(z, out=z))
    return acts


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, computed in place over ``logits``."""
    logits -= logits.max(axis=1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits


def forward(params: ModelParams, features: np.ndarray, labels: np.ndarray,
            workspace: Workspace | None = None) -> ForwardResult:
    """Score a batch without touching any state but the workspace's.

    The batch is rows of a Dataset that matches the model: float64 features
    as wide as its input and int64 labels below its class count.  Dataset and
    run_training own those rules, so they are not checked again here.
    """
    workspace = workspace or Workspace(params, len(features))
    logits = _activations(params, features, workspace)[-1]
    predictions = logits.argmax(axis=1)
    logp = _log_softmax(logits)
    losses = -logp[np.arange(len(labels)), labels]
    return ForwardResult(losses, np.exp(logp, out=logp), predictions)


def _backward(params: ModelParams, features, labels,
              workspace: Workspace | None = None) -> tuple[float, ModelParams]:
    """Mean cross-entropy over the batch and its gradient, laid out like params;
    the gradient is the workspace's."""
    batch = len(features)
    workspace = workspace or Workspace(params, batch)
    rows = np.arange(batch)
    acts = _activations(params, features, workspace)
    logp = _log_softmax(acts[-1])
    loss = float(-logp[rows, labels].mean())

    delta = np.exp(logp, out=logp)
    delta[rows, labels] -= 1.0
    delta /= batch
    grad = workspace.grad
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grad.weights[i])
        np.sum(delta, axis=0, out=grad.biases[i])
        if i > 0:
            # tanh'(z) = 1 - a**2, written over the activations already used
            slope = np.multiply(acts[i], acts[i], out=acts[i])
            np.subtract(1.0, slope, out=slope)
            slope *= np.matmul(delta, params.weights[i].T,
                               out=workspace.deltas[i - 1][:batch])
            delta = slope
    return loss, grad


@dataclass
class SGDState:
    """Momentum buffer (laid out like ModelParams.vector) plus counters for
    updates and examples back-propagated."""

    velocity: np.ndarray
    updates: int = 0
    backprops: int = 0


def init_sgd_state(params: ModelParams) -> SGDState:
    return SGDState(velocity=np.zeros_like(params.vector))


def sgd_step(params: ModelParams, features, labels, cfg: TrainerConfig, state: SGDState,
             lr: float, workspace: Workspace | None = None) -> float:
    """One momentum SGD update on a batch, in place.  Returns the batch loss.

    Update order: weight decay is added to the gradient, the result is folded
    into the momentum buffer, then the step is applied at the given rate.
    Nothing changes when the loss or the gradient is not finite.
    """
    workspace = workspace or Workspace(params, len(features))
    loss, grad = _backward(params, features, labels, workspace)
    step = grad.vector
    if not (math.isfinite(loss) and np.isfinite(step).all()):
        raise TrainingDivergedError("non-finite loss or gradient", iteration=state.updates)
    step += np.multiply(params.vector, cfg.weight_decay, out=workspace.decay)
    state.velocity *= cfg.momentum
    state.velocity += step
    np.multiply(state.velocity, lr, out=step)
    params.vector -= step
    state.updates += 1
    state.backprops += len(features)
    return loss


def gradient_check(
    params: ModelParams,
    features,
    labels,
    epsilon: float = 1e-4,
    max_coords: int = 64,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    A random subset of parameter coordinates is probed; each probe costs two
    forward passes.  Coordinates where both routes are below 1e-8 in magnitude
    count as zero error.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ConfigurationError("epsilon outside the stable range [1e-6, 1e-3]")
    base = params.vector
    analytic = _backward(params, features, labels)[1].vector

    rng = np.random.default_rng(seed)
    count = min(max_coords, base.size)
    coords = rng.choice(base.size, size=count, replace=False)
    probe = params.copy()
    worst = 0.0
    for c in coords:
        probe.vector[c] = base[c] + epsilon
        up = _backward(probe, features, labels)[0]
        probe.vector[c] = base[c] - epsilon
        down = _backward(probe, features, labels)[0]
        probe.vector[c] = base[c]
        numeric = (up - down) / (2.0 * epsilon)
        denom = max(abs(analytic[c]), abs(numeric))
        if denom < 1e-8:
            continue
        worst = max(worst, abs(analytic[c] - numeric) / denom)
    return worst


def prediction_entropy(distribution) -> float | np.ndarray:
    """Shannon entropy in nats of one distribution or a batch of them.

    The 0 * log 0 terms contribute zero.  Negative entries or rows that do
    not sum to one signal a numerical bug upstream and raise.
    """
    dist = np.asarray(distribution, dtype=np.float64)
    if dist.ndim not in (1, 2):
        raise ConfigurationError("expected a distribution vector or a batch of them")
    if (dist < 0).any():
        raise ConfigurationError("distribution has negative entries")
    sums = dist.sum(axis=-1)
    if not (np.abs(sums - 1.0) <= 1e-6 + 1e-5).all():  # np.allclose(sums, 1, atol=1e-6)
        raise ConfigurationError("distribution does not sum to 1")
    # 0 * log(1) == 0, so the 0 * log 0 terms need no mask of their own
    terms = np.log(np.where(dist > 0, dist, 1.0))
    terms *= dist
    ent = -terms.sum(axis=-1)
    return float(ent) if dist.ndim == 1 else ent


def learning_rate_at(progress: float, cfg: TrainerConfig) -> float:
    """Piecewise-constant schedule: the rate is cut by lr_drop_factor at each
    drop point, expressed as a fraction of total training."""
    if not 0.0 <= progress <= 1.0:
        raise ConfigurationError(f"progress {progress} outside [0, 1]")
    passed = sum(1 for p in cfg.lr_drop_points if progress >= p)
    return cfg.learning_rate * cfg.lr_drop_factor**passed


def save_checkpoint(params: ModelParams, path) -> None:
    """Write architecture and parameters; float64 round-trips exactly."""
    arrays = {"architecture": np.array(params.architecture, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)

