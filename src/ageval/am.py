"""Feed-forward acoustic model: JSON serialization, inference, and toy training.

The model maps feature frames to per-frame state posteriors. Context splicing
happens inside forward() using the model's own left/right context, so callers
hand over plain feature matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .dsp import FeatureMatrix, splice_array
from .errors import (
    EmptyInputError,
    FormatError,
    LabelError,
    ModelValidationError,
    NumericError,
    ShapeMismatchError,
    TooShortError,
    ValidationError,
)

ACTIVATIONS = ("sigmoid", "relu", "tanh", "softmax")
HIDDEN_ACTIVATIONS = ("sigmoid", "relu", "tanh")


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """One affine layer: weight (out x in), bias (out,), activation name."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self) -> None:
        weight = np.asarray(self.weight, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if weight.ndim != 2:
            raise ModelValidationError(f"layer weight must be 2-D, got shape {weight.shape}")
        if bias.ndim != 1 or bias.shape[0] != weight.shape[0]:
            raise ModelValidationError(
                f"layer bias shape {bias.shape} does not match {weight.shape[0]} outputs"
            )
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ModelValidationError("layer weights and biases must be finite")
        if self.activation not in ACTIVATIONS:
            raise ModelValidationError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True, eq=False)
class AcousticModel:
    """A stack of affine layers ending in softmax over acoustic state classes."""

    layers: tuple[LayerSpec, ...]
    input_dim: int
    n_classes: int
    left_context: int = 0
    right_context: int = 0

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ModelValidationError("model must have at least one layer")
        if self.left_context < 0 or self.right_context < 0:
            raise ModelValidationError("context sizes must be nonnegative")
        if self.input_dim < 1:
            raise ModelValidationError("input_dim must be positive")
        width = self.left_context + self.right_context + 1
        if layers[0].in_dim != self.input_dim * width:
            raise ModelValidationError(
                f"first layer expects {layers[0].in_dim} inputs but spliced features "
                f"have {self.input_dim} * {width} = {self.input_dim * width}"
            )
        for prev, cur in zip(layers, layers[1:]):
            if cur.in_dim != prev.out_dim:
                raise ModelValidationError(
                    f"layer input {cur.in_dim} does not match previous output {prev.out_dim}"
                )
        for layer in layers[:-1]:
            if layer.activation == "softmax":
                raise ModelValidationError("softmax is only allowed on the final layer")
        if layers[-1].activation != "softmax":
            raise ModelValidationError("final layer activation must be softmax")
        if layers[-1].out_dim != self.n_classes:
            raise ModelValidationError(
                f"final layer has {layers[-1].out_dim} outputs but n_classes is {self.n_classes}"
            )
        object.__setattr__(self, "layers", layers)

    @property
    def context_width(self) -> int:
        return self.left_context + self.right_context + 1


@dataclass(frozen=True, eq=False)
class PosteriorMatrix:
    """Per-frame state posteriors: rows are frames and sum to one."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError(f"posterior matrix must be 2-D, got shape {values.shape}")
        if values.shape[0] > 0:
            if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
                raise ValidationError("posterior entries must lie in [0, 1]")
            sums = values.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > 1e-6:
                raise ValidationError("posterior rows must sum to 1 within 1e-6")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


def save_model(model: AcousticModel, path: str | Path) -> None:
    """Serialize a model to JSON with full float round-trip precision."""
    payload = {
        "input_dim": model.input_dim,
        "left_context": model.left_context,
        "right_context": model.right_context,
        "layers": [
            {
                "activation": layer.activation,
                "out_dim": layer.out_dim,
                "in_dim": layer.in_dim,
                "weight": layer.weight.ravel(order="C").tolist(),
                "bias": layer.bias.tolist(),
            }
            for layer in model.layers
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_model(path: str | Path) -> AcousticModel:
    """Read a JSON model file written by save_model.

    Undecodable text, invalid JSON and malformed or out-of-range fields raise
    FormatError naming the path.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid JSON text ({exc})") from exc
    try:
        raw_layers = payload["layers"]
        input_dim = int(payload["input_dim"])
        left = int(payload["left_context"])
        right = int(payload["right_context"])
        if not raw_layers:
            raise ModelValidationError(f"{path}: model has no layers")
        layers = []
        for i, raw in enumerate(raw_layers):
            out_dim = int(raw["out_dim"])
            in_dim = int(raw["in_dim"])
            weight = np.asarray(raw["weight"], dtype=np.float64)
            if weight.size != out_dim * in_dim:
                raise FormatError(
                    f"{path}: layer {i} weight has {weight.size} values, "
                    f"expected {out_dim} * {in_dim}"
                )
            layers.append(
                LayerSpec(weight.reshape(out_dim, in_dim), np.asarray(raw["bias"]), raw["activation"])
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed model file ({exc})") from exc
    return AcousticModel(
        layers=tuple(layers),
        input_dim=input_dim,
        n_classes=layers[-1].out_dim,
        left_context=left,
        right_context=right,
    )


def _activate(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "sigmoid":
        return expit(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _model_input(model: AcousticModel, features: FeatureMatrix) -> np.ndarray:
    """Check that features have the model's input width and splice them with its context."""
    x = features.values
    if x.shape[1] != model.input_dim:
        raise ShapeMismatchError(f"features have dim {x.shape[1]}, expected {model.input_dim}")
    return splice_array(x, model.left_context, model.right_context)


def _params(model: AcousticModel) -> tuple[list[np.ndarray], list[np.ndarray], list[str]]:
    layers = model.layers
    return [s.weight for s in layers], [s.bias for s in layers], [s.activation for s in layers]


def _layer_stack(
    weights: list[np.ndarray], biases: list[np.ndarray], activations: list[str], x: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Inputs to every layer (x first, then each hidden output) and the final logits."""
    hs = [x]
    for w, b, act in zip(weights[:-1], biases[:-1], activations[:-1]):
        hs.append(_activate(act, hs[-1] @ w.T + b))
    return hs, hs[-1] @ weights[-1].T + biases[-1]


def forward(model: AcousticModel, features: FeatureMatrix) -> PosteriorMatrix:
    """Run the affine/activation stack and return row-stochastic posteriors.

    Features must have dim input_dim; they are spliced internally with the
    model's context. Softmax subtracts the per-row max before exponentiation.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hs, logits = _layer_stack(*_params(model), _model_input(model, features))
    if not all(np.all(np.isfinite(h)) for h in hs[1:]):
        raise NumericError("non-finite values in a hidden layer")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in the output layer")
    return PosteriorMatrix(_softmax_rows(logits))


def _loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    activations: list[str],
    x: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy over one full batch and its parameter gradients."""
    n = x.shape[0]
    hs, logits = _layer_stack(weights, biases, activations, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = float(-log_p[np.arange(n), labels].mean())
    delta = np.exp(log_p)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w: list[np.ndarray] = [np.empty(0)] * len(weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(weights)
    for li in range(len(weights) - 1, -1, -1):
        grads_w[li] = delta.T @ hs[li]
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            delta = delta @ weights[li]
            a = hs[li]
            act = activations[li - 1]
            if act == "sigmoid":
                delta = delta * a * (1.0 - a)
            elif act == "tanh":
                delta = delta * (1.0 - a * a)
            else:
                delta = delta * (a > 0)
    return loss, grads_w, grads_b


def cross_entropy_loss(model: AcousticModel, features: FeatureMatrix, labels: Sequence[int]) -> float:
    """Mean cross-entropy of the model's posteriors against integer frame labels."""
    x = _model_input(model, features)
    y = _checked_labels(labels, x.shape[0], model.n_classes)
    loss, _, _ = _loss_and_grads(*_params(model), x, y)
    return loss


def frame_error_rate(model: AcousticModel, features: FeatureMatrix, labels: Sequence[int]) -> float:
    """Percent of frames whose argmax posterior disagrees with the label."""
    posteriors = forward(model, features)
    y = _checked_labels(labels, posteriors.n_frames, model.n_classes)
    predicted = posteriors.values.argmax(axis=1)
    return float(100.0 * np.mean(predicted != y))


def _checked_labels(labels: Sequence[int], n_frames: int, n_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != n_frames:
        raise ShapeMismatchError(f"expected {n_frames} labels, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise LabelError(f"labels must lie in [0, {n_classes - 1}]")
    return y


def _init_layers(
    rng: np.random.Generator, dims: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def train_toy(
    features: Sequence[FeatureMatrix],
    labels: Sequence[Sequence[int]],
    hidden_dims: Sequence[int] = (16,),
    activation: str = "sigmoid",
    learning_rate: float = 0.1,
    epochs: int = 100,
    seed: int = 0,
    n_classes: int | None = None,
    left_context: int = 0,
    right_context: int = 0,
    on_epoch: Callable[[int, float], None] | None = None,
) -> AcousticModel:
    """Full-batch gradient descent on mean cross-entropy; returns the lowest-loss iterate.

    features and labels hold one matrix and one label array per utterance.
    Each utterance is spliced on its own, so no frame's context crosses an
    utterance boundary; all frames then form one batch.

    Training is deterministic given the seed. With epochs=0 the seeded initial
    model is returned untouched. on_epoch, when given, is called with
    (steps_taken, loss_after_those_steps) for every epoch including the last.
    """
    if activation not in HIDDEN_ACTIVATIONS:
        raise ModelValidationError(f"hidden activation must be one of {HIDDEN_ACTIVATIONS}")
    if learning_rate <= 0:
        raise ValidationError("learning_rate must be positive")
    if epochs < 0:
        raise ValidationError("epochs must be nonnegative")
    if not features:
        raise EmptyInputError("no training utterances")
    if len(features) != len(labels) or any(f.dim != features[0].dim for f in features):
        raise ShapeMismatchError("need one label array per feature matrix, all of one width")
    y = np.concatenate([np.ravel(lab) for lab in labels]).astype(np.int64)
    if y.size == 0:
        raise EmptyInputError("no training labels")
    classes = int(n_classes) if n_classes is not None else int(y.max()) + 1
    for feats, lab in zip(features, labels):
        _checked_labels(lab, feats.n_frames, classes)
    if y.size < classes:
        raise TooShortError(f"need at least {classes} frames to train {classes} classes")
    x = np.vstack([splice_array(f.values, left_context, right_context) for f in features])

    rng = np.random.default_rng(seed)
    dims = [x.shape[1], *(int(d) for d in hidden_dims), classes]
    weights, biases = _init_layers(rng, dims)
    acts = [activation] * (len(dims) - 2) + ["softmax"]

    # Each pass yields the loss of the current iterate and the gradient for
    # the next step, so epochs steps cost epochs + 1 passes.
    loss, grads_w, grads_b = _loss_and_grads(weights, biases, acts, x, y)
    best_loss, best_w, best_b = loss, weights, biases
    if on_epoch is not None:
        on_epoch(0, loss)
    for step in range(epochs):
        weights = [w - learning_rate * g for w, g in zip(weights, grads_w)]
        biases = [b - learning_rate * g for b, g in zip(biases, grads_b)]
        loss, grads_w, grads_b = _loss_and_grads(weights, biases, acts, x, y)
        if on_epoch is not None:
            on_epoch(step + 1, loss)
        if loss < best_loss:
            best_loss, best_w, best_b = loss, weights, biases

    layers = tuple(
        LayerSpec(w, b, act) for w, b, act in zip(best_w, best_b, acts)
    )
    return AcousticModel(
        layers=layers,
        input_dim=features[0].dim,
        n_classes=classes,
        left_context=left_context,
        right_context=right_context,
    )
