"""Feed-forward acoustic model: JSON serialization, inference, and toy training.

The model maps feature frames to per-frame state posteriors. Context splicing
happens inside forward() using the model's own left/right context, so callers
hand over plain feature matrices.
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass
from numbers import Real
from pathlib import Path
from typing import Callable, Iterator, Sequence

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
    _as_int,
)

ACTIVATIONS = ("sigmoid", "relu", "tanh", "softmax")

# The OpenBLAS copies that the numpy and scipy wheels bundle: the package, the
# file pattern in the "<package>.libs" directory next to it, and the suffix of
# its symbols scipy_openblas_{set,get}_num_threads<suffix>.
_OPENBLAS_COPIES = (
    ("numpy", "libscipy_openblas64_-*.so", "64_"),
    ("scipy", "libscipy_openblas-*.so", ""),
)


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
        if 0 in weight.shape:
            raise ModelValidationError(
                f"layer weight must have at least one row and one column, got shape {weight.shape}"
            )
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
    _: KW_ONLY
    left_context: int = 0
    right_context: int = 0

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ModelValidationError("model must have at least one layer")
        left = _as_int(self.left_context, "left_context", ModelValidationError)
        right = _as_int(self.right_context, "right_context", ModelValidationError)
        if left < 0 or right < 0:
            raise ModelValidationError("context sizes must be nonnegative")
        width = left + right + 1
        if layers[0].in_dim % width:
            raise ModelValidationError(
                f"the first layer's {layers[0].in_dim} inputs do not split into {width} spliced frames"
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
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "left_context", left)
        object.__setattr__(self, "right_context", right)

    @property
    def input_dim(self) -> int:
        """The width of one unspliced feature frame: the first layer's inputs per spliced frame."""
        return self.layers[0].in_dim // (self.left_context + self.right_context + 1)

    @property
    def n_classes(self) -> int:
        """The number of state classes: the final layer's width."""
        return self.layers[-1].out_dim


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
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _json_int(record: dict, name: str, where: str) -> int:
    """record[name], which must be a JSON integer; where prefixes the FormatError."""
    value = record[name]
    if type(value) is not int:
        raise FormatError(f"{where}{name} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_numbers(record: dict, name: str, count: int, where: str) -> np.ndarray:
    """record[name], which must be a flat JSON list of count numbers; where prefixes the FormatError."""
    value = record[name]
    if type(value) is not list or len(value) != count:
        got = f"{len(value)} values" if type(value) is list else json.dumps(value)
        raise FormatError(f"{where}{name} must be a flat list of {count} JSON numbers, got {got}")
    for j, v in enumerate(value):
        if type(v) not in (int, float):
            raise FormatError(f"{where}{name}[{j}] must be a JSON number, got {json.dumps(v)}")
    return np.asarray(value, dtype=np.float64)


def load_model(path: str | Path) -> AcousticModel:
    """Read a JSON model file written by save_model.

    Undecodable text, invalid JSON, a count (input_dim, a context size, a
    layer's in_dim or out_dim) that is not a JSON integer, a layer's weight
    or bias that is not a flat list of out_dim * in_dim or out_dim JSON
    numbers, an input_dim the first layer does not take, and malformed or
    out-of-range fields raise FormatError naming the path.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid JSON text ({exc})") from exc
    try:
        raw_layers = payload["layers"]
        input_dim = _json_int(payload, "input_dim", f"{path}: ")
        left = _json_int(payload, "left_context", f"{path}: ")
        right = _json_int(payload, "right_context", f"{path}: ")
        layers = []
        for i, raw in enumerate(raw_layers):
            where = f"{path}: layer {i} "
            out_dim = _json_int(raw, "out_dim", where)
            in_dim = _json_int(raw, "in_dim", where)
            weight = _json_numbers(raw, "weight", out_dim * in_dim, where)
            bias = _json_numbers(raw, "bias", out_dim, where)
            layers.append(LayerSpec(weight.reshape(out_dim, in_dim), bias, raw["activation"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed model file ({exc})") from exc
    model = AcousticModel(tuple(layers), left_context=left, right_context=right)
    if input_dim != model.input_dim:
        raise FormatError(f"{path}: input_dim is {input_dim}, but the layers take {model.input_dim}")
    return model


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1, keepdims=True), taken with one np.maximum per column.

    Max is exact, so each row gets the reduction's number. Only the sign of a
    tie of +0 and -0 and the payload of a NaN may differ, as numpy's
    vectorised reduction leaves both unspecified; a tie of zeros puts at
    least 2 in the row's sum of exponentials, so no log-probability changes.
    On training's logits, a few columns wide and thousands of rows, a few
    calls over all rows cost far less than one short reduction per row.
    """
    top = a[:, :1].copy()
    for j in range(1, a.shape[1]):
        np.maximum(top, a[:, j : j + 1], out=top)
    return top


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


def _layer_stack(
    weights: list[np.ndarray], biases: list[np.ndarray], activations: list[str], x: np.ndarray,
    outs: list[np.ndarray],
) -> np.ndarray:
    """Run the layers on x in place: outs[i] gets layer i's activations, the last its logits.

    Returns the logits. Each step is the one an out-of-place pass makes, in its
    order, so no bit depends on outs.
    """
    h = x
    for w, b, act, z in zip(weights, biases, activations, outs):
        np.matmul(h, w.T, out=z)
        z += b
        if act == "sigmoid":
            expit(z, out=z)
        elif act == "relu":
            np.maximum(z, 0.0, out=z)
        elif act == "tanh":
            np.tanh(z, out=z)
        h = z
    return h


def _layer_outputs(model: AcousticModel, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output on the spliced input x, each in a fresh array; the last is the logits."""
    layers = model.layers
    outs = [np.empty((x.shape[0], s.out_dim)) for s in layers]
    _layer_stack(
        [s.weight for s in layers], [s.bias for s in layers], [s.activation for s in layers], x, outs
    )
    return outs


def forward(model: AcousticModel, features: FeatureMatrix) -> PosteriorMatrix:
    """Run the affine/activation stack and return row-stochastic posteriors.

    Features must have dim input_dim; they are spliced internally with the
    model's context. Softmax subtracts the per-row max before exponentiation.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        *hidden, logits = _layer_outputs(model, _model_input(model, features))
    if not all(np.all(np.isfinite(h)) for h in hidden):
        raise NumericError("non-finite values in a hidden layer")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in the output layer")
    return PosteriorMatrix(_softmax_rows(logits))


def _mean_nll(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log softmax probability of each row's label, and where those are.

    logits is turned into the log-probabilities in place. The second result
    indexes logits.ravel(), one entry per row: row * n_classes + label.
    """
    picks = np.arange(logits.shape[0]) * logits.shape[1] + labels
    logits -= _row_max(logits)
    log_z = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    logits -= log_z
    return float(-logits.take(picks).mean()), picks


def _loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    labels: np.ndarray,
    outs: list[np.ndarray],
    deltas: list[np.ndarray],
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy over one full batch and its gradients, for sigmoid hidden layers.

    outs and deltas hold each layer's frames x width output and delta; train_toy
    allocates them once per call. Log-probabilities overwrite the logits, and 1 - a
    the activations a once they are read for the last time. Every step is the one an
    out-of-place pass makes, in its order, so the bits, and the fresh gradients
    returned, do not depend on the buffers.
    """
    n = x.shape[0]
    acts = ["sigmoid"] * (len(weights) - 1) + ["softmax"]
    logits = _layer_stack(weights, biases, acts, x, outs)
    hs = [x, *outs[:-1]]
    loss, picks = _mean_nll(logits, labels)
    delta = np.exp(logits, out=deltas[-1])
    delta.reshape(-1)[picks] -= 1.0
    delta /= n
    grads_w: list[np.ndarray] = [np.empty(0)] * len(weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(weights)
    for li in range(len(weights) - 1, -1, -1):
        grads_w[li] = delta.T @ hs[li]
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            a = hs[li]
            delta = np.matmul(delta, weights[li], out=deltas[li - 1])
            delta *= a
            np.subtract(1.0, a, out=a)
            delta *= a
    return loss, grads_w, grads_b


def cross_entropy_loss(model: AcousticModel, features: FeatureMatrix, labels: Sequence[int]) -> float:
    """Mean cross-entropy of the model's posteriors against integer frame labels."""
    x = _model_input(model, features)
    y = _checked_labels(labels, x.shape[0], model.n_classes)
    return _mean_nll(_layer_outputs(model, x)[-1], y)[0]


def frame_error_rate(model: AcousticModel, features: FeatureMatrix, labels: Sequence[int]) -> float:
    """Percent of frames whose argmax posterior disagrees with the label."""
    posteriors = forward(model, features)
    y = _checked_labels(labels, posteriors.n_frames, model.n_classes)
    predicted = posteriors.values.argmax(axis=1)
    return float(100.0 * np.mean(predicted != y))


_ThreadControl = tuple[Callable[[int], None], Callable[[], int]]


def _openblas_thread_controls() -> list[_ThreadControl]:
    """(setter, getter) of the thread count of each bundled OpenBLAS copy already loaded.

    A package not imported, a copy not loaded (dlopen with RTLD_NOLOAD loads
    nothing) and a copy without both symbols are passed over.
    """
    no_load = getattr(os, "RTLD_NOLOAD", None)
    if no_load is None:
        return []
    controls = []
    for package, pattern, suffix in _OPENBLAS_COPIES:
        module = sys.modules.get(package)
        if getattr(module, "__file__", None) is None:
            continue
        libs_dir = Path(module.__file__).parent.parent / f"{package}.libs"
        for path in sorted(libs_dir.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path), mode=no_load)
            except OSError:
                continue
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            controls.append((setter, getter))
    return controls


def _set_blas_threads(n: int) -> int | None:
    """Set every loaded OpenBLAS copy to n threads and return the first one's old count.

    Returns None, changing nothing, when no known copy is loaded. Never
    raises, so it can serve as a process pool's worker initializer.
    """
    previous = None
    for setter, getter in _openblas_thread_controls():
        if previous is None:
            previous = getter()
        setter(n)
    return previous


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with every loaded OpenBLAS copy at one thread, then restore.

    The count is process-wide, so the block holds any other BLAS work in the
    process to one thread too, and two threads that enter it at once can
    leave the process at one thread.
    """
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            _set_blas_threads(previous)


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
    learning_rate: float = 0.1,
    epochs: int = 100,
    seed: int = 0,
    n_classes: int | None = None,
    left_context: int = 0,
    right_context: int = 0,
) -> AcousticModel:
    """Full-batch gradient descent on mean cross-entropy; returns the lowest-loss iterate.

    Every hidden layer is sigmoid. features and labels hold one matrix and
    one label array per utterance. Each utterance is spliced on its own, so
    no frame's context crosses an utterance boundary; all frames then form
    one batch.

    Training is deterministic given the seed. With epochs=0 the seeded initial
    model is returned untouched. While it trains, the process's OpenBLAS
    thread count is 1 (see _one_blas_thread), so it is not safe to call from
    two threads at once.
    """
    real = isinstance(learning_rate, Real) and not isinstance(learning_rate, bool)
    if not (real and 0 < learning_rate < np.inf):
        raise ValidationError(f"learning_rate must be a positive, finite number, got {learning_rate!r}")
    if _as_int(seed, "seed") < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if _as_int(epochs, "epochs") < 0:
        raise ValidationError("epochs must be nonnegative")
    hidden = [_as_int(d, "hidden layer width") for d in hidden_dims]
    classes = None if n_classes is None else _as_int(n_classes, "n_classes")
    left, right = _as_int(left_context, "left_context"), _as_int(right_context, "right_context")
    if any(d < 1 for d in hidden):
        raise ValidationError(f"hidden layer widths must be positive, got {hidden}")
    if not features:
        raise EmptyInputError("no training utterances")
    if len(features) != len(labels) or any(f.dim != features[0].dim for f in features):
        raise ShapeMismatchError("need one label array per feature matrix, all of one width")
    y = np.concatenate([np.ravel(lab) for lab in labels]).astype(np.int64)
    if y.size == 0:
        raise EmptyInputError("no training labels")
    classes = int(y.max()) + 1 if classes is None else classes
    for feats, lab in zip(features, labels):
        _checked_labels(lab, feats.n_frames, classes)
    if y.size < classes:
        raise TooShortError(f"need at least {classes} frames to train {classes} classes")
    x = np.vstack([splice_array(f.values, left, right) for f in features])

    rng = np.random.default_rng(seed)
    dims = [x.shape[1], *hidden, classes]
    weights, biases = _init_layers(rng, dims)
    acts = ["sigmoid"] * (len(dims) - 2) + ["softmax"]
    outs = [np.empty((x.shape[0], w)) for w in dims[1:]]
    deltas = [np.empty_like(z) for z in outs]

    # One BLAS thread: the sums inside the matrix products, and so the model's
    # bytes, would otherwise depend on the thread count.
    with _one_blas_thread():
        # Each pass yields the loss of the current iterate and the gradient for
        # the next step, so epochs steps cost epochs + 1 passes.
        loss, grads_w, grads_b = _loss_and_grads(weights, biases, x, y, outs, deltas)
        best_loss, best_w, best_b = loss, weights, biases
        for _ in range(epochs):
            weights = [w - learning_rate * g for w, g in zip(weights, grads_w)]
            biases = [b - learning_rate * g for b, g in zip(biases, grads_b)]
            loss, grads_w, grads_b = _loss_and_grads(weights, biases, x, y, outs, deltas)
            if loss < best_loss:
                best_loss, best_w, best_b = loss, weights, biases

    layers = tuple(
        LayerSpec(w, b, act) for w, b, act in zip(best_w, best_b, acts)
    )
    return AcousticModel(layers, left_context=left, right_context=right)
