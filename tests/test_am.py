"""Feed-forward acoustic model: forward pass, serialization, training."""

import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from ageval import am, dsp
from ageval.errors import (
    EmptyInputError,
    FormatError,
    LabelError,
    ModelValidationError,
    NumericError,
    ShapeMismatchError,
    ValidationError,
)


def random_model(rng, input_dim=5, hidden=7, n_classes=4, left=1, right=1,
                 activation="tanh"):
    width = left + right + 1
    layers = (
        am.LayerSpec(
            rng.normal(0, 0.5, (hidden, input_dim * width)),
            rng.normal(0, 0.1, hidden),
            activation,
        ),
        am.LayerSpec(
            rng.normal(0, 0.5, (n_classes, hidden)),
            rng.normal(0, 0.1, n_classes),
            "softmax",
        ),
    )
    return am.AcousticModel(layers, left_context=left, right_context=right)


def reference_forward(model, feats):
    """Per-frame forward pass written with plain python loops."""
    rows = dsp.splice_array(feats.values, model.left_context, model.right_context)
    out = []
    for row in rows:
        h = [float(v) for v in row]
        for layer in model.layers:
            w, b = layer.weight, layer.bias
            z = [
                sum(w[i, j] * h[j] for j in range(len(h))) + float(b[i])
                for i in range(w.shape[0])
            ]
            if layer.activation == "sigmoid":
                h = [1.0 / (1.0 + math.exp(-v)) for v in z]
            elif layer.activation == "relu":
                h = [max(0.0, v) for v in z]
            elif layer.activation == "tanh":
                h = [math.tanh(v) for v in z]
            else:
                top = max(z)
                e = [math.exp(v - top) for v in z]
                total = sum(e)
                h = [v / total for v in e]
        out.append(h)
    return np.array(out)


# forward pass ----------------------------------------------------------

def test_forward_matches_loop_reference():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    feats = dsp.FeatureMatrix(rng.normal(0, 1, (11, 5)), "fbank", 10.0)
    post = am.forward(model, feats)
    assert_allclose(post.values, reference_forward(model, feats), atol=1e-12)


def test_forward_rows_are_probability_distributions():
    rng = np.random.default_rng(1)
    model = random_model(rng, activation="relu")
    feats = dsp.FeatureMatrix(rng.normal(0, 2, (20, 5)), "fbank", 10.0)
    post = am.forward(model, feats)
    assert np.all(post.values >= 0)
    assert_allclose(post.values.sum(axis=1), 1.0, atol=1e-9)


def test_forward_is_invariant_to_final_logit_shift():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    shifted_layers = model.layers[:-1] + (
        am.LayerSpec(
            model.layers[-1].weight,
            model.layers[-1].bias + 3.7,
            "softmax",
        ),
    )
    shifted = am.AcousticModel(
        shifted_layers, left_context=model.left_context, right_context=model.right_context,
    )
    feats = dsp.FeatureMatrix(rng.normal(0, 1, (8, 5)), "fbank", 10.0)
    assert_allclose(
        am.forward(model, feats).values,
        am.forward(shifted, feats).values,
        atol=1e-12,
    )


def test_forward_splices_context_internally():
    rng = np.random.default_rng(3)
    model = random_model(rng, left=2, right=2)
    flat = am.AcousticModel(model.layers)
    feats = dsp.FeatureMatrix(rng.normal(0, 1, (10, 5)), "fbank", 10.0)
    spliced = dsp.FeatureMatrix(dsp.splice_array(feats.values, 2, 2), "spliced", 10.0)
    a = am.forward(model, feats)
    b = am.forward(flat, spliced)
    assert np.array_equal(a.values, b.values)
    # a context model takes raw features only, not ones spliced upstream
    with pytest.raises(ShapeMismatchError):
        am.forward(model, spliced)


def test_forward_with_zero_final_layer_is_uniform():
    layers = (am.LayerSpec(np.zeros((6, 3)), np.zeros(6), "softmax"),)
    model = am.AcousticModel(layers)
    feats = dsp.FeatureMatrix(np.random.default_rng(4).normal(0, 1, (5, 3)), "fbank", 10.0)
    assert np.all(am.forward(model, feats).values == 1.0 / 6.0)


def test_forward_rejects_wrong_dimension():
    model = random_model(np.random.default_rng(5))
    feats = dsp.FeatureMatrix(np.zeros((4, 9)), "fbank", 10.0)
    with pytest.raises(ShapeMismatchError):
        am.forward(model, feats)


def test_forward_flags_numeric_overflow():
    layers = (
        am.LayerSpec(np.full((4, 2), 1e308), np.zeros(4), "relu"),
        am.LayerSpec(np.ones((3, 4)), np.zeros(3), "softmax"),
    )
    model = am.AcousticModel(layers)
    feats = dsp.FeatureMatrix(np.full((2, 2), 10.0), "fbank", 10.0)
    with pytest.raises(NumericError):
        am.forward(model, feats)


def out_of_place_layer_stack(weights, biases, activations, x):
    """The layer stack written out of place, frozen as the reference the in-place one must
    match bit for bit: the inputs to every layer (x first) and the final logits."""
    hs = [x]
    for w, b, act in zip(weights[:-1], biases[:-1], activations[:-1]):
        z = hs[-1] @ w.T + b
        hs.append(expit(z) if act == "sigmoid" else np.maximum(z, 0.0) if act == "relu" else np.tanh(z))
    return hs, hs[-1] @ weights[-1].T + biases[-1]


def out_of_place_forward(model, feats):
    """forward's posteriors through out_of_place_layer_stack and an out-of-place softmax."""
    x = dsp.splice_array(feats.values, model.left_context, model.right_context)
    with np.errstate(over="ignore", invalid="ignore"):
        hs, logits = out_of_place_layer_stack(*layer_params(model), x)
    if not all(np.all(np.isfinite(h)) for h in hs[1:]):
        raise NumericError("non-finite values in a hidden layer")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in the output layer")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def layer_params(model):
    return ([s.weight for s in model.layers], [s.bias for s in model.layers],
            [s.activation for s in model.layers])


def outcome(run):
    """run()'s bytes, or the NumericError it raised."""
    try:
        return np.float64(run()).tobytes()
    except NumericError as exc:
        return f"NumericError: {exc}"


@given(
    n=st.integers(1, 500),
    dim=st.integers(1, 8),
    left=st.integers(0, 2),
    right=st.integers(0, 2),
    hidden=st.lists(st.tuples(st.sampled_from(["sigmoid", "relu", "tanh"]), st.integers(1, 40)),
                    max_size=2),
    classes=st.integers(2, 12),
    log10_scale=st.floats(-3, 3) | st.floats(150, 308),
    weight_gain=st.sampled_from([1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, dim=8, left=0, right=0, hidden=[("relu", 3)], classes=3, log10_scale=308.0,
         weight_gain=1e3, seed=0)  # overflows in the hidden layer
@example(n=4, dim=8, left=2, right=1, hidden=[], classes=3, log10_scale=308.0,
         weight_gain=1e3, seed=0)  # overflows in the output layer
@settings(max_examples=100, deadline=None)
def test_forward_and_loss_keep_the_bits_of_the_out_of_place_pass(
        n, dim, left, right, hidden, classes, log10_scale, weight_gain, seed):
    rng = np.random.default_rng(seed)
    widths = [dim * (left + right + 1), *(w for _, w in hidden), classes]
    weights, biases = random_layers(rng, widths)
    weights = [w * weight_gain for w in weights]
    acts = [act for act, _ in hidden] + ["softmax"]
    model = am.AcousticModel(
        tuple(map(am.LayerSpec, weights, biases, acts)), left_context=left, right_context=right
    )
    feats = dsp.FeatureMatrix(rng.uniform(-1, 1, (n, dim)) * 10.0 ** log10_scale, "fbank", 10.0)
    labels = rng.integers(0, classes, n)
    assert outcome(lambda: am.forward(model, feats).values) == outcome(
        lambda: out_of_place_forward(model, feats))
    x = dsp.splice_array(feats.values, left, right)
    with np.errstate(all="ignore"):
        got = am.cross_entropy_loss(model, feats, labels)
        expected = am._mean_nll(out_of_place_layer_stack(*layer_params(model), x)[1], labels)[0]
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


# model validation and serialization -------------------------------------

def test_model_round_trip_preserves_forward_exactly(tmp_path):
    rng = np.random.default_rng(6)
    model = random_model(rng, activation="sigmoid")
    path = tmp_path / "model.json"
    am.save_model(model, path)
    back = am.load_model(path)
    assert back.left_context == 1 and back.right_context == 1
    feats = dsp.FeatureMatrix(rng.normal(0, 1, (7, 5)), "fbank", 10.0)
    assert np.array_equal(
        am.forward(model, feats).values, am.forward(back, feats).values
    )


def test_saved_model_is_plain_json(tmp_path):
    model = random_model(np.random.default_rng(7))
    path = tmp_path / "model.json"
    am.save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["input_dim"] == 5
    assert [layer["activation"] for layer in doc["layers"]] == ["tanh", "softmax"]


def test_load_model_rejects_broken_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        am.load_model(path)
    path.write_text(json.dumps({"input_dim": 3}))
    with pytest.raises(FormatError):
        am.load_model(path)


def test_load_model_rejects_wrong_weight_size(tmp_path):
    model = random_model(np.random.default_rng(8))
    path = tmp_path / "model.json"
    am.save_model(model, path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["weight"] = doc["layers"][0]["weight"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        am.load_model(path)


@pytest.mark.parametrize("value", [2.5, 2.0, "2", True], ids=["2.5", "2.0", "str", "true"])
@pytest.mark.parametrize(
    "field", ["input_dim", "left_context", "right_context", "in_dim", "out_dim"]
)
def test_load_model_takes_counts_only_as_json_integers(tmp_path, field, value):
    path = tmp_path / "model.json"
    am.save_model(random_model(np.random.default_rng(8)), path)
    doc = json.loads(path.read_text())
    record, where = (doc, "") if field in doc else (doc["layers"][0], "layer 0 ")
    record[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as info:
        am.load_model(path)
    assert str(info.value) == f"{path}: {where}{field} must be a JSON integer, got {json.dumps(value)}"


@pytest.mark.parametrize("field, value, message", [
    ("weight", [[1, 2, 3], [4, 5, 6]], "weight must be a flat list of 6 JSON numbers, got 2 values"),
    ("weight", [1, 2, 3, 4, 5, "6"], 'weight[5] must be a JSON number, got "6"'),
    ("bias", [0, 0, True], "bias[2] must be a JSON number, got true"),
    ("bias", [[0], [0], [0]], "bias[0] must be a JSON number, got [0]"),
], ids=["nested weight", "string weight", "bool bias", "nested bias"])
def test_load_model_takes_weights_and_biases_only_as_flat_lists_of_json_numbers(
        tmp_path, field, value, message):
    layer = {"activation": "softmax", "in_dim": 2, "out_dim": 3, "weight": [1, 2, 3, 4, 5, 6], "bias": [0, 0, 0]}
    doc = {"input_dim": 2, "left_context": 0, "right_context": 0, "layers": [layer]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert am.load_model(path).layers[0].weight.tolist() == [[1, 2], [3, 4], [5, 6]]
    layer[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as info:
        am.load_model(path)
    assert str(info.value) == f"{path}: layer 0 {message}"


def test_a_model_file_without_layers_is_a_model_without_layers(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"input_dim": 3, "left_context": 0, "right_context": 0, "layers": []}))
    with pytest.raises(ModelValidationError, match="^model must have at least one layer$"):
        am.load_model(path)


def test_the_class_count_is_the_final_layers_width(tmp_path):
    assert [f.name for f in dataclasses.fields(am.AcousticModel)] == [
        "layers", "left_context", "right_context"
    ]
    path = tmp_path / "model.json"
    am.save_model(random_model(np.random.default_rng(8), n_classes=6), path)
    loaded = am.load_model(path)
    feats, labels = cluster_data(seed=15, n=10)
    trained = am.train_toy([feats], [labels], epochs=2, n_classes=3)
    for model, n_classes in ((loaded, 6), (trained, 3)):
        assert model.n_classes == model.layers[-1].out_dim == n_classes
    with pytest.raises(TypeError):
        am.AcousticModel(loaded.layers, n_classes=6)


def a_count(values):
    """Each drawn count as a Python int or as a numpy integer."""
    return values.flatmap(lambda c: st.sampled_from([c, np.int64(c), np.int32(c), np.uint8(c)]))


@given(
    input_dim=st.integers(1, 8),
    hidden=st.lists(st.tuples(st.sampled_from(["sigmoid", "relu", "tanh"]), st.integers(1, 6)),
                    max_size=2),
    classes=st.integers(1, 5),
    left=a_count(st.integers(0, 3)),
    right=a_count(st.integers(0, 3)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_a_model_survives_a_save_and_a_load(input_dim, hidden, classes, left, right, seed):
    rng = np.random.default_rng(seed)
    widths = [input_dim * (int(left) + int(right) + 1), *(w for _, w in hidden), classes]
    acts = [act for act, _ in hidden] + ["softmax"]
    layers = tuple(map(am.LayerSpec, *random_layers(rng, widths), acts))
    model = am.AcousticModel(layers, left_context=left, right_context=right)
    with tempfile.TemporaryDirectory() as name:
        first, second = Path(name, "first.json"), Path(name, "second.json")
        am.save_model(model, first)
        back = am.load_model(first)
        am.save_model(back, second)
        assert second.read_bytes() == first.read_bytes()
    for m in (model, back):
        assert (m.input_dim, m.left_context, m.right_context) == (input_dim, left, right)
        assert type(m.left_context) is type(m.right_context) is int
    assert len(back.layers) == len(model.layers)
    for a, b in zip(model.layers, back.layers):
        assert a.activation == b.activation
        assert a.weight.tobytes() == b.weight.tobytes() and a.bias.tobytes() == b.bias.tobytes()


def test_a_models_input_width_is_read_from_its_first_layer():
    layers = (am.LayerSpec(np.ones((2, 6)), np.zeros(2), "softmax"),)
    assert am.AcousticModel(layers).input_dim == 6
    assert am.AcousticModel(layers, left_context=1, right_context=1).input_dim == 2
    assert am.AcousticModel(layers, right_context=5).input_dim == 1
    with pytest.raises(ModelValidationError, match=(
        "^the first layer's 6 inputs do not split into 4 spliced frames$"
    )):
        am.AcousticModel(layers, left_context=3)
    # the contexts are keyword-only, so an old positional input_dim is never read as a context
    with pytest.raises(TypeError):
        am.AcousticModel(layers, 2)
    with pytest.raises(TypeError):
        am.AcousticModel(layers, input_dim=6)


@pytest.mark.parametrize("value", [1.0, 2.5, True, "1"], ids=["1.0", "2.5", "true", "str"])
@pytest.mark.parametrize("field", ["left_context", "right_context"])
def test_a_model_takes_its_contexts_only_as_integers(field, value):
    layers = (am.LayerSpec(np.ones((2, 6)), np.zeros(2), "softmax"),)
    with pytest.raises(ModelValidationError) as info:
        am.AcousticModel(layers, **{field: value})
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


def test_a_model_file_whose_input_dim_disagrees_with_its_first_layer_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    am.save_model(random_model(np.random.default_rng(8)), path)  # 5 inputs, spliced 3 wide
    doc = json.loads(path.read_text())
    assert (doc["input_dim"], doc["layers"][0]["in_dim"]) == (5, 15)
    doc["input_dim"] = 15
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as info:
        am.load_model(path)
    assert str(info.value) == f"{path}: input_dim is 15, but the layers take 5"


@pytest.mark.parametrize("out_dim, in_dim", [(0, 2), (2, 0)])
def test_a_layer_without_rows_or_columns_is_rejected(tmp_path, out_dim, in_dim):
    layer = {"activation": "softmax", "in_dim": in_dim, "out_dim": out_dim, "weight": [],
             "bias": [0] * out_dim}
    doc = {"input_dim": in_dim, "left_context": 0, "right_context": 0, "layers": [layer]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelValidationError, match=(
        rf"^layer weight must not be empty, got shape \({out_dim}, {in_dim}\)$"
    )):
        am.load_model(path)


def test_hidden_softmax_rejected():
    layers = (
        am.LayerSpec(np.ones((3, 2)), np.zeros(3), "softmax"),
        am.LayerSpec(np.ones((2, 3)), np.zeros(2), "softmax"),
    )
    with pytest.raises(ModelValidationError):
        am.AcousticModel(layers)


def test_final_layer_must_be_softmax():
    layers = (am.LayerSpec(np.ones((3, 2)), np.zeros(3), "sigmoid"),)
    with pytest.raises(ModelValidationError):
        am.AcousticModel(layers)


def test_layer_chain_dimensions_must_agree():
    layers = (
        am.LayerSpec(np.ones((4, 2)), np.zeros(4), "tanh"),
        am.LayerSpec(np.ones((3, 5)), np.zeros(3), "softmax"),
    )
    with pytest.raises(ModelValidationError):
        am.AcousticModel(layers)


# Each array a value object holds, by the name its errors give it: a good
# value, a maker of the object from a variant of that value, and its error type.
VALUE_ARRAYS = {
    "waveform samples": (np.full(4, 0.5), lambda a: dsp.Waveform(a, 16000), ValidationError),
    "feature matrix": (np.full((3, 2), 0.5), lambda a: dsp.FeatureMatrix(a, "fbank", 10.0),
                       ValidationError),
    "layer weight": (np.ones((2, 3)), lambda a: am.LayerSpec(a, np.zeros(2), "softmax"),
                     ModelValidationError),
    "layer bias": (np.zeros(2), lambda a: am.LayerSpec(np.ones((2, 3)), a, "softmax"),
                   ModelValidationError),
    "posterior matrix": (np.full((3, 2), 0.5), am.PosteriorMatrix, ValidationError),
}


def with_entry(a, value):
    a = a.copy()
    a.flat[-1] = value
    return a


@pytest.mark.parametrize("fault", ["nan", "inf", "empty", "ndim"])
@pytest.mark.parametrize("name", list(VALUE_ARRAYS))
def test_a_value_objects_arrays_have_their_axes_none_empty_and_only_finite_entries(name, fault):
    good, make, error = VALUE_ARRAYS[name]
    make(good)
    bad, rule = {
        "nan": (with_entry(good, np.nan), "must be finite"),
        "inf": (with_entry(good, np.inf), "must be finite"),
        "empty": (good[:0], f"must not be empty, got shape {good[:0].shape}"),
        "ndim": (good[None], f"must be {good.ndim}-D, got shape {good[None].shape}"),
    }[fault]
    with pytest.raises(error) as info:
        make(bad)
    assert type(info.value) is error
    assert str(info.value) == f"{name} {rule}"


# loss, gradients, error rate --------------------------------------------

@pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
def test_cross_entropy_matches_forward_probabilities(activation):
    rng = np.random.default_rng(9)
    model = random_model(rng, activation=activation)
    feats = dsp.FeatureMatrix(rng.normal(0, 1, (12, 5)), "fbank", 10.0)
    labels = rng.integers(0, 4, 12)
    post = am.forward(model, feats).values
    expected = -np.mean(np.log(post[np.arange(12), labels]))
    assert_allclose(am.cross_entropy_loss(model, feats, labels), expected, rtol=1e-12)


def test_cross_entropy_loss_rejects_wrong_dimension():
    rng = np.random.default_rng(10)
    model = random_model(rng)
    spliced = dsp.FeatureMatrix(rng.normal(0, 1, (6, 15)), "spliced", 10.0)
    with pytest.raises(ShapeMismatchError):
        am.cross_entropy_loss(model, spliced, [0] * 6)


def layer_buffers(n_frames, widths):
    """Per layer, an output and a delta array, as train_toy allocates once per call."""
    return [np.empty((n_frames, w)) for w in widths], [np.empty((n_frames, w)) for w in widths]


def test_gradients_match_central_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (12, 6))
    labels = rng.integers(0, 4, 12)
    weights = [rng.normal(0, 0.5, (5, 6)), rng.normal(0, 0.5, (4, 5))]
    biases = [rng.normal(0, 0.1, 5), rng.normal(0, 0.1, 4)]

    def model_with(ws):
        layers = (
            am.LayerSpec(ws[0], biases[0], "sigmoid"),
            am.LayerSpec(ws[1], biases[1], "softmax"),
        )
        return am.AcousticModel(layers)

    feats = dsp.FeatureMatrix(x, "fbank", 10.0)
    loss, grads_w, _ = am._loss_and_grads(weights, biases, x, labels, *layer_buffers(12, [5, 4]))
    assert_allclose(loss, am.cross_entropy_loss(model_with(weights), feats, labels),
                    rtol=1e-12)
    step = 1e-5
    for _ in range(10):
        li = int(rng.integers(0, 2))
        i = int(rng.integers(0, weights[li].shape[0]))
        j = int(rng.integers(0, weights[li].shape[1]))
        bumped = [w.copy() for w in weights]
        bumped[li][i, j] += step
        up = am.cross_entropy_loss(model_with(bumped), feats, labels)
        bumped[li][i, j] -= 2 * step
        down = am.cross_entropy_loss(model_with(bumped), feats, labels)
        numeric = (up - down) / (2 * step)
        analytic = grads_w[li][i, j]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
        assert rel < 1e-6


def reference_loss_and_grads(weights, biases, x, labels):
    """The loss-and-gradient pass written out of place, with numpy's row max, frozen as the
    reference the workspace pass must match bit for bit."""
    n = x.shape[0]
    hs = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        hs.append(expit(hs[-1] @ w.T + b))
    logits = hs[-1] @ weights[-1].T + biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = float(-log_p[np.arange(n), labels].mean())
    delta = np.exp(log_p)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for li in range(len(weights) - 1, -1, -1):
        grads_w[li] = delta.T @ hs[li]
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            delta = delta @ weights[li]
            a = hs[li]
            delta = delta * a * (1.0 - a)
    return loss, grads_w, grads_b


def random_layers(rng, dims):
    weights = [rng.uniform(-1, 1, (o, i)) / np.sqrt(i) for i, o in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(0, 0.5, o) for o in dims[1:]]
    return weights, biases


@given(
    n=st.integers(1, 3000),
    dim=st.integers(1, 250),
    hidden=st.lists(st.integers(1, 40), max_size=2),
    classes=st.integers(2, 12),
    used_labels=st.integers(1, 12),
    log10_scale=st.floats(-3, 3) | st.floats(-300, 300),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_loss_and_grads_keep_the_bits_of_the_out_of_place_pass(
        n, dim, hidden, classes, used_labels, log10_scale, seed):
    rng = np.random.default_rng(seed)
    dims = [dim, *hidden, classes]
    x = rng.normal(0, 10.0 ** log10_scale, (n, dim))
    labels = rng.integers(0, min(used_labels, classes), n)
    weights, biases = random_layers(rng, dims)
    buffers = layer_buffers(n, dims[1:])
    with np.errstate(all="ignore"):
        # a pass with other weights first, as train_toy reuses its buffers
        am._loss_and_grads(*random_layers(rng, dims), x, labels, *buffers)
        got = am._loss_and_grads(weights, biases, x, labels, *buffers)
        expected = reference_loss_and_grads(weights, biases, x, labels)
    assert np.float64(got[0]).tobytes() == np.float64(expected[0]).tobytes()
    for got_grads, expected_grads in zip(got[1:], expected[1:]):
        assert [g.tobytes() for g in got_grads] == [g.tobytes() for g in expected_grads]


@given(arrays(
    np.float64,
    st.tuples(st.integers(0, 40), st.integers(1, 16)),
    elements=st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]) | st.floats(),
))
@settings(max_examples=300, deadline=None)
def test_row_max_takes_each_rows_maximum(a):
    top = am._row_max(a)
    expected = a.max(axis=1, keepdims=True)
    # the same numbers, NaN for NaN; numpy's vectorised reduction leaves the
    # sign of a tie of +0 and -0 and the payload of a NaN unspecified
    assert_array_equal(top, expected, strict=True)
    plain = ~np.isnan(expected) & (expected != 0)
    assert top[plain].tobytes() == expected[plain].tobytes()
    # a tie of zeros reaches no log-probability
    finite = a[np.isfinite(a).all(axis=1)]
    with np.errstate(over="ignore"):
        shifted = finite - finite.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logits = finite.copy()
        if finite.shape[0]:
            am._mean_nll(logits, np.zeros(finite.shape[0], dtype=np.int64))
    assert logits.tobytes() == log_p.tobytes()


def test_frame_error_rate_hand_case():
    layers = (am.LayerSpec(10.0 * np.eye(2), np.zeros(2), "softmax"),)
    model = am.AcousticModel(layers)
    feats = dsp.FeatureMatrix(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), "fbank", 10.0
    )
    assert am.frame_error_rate(model, feats, [0, 1, 1]) == pytest.approx(100.0 / 3.0)
    assert am.frame_error_rate(model, feats, [0, 1, 0]) == 0.0


# training ---------------------------------------------------------------

def cluster_data(seed=11, n=120, dim=5):
    rng = np.random.default_rng(seed)
    low = rng.normal(-1.0, 0.3, (n, dim))
    high = rng.normal(1.0, 0.3, (n, dim))
    feats = dsp.FeatureMatrix(np.vstack([low, high]), "fbank", 10.0)
    labels = np.array([0] * n + [1] * n)
    return feats, labels


def test_train_toy_separates_two_clusters():
    feats, labels = cluster_data()
    model = am.train_toy([feats], [labels], hidden_dims=(8,), learning_rate=0.5,
                         epochs=150, seed=0)
    assert am.frame_error_rate(model, feats, labels) < 5.0


def test_train_toy_is_deterministic_per_seed():
    feats, labels = cluster_data()
    a = am.train_toy([feats], [labels], epochs=20, seed=3)
    b = am.train_toy([feats], [labels], epochs=20, seed=3)
    c = am.train_toy([feats], [labels], epochs=20, seed=4)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)
    assert any(
        not np.array_equal(la.weight, lc.weight)
        for la, lc in zip(a.layers, c.layers)
    )


def watch_loss_and_grads(monkeypatch, observe):
    """Call observe(loss) after each of train_toy's loss-and-gradient passes."""
    loss_and_grads = am._loss_and_grads

    def watched(*args):
        result = loss_and_grads(*args)
        observe(result[0])
        return result

    monkeypatch.setattr(am, "_loss_and_grads", watched)


def test_train_toy_returns_the_lowest_loss_iterate(monkeypatch):
    feats, labels = cluster_data(seed=12, n=40)
    seen = []
    watch_loss_and_grads(monkeypatch, seen.append)
    model = am.train_toy(
        [feats], [labels], hidden_dims=(6,), learning_rate=2.5, epochs=40, seed=1
    )
    assert len(seen) == 41  # initial loss plus one per epoch
    final = am.cross_entropy_loss(model, feats, labels)
    assert_allclose(final, min(seen), rtol=1e-12)


def test_train_toy_with_zero_epochs_returns_the_seeded_init():
    feats, labels = cluster_data(seed=13, n=30)
    a = am.train_toy([feats], [labels], epochs=0, seed=9)
    b = am.train_toy([feats], [labels], epochs=0, seed=9)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.all(la.bias == 0.0)


def test_train_toy_splices_each_utterance_on_its_own():
    feats, labels = cluster_data(seed=14, n=20)
    first = dsp.FeatureMatrix(feats.values[::2], "fbank", 10.0)
    second = dsp.FeatureMatrix(feats.values[1::2], "fbank", 10.0)
    split = [labels[::2], labels[1::2]]
    kwargs = dict(hidden_dims=(4,), learning_rate=0.5, epochs=15, seed=2)
    per_utt = am.train_toy([first, second], split, left_context=1, right_context=1, **kwargs)
    stacked = dsp.FeatureMatrix(
        np.vstack([dsp.splice_array(f.values, 1, 1) for f in (first, second)]), "spliced", 10.0
    )
    flat = am.train_toy([stacked], [np.concatenate(split)], **kwargs)
    for lp, lf in zip(per_utt.layers, flat.layers):
        assert np.array_equal(lp.weight, lf.weight)
        assert np.array_equal(lp.bias, lf.bias)
    assert per_utt.input_dim == 5 and per_utt.left_context == per_utt.right_context == 1
    # splicing the concatenation instead would mix frames across the boundary
    joined = dsp.FeatureMatrix(np.vstack([first.values, second.values]), "fbank", 10.0)
    crossing = am.train_toy(
        [joined], [np.concatenate(split)], left_context=1, right_context=1, **kwargs
    )
    assert not np.array_equal(crossing.layers[0].weight, per_utt.layers[0].weight)


@pytest.mark.parametrize("hidden_dims", [(0,), (4, -1)])
def test_train_toy_rejects_a_hidden_width_below_one(monkeypatch, hidden_dims):
    feats, labels = cluster_data(seed=16, n=10)

    def no_pass(*args):
        raise AssertionError("a training pass ran")

    monkeypatch.setattr(am, "_loss_and_grads", no_pass)
    with pytest.raises(ValidationError, match="^hidden layer widths must be positive, got "):
        am.train_toy([feats], [labels], hidden_dims=hidden_dims)


@pytest.mark.parametrize("argument, value, message", [
    ("hidden_dims", (2.7,), "hidden layer width must be an integer, got 2.7"),
    ("n_classes", 3.9, "n_classes must be an integer, got 3.9"),
    ("left_context", 1.5, "left_context must be an integer, got 1.5"),
    ("right_context", 1.0, "right_context must be an integer, got 1.0"),
    ("epochs", "20", "epochs must be an integer, got '20'"),
    ("seed", 2.5, "seed must be an integer, got 2.5"),
    ("seed", -1, "seed must be nonnegative, got -1"),
])
def test_train_toy_takes_counts_only_as_integers(monkeypatch, argument, value, message):
    feats, labels = cluster_data(seed=16, n=10)

    def no_work(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(am, "splice_array", no_work)
    with pytest.raises(ValidationError) as info:
        am.train_toy([feats], [labels], **{argument: value})
    assert type(info.value) is ValidationError and str(info.value) == message


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf, 0.0, -1.0, "x", True])
def test_train_toy_takes_a_positive_finite_learning_rate(monkeypatch, learning_rate):
    feats, labels = cluster_data(seed=16, n=10)

    def no_work(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(am, "splice_array", no_work)
    with pytest.raises(ValidationError) as info:
        am.train_toy([feats], [labels], learning_rate=learning_rate)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"learning_rate must be a positive, finite number, got {learning_rate!r}"


def test_train_toy_label_validation():
    feats = dsp.FeatureMatrix(np.random.default_rng(0).normal(0, 1, (6, 3)), "fbank", 10.0)
    with pytest.raises(EmptyInputError):
        am.train_toy([feats], [[]])
    with pytest.raises(ShapeMismatchError):
        am.train_toy([feats], [[0, 1]])
    with pytest.raises(LabelError):
        am.train_toy([feats], [[0, 1, 2, 3, 9, 1]], n_classes=4)
    with pytest.raises(LabelError):
        am.train_toy([feats], [[0, 1, -1, 0, 1, 0]], n_classes=2)
    with pytest.raises(ShapeMismatchError):
        am.train_toy([feats, feats], [[0, 1, 0, 1, 0, 1]])


# BLAS threads ------------------------------------------------------------

def blas_thread_counts():
    return [getter() for _, getter in am._openblas_thread_controls()]


def test_each_bundled_openblas_copy_is_found():
    import scipy.linalg  # noqa: F401  (loads scipy's copy)

    bundled = [
        path
        for package, pattern, _ in am._OPENBLAS_COPIES
        for path in (Path(sys.modules[package].__file__).parent.parent
                     / f"{package}.libs").glob(pattern)
    ]
    assert len(blas_thread_counts()) == len(bundled)


def test_train_toy_uses_one_blas_thread_and_restores_the_callers_count(monkeypatch):
    feats, labels = cluster_data()
    original = am._set_blas_threads(2)
    try:
        found = len(blas_thread_counts())
        seen = []
        watch_loss_and_grads(monkeypatch, lambda loss: seen.append(blas_thread_counts()))
        am.train_toy([feats], [labels], epochs=2)
        assert seen == [[1] * found] * 3
        assert blas_thread_counts() == [2] * found

        passes = []

        def fail_on_the_second_pass(loss):
            passes.append(loss)
            if len(passes) == 2:
                raise RuntimeError("stop")

        watch_loss_and_grads(monkeypatch, fail_on_the_second_pass)
        with pytest.raises(RuntimeError):
            am.train_toy([feats], [labels], epochs=2)
        assert len(passes) == 2
        assert blas_thread_counts() == [2] * found
    finally:
        if original is not None:
            am._set_blas_threads(original)


@pytest.mark.parametrize(
    "copies",
    [
        (),
        (("numpy", "no-such-library-*.so", "64_"),),
        (("no_such_package", "*.so", ""), ("sys", "*.so", "")),
        # each copy's symbols looked up under the other copy's suffix
        (("numpy", "libscipy_openblas64_-*.so", ""), ("scipy", "libscipy_openblas-*.so", "64_")),
    ],
)
def test_set_blas_threads_without_a_known_copy_changes_nothing(monkeypatch, copies):
    original = am._set_blas_threads(2)
    try:
        before = blas_thread_counts()
        with monkeypatch.context() as patch:
            patch.setattr(am, "_OPENBLAS_COPIES", copies)
            assert am._set_blas_threads(1) is None
        assert blas_thread_counts() == before
    finally:
        if original is not None:
            am._set_blas_threads(original)


def test_set_blas_threads_without_rtld_noload_changes_nothing(monkeypatch):
    monkeypatch.delattr(os, "RTLD_NOLOAD")
    assert am._openblas_thread_controls() == []
    assert am._set_blas_threads(1) is None
