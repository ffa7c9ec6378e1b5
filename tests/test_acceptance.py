"""Acceptance checks for the whole toolkit.

Each test covers one release criterion and prints a single PASS or FAIL
line naming it, so a plain pytest run doubles as a checklist. The
end-to-end criteria build the default synthetic corpus (seed 0, twenty
utterances, six SNRs) once and share it.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from ageval import am, dsp, fixture, harness, measures, stats


def verdict(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    started = time.perf_counter()
    manifest = fixture.make_fixture_corpus(root / "corpus", seed=0)
    entries = harness.load_manifest(manifest)
    model = am.load_model(root / "corpus" / "model.json")
    cfg = harness.RunConfig()
    table, skipped = harness.score_manifest(entries, model, cfg)
    reports = harness.correlate_by_group(table).groups
    elapsed = time.perf_counter() - started
    return {
        "root": root,
        "manifest": manifest,
        "entries": entries,
        "model": model,
        "cfg": cfg,
        "table": table,
        "skipped": skipped,
        "reports": reports["all"].correlations,
        "elapsed": elapsed,
    }


def random_posteriors(rng, n, k):
    return am.PosteriorMatrix(rng.dirichlet(np.ones(k), size=n))


def test_c01_measure_equals_brute_force_double_sum():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 20))
        k = int(rng.integers(2, 30))
        p = random_posteriors(rng, n, k)
        q = random_posteriors(rng, n, k)
        total = 0.0
        for t in range(n):
            for i in range(k):
                total += float(p.values[t, i]) * math.log(
                    max(float(q.values[t, i]), 1e-10)
                )
        worst = max(worst, abs(measures.age(p, q).value - (-total / n)))
    verdict(f"C1 measure matches the defining double sum (max dev {worst:.2e})",
            worst < 1e-12)


def test_c02_uniform_and_self_identities():
    rng = np.random.default_rng(102)
    uniform_dev = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 15))
        k = int(rng.integers(2, 40))
        p = random_posteriors(rng, n, k)
        uniform = am.PosteriorMatrix(np.full((n, k), 1.0 / k))
        uniform_dev = max(
            uniform_dev, abs(measures.age(p, uniform).value - math.log(k))
        )
    self_dev = 0.0
    gibbs_margin = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(2, 25))
        p = random_posteriors(rng, n, k)
        q = random_posteriors(rng, n, k)
        entropy = measures.entropy_confidence(p).value
        self_dev = max(self_dev, abs(measures.age(p, p).value - entropy))
        gibbs_margin = min(gibbs_margin, measures.age(p, q).value - entropy)
    ok = uniform_dev < 1e-12 and self_dev <= 1e-9 and gibbs_margin >= -1e-9
    verdict(
        "C2 uniform gives ln(classes), self gives entropy, cross never beats "
        f"entropy (devs {uniform_dev:.2e}, {self_dev:.2e}, {gibbs_margin:.2e})",
        ok,
    )


def test_c03_forward_pass_equivalence_and_invariances():
    rng = np.random.default_rng(103)
    hidden = am.LayerSpec(
        rng.normal(0, 0.5, (9, 12)), rng.normal(0, 0.1, 9), "sigmoid"
    )
    final = am.LayerSpec(
        rng.normal(0, 0.5, (5, 9)), rng.normal(0, 0.1, 5), "softmax"
    )
    model = am.AcousticModel((hidden, final), left_context=1, right_context=1)
    feats = dsp.FeatureMatrix(rng.normal(0, 1, (15, 4)), "fbank", 10.0)
    post = am.forward(model, feats).values

    rows = dsp.splice_array(feats.values, 1, 1)
    reference = []
    for row in rows:
        h = [float(v) for v in row]
        for layer in model.layers:
            z = [
                sum(float(layer.weight[i, j]) * h[j] for j in range(len(h)))
                + float(layer.bias[i])
                for i in range(layer.weight.shape[0])
            ]
            if layer.activation == "sigmoid":
                h = [1.0 / (1.0 + math.exp(-v)) for v in z]
            else:
                top = max(z)
                e = [math.exp(v - top) for v in z]
                h = [v / sum(e) for v in e]
        reference.append(h)
    forward_dev = float(np.max(np.abs(post - np.array(reference))))
    row_sum_dev = float(np.max(np.abs(post.sum(axis=1) - 1.0)))

    shifted = am.AcousticModel(
        (hidden, am.LayerSpec(final.weight, final.bias + 11.3, "softmax")),
        left_context=1, right_context=1,
    )
    shift_dev = float(
        np.max(np.abs(am.forward(shifted, feats).values - post))
    )
    ok = forward_dev < 1e-9 and row_sum_dev < 1e-9 and shift_dev < 1e-12
    verdict(
        "C3 forward matches a loop reference, rows are stochastic, logit "
        f"shifts vanish (devs {forward_dev:.2e}, {row_sum_dev:.2e}, {shift_dev:.2e})",
        ok,
    )


def test_c04_training_gradients_match_central_differences():
    rng = np.random.default_rng(104)
    x = rng.normal(0, 1, (14, 6))
    labels = rng.integers(0, 4, 14)
    weights = [rng.normal(0, 0.5, (5, 6)), rng.normal(0, 0.5, (4, 5))]
    biases = [rng.normal(0, 0.1, 5), rng.normal(0, 0.1, 4)]
    feats = dsp.FeatureMatrix(x, "fbank", 10.0)
    buffers = [[np.empty((14, w)) for w in (5, 4)] for _ in range(2)]  # outputs and deltas
    _, grads_w, _ = am._loss_and_grads(weights, biases, x, labels, *buffers)

    def loss_for(ws):
        layers = (
            am.LayerSpec(ws[0], biases[0], "sigmoid"),
            am.LayerSpec(ws[1], biases[1], "softmax"),
        )
        return am.cross_entropy_loss(am.AcousticModel(layers), feats, labels)

    step = 1e-5
    worst = 0.0
    for _ in range(10):
        li = int(rng.integers(0, 2))
        i = int(rng.integers(0, weights[li].shape[0]))
        j = int(rng.integers(0, weights[li].shape[1]))
        bumped = [w.copy() for w in weights]
        bumped[li][i, j] += step
        up = loss_for(bumped)
        bumped[li][i, j] -= 2 * step
        down = loss_for(bumped)
        numeric = (up - down) / (2 * step)
        analytic = grads_w[li][i, j]
        worst = max(
            worst,
            abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12),
        )
    verdict(f"C4 analytic gradients match central differences (worst {worst:.2e})",
            worst < 1e-6)


def test_c05_logistic_fit_recovery_and_dominance():
    true = stats.LogisticParams(1.7, -4.2)
    m_clean = np.linspace(0.5, 6.0, 40)
    fit_clean = stats.fit_logistic(
        m_clean, np.asarray(stats.map_logistic(true, m_clean))
    )
    exact_dev = max(abs(fit_clean.a - true.a), abs(fit_clean.b - true.b))

    rng = np.random.default_rng(0)
    m_noisy = rng.uniform(0.0, 8.0, 50)
    wer_noisy = np.clip(
        np.asarray(stats.map_logistic(true, m_noisy)) + rng.normal(0.0, 1.0, 50),
        0.0, 100.0,
    )
    fit_noisy = stats.fit_logistic(m_noisy, wer_noisy)
    slope_err = abs(fit_noisy.a - true.a) / abs(true.a)

    def loss(params, m, wer):
        mapped = np.asarray(stats.map_logistic(params, m))
        return float(np.sum((mapped - np.clip(wer, 0.0, 100.0)) ** 2))

    dominated = True
    gen = np.random.default_rng(105)
    for _ in range(20):
        n = int(gen.integers(5, 40))
        m = gen.uniform(-3.0, 9.0, n)
        wer = gen.uniform(0.0, 100.0, n)
        clamped = np.clip(wer, 0.1, 99.9)
        z = np.log(100.0 / clamped - 1.0)
        coef, *_ = np.linalg.lstsq(
            np.column_stack([m, np.ones(n)]), z, rcond=None
        )
        init = stats.LogisticParams(float(coef[0]), float(coef[1]))
        fitted = stats.fit_logistic(m, wer)
        if loss(fitted, m, wer) > loss(init, m, wer) + 1e-9:
            dominated = False
    ok = exact_dev < 1e-6 and slope_err < 0.05 and dominated
    verdict(
        "C5 logistic fit recovers parameters and never loses to its start "
        f"(exact {exact_dev:.2e}, noisy slope {slope_err:.2%})",
        ok,
    )


def test_c06_pearson_reference_cases():
    rng = np.random.default_rng(106)
    x = rng.normal(0, 1, 40)
    up_dev = abs(stats.pearson(x, 2.5 * x - 7.0) - 1.0)
    down_dev = abs(stats.pearson(x, -0.4 * x + 3.0) + 1.0)
    hand_dev = abs(stats.pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) - 0.5)
    raised = False
    try:
        stats.pearson([1.0, 1.0, 1.0], x[:3])
    except Exception as exc:
        raised = type(exc).__name__ == "UndefinedCorrelationError"
    ok = up_dev < 1e-12 and down_dev < 1e-12 and hand_dev < 1e-12 and raised
    verdict(
        "C6 correlation is exact on affine data and refuses constants "
        f"(devs {up_dev:.2e}, {down_dev:.2e}, {hand_dev:.2e})",
        ok,
    )


def test_c07_mixing_hits_the_requested_snr():
    rng = np.random.default_rng(107)
    clean = dsp.Waveform(rng.normal(0, 0.1, 16000), 16000)
    noise = dsp.Waveform(rng.normal(0, 0.05, 20000), 16000)
    started = time.perf_counter()
    worst = 0.0
    for snr in (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
        mix = dsp.mix_at_snr(clean, noise, snr)
        added = mix.samples - clean.samples
        got = 10.0 * np.log10(
            np.mean(clean.samples**2) / np.mean(added**2)
        )
        worst = max(worst, abs(got - snr))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 6.0
    verdict(
        f"C7 mixing error stays under 1e-9 dB across the grid "
        f"(worst {worst:.2e} dB, {elapsed / 6:.3f} s per pair)",
        ok,
    )


def test_c08_intelligibility_sanity():
    t = np.arange(30000) / 10000.0
    carrier = (
        np.sin(2 * np.pi * 220 * t)
        + 0.5 * np.sin(2 * np.pi * 440 * t)
        + 0.25 * np.sin(2 * np.pi * 880 * t)
    )
    clean = dsp.Waveform(carrier * (0.5 * (1.0 + np.sin(2 * np.pi * 4 * t))), 10000)
    self_score = measures.stoi(clean, clean).value
    scaled = dsp.Waveform(0.5 * clean.samples, 10000)
    scale_score = measures.stoi(clean, scaled).value
    rng = np.random.default_rng(1234)
    noise = dsp.Waveform(
        rng.normal(0.0, float(np.std(clean.samples)), 30000), 10000
    )
    noise_score = measures.stoi(clean, noise).value
    repeat = measures.stoi(clean, noise).value
    ok = (
        self_score >= 0.999
        and scale_score >= 0.999
        and noise_score < 0.35
        and noise_score == repeat
    )
    verdict(
        f"C8 intelligibility: self {self_score:.4f}, scaled {scale_score:.4f}, "
        f"noise {noise_score:.4f}, bit-stable {noise_score == repeat}",
        ok,
    )


def test_c09_end_to_end_correlation_on_the_synthetic_corpus(pipeline):
    table = pipeline["table"]
    reports = pipeline["reports"]
    assert pipeline["skipped"] == []
    assert len(table) == 120

    by_snr = {}
    for row in table.rows():
        by_snr.setdefault(float(row.tags["snr_db"]), []).append(row.values["age"])
    snrs = sorted(by_snr)
    means = [float(np.mean(by_snr[s])) for s in snrs]
    monotone = all(means[i] >= means[i + 1] for i in range(len(means) - 1))

    age_rho = reports["age"].rho_magnitude
    stoi_rho = reports["stoi"].rho_magnitude
    ok = (
        monotone
        and age_rho >= 0.85
        and age_rho >= stoi_rho
        and pipeline["elapsed"] < 60.0
    )
    verdict(
        "C9 corpus means fall with SNR and the measure outranks the baseline "
        f"(rho {age_rho:.4f} vs stoi {stoi_rho:.4f}, "
        f"means {['%.3f' % v for v in means]}, {pipeline['elapsed']:.1f} s)",
        ok,
    )


def test_c10_determinism_across_workers_and_regeneration(pipeline):
    entries = pipeline["entries"]
    model = pipeline["model"]
    serial = pipeline["table"]
    pooled, pooled_skipped = harness.score_manifest(
        entries, model, harness.RunConfig(workers=8)
    )
    workers_equal = pooled_skipped == [] and pooled == serial

    again = fixture.make_fixture_corpus(pipeline["root"] / "corpus_again", seed=0)
    first_root = pipeline["manifest"].parent
    again_root = again.parent
    rel_first = sorted(
        p.relative_to(first_root) for p in first_root.rglob("*") if p.is_file()
    )
    rel_again = sorted(
        p.relative_to(again_root) for p in again_root.rglob("*") if p.is_file()
    )
    trees_equal = rel_first == rel_again and all(
        filecmp.cmp(first_root / rel, again_root / rel, shallow=False)
        for rel in rel_first
    )
    ok = workers_equal and trees_equal
    verdict(
        "C10 eight workers reproduce the serial rows and regeneration is "
        f"byte-identical ({len(rel_first)} files checked)",
        ok,
    )
