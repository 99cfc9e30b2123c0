"""End-to-end acceptance suite.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (run pytest with
-s or check the captured output). The kernel-ordering test trains four
single-kernel models on a 100k-token corpus and is the slow one (a couple
of minutes); everything else is seconds.
"""

import math

import numpy as np
import pytest

from ksoftmax import data, eval as eval_mod, gradcheck, kernels, output_layer, training
from ksoftmax.kernels import KernelSpec
from ksoftmax.output_layer import MixtureConfig, init_output_params
from ksoftmax.training import TrainConfig

from test_kernels import DISTANCE_KINDS, score_via_trick


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared corpora / training runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_zipf():
    lines = data.generate_zipf(50, 20000, seed=0)
    return data.prepare_corpus(lines, max_size=52, seed=0)


@pytest.fixture(scope="module")
def small_english():
    lines = data.generate_english(20000, seed=0)
    return data.prepare_corpus(lines, max_size=200, seed=0)


def quick_config(**kw):
    base = dict(components=(KernelSpec("lin"),), n=2, d=16, d_e=16,
                batch_size=64, learning_rate=1e-3, max_epochs=5, seed=0,
                rho=0.0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# 1. scalar gradient audit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", kernels.KINDS)
def test_gradient_audit(kind):
    failures = gradcheck.check_kernel(kind, dims=(2, 8, 32), trials=100,
                                      seed=0)
    report(f"gradient-audit-{kind}", not failures,
           f"{len(failures)} mismatches" if failures else
           "100 trials x d in {2,8,32}")


# ---------------------------------------------------------------------------
# 2. full-pipeline gradient audit
# ---------------------------------------------------------------------------

def test_pipeline_gradient_audit():
    failures = []
    mixtures = [(k,) for k in kernels.KINDS]
    mixtures += [(k, "lin") for k in kernels.KINDS]
    mixtures += [(k, "lin", "pow") for k in kernels.KINDS]
    for kinds in mixtures:
        cfg = TrainConfig(components=tuple(KernelSpec(k) for k in kinds),
                          n=2, d=3, d_e=3, rho=0.1, seed=1)
        failures += [(kinds, f) for f in
                     gradcheck.check_pipeline(cfg, V=5, B=2, seed=2)]
    report("pipeline-gradient-audit", not failures,
           f"{len(failures)} mismatches" if failures else
           f"{len(mixtures)} mixtures, K in {{1,2,3}}, B=2 V=5 d=3")


# ---------------------------------------------------------------------------
# 3. norm-expansion trick equivalence
# ---------------------------------------------------------------------------

def test_trick_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for kind in DISTANCE_KINDS:
        spec = (KernelSpec(kind, gamma=0.7) if kind == "rbf"
                else KernelSpec(kind))
        for _ in range(1000):
            d = int(rng.integers(2, 32))
            w = rng.normal(size=d)
            h = rng.normal(size=d)
            if kind == "hpb":
                w *= 0.9 / max(1.0, np.linalg.norm(w))
                h *= 0.9 / max(1.0, np.linalg.norm(h))
            direct = kernels.score(spec, w, h)
            trick = score_via_trick(spec, float(w @ w), float(h @ h), float(w @ h))
            worst = max(worst, abs(direct - trick))
    report("trick-equivalence", worst < 1e-8,
           f"max |direct - trick| = {worst:.3g} over 1000 pairs per kernel")


# ---------------------------------------------------------------------------
# 4. normalization suite
# ---------------------------------------------------------------------------

def test_normalization_suite():
    rng = np.random.default_rng(4)
    worst = 0.0
    configs = [("lin",), ("rbf",), ("hpb",), ("ssg", "mog"),
               ("lin", "pow", "wav"), ("log", "pol")]
    for kinds in configs:
        config = MixtureConfig(components=tuple(KernelSpec(k) for k in kinds),
                               d=5, V=9)
        params = init_output_params(config, rng)
        H = np.tanh(rng.normal(size=(6, 5)))
        probs, cache = output_layer.posterior(config, params, H)
        worst = max(worst, float(np.abs(probs.sum(axis=1) - 1).max()),
                    float(np.abs(cache.pi.sum(axis=1) - 1).max()))

    config = MixtureConfig(components=(KernelSpec("lin"),), d=5, V=9)
    params = init_output_params(config, rng)
    H = rng.normal(size=(6, 5))
    probs, _ = output_layer.posterior(config, params, H)
    logits = H @ params.W
    reference = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    textbook_gap = float(np.abs(probs - reference).max())

    ok = worst < 1e-12 and textbook_gap < 1e-12
    report("normalization-suite", ok,
           f"row-sum dev {worst:.3g}, textbook-softmax dev {textbook_gap:.3g}")


# ---------------------------------------------------------------------------
# 5. brute-force posterior equivalence
# ---------------------------------------------------------------------------

def test_bruteforce_posterior():
    rng = np.random.default_rng(5)
    worst = 0.0
    for kinds in [("lin",), ("pow", "rbf"), ("lin", "log", "wav")]:
        config = MixtureConfig(components=tuple(KernelSpec(k) for k in kinds),
                               d=3, V=6)
        params = init_output_params(config, rng)
        H = rng.normal(size=(4, 3))
        probs, cache = output_layer.posterior(config, params, H)
        pi = cache.pi
        h_tilde = ([H] if params.C is None
                   else output_layer.transform_contexts(params.C, H))
        for b in range(4):
            for v in range(6):
                total = 0.0
                for k, spec in enumerate(config.components):
                    scores = [kernels.score(spec, params.W[:, vp],
                                            h_tilde[k][b])
                              for vp in range(6)]
                    denom = sum(math.exp(s) for s in scores)
                    total += pi[b, k] * math.exp(scores[v]) / denom
                worst = max(worst, abs(float(probs[b, v]) - total))
    report("bruteforce-posterior", worst < 1e-10,
           f"max deviation from double-loop oracle {worst:.3g}")


# ---------------------------------------------------------------------------
# 6. kernel-ordering reproduction
# ---------------------------------------------------------------------------

def test_kernel_ordering():
    lines = data.generate_zipf(200, 100000, seed=0)
    vocab, split = data.prepare_corpus(lines, max_size=202, seed=0)

    untrained_state = training.init_state(
        TrainConfig(components=(KernelSpec("lin"),), n=3, d=32,
                    batch_size=64, seed=0, rho=0.0), vocab.V)
    untrained = eval_mod.perplexity(untrained_state, split.dev)

    ppl = {}
    diverged = {}
    for kind in ("pow", "log", "rbf", "wav"):
        config = TrainConfig(components=(KernelSpec(kind),), n=3, d=32,
                             batch_size=64, learning_rate=1e-3,
                             max_epochs=20, seed=0, rho=0.0)
        try:
            best, _ = training.train(config, split, vocab.V)
            ppl[kind] = best.best_dev_ppl
            diverged[kind] = False
        except training.DivergenceDetected:
            ppl[kind] = math.inf
            diverged[kind] = True

    detail = (f"untrained {untrained:.2f}; " +
              " ".join(f"{k} {ppl[k]:.2f}{'*' if diverged[k] else ''}"
                       for k in ppl))
    ordering_ok = (ppl["pow"] <= ppl["log"]
                   and ppl["log"] < ppl["rbf"]
                   and ppl["log"] < ppl["wav"])
    # each flat-tailed kernel must diverge or end within 5% of untrained
    flat_ok = all(diverged[k] or ppl[k] >= 0.95 * untrained
                  for k in ("rbf", "wav"))
    report("kernel-ordering", ordering_ok and flat_ok, detail)


# ---------------------------------------------------------------------------
# 7. baseline sanity
# ---------------------------------------------------------------------------

def unigram_ppl(train_sentences, eval_sentences, V: int) -> float:
    """Closed-form add-one-smoothed unigram baseline perplexity."""
    counts = np.zeros(V)
    for sent in train_sentences:
        for tok in sent:
            counts[tok] += 1
    probs = (counts + 1.0) / (counts.sum() + V)
    nll = 0.0
    total = 0
    for sent in eval_sentences:
        for tok in sent:
            nll -= math.log(probs[tok])
            total += 1
    return math.exp(nll / total)


class TestUnigramBaseline:
    def test_matches_exponentiated_entropy(self):
        # evaluating the train split itself: PPL = exp(cross-entropy of the
        # smoothed distribution), computed here independently token by token
        V = 8
        train = [[2, 2, 3], [4, 2]]
        counts = np.zeros(V)
        for s in train:
            for t in s:
                counts[t] += 1
        probs = (counts + 1) / (counts.sum() + V)
        expected = math.exp(-np.mean(
            [math.log(probs[t]) for s in train for t in s]))
        assert unigram_ppl(train, train, V) == pytest.approx(expected, rel=1e-6)

    def test_uniform_counts_give_vocab_size(self):
        V = 5
        train = [[0, 1, 2, 3, 4]]
        assert unigram_ppl(train, train, V) == pytest.approx(V)


def test_baseline_sanity(small_zipf, small_english):
    details = []
    ok = True
    for name, (vocab, split) in (("zipf", small_zipf),
                                 ("english", small_english)):
        best, _ = training.train(quick_config(), split, vocab.V)
        model = eval_mod.perplexity(best, split.test)
        baseline = unigram_ppl(split.train, split.test, vocab.V)
        details.append(f"{name}: lin {model:.2f} vs unigram {baseline:.2f}")
        ok = ok and model <= 0.9 * baseline
    report("baseline-sanity", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. linear-component weight observation (recorded, not asserted)
# ---------------------------------------------------------------------------

def test_lin_weight_observation(small_zipf):
    vocab, split = small_zipf
    config = quick_config(
        components=(KernelSpec("lin"), KernelSpec("pow"), KernelSpec("rbf")),
        rho=0.1)
    best, _ = training.train(config, split, vocab.V)
    _, pi_mean, _ = eval_mod.mean_nll_and_pi(best, split.dev)
    lin_weight = sum(p for p, s in zip(pi_mean, config.components)
                     if s.kind == "lin")
    print(f"ACCEPTANCE lin-weight-observation: RECORDED "
          f"(mean total lin weight {lin_weight:.3f}, "
          f"pi_mean {np.array2string(pi_mean, precision=3)})")


# ---------------------------------------------------------------------------
# 9. regularizer-strength grid
# ---------------------------------------------------------------------------

def test_rho_grid(small_zipf, tmp_path):
    vocab, split = small_zipf
    base = quick_config(components=(KernelSpec("lin"), KernelSpec("pow")),
                        max_epochs=2)
    results = training.grid_search(base, {"rho": [0.001, 0.01, 0.1, 1.0]},
                                   split, vocab.V, out_dir=tmp_path)
    ok = (len(results) == 4
          and [r["rank"] for r in results] == [1, 2, 3, 4]
          and all(math.isfinite(r["dev_ppl"]) for r in results)
          and all(math.isfinite(r["pi_var_mean"]) for r in results)
          and (tmp_path / "grid_results.csv").exists())
    detail = "; ".join(f"rho={r['rho']:g} ppl={r['dev_ppl']:.2f} "
                       f"pi_var={r['pi_var_mean']:.4g}"
                       for r in sorted(results, key=lambda r: r["rho"]))
    report("rho-grid", ok, detail)


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_determinism(small_zipf, tmp_path):
    vocab, split = small_zipf
    config = quick_config(max_epochs=3)
    training.train(config, split, vocab.V, out_dir=tmp_path / "a")
    training.train(config, split, vocab.V, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    report("determinism", a == b,
           "byte-identical metrics.csv" if a == b else "metrics.csv differ")
