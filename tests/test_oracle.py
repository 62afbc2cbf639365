"""The engine against a reference written from the paper's formulas in plain
Python `math`, with every sum taken left to right in a fixed order and no
helper of the package: per-row scores, the loss with its gradients against
the embeddings and the representatives in both task modes, and one SGD step
of a one-layer head.

Unlike `composed_loss.py`, which is built on the engine's distance arrays
and vjp helpers, nothing here shares code with the engine, so a change that
moves output bits on purpose is checked for meaning, not for bits. Every
comparison uses one mixed bound, |engine - reference| <= RTOL * |reference|
+ ATOL, on values of order 1 (unit-norm embeddings, representatives of norm
near 1, sigma and margin of order 1)."""

import math

import numpy as np
import pytest

from mixrep.config import EmbeddingConfig, MixtureConfig
from mixrep.head import (
    BACKGROUND,
    DIST_SQ_FLOOR,
    PROB_FLOOR,
    MixtureHead,
    class_posterior_max,
    class_posterior_normalized,
    mixture_loss,
    mode_probabilities,
)
from mixrep import autodiff as ad
from mixrep.training import SGD

RTOL = 1e-12
ATOL = 1e-14


def _sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _first_extreme(values, better):
    """Index of the first entry of `values` that no later entry beats."""
    best = 0
    for i in range(1, len(values)):
        if better(values[i], values[best]):
            best = i
    return best


def _argmax(values):
    return _first_extreme(values, lambda a, b: a > b)


def _argmin(values):
    return _first_extreme(values, lambda a, b: a < b)


def embed(x, W, b, l2):
    """One affine layer, x W + b, then the projection onto the unit sphere;
    returns (embedding, pre-projection row, its norm)."""
    h = [_sum(x[i] * W[i][j] for i in range(len(x))) + b[j] for j in range(len(b))]
    if not l2:
        return h, h, 1.0
    norm = math.sqrt(_sum(v * v for v in h))
    return [v / norm for v in h], h, norm


def sq_dist(e, r):
    return _sum((e[j] - r[j]) ** 2 for j in range(len(e)))


def row_scores(e, R, sigma):
    """d^2 and mode probabilities exp(-d^2 / 2 sigma^2) to each of the N x K
    modes, both class posteriors, the background posterior and the predicted
    class under either rule, for one embedding."""
    d2 = [[sq_dist(e, r) for r in modes] for modes in R]
    p = [[math.exp(-d / (2.0 * sigma * sigma)) for d in row] for row in d2]
    best = [max(row) for row in p]
    mass = [_sum(row) for row in p]
    total = _sum(mass)
    background = 1.0 - max(best)
    return {"d2": d2, "probs": p, "max": best, "mass": mass,
            "normalized": [m / total for m in mass], "background": background,
            "predicted": {"max": _argmax(best), "normalized": _argmax(mass)},
            "is_background": background > max(best)}


def row_loss(e, R, label, sigma, margin, task_mode):
    """One row's cross-entropy plus margin hinge, with its gradients against
    the embedding, (dim,), and the representatives, (N, K, dim)."""
    n, k, dim = len(R), len(R[0]), len(e)
    s = row_scores(e, R, sigma)
    p, d2 = s["probs"], s["d2"]
    g_p = [[0.0] * k for _ in range(n)]  # d(ce) / d(p)
    if task_mode == "classification":
        likelihood = s["normalized"][label]
        if likelihood > PROB_FLOOR:
            total = _sum(s["mass"])
            for c in range(n):
                for m in range(k):
                    g_p[c][m] = 1.0 / total - (1.0 / s["mass"][label] if c == label else 0.0)
    else:  # [best mode of each class, background], the label's entry over the sum
        table = s["max"] + [s["background"]]
        total = _sum(table)
        pick = n if label == BACKGROUND else label
        likelihood = table[pick] / total
        if likelihood > PROB_FLOOR:
            g_table = [1.0 / total - (1.0 / table[pick] if j == pick else 0.0)
                       for j in range(n + 1)]
            for c in range(n):
                g_p[c][_argmax(p[c])] += g_table[c]
            top = _argmax([v for row in p for v in row])
            g_p[top // k][top % k] -= g_table[n]
    ce = -math.log(max(likelihood, PROB_FLOOR))
    g_d2 = [[-p[c][m] / (2.0 * sigma * sigma) * g_p[c][m] for m in range(k)] for c in range(n)]
    hinge = 0.0
    if label != BACKGROUND and n >= 2:
        dist = [[math.sqrt(max(v, DIST_SQ_FLOOR)) for v in row] for row in d2]
        own = [(label, m) for m in range(k)]
        other = [(c, m) for c in range(n) if c != label for m in range(k)]
        a = own[_argmin([dist[c][m] for c, m in own])]
        b = other[_argmin([dist[c][m] for c, m in other])]
        gap = dist[a[0]][a[1]] - dist[b[0]][b[1]] + margin
        if gap > 0.0:
            hinge = gap
            for (c, m), sign in ((a, 1.0), (b, -1.0)):
                if d2[c][m] > DIST_SQ_FLOOR:
                    g_d2[c][m] += sign / (2.0 * dist[c][m])
    g_e = [_sum(2.0 * g_d2[c][m] * (e[j] - R[c][m][j]) for c in range(n) for m in range(k))
           for j in range(dim)]
    g_R = [[[-2.0 * g_d2[c][m] * (e[j] - R[c][m][j]) for j in range(dim)] for m in range(k)]
           for c in range(n)]
    return ce, hinge, g_e, g_R


def batch_loss(E, R, labels, sigma, margin, task_mode):
    """The batch mean of the rows' losses, its cross-entropy and margin
    parts, and the gradients against every embedding and the
    representatives."""
    rows = [row_loss(e, R, y, sigma, margin, task_mode) for e, y in zip(E, labels)]
    batch = len(rows)
    g_E = [[v / batch for v in g_e] for _, _, g_e, _ in rows]
    g_R = [[[_sum(r[3][c][m][j] for r in rows) / batch for j in range(len(R[c][m]))]
            for m in range(len(R[c]))] for c in range(len(R))]
    ce, margin_part = _sum(r[0] for r in rows) / batch, _sum(r[1] for r in rows) / batch
    return {"total": ce + margin_part, "ce": ce, "margin": margin_part}, g_E, g_R


def sgd_step(X, W, b, R, labels, sigma, margin, task_mode, lr, weight_decay):
    """One step of plain SGD on a one-layer head: weight decay on the affine
    weight and bias, none on the representatives. Returns the gradients of
    the weight, bias and representatives, then their stepped values."""
    rows = [embed(x, W, b, True) for x in X]
    _, g_E, g_R = batch_loss([e for e, _, _ in rows], R, labels, sigma, margin, task_mode)
    g_H = []
    for (e, _, norm), g in zip(rows, g_E):
        radial = _sum(g[j] * e[j] for j in range(len(e)))
        g_H.append([(g[j] - radial * e[j]) / norm for j in range(len(e))])
    g_W = [[_sum(X[r][i] * g_H[r][j] for r in range(len(X))) for j in range(len(b))]
           for i in range(len(W))]
    g_b = [_sum(g_H[r][j] for r in range(len(X))) for j in range(len(b))]

    def step(p, g, decay):
        return p - lr * (g + decay * p)

    W_new = [[step(W[i][j], g_W[i][j], weight_decay) for j in range(len(b))]
             for i in range(len(W))]
    b_new = [step(b[j], g_b[j], weight_decay) for j in range(len(b))]
    R_new = [[[step(R[c][m][j], g_R[c][m][j], 0.0) for j in range(len(R[c][m]))]
              for m in range(len(R[c]))] for c in range(len(R))]
    return (g_W, g_b, g_R), (W_new, b_new, R_new)


# ---------------------------------------------------------------------------
# the engine against the reference


def gap_over_bound(got, want) -> float:
    """The largest |got - want| / (RTOL |want| + ATOL) over the entries; the
    engine passes where it is at most 1."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    return float((np.abs(got - want) / (RTOL * np.abs(want) + ATOL)).max(initial=0.0))


def assert_close(got, want, what):
    ratio = gap_over_bound(got, want)
    assert ratio <= 1.0, f"{what}: gap {ratio:.3g} times the bound"


CASES = {  # (task_mode, posterior_mode, classes, modes, dim, batch, seed)
    "classification-normalized": ("classification", "normalized", 3, 2, 5, 7, 1),
    "classification-max": ("classification", "max", 4, 3, 8, 6, 2),
    "detection-max": ("detection", "max", 3, 2, 5, 8, 3),
    "detection-normalized": ("detection", "normalized", 2, 3, 6, 7, 4),
    "one-class": ("detection", "max", 1, 3, 4, 5, 5),
}


def case(name):
    """A one-layer head on random arrays, a batch of inputs and its labels
    (a few background rows in detection mode)."""
    task_mode, posterior_mode, n, k, dim, batch, seed = CASES[name]
    rng = np.random.default_rng(seed)
    input_dim = 4
    arrays = {"layers.0.weight": rng.normal(0.0, 0.7, size=(input_dim, dim)),
              "layers.0.bias": rng.normal(0.0, 0.1, size=dim),
              "representatives.weight": rng.normal(0.0, 0.45, size=(n, k, dim))}
    head = MixtureHead.from_arrays(EmbeddingConfig(input_dim, (dim,)),
                                   MixtureConfig(n, k, 0.6, 0.4, posterior_mode=posterior_mode),
                                   task_mode, arrays)
    X = rng.normal(size=(batch, input_dim))
    labels = rng.integers(0, n, size=batch)
    if task_mode == "detection":
        labels[rng.permutation(batch)[:2]] = BACKGROUND
    return head, X, labels


@pytest.mark.parametrize("name", CASES)
def test_scores_match_the_reference(name):
    head, X, _ = case(name)
    E = head.embedding.embed_batch(X)
    R = head.representatives.value.tolist()
    sigma, rule = head.mixture.sigma, head.mixture.posterior_mode
    want = [row_scores(e, R, sigma) for e in E.tolist()]
    d2, probs = mode_probabilities(E, head.representatives.value, sigma)
    _, normalized = class_posterior_normalized(probs)
    scores = head.score_embeddings(E)
    for got, key in ((d2, "d2"), (probs, "probs"), (scores.mode_probs, "probs"),
                     (class_posterior_max(probs), "max"), (normalized, "normalized"),
                     (scores.class_posterior, rule),
                     (scores.background_posterior, "background")):
        assert_close(got, [w[key] for w in want], key)
    assert scores.predicted_class.tolist() == [w["predicted"][rule] for w in want]
    assert scores.is_background.tolist() == [w["is_background"] for w in want]
    embedded = [embed(x, head.embedding.weights[0].value.tolist(),
                      head.embedding.last_bias.value.tolist(), True)[0] for x in X.tolist()]
    assert_close(E, embedded, "embeddings")


@pytest.mark.parametrize("name", CASES)
def test_loss_and_its_gradients_match_the_reference(name):
    head, X, labels = case(name)
    E = ad.parameter(head.embedding.embed_batch(X))
    R = head.representatives
    loss, parts = mixture_loss(E, R, labels, head.mixture, head.task_mode)
    ad.zero_grads([E, R])
    ad.backward(loss)
    want_parts, g_E, g_R = batch_loss(E.value.tolist(), R.value.tolist(), labels.tolist(),
                                      head.mixture.sigma, head.mixture.margin, head.task_mode)
    assert_close(float(loss.value), want_parts["total"], "loss")
    for key, want in want_parts.items():
        assert_close(parts[key], want, key)
    assert_close(E.grad, g_E, "gradient against the embeddings")
    assert_close(R.grad, g_R, "gradient against the representatives")


@pytest.mark.parametrize("name", CASES)
def test_one_sgd_step_matches_the_reference(name):
    head, X, labels = case(name)
    W, b = head.embedding.weights[0], head.embedding.last_bias
    R = head.representatives
    before = [W.value.tolist(), b.value.tolist(), R.value.tolist()]
    lr, weight_decay = 0.3, 0.01
    loss, _ = head.total_loss(X, labels, train=True)
    ad.zero_grads(head.parameters())
    ad.backward(loss)
    SGD(head.parameter_groups(), lr, momentum=0.0, weight_decay=weight_decay).step()
    grads, stepped = sgd_step(X.tolist(), *before, labels.tolist(), head.mixture.sigma,
                              head.mixture.margin, head.task_mode, lr, weight_decay)
    for p, g, w, what in zip((W, b, R), grads, stepped, ("weight", "bias", "representatives")):
        assert_close(p.grad, g, f"gradient against the {what}")
        assert_close(p.value, w, f"stepped {what}")
    # the step moved every parameter by more than the bound
    for p, old in zip((W, b, R), before):
        assert gap_over_bound(p.value, old) > 1e3
