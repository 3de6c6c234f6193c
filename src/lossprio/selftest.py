"""Fast built-in property checks, one result tuple per property.

Each check is the same kind of independent oracle the test suite uses:
Monte Carlo rates against closed forms, finite differences against the
analytic gradient, and chi-square tests against claimed distributions.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from .datasets import (
    CorruptionKind,
    CorruptionSpec,
    Example,
    apply_corruption,
    corrupt_random_label,
    corrupt_shuffle_pixels,
    generate_synthetic,
    make_task_permutation,
)
from .model import gradient_check, init_params
from .prioritizers import (
    PrioritizerConfig,
    SamplingPool,
    expected_selection_fraction,
    make_prioritizer,
)


def check_selection_rates(num_scores: int = 60_000) -> tuple[str, bool, str]:
    """Empirical admission rate of the loss-ranked selector vs 1/(beta+1)."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for beta in (0.0, 1.0, 2.0):
        prio = make_prioritizer(
            PrioritizerConfig(kind="sb_loss", beta=beta, seed=3), batch_size=128
        )
        scores = rng.random(num_scores)
        for start in range(0, num_scores, 512):
            chunk = scores[start : start + 512]
            prio.feed(list(range(start, start + len(chunk))), chunk)
        gap = abs(prio.selected / prio.ingested - expected_selection_fraction(beta))
        worst = max(worst, gap)
    return ("selection rate matches 1/(beta+1)", worst < 0.01, f"max gap {worst:.4f}")


def check_gradients() -> tuple[str, bool, str]:
    rng = np.random.default_rng(5)
    params = init_params([8, 16, 4], rng)
    feats = rng.standard_normal((8, 8))
    labels = rng.integers(4, size=8)
    err = gradient_check(params, feats, labels, epsilon=1e-4, max_coords=128, seed=2)
    return ("analytic gradient matches finite differences", err < 1e-4, f"max rel err {err:.2e}")


def check_pool_gate(trials: int = 20_000) -> tuple[str, bool, str]:
    """Constant losses must draw uniformly; spread losses must follow them."""
    rng = np.random.default_rng(17)
    counts = np.zeros(4)
    for _ in range(trials):
        pool = SamplingPool(capacity=4, gate_threshold=0.0)
        for i in range(4):
            pool.push(i, 1.0)
        ids, gate_on = pool.draw(1, rng)
        if gate_on:
            return ("pool gate closes on constant losses", False, "gate opened")
        counts[ids[0]] += 1
    p_uniform = stats.chisquare(counts).pvalue

    hits = 0
    for _ in range(trials):
        pool = SamplingPool(capacity=2, gate_threshold=0.0)
        pool.push(0, 4.0)
        pool.push(1, 1.0)
        ids, gate_on = pool.draw(1, rng)
        if not gate_on:
            return ("pool draws follow losses when spread", False, "gate stayed closed")
        hits += ids[0] == 0
    gap = abs(hits / trials - 0.8)
    ok = p_uniform > 0.01 and gap < 0.01
    return (
        "pool gate: uniform when flat, loss-proportional when spread",
        ok,
        f"uniform p={p_uniform:.3f}, 4:1 freq gap {gap:.4f}",
    )


def check_corruptions() -> tuple[str, bool, str]:
    rng = np.random.default_rng(23)
    problems = []

    perm = make_task_permutation(64, seed=9)
    source = generate_synthetic(40, 4, 64, seed=2)
    base = Example(id=0, features=source.features[0], label=int(source.labels[0]))
    shuffled = corrupt_shuffle_pixels(base, perm)
    if sorted(shuffled.features.tolist()) != sorted(base.features.tolist()):
        problems.append("shuffle changed the multiset")
    inverse = np.argsort(perm)
    if not np.array_equal(shuffled.features[inverse], base.features):
        problems.append("inverse permutation did not recover input")

    labels = [corrupt_random_label(base, 10, rng).label for _ in range(50_000)]
    p_labels = stats.chisquare(np.bincount(labels, minlength=10)).pvalue
    if p_labels <= 0.001:
        problems.append(f"label draws not uniform (p={p_labels:.4f})")

    seed = 31
    clean = generate_synthetic(400, 4, 16, seed=3)
    masks = []
    for kind in (CorruptionKind.RANDOM_LABEL, CorruptionKind.GAUSSIAN):
        spec = CorruptionSpec(kind=kind, fraction=0.25, seed=seed)
        masks.append(tuple(apply_corruption(clean, spec).corrupted_mask.tolist()))
    if masks[0] != masks[1]:
        problems.append("corrupted index set differs across kinds at equal seed")
    if sum(masks[0]) != 100:
        problems.append(f"corrupted count {sum(masks[0])} != 100")

    return (
        "corruption transforms preserve their invariants",
        not problems,
        "; ".join(problems) if problems else "multiset, uniformity, index set all good",
    )


def run_all() -> list[tuple[str, bool, str]]:
    return [
        check_selection_rates(),
        check_gradients(),
        check_pool_gate(),
        check_corruptions(),
    ]
