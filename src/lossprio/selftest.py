"""The four property checks of the acceptance gate, one result tuple each.

``lossprio selftest`` and tests/test_acceptance.py call these same functions.
Each is an independent oracle on the shipped code: Monte Carlo rates against
closed forms, finite differences against the analytic gradient, chi-square
statistics against claimed distributions, and exact reconstructions of the
corruption draws.
"""

from __future__ import annotations

import numpy as np

from .datasets import (
    CorruptionSpec,
    Dataset,
    apply_corruption,
    generate_synthetic_pair,
    make_task_permutation,
)
from .model import gradient_check, init_params
from .prioritizers import (
    PrioritizerConfig,
    draw_from_pool,
    expected_selection_fraction,
    make_prioritizer,
)

# Chi-square critical values, chi2.ppf(1 - alpha, dof): a statistic below one
# is exactly a p-value above alpha, since the survival function is decreasing.
CHI2_CRITICAL_99_DOF3 = 11.344866730144373
CHI2_CRITICAL_999_DOF9 = 27.877164871256568
DRAWS = 100_000  # scores, pool draws per half, and label draws


def chi_square(counts) -> float:
    """Pearson's statistic of counts against equal expected counts."""
    expected = np.mean(counts)
    return float(((counts - expected) ** 2 / expected).sum())


def check_selection_rates() -> tuple[str, bool, str]:
    """Empirical admission rate of the loss-ranked selector vs 1/(beta+1)."""
    scores = np.random.default_rng(0).random(DRAWS)
    gaps = {}
    for beta in (0.0, 1.0, 2.0):
        prio = make_prioritizer(
            PrioritizerConfig(kind="sb_loss", beta=beta, seed=12), batch_size=128
        )
        for lo in range(0, DRAWS, 512):
            chunk = scores[lo : lo + 512]
            prio.feed(np.arange(lo, lo + len(chunk)), chunk)
        gaps[beta] = abs(prio.selected / prio.ingested - expected_selection_fraction(beta))
    return (
        "selection rate matches 1/(beta+1)",
        all(gap <= 0.01 for gap in gaps.values()),
        ", ".join(f"b={beta:g} gap={gap:.4f}" for beta, gap in gaps.items()),
    )


def check_gradients() -> tuple[str, bool, str]:
    """Central differences against the analytic gradient on every coordinate."""
    rng = np.random.default_rng(1)
    params = init_params([8, 16, 4], rng)
    feats = rng.normal(size=(8, 8))
    labels = rng.integers(0, 4, size=8)
    err = gradient_check(params, feats, labels)
    return (
        "analytic gradient matches finite differences",
        bool(err < 1e-4),
        f"max rel err {err:.2e} over {params.vector.size} coordinates",
    )


def check_pool_gate() -> tuple[str, bool, str]:
    """Flat losses keep the gate closed and draw uniformly; planted 4:1 losses
    open it and draw in proportion.  Each drawn id goes straight back in."""
    halves = []
    for losses, seed in ((np.ones(4), 17), (np.array([4.0, 1.0]), 19)):
        ids = list(range(len(losses)))  # id i has loss losses[i]
        rng = np.random.default_rng(seed)
        counts, opened = np.zeros(len(losses)), 0
        for _ in range(DRAWS):
            (i,), gate_on = draw_from_pool(np.array(ids), losses[ids], 1, 0.0, rng)
            opened += gate_on
            counts[i] += 1
            ids.remove(i)
            ids.append(i)  # back in, at the end of the pool
        halves.append((counts, opened))
    (flat, flat_opened), (planted, planted_opened) = halves
    chi_uniform = chi_square(flat)
    gap = abs(planted[0] / DRAWS - 0.8)
    ok = bool(flat_opened == 0 and chi_uniform < CHI2_CRITICAL_99_DOF3
              and planted_opened == DRAWS and gap <= 0.01)
    return (
        "pool gate: uniform when flat, loss-proportional when spread",
        ok,
        f"gate open on {flat_opened} flat and {planted_opened} of {DRAWS} 4:1 draws, "
        f"uniform chi2 {chi_uniform:.2f} vs critical {CHI2_CRITICAL_99_DOF3:.2f}, "
        f"4:1 freq gap {gap:.4f}",
    )


def check_corruptions() -> tuple[str, bool, str]:
    """apply_corruption's invariants, each kind on the same clean split."""
    problems = []
    seed = 31
    clean, _ = generate_synthetic_pair(400, 4, 4, 16, seed=3)
    out = {kind: apply_corruption(clean, CorruptionSpec(kind=kind, fraction=0.25, seed=seed))
           for kind in ("random_label", "shuffled_pixels", "gaussian")}
    rows = out["random_label"].corrupted_mask
    if any(not np.array_equal(ds.corrupted_mask, rows) for ds in out.values()):
        problems.append("corrupted index set differs across kinds at equal seed")
    if rows.sum() != 100:
        problems.append(f"corrupted count {rows.sum()} != 100")

    source, shuffled = clean.features[rows], out["shuffled_pixels"].features[rows]
    if not np.array_equal(np.sort(shuffled, axis=1), np.sort(source, axis=1)):
        problems.append("shuffle changed a row's multiset")
    if not np.array_equal(shuffled[:, np.argsort(make_task_permutation(16, seed))], source):
        problems.append("inverse permutation did not recover the rows")

    # after choosing the rows, the seed's generator draws each chosen row in
    # ascending order at its source's sample mean and population std
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(len(clean), size=100, replace=False))
    expected = [rng.normal(row.mean(), row.std(), size=row.size)
                for row in clean.features[chosen]]
    if not np.array_equal(out["gaussian"].features[chosen], expected):
        problems.append("gaussian rows are not draws at their source's mean and std")

    relabelled = apply_corruption(
        Dataset(np.zeros((DRAWS, 1)), np.zeros(DRAWS, dtype=np.int64), num_classes=10),
        CorruptionSpec(kind="random_label", fraction=1.0, seed=5),
    )
    chi_labels = chi_square(np.bincount(relabelled.labels, minlength=10))
    if chi_labels >= CHI2_CRITICAL_999_DOF9:
        problems.append("label draws not uniform")
    return (
        "corruption transforms preserve their invariants",
        not problems,
        "; ".join(problems or ["index set, count, multiset, inverse and gaussian "
                               "parameters exact"])
        + f"; label chi2 {chi_labels:.2f} vs critical {CHI2_CRITICAL_999_DOF9:.2f}",
    )


def run_all() -> list[tuple[str, bool, str]]:
    return [
        check_selection_rates(),
        check_gradients(),
        check_pool_gate(),
        check_corruptions(),
    ]
