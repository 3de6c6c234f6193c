"""Span probes on lossprio's module boundaries and the per-layer metrics.

The probes patch the names the package looks up at call time, so nothing
under src/ changes: ``lossprio.harness.forward`` is what ``run_training``
and ``evaluate_error`` call, ``lossprio.cli.run_training`` is what the
command line calls, and so on.  Span names are ``<module>.<function>`` after
the module that defines the function.
"""

from __future__ import annotations

from collections import defaultdict

from lossprio import cli, config, datasets, harness

from spans import Tracer, self_times

KINDS = ("uniform", "sb_loss", "sb_entropy", "vr")
MODULES = ("datasets", "config", "model", "prioritizers", "harness", "cli")

# Stage shares of the default task in the ROADMAP baseline table
# (selection seconds over run seconds, OPENBLAS_NUM_THREADS=1, one sample each).
BASELINE_FEED_SHARE = {"uniform": 0.01 / 1.30, "sb_loss": 0.26 / 0.97,
                       "sb_entropy": 0.30 / 0.98, "vr": 0.66 / 1.22}

PER_KIND = (
    ("prioritizers.feed_s", "s"),
    ("prioritizers.feed_calls", "count"),
    ("prioritizers.feed_share", "ratio"),
    ("prioritizers.selectivity", "ratio"),
    ("model.score_forward_s", "s"),
    ("model.score_forward_calls", "count"),
    ("model.eval_forward_s", "s"),
    ("model.sgd_step_s", "s"),
    ("model.sgd_step_calls", "count"),
    ("model.backprops", "count"),
    ("model.matmul_flops", "flop"),
    ("harness.run_training_s", "s"),
    ("harness.loop_self_s", "s"),
    ("harness.eval_calls", "count"),
)
PER_PASS = (
    ("harness.save_run_s", "s"),
    ("harness.aggregate_s", "s"),
    ("harness.speedup_s", "s"),
    ("harness.bytes_written", "B"),
    ("datasets.generate_s", "s"),
    ("datasets.corrupt_s", "s"),
    ("datasets.stack_s", "s"),
    ("datasets.rss_over_raw", "ratio"),
    ("config.build_datasets_s", "s"),
    ("config.build_datasets_calls", "count"),
    ("cli.run_seeds_s", "s"),
    ("cli.snapshot_write_s", "s"),
    ("cli.seed_parallel_eff", "ratio"),
    *((f"{module}.self_s", "s") for module in MODULES),
    ("trace_overhead_frac", "ratio"),
)

# Spans whose summed duration is a per-pass metric.
PER_PASS_SPANS = {
    "harness.save_run": "harness.save_run_s",
    "harness.aggregate_seeds": "harness.aggregate_s",
    "harness.compute_speedup": "harness.speedup_s",
    "datasets.generate_synthetic_pair": "datasets.generate_s",
    "datasets.apply_corruption": "datasets.corrupt_s",
    "datasets.Dataset.stack": "datasets.stack_s",
    "config.build_datasets": "config.build_datasets_s",
    "cli._run_seeds": "cli.run_seeds_s",
    "datasets.write_snapshot_csv": "cli.snapshot_write_s",
}


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(f"{name}.{kind}", unit) for name, unit in PER_KIND for kind in KINDS] + list(PER_PASS)


def _run_attrs(args, kwargs):
    return {"kind": (kwargs["prio_cfg"] if "prio_cfg" in kwargs else args[3]).kind}


def _shape_attrs(args, kwargs):
    weights = args[0].weights
    return {"rows": len(args[1]), "macs": sum(w.size for w in weights),
            "first": weights[0].size}


class Probe:
    """Patches lossprio for one measured pass; ``full=False`` times only run_training."""

    def __init__(self, full: bool):
        self.tracer = Tracer()
        self.full = full
        self.prioritizers = []

    def __enter__(self):
        t = self.tracer
        for owner in (harness, cli):
            t.patch(owner, "run_training", "harness.run_training", _run_attrs)
        if not self.full:
            return self
        t.patch(cli, "main", "cli.main")
        t.patch(cli, "cmd_benchmark", "cli.cmd_benchmark")
        t.patch(cli, "_run_seeds", "cli._run_seeds")
        t.patch(cli, "write_snapshot_csv", "datasets.write_snapshot_csv")
        t.patch(cli, "save_run", "harness.save_run")
        t.patch(cli, "aggregate_seeds", "harness.aggregate_seeds")
        t.patch(cli, "compute_speedup", "harness.compute_speedup")
        for owner in (cli, config):
            t.patch(owner, "build_datasets", "config.build_datasets")
        t.patch(config, "generate_synthetic_pair", "datasets.generate_synthetic_pair")
        t.patch(config, "apply_corruption", "datasets.apply_corruption")
        t.patch(datasets.Dataset, "stack", "datasets.Dataset.stack")
        t.patch(harness, "evaluate_error", "harness.evaluate_error")
        t.patch(harness, "forward", "model.forward", _shape_attrs)
        t.patch(harness, "sgd_step", "model.sgd_step", _shape_attrs)
        make = harness.make_prioritizer

        def make_traced(cfg, batch_size):
            prio = make(cfg, batch_size)
            prio.feed = t.wrap("prioritizers.feed", prio.feed)
            self.prioritizers.append(prio)
            return prio

        t.replace(harness, "make_prioritizer", make_traced)
        return self

    def __exit__(self, *exc):
        self.tracer.restore()


def layer_metrics(probe: Probe, passes: int, threads: int, peak_rss_mb: float,
                  raw_feature_mb: float, bytes_written: float,
                  trace_overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from a full probe.

    Per-kind values are per run_training call; the rest are per pass (one
    set-up plus one round of runs, or one command-line invocation).  Times
    are summed span durations, except ``loop_self_s`` and ``<module>.self_s``,
    which are self times.  Layers a workload never reaches read 0.
    """
    spans = probe.tracer.spans
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    kind_of = {}

    def kind(span):
        if span.id not in kind_of:
            parent = by_id.get(span.parent)
            kind_of[span.id] = span.attrs.get("kind") or (kind(parent) if parent else None)
        return kind_of[span.id]

    total = defaultdict(float)  # (metric stem, kind or None) -> sum
    for span in spans:
        k = kind(span)
        parent = by_id.get(span.parent)
        total[(span.name.split(".")[0] + ".self_s", None)] += own[span.id]
        if span.name == "harness.run_training":
            total[("runs", k)] += 1
            total[("harness.run_training_s", k)] += span.duration
            total[("harness.loop_self_s", k)] += own[span.id]
        elif span.name == "prioritizers.feed":
            total[("prioritizers.feed_s", k)] += span.duration
            total[("prioritizers.feed_calls", k)] += 1
        elif span.name == "model.forward":
            total[("model.matmul_flops", k)] += 2 * span.attrs["rows"] * span.attrs["macs"]
            if parent is not None and parent.name == "harness.evaluate_error":
                total[("model.eval_forward_s", k)] += span.duration
            else:
                total[("model.score_forward_s", k)] += span.duration
                total[("model.score_forward_calls", k)] += 1
        elif span.name == "model.sgd_step":
            rows, macs = span.attrs["rows"], span.attrs["macs"]
            # forward, weight gradients, and deltas for every layer but the first
            total[("model.matmul_flops", k)] += rows * (6 * macs - 2 * span.attrs["first"])
            total[("model.sgd_step_s", k)] += span.duration
            total[("model.sgd_step_calls", k)] += 1
            total[("model.backprops", k)] += rows
        elif span.name == "harness.evaluate_error":
            total[("harness.eval_calls", k)] += 1
        elif span.name in PER_PASS_SPANS:
            total[(PER_PASS_SPANS[span.name], None)] += span.duration
            if span.name == "config.build_datasets":
                total[("config.build_datasets_calls", None)] += 1

    selected, ingested = defaultdict(int), defaultdict(int)
    for prio in probe.prioritizers:
        selected[prio.kind] += prio.selected
        ingested[prio.kind] += prio.ingested

    out = {}
    for stem, _ in PER_KIND:
        for k in KINDS:
            runs = total[("runs", k)]
            if stem == "prioritizers.feed_share":
                value = _ratio(total[("prioritizers.feed_s", k)],
                               total[("harness.run_training_s", k)])
            elif stem == "prioritizers.selectivity":
                value = _ratio(selected[k], ingested[k])
            else:
                value = _ratio(total[(stem, k)], runs)
            out[f"{stem}.{k}"] = value
    for stem, _ in PER_PASS:
        out[stem] = total[(stem, None)] / passes
    run_s = sum(total[("harness.run_training_s", k)] for k in KINDS)
    out["harness.bytes_written"] = bytes_written / passes
    out["datasets.rss_over_raw"] = peak_rss_mb / raw_feature_mb
    out["cli.seed_parallel_eff"] = _ratio(run_s, total[("cli.run_seeds_s", None)] * threads)
    out["trace_overhead_frac"] = trace_overhead_frac
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
