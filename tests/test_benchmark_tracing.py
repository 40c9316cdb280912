"""The benchmark's tracer (perfbench/tracing.py) wraps cbsel names at the
module that calls them, and its count functions read their arguments and
results by name. A rename that drops one of those names breaks
`perfbench/run.py --trace 1`; these tests catch it without running the
benchmark."""

import importlib.util
import pathlib
import sys

import cbsel
import cbsel.cli

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    targets = load_tracing(monkeypatch)._targets(cbsel)
    assert targets
    missing = [(getattr(owner, "__name__", repr(owner)), attr)
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_passes_feed_every_count_function(monkeypatch):
    # The count functions read argument names (kmeans's max_iter,
    # train_session's buffer, replay_per_class and alpha) and result fields
    # (iterations_run, per_cluster_ids, discarded): a rename fails the pass.
    tracing = load_tracing(monkeypatch)
    store, plan = cbsel.generate(cbsel.WorldConfig(
        num_sessions=2, classes_per_session=4, dim=8, pool_per_class=20, test_per_class=5,
        separation=6.0, seed=3, budget=12))
    metrics = {}
    for strategy, config in (("cbs", cbsel.RunConfig(use_unlabeled_distributions=True)),
                             ("margin", cbsel.RunConfig())):
        tracer = tracing.Tracer()
        with tracing.installed(tracer, cbsel):
            cbsel.protocol.run(plan, strategy, store, config)
        metrics[strategy] = tracing.layer_metrics(tracer.spans)
    cbs, margin = metrics["cbs"], metrics["margin"]
    assert cbs["kmeans.calls"] == 2
    assert cbs["kmeans.iters"] >= 2
    assert cbs["kmeans.dist_evals"] > 0
    assert 0.0 <= cbs["selection.discard_frac"] <= 1.0
    assert cbs["learner.pseudo_rows"] > 0
    for m in (cbs, margin):
        assert m["learner.train_calls"] > 0
        assert m["learner.replay_draws"] > 0
        assert m["protocol.session_s"] > 0.0
    assert margin["baselines.score_calls"] > 0
    assert margin["kmeans.calls"] == 0
