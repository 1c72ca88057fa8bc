"""The benchmark tracer's bindings must all resolve, and its hooks must count.

`perfbench/tracing.py` wraps aalstm's functions at every module attribute
that holds them and silently skips a binding that no longer exists, so a
rename or a dropped import in `src/` would turn its per-layer metrics into
"absent" without failing anything. A hook that reads a call's arguments
and raises is swallowed the same way. The tracer is loaded by path, as a
file outside the package.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("binding", [b for bindings in tracing.BINDINGS.values()
                                     for b in bindings])
def test_binding_resolves(binding):
    _, _, value = tracing._resolve(binding)
    assert callable(getattr(value, "__func__", value)), binding


@pytest.mark.parametrize("module", ["aalstm.cells", "aalstm.model"])
def test_both_cell_backward_names_bind_one_function(module):
    # One BPTT serves both cells; the tracer wraps it under both names.
    bound = importlib.import_module(module)
    assert bound.aa_lstm_backward is bound.classic_lstm_backward


def test_hooks_count_a_tiny_train_evaluate_and_predict():
    # A hook that raises is swallowed and leaves its counters absent, so run
    # the pipeline under the tracer and check that every hook counted. The
    # aa+attention and the classic+last models between them reach both
    # cells' backward bindings and both heads.
    from aalstm.model import build_model
    from aalstm.train import TrainConfig, evaluate, train
    from tests.test_model import atsa_instance, atsa_multi_span_instance, tiny_embeddings

    insts = [atsa_instance(), atsa_multi_span_instance()]
    cfg = TrainConfig(batch_size=2, max_epochs=2, emb_dim=4, hidden_dim=4)
    # `cells.steps` counts the token rows of every `unroll` call: per epoch
    # one training run and one dev evaluation over both instances (4 + 5
    # rows each), then one evaluation and one 4-token predict.
    rows = sum(len(inst.tokens) for inst in insts)
    steps = cfg.max_epochs * 2 * rows + rows + len(insts[0].tokens)
    for cell, head in (("aa", "attention"), ("classic", "last")):
        model = build_model("atsa", cell, head, tiny_embeddings(), hidden_dim=4)
        tracer = tracing.Tracer(enabled=True)
        with tracer.unit("cycle", True):
            train(model, insts, insts, cfg)
            evaluate(model, insts)
            model.predict(insts[0])
        metrics, _ = tracer.metrics()
        assert tracer.broken_counters == set()
        for name in ("cells.steps", "model.emb_grad_bytes",
                     "model.emb_grad_rows_touched_frac", "train.adam_elems"):
            assert name in metrics, name
        assert metrics["model.emb_grad_rows_touched_frac"] > 0
        assert metrics["cells.steps"] == steps, cell
        # Each model's training reaches its cell's backward binding.
        assert metrics["cells.backward_s"] > 0, cell
        # One aspect build per aa run: per epoch the training run and the dev
        # evaluation, then the evaluation and the predict. No classic run
        # builds one.
        assert metrics.get("data.aspect_vector_calls", 0) == (
            cfg.max_epochs * 2 + 2 if cell == "aa" else 0)
        # The optimizer step receives every gradient at full shape, once per
        # batch: one batch of both instances per epoch.
        assert metrics["train.adam_elems"] == cfg.max_epochs * sum(
            v.size for v in model.params().values())
