"""The full classifier: embeddings -> recurrent cell -> head -> softmax.

A model is picked by three switches: task ("atsa" aspect vectors are span
means of token embeddings, "acsa" aspect vectors are rows of a trainable
category table), cell ("classic" or the aspect-aware "aa"), and head ("last"
hidden state or aspect-conditioned "attention"). `SentimentModel.arrays()` is
the one owner of the namespaced array names ("emb.words", "cell.W_i",
"clf.b_s", ...): the checkpoint writes exactly those arrays, and `params()`,
which the optimizer and the gradient check walk, is the same dict minus the
frozen or unused tables.

Gradient routing notes, since they are easy to get wrong:
  - input gradients pass back through the per-token dropout masks before
    accumulating into embedding rows;
  - the aspect vector for a term span is a mean of clean (pre-dropout)
    embedding rows, so its gradient spreads over the span rows divided by
    the span length, with no mask;
  - a span token is also an input token, so its row can receive gradient
    from both paths in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cells import (
    AALstmParams,
    ClassicLstmParams,
    ConfigError,
    StepCache,
    aa_lstm_backward,
    classic_lstm_backward,
    unroll,
)
from .data import (
    RESTAURANT_CATEGORIES,
    AspectEmbeddingTable,
    EmbeddingTable,
    LabeledInstance,
    TermSpan,
    build_aspect_vector,
)
from .heads import (
    AttentionCache,
    AttentionParams,
    ClassifierCache,
    ClassifierParams,
    attention_backward,
    attention_head,
    classifier_backward,
    classify_with_cache,
    last_hidden_backward,
    last_hidden_head,
)
from .train import dropout as apply_dropout

TASKS = ("atsa", "acsa")
CELLS = ("classic", "aa")
HEADS = ("last", "attention")


@dataclass
class InstanceCache:
    """Everything the backward pass needs about one forward run."""

    inst: LabeledInstance
    indices: list[int]
    xs: list[np.ndarray]
    x_masks: Optional[list[np.ndarray]]
    aspect: Optional[np.ndarray]
    hs: list[np.ndarray]
    cell_caches: list[StepCache]
    head_cache: Optional[AttentionCache]
    rep_mask: Optional[np.ndarray]
    clf_cache: ClassifierCache
    probs: np.ndarray


class SentimentModel:
    def __init__(self, task: str, cell_kind: str, head_kind: str,
                 embeddings: EmbeddingTable,
                 cell: Union[ClassicLstmParams, AALstmParams],
                 clf: ClassifierParams,
                 attn: Optional[AttentionParams] = None,
                 aspect_embeddings: Optional[AspectEmbeddingTable] = None,
                 train_embeddings: bool = True):
        if task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
        if cell_kind not in CELLS:
            raise ConfigError(f"cell must be one of {CELLS}, got {cell_kind!r}")
        if head_kind not in HEADS:
            raise ConfigError(f"head must be one of {HEADS}, got {head_kind!r}")
        if cell_kind == "aa" and not isinstance(cell, AALstmParams):
            raise ConfigError("cell_kind 'aa' needs AALstmParams")
        if cell_kind == "classic" and not isinstance(cell, ClassicLstmParams):
            raise ConfigError("cell_kind 'classic' needs ClassicLstmParams")
        if head_kind == "attention" and attn is None:
            raise ConfigError("attention head needs AttentionParams")
        if task == "acsa" and self._uses_aspect_static(cell_kind, head_kind) \
                and aspect_embeddings is None:
            raise ConfigError("acsa with an aspect-using model needs a category table")
        dx = embeddings.dim
        if cell.input_dim != dx:
            raise ConfigError(
                f"embedding dim {dx} != cell input dim {cell.input_dim}")
        aspect_dim = None
        if self._uses_aspect_static(cell_kind, head_kind):
            aspect_dim = aspect_embeddings.dim if task == "acsa" else dx
        if cell_kind == "aa" and cell.aspect_dim != aspect_dim:
            raise ConfigError(
                f"cell aspect dim {cell.aspect_dim} != aspect vector dim {aspect_dim}")
        if attn is not None and head_kind == "attention":
            if attn.hidden_dim != cell.hidden_dim:
                raise ConfigError(
                    f"attention hidden dim {attn.hidden_dim} != cell hidden "
                    f"dim {cell.hidden_dim}")
            if attn.aspect_dim != aspect_dim:
                raise ConfigError(
                    f"attention aspect dim {attn.aspect_dim} != aspect vector "
                    f"dim {aspect_dim}")
        rep_dim = attn.W_p.shape[0] if (attn is not None and head_kind == "attention") \
            else cell.hidden_dim
        if clf.W_s.shape[1] != rep_dim:
            raise ConfigError(
                f"classifier input dim {clf.W_s.shape[1]} != representation "
                f"dim {rep_dim}")
        self.task = task
        self.cell_kind = cell_kind
        self.head_kind = head_kind
        self.embeddings = embeddings
        self.aspect_embeddings = aspect_embeddings
        self.cell = cell
        self.attn = attn
        self.clf = clf
        self.train_embeddings = train_embeddings

    @staticmethod
    def _uses_aspect_static(cell_kind: str, head_kind: str) -> bool:
        return cell_kind == "aa" or head_kind == "attention"

    @property
    def uses_aspect(self) -> bool:
        return self._uses_aspect_static(self.cell_kind, self.head_kind)

    @property
    def hidden_dim(self) -> int:
        return self.cell.hidden_dim

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> live array for every array inference needs."""
        out = {"emb.words": self.embeddings.matrix}
        if self.aspect_embeddings is not None:
            out["emb.aspects"] = self.aspect_embeddings.matrix
        for prefix, part in (("cell", self.cell), ("attn", self.attn),
                             ("clf", self.clf)):
            if part is not None:
                for name, arr in part.to_arrays().items():
                    out[f"{prefix}.{name}"] = arr
        return out

    def params(self) -> dict[str, np.ndarray]:
        """Trainable name -> live array: arrays() minus frozen or unused
        tables. Mutating a value updates the model."""
        out = self.arrays()
        if not self.train_embeddings:
            del out["emb.words"]
        if not self.uses_aspect:
            out.pop("emb.aspects", None)
        return out

    def regularized(self) -> list[str]:
        """Parameter names under L2: weight matrices, not biases or embeddings."""
        return sorted(name for name, arr in self.params().items()
                      if not name.startswith("emb.") and arr.ndim == 2)

    def forward(self, inst: LabeledInstance, mode: str = "eval",
                dropout: float = 0.0, rng=None) -> InstanceCache:
        indices = [self.embeddings.index(t) for t in inst.tokens]
        xs = [self.embeddings.matrix[i] for i in indices]
        x_masks = None
        if mode == "train" and dropout > 0.0:
            pairs = [apply_dropout(x, dropout, mode, rng) for x in xs]
            xs = [v for v, _ in pairs]
            x_masks = [m for _, m in pairs]
        aspect = None
        if self.uses_aspect:
            aspect = build_aspect_vector(inst, self.embeddings, self.aspect_embeddings)
        cell_aspect = aspect if self.cell_kind == "aa" else None
        hs, cell_caches = unroll(self.cell, xs, aspect=cell_aspect)
        head_cache = None
        if self.head_kind == "attention":
            rep, _, head_cache = attention_head(hs, aspect, self.attn)
        else:
            rep = last_hidden_head(hs)
        rep, rep_mask = apply_dropout(rep, dropout, mode, rng) \
            if mode == "train" and dropout > 0.0 else (rep, None)
        probs, clf_cache = classify_with_cache(rep, self.clf)
        return InstanceCache(inst=inst, indices=indices, xs=xs, x_masks=x_masks,
                             aspect=aspect, hs=hs, cell_caches=cell_caches,
                             head_cache=head_cache, rep_mask=rep_mask,
                             clf_cache=clf_cache, probs=probs)

    def backward(self, cache: InstanceCache) -> dict[str, np.ndarray]:
        """Cross-entropy gradient for one instance, keyed like params()."""
        inst = cache.inst
        d_logits = cache.probs.copy()
        d_logits[inst.label] -= 1.0

        clf_grads, d_rep = classifier_backward(self.clf, cache.clf_cache, d_logits)
        if cache.rep_mask is not None:
            d_rep = d_rep * cache.rep_mask

        d_aspect = None
        if self.head_kind == "attention":
            attn_grads, dh_list, d_aspect = attention_backward(
                self.attn, cache.head_cache, d_rep)
        else:
            attn_grads = None
            dh_list = last_hidden_backward(d_rep, len(cache.hs))

        if self.cell_kind == "aa":
            cell_grads, dxs, d_aspect_cell = aa_lstm_backward(
                self.cell, cache.cell_caches, dh_list)
            d_aspect = d_aspect_cell if d_aspect is None else d_aspect + d_aspect_cell
        else:
            cell_grads, dxs = classic_lstm_backward(self.cell, cache.cell_caches, dh_list)

        grads: dict[str, np.ndarray] = {}
        for name, g in cell_grads.items():
            grads[f"cell.{name}"] = g
        if attn_grads is not None:
            for name, g in attn_grads.items():
                grads[f"attn.{name}"] = g
        for name, g in clf_grads.items():
            grads[f"clf.{name}"] = g

        if self.train_embeddings:
            d_words = np.zeros_like(self.embeddings.matrix)
            for t, idx in enumerate(cache.indices):
                dx = dxs[t]
                if cache.x_masks is not None:
                    dx = dx * cache.x_masks[t]
                d_words[idx] += dx
            if d_aspect is not None and isinstance(inst.aspect, TermSpan):
                span = inst.aspect
                share = d_aspect / (span.end - span.start + 1)
                for t in range(span.start, span.end + 1):
                    d_words[cache.indices[t]] += share
            grads["emb.words"] = d_words
        if self.aspect_embeddings is not None and self.uses_aspect:
            d_cats = np.zeros_like(self.aspect_embeddings.matrix)
            if d_aspect is not None and not isinstance(inst.aspect, TermSpan):
                d_cats[inst.aspect.index] += d_aspect
            grads["emb.aspects"] = d_cats
        return grads

    def predict_probs(self, inst: LabeledInstance) -> np.ndarray:
        return self.forward(inst, mode="eval").probs

    def predict(self, inst: LabeledInstance) -> int:
        return int(np.argmax(self.predict_probs(inst)))


def build_model(task: str, cell_kind: str, head_kind: str,
                embeddings: EmbeddingTable, hidden_dim: int, seed=0,
                categories: tuple[str, ...] = RESTAURANT_CATEGORIES,
                train_embeddings: bool = True,
                init_low: float = -0.1, init_high: float = 0.1) -> SentimentModel:
    """Construct a model with freshly initialized weights.

    The aspect dimension is the embedding dimension for atsa (span means live
    in embedding space) and the hidden dimension for acsa (the category table
    is created here). The aspect-aware cell requires the aspect and hidden
    dimensions to match, so aa + atsa additionally needs emb.dim == hidden.
    """
    uses_aspect = SentimentModel._uses_aspect_static(cell_kind, head_kind)
    dx = embeddings.dim
    aspect_dim = dx if task == "atsa" else hidden_dim
    if cell_kind == "aa" and aspect_dim != hidden_dim:
        raise ConfigError(
            f"aspect-aware cell needs aspect dim == hidden dim; atsa aspect "
            f"vectors have the embedding dim {dx}, hidden is {hidden_dim}")
    lo, hi = init_low, init_high
    if cell_kind == "aa":
        cell = AALstmParams.init(dx, hidden_dim, aspect_dim, lo=lo, hi=hi, seed=seed)
    else:
        cell = ClassicLstmParams.init(dx, hidden_dim, lo=lo, hi=hi, seed=seed)
    attn = AttentionParams.init(hidden_dim, aspect_dim, lo=lo, hi=hi, seed=seed) \
        if head_kind == "attention" else None
    clf = ClassifierParams.init(hidden_dim, lo=lo, hi=hi, seed=seed)
    aspect_embeddings = None
    if task == "acsa" and uses_aspect:
        aspect_embeddings = AspectEmbeddingTable.init(categories, aspect_dim,
                                                      lo=lo, hi=hi, seed=seed)
    return SentimentModel(task, cell_kind, head_kind, embeddings, cell, clf,
                          attn=attn, aspect_embeddings=aspect_embeddings,
                          train_embeddings=train_embeddings)
