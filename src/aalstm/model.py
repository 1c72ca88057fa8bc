"""The full classifier: embeddings -> recurrent cell -> head -> softmax.

The task is a switch: "atsa" aspect vectors are span means of token
embeddings, "acsa" aspect vectors are rows of a trainable category table. The
cell and head kinds are read from the parts a model holds: the cell is
"aa" (aspect-aware) when it is an `AALstmParams` and "classic" otherwise, and
the head is aspect-conditioned "attention" when the model has attention
weights and the "last" hidden state otherwise. `assemble_model` is the one
constructor: it picks the parts from the kinds by name, for `build_model`
(fresh weights) and the checkpoint loader (empty storage it fills), and it
owns the rules the names and dims must keep: known names, every dim at
least 1, and a category table exactly for an acsa model that reads the
aspect, so a model holds no array it does not read. The `SentimentModel`
constructor only stores the parts. `SentimentModel.arrays()` is the one
owner of the namespaced array names ("emb.words", "cell.W_i", "clf.b_s",
...), and `backward` names its gradients the same way: the checkpoint
writes and reads exactly those arrays, and `params()`, which the optimizer
and the gradient check walk, is the same dict minus a frozen word table.

A forward run gathers the (T, dx) input rows once, applies one dropout mask
to all of them when the dropout rate is above 0, and keeps the cell's
`SequenceCache`; the backward pass scatters the (T, dx) input gradient back
into the embedding rows.

Gradient routing notes, since they are easy to get wrong:
  - input gradients pass back through the dropout mask before
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
    SequenceCache,
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
from .tensor import ConfigError
from .train import dropout as apply_dropout

TASKS = ("atsa", "acsa")
CELLS = ("classic", "aa")
HEADS = ("last", "attention")


def _part_arrays(**parts: Optional[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The parts' own arrays, in order, each named "<part>.<name>"; a part
    that is None has none. `arrays()` and `backward` both name theirs here."""
    return {f"{prefix}.{name}": arr for prefix, arrays in parts.items()
            if arrays is not None for name, arr in arrays.items()}


@dataclass
class InstanceCache:
    """Everything the backward pass needs about one forward run.

    ``x_mask`` is the (T, dx) dropout multiplier of the gathered inputs, or
    None; the inputs themselves live in ``cell_cache.X``.
    """

    inst: LabeledInstance
    indices: list[int]
    x_mask: Optional[np.ndarray]
    cell_cache: SequenceCache
    head_cache: Optional[AttentionCache]
    rep_mask: Optional[np.ndarray]
    clf_cache: ClassifierCache
    probs: np.ndarray


class SentimentModel:
    """Embeddings, cell, optional attention head and classifier, stored as
    given; `assemble_model` builds one from names and dims."""

    def __init__(self, task: str, embeddings: EmbeddingTable,
                 cell: Union[ClassicLstmParams, AALstmParams],
                 clf: ClassifierParams,
                 attn: Optional[AttentionParams] = None,
                 aspect_embeddings: Optional[AspectEmbeddingTable] = None,
                 train_embeddings: bool = True):
        self.task = task
        self.embeddings = embeddings
        self.aspect_embeddings = aspect_embeddings
        self.cell = cell
        self.attn = attn
        self.clf = clf
        self.train_embeddings = train_embeddings

    @property
    def cell_kind(self) -> str:
        return "aa" if isinstance(self.cell, AALstmParams) else "classic"

    @property
    def head_kind(self) -> str:
        return "last" if self.attn is None else "attention"

    @property
    def uses_aspect(self) -> bool:
        """The aspect-aware cell and the attention head both read the aspect."""
        return isinstance(self.cell, AALstmParams) or self.attn is not None

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> live array for every array inference needs."""
        out = {"emb.words": self.embeddings.matrix}
        if self.aspect_embeddings is not None:
            out["emb.aspects"] = self.aspect_embeddings.matrix
        out.update(_part_arrays(cell=self.cell.to_arrays(),
                                attn=None if self.attn is None else self.attn.to_arrays(),
                                clf=self.clf.to_arrays()))
        return out

    def params(self) -> dict[str, np.ndarray]:
        """Trainable name -> live array: arrays() minus a frozen word table.
        Mutating a value updates the model."""
        out = self.arrays()
        if not self.train_embeddings:
            del out["emb.words"]
        return out

    def regularized(self) -> list[str]:
        """Parameter names under L2: weight matrices, not biases or embeddings."""
        return sorted(name for name, arr in self.params().items()
                      if not name.startswith("emb.") and arr.ndim == 2)

    def forward(self, inst: LabeledInstance, dropout: float = 0.0,
                rng=None) -> InstanceCache:
        """Run one instance; `dropout` above 0 drops inputs and representation."""
        indices = [self.embeddings.index(t) for t in inst.tokens]
        X, x_mask = apply_dropout(self.embeddings.matrix[indices], dropout, rng)
        aspect = None
        if self.uses_aspect:
            aspect = build_aspect_vector(inst, self.embeddings, self.aspect_embeddings)
        cell_aspect = aspect if self.cell_kind == "aa" else None
        hs, cell_cache = unroll(self.cell, X, aspect=cell_aspect)
        head_cache = None
        if self.attn is not None:
            rep, _, head_cache = attention_head(hs, aspect, self.attn)
        else:
            rep = last_hidden_head(hs)
        rep, rep_mask = apply_dropout(rep, dropout, rng)
        probs, clf_cache = classify_with_cache(rep, self.clf)
        return InstanceCache(inst=inst, indices=indices, x_mask=x_mask,
                             cell_cache=cell_cache,
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
        if self.attn is not None:
            attn_grads, dH, d_aspect = attention_backward(
                self.attn, cache.head_cache, d_rep)
        else:
            attn_grads = None
            dH = last_hidden_backward(d_rep, len(cache.cell_cache))

        if self.cell_kind == "aa":
            cell_grads, dX, d_aspect_cell = aa_lstm_backward(
                self.cell, cache.cell_cache, dH)
            d_aspect = d_aspect_cell if d_aspect is None else d_aspect + d_aspect_cell
        else:
            cell_grads, dX = classic_lstm_backward(self.cell, cache.cell_cache, dH)

        grads = _part_arrays(cell=cell_grads, attn=attn_grads, clf=clf_grads)
        if self.train_embeddings:
            d_words = np.zeros_like(self.embeddings.matrix)
            if cache.x_mask is not None:
                dX = dX * cache.x_mask
            np.add.at(d_words, cache.indices, dX)
            if d_aspect is not None and isinstance(inst.aspect, TermSpan):
                span = inst.aspect
                np.add.at(d_words, cache.indices[span.start:span.end + 1],
                          d_aspect / (span.end - span.start + 1))
            grads["emb.words"] = d_words
        if self.aspect_embeddings is not None:
            d_cats = np.zeros_like(self.aspect_embeddings.matrix)
            if d_aspect is not None and not isinstance(inst.aspect, TermSpan):
                d_cats[inst.aspect.index] += d_aspect
            grads["emb.aspects"] = d_cats
        return grads

    def predict_probs(self, inst: LabeledInstance) -> np.ndarray:
        return self.forward(inst).probs

    def predict(self, inst: LabeledInstance) -> int:
        return int(np.argmax(self.predict_probs(inst)))


def assemble_model(task: str, cell_kind: str, head_kind: str,
                   embeddings: EmbeddingTable, hidden_dim: int,
                   categories: Optional[tuple[str, ...]], category_dim: Optional[int],
                   make, train_embeddings: bool = True) -> SentimentModel:
    """The model the (task, cell, head) names describe, around `embeddings`.

    This is the one constructor of a `SentimentModel` and the one place that
    checks the names and dims: every part is made from one set of dims, each
    at least 1, so the parts fit together and no array is empty.
    `make(cls, *dims)` makes each part: its `init` for a new model, its
    `empty` for one a checkpoint fills. Only an acsa model that reads the
    aspect gets a category table, of `categories` with vectors of
    `category_dim`; other models ignore both. atsa aspect vectors have the
    embedding dim.
    """
    for kind, name, known in (("task", task, TASKS), ("cell", cell_kind, CELLS),
                              ("head", head_kind, HEADS)):
        if name not in known:
            raise ConfigError(f"{kind} must be one of {known}, got {name!r}")
    reads_aspect = cell_kind == "aa" or head_kind == "attention"
    with_table = task == "acsa" and reads_aspect
    if with_table and not categories:
        raise ConfigError("acsa with an aspect-using model needs a category table "
                          "with at least one category")
    dx = embeddings.dim
    aspect_dim = category_dim if task == "acsa" else dx
    dims = {"embedding": dx, "hidden": hidden_dim}
    if reads_aspect:
        dims["aspect"] = aspect_dim
    if min(dims.values()) < 1:
        raise ConfigError("dims must be >= 1, got "
                          + ", ".join(f"{name} {dim}" for name, dim in dims.items()))
    if cell_kind == "aa" and aspect_dim != hidden_dim:
        source = "category" if task == "acsa" else "embedding"
        raise ConfigError(
            f"aspect-aware cell needs aspect dim == hidden dim; {task} aspect vectors "
            f"have the {source} dim {aspect_dim}, hidden is {hidden_dim}")
    cell = make(AALstmParams if cell_kind == "aa" else ClassicLstmParams, dx, hidden_dim)
    attn = make(AttentionParams, hidden_dim, aspect_dim) if head_kind == "attention" else None
    aspect_embeddings = (make(AspectEmbeddingTable, categories, category_dim)
                         if with_table else None)
    return SentimentModel(task, embeddings, cell, make(ClassifierParams, hidden_dim),
                          attn=attn, aspect_embeddings=aspect_embeddings,
                          train_embeddings=train_embeddings)


def build_model(task: str, cell_kind: str, head_kind: str,
                embeddings: EmbeddingTable, hidden_dim: int, seed=0,
                categories: tuple[str, ...] = RESTAURANT_CATEGORIES,
                train_embeddings: bool = True,
                init_low: float = -0.1, init_high: float = 0.1) -> SentimentModel:
    """Construct a model with freshly initialized weights.

    The aspect dimension is the embedding dimension for atsa (span means live
    in embedding space) and the hidden dimension for acsa (the category
    table, which `assemble_model` makes when the model reads the aspect).
    The aspect-aware cell requires the aspect and hidden dimensions to
    match, so aa + atsa additionally needs emb.dim == hidden; `assemble_model`
    checks it.
    """
    return assemble_model(
        task, cell_kind, head_kind, embeddings, hidden_dim, categories, hidden_dim,
        lambda cls, *dims: cls.init(*dims, lo=init_low, hi=init_high, seed=seed),
        train_embeddings)
