"""The full classifier: embeddings -> recurrent cell -> head -> softmax.

The task is a switch: "atsa" aspect vectors are span means of token
embeddings, "acsa" aspect vectors are rows of a trainable category table. The
cell and head kinds are read from the parts a model holds: the cell is
"aa" (aspect-aware) when it is an `AALstmParams` and "classic" otherwise, and
the head is "attention" when the model has attention weights and the "last"
hidden state otherwise. Only the aa cell reads the aspect. Every model
trains all of its arrays, its word table included. `assemble_model`
is the one constructor: it picks the parts from the kinds by name, for
`build_model` (fresh weights) and the checkpoint loader (empty storage it
fills), and it owns the rules the names and dims must keep: known names,
every dim at least 1, and a category table exactly for an acsa model with
the aa cell, so a model holds no array it does not read. The `SentimentModel`
constructor only stores the parts, the task and a table's category names.
`SentimentModel.params()` is the one owner of the namespaced array names
("emb.words", "cell.W_x", "clf.b_s", ...), and `backward` names its
gradients the same way: the optimizer and the gradient check walk exactly
those arrays, and the checkpoint writes and reads them.

One run is the only way the model is driven: `forward` takes a minibatch,
an evaluation chunk or one instance to predict. It gathers their input rows,
draws any dropout masks in one draw, runs the cell over all of them in one
`unroll` call, and runs the head and the classifier once over the run: on
the packed (N, dc) hidden states, laid out like the input rows, and then on
the (B, dc) representations. `backward` returns the run's gradient summed
over its instances: the classifier and the head run backward once into one
(N, dc) hidden-state gradient, the cell runs backward once over the run,
and its (N, dx) input gradient goes into the word-table gradient in one
scatter, the aspect gradients in one more.

Gradient routing notes, since they are easy to get wrong:
  - input gradients pass back through the dropout mask before
    accumulating into embedding rows;
  - an aspect vector is the mean of its source rows in one table, a term
    span's clean (pre-dropout) word rows or a category's row, so one
    scatter gives each row the aspect's gradient over its row count, with
    no mask;
  - a span token is also an input token, so its row can receive gradient
    from both paths in the same step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cells import (AALstmParams, CellCache, ClassicLstmParams, aa_lstm_backward,
                    classic_lstm_backward, unroll)
from .data import (RESTAURANT_CATEGORIES, UNK_TOKEN, AspectEmbeddingTable, EmbeddingTable,
                   LabeledInstance, build_aspect_vector)
from .heads import (AttentionCache, AttentionParams, ClassifierParams, attention_backward,
                    attention_head, classifier_backward, classify_with_cache,
                    last_hidden_backward, last_hidden_head)
from .tensor import INIT_HIGH, INIT_LOW, ConfigError
from .train import dropout_mask

TASKS = ("atsa", "acsa")
CELLS = ("classic", "aa")
HEADS = ("last", "attention")


def _part_arrays(**parts: Optional[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The parts' own arrays, in order, each named "<part>.<name>"; a part
    that is None has none. `params()` and `backward` both name theirs here."""
    return {f"{prefix}.{name}": arr for prefix, arrays in parts.items()
            if arrays is not None for name, arr in arrays.items()}


@dataclass
class RunCache:
    """Everything the backward pass needs about one forward run: the token
    rows of every instance, one after another, the aspects' source rows and
    counts (None without the aa cell), the cell's and the head's (None for
    the last-hidden head) caches, the (B, dc) representations the classifier
    read, the (N, dx) input and (B, dc) representation dropout multipliers
    (None at rate 0), and the (B, 3) class probabilities."""

    insts: list[LabeledInstance]
    indices: list[int]
    aspect_rows: Optional[np.ndarray]
    aspect_counts: Optional[np.ndarray]
    cell: CellCache
    head: Optional[AttentionCache]
    rep: np.ndarray
    x_mask: Optional[np.ndarray]
    rep_mask: Optional[np.ndarray]
    probs: np.ndarray


class SentimentModel:
    """Embeddings, cell, optional attention head and classifier, stored as
    given; `assemble_model` builds one from names and dims."""

    # Every model trains its word table; perfbench's tracer reads this flag.
    train_embeddings = True

    def __init__(self, task: str, embeddings: EmbeddingTable,
                 cell: Union[ClassicLstmParams, AALstmParams],
                 clf: ClassifierParams,
                 attn: Optional[AttentionParams] = None,
                 aspect_embeddings: Optional[AspectEmbeddingTable] = None,
                 categories: Optional[tuple[str, ...]] = None):
        self.task = task
        self.categories = categories
        self.embeddings = embeddings
        self.aspect_embeddings = aspect_embeddings
        self.cell = cell
        self.attn = attn
        self.clf = clf

    @property
    def cell_kind(self) -> str:
        return "aa" if isinstance(self.cell, AALstmParams) else "classic"

    @property
    def head_kind(self) -> str:
        return "last" if self.attn is None else "attention"

    def params(self) -> dict[str, np.ndarray]:
        """Name -> live array for every array of the model. Mutating a value
        updates the model."""
        out = {"emb.words": self.embeddings.matrix}
        if self.aspect_embeddings is not None:
            out["emb.aspects"] = self.aspect_embeddings.matrix
        out.update(_part_arrays(cell=self.cell.to_arrays(),
                                attn=None if self.attn is None else self.attn.to_arrays(),
                                clf=self.clf.to_arrays()))
        return out

    def regularized(self) -> list[str]:
        """Parameter names under L2: weight matrices, not biases or embeddings."""
        return sorted(name for name, arr in self.params().items()
                      if not name.startswith("emb.") and arr.ndim == 2)

    def forward(self, insts: list[LabeledInstance], dropout: float = 0.0,
                rng=None) -> RunCache:
        """Run the instances through one cell, one head and one classifier
        call. Dropout masks come from one draw, split per instance in this
        order: its input mask, then its representation mask."""
        lengths = [len(inst.tokens) for inst in insts]
        vocab, unk = self.embeddings.vocab, self.embeddings.vocab[UNK_TOKEN]
        indices = [vocab.get(t, unk) for inst in insts for t in inst.tokens]
        X = self.embeddings.matrix[indices]
        x_mask = rep_mask = None
        if dropout:
            dx, dc = self.embeddings.dim, self.clf.repr_dim
            sizes = [k for n in lengths for k in (n * dx, dc)]
            parts = np.split(dropout_mask((sum(sizes),), dropout, rng), np.cumsum(sizes[:-1]))
            x_mask = np.concatenate(parts[0::2]).reshape(-1, dx)
            rep_mask = np.stack(parts[1::2])
            X *= x_mask
        aspects = aspect_rows = aspect_counts = None
        if self.cell_kind == "aa":
            aspects, aspect_rows, aspect_counts = build_aspect_vector(
                insts, indices, self.embeddings, self.aspect_embeddings)
        H, cell_cache = unroll(self.cell, X, aspect=aspects, lengths=lengths)
        head_cache = None
        if self.attn is not None:
            rep, _, head_cache = attention_head(H, self.attn, lengths)
        else:
            rep = last_hidden_head(H, lengths)
        if rep_mask is not None:
            rep = rep * rep_mask
        probs = classify_with_cache(rep, self.clf)
        return RunCache(insts, indices, aspect_rows, aspect_counts, cell_cache, head_cache,
                        rep, x_mask, rep_mask, probs)

    def backward(self, cache: RunCache) -> dict[str, np.ndarray]:
        """Cross-entropy gradient of the run, summed over its instances and
        keyed like params(). The classifier, the head and the cell each run
        backward once over the run."""
        insts, lengths = cache.insts, cache.cell.lengths
        d_logits = cache.probs.copy()
        d_logits[np.arange(len(insts)), [inst.label for inst in insts]] -= 1.0
        clf_grads, d_rep = classifier_backward(self.clf, cache.rep, d_logits)
        if cache.rep_mask is not None:
            d_rep *= cache.rep_mask
        attn_grads = d_aspects = None
        if self.attn is not None:
            attn_grads, dH = attention_backward(self.attn, cache.head, d_rep)
        else:
            dH = last_hidden_backward(d_rep, lengths)
        if self.cell_kind == "aa":
            cell_grads, dX, d_aspects = aa_lstm_backward(self.cell, cache.cell, dH)
        else:
            cell_grads, dX = classic_lstm_backward(self.cell, cache.cell, dH)
        grads = {k: np.zeros_like(v) for k, v in self.params().items() if k.startswith("emb.")}
        grads.update(_part_arrays(cell=cell_grads, attn=attn_grads, clf=clf_grads))
        if cache.x_mask is not None:
            dX *= cache.x_mask
        np.add.at(grads["emb.words"], cache.indices, dX)
        if d_aspects is not None:
            table = "emb.words" if self.aspect_embeddings is None else "emb.aspects"
            counts = cache.aspect_counts
            np.add.at(grads[table], cache.aspect_rows,
                      np.repeat(d_aspects / counts[:, None], counts, axis=0))
        return grads

    def predict_probs(self, inst: LabeledInstance) -> np.ndarray:
        return self.forward([inst]).probs[0]

    def predict(self, inst: LabeledInstance) -> int:
        return int(np.argmax(self.predict_probs(inst)))


def assemble_model(task: str, cell_kind: str, head_kind: str,
                   embeddings: EmbeddingTable, hidden_dim: int,
                   categories: Optional[tuple[str, ...]],
                   make) -> SentimentModel:
    """The model the (task, cell, head) names describe, around `embeddings`.

    This is the one constructor of a `SentimentModel` and the one place that
    checks the names and dims: every part is made from one set of dims, each
    at least 1, so the parts fit together and no array is empty.
    `make(cls, *dims)` makes each part: its `init` for a new model, its
    `empty` for one a checkpoint fills. Only an acsa model with the aa
    cell gets a category table, a row of the hidden dim, which the cell
    needs, per name in `categories`, and keeps the names; other models keep
    None. atsa aspect vectors have the embedding dim.
    """
    for kind, name, known in (("task", task, TASKS), ("cell", cell_kind, CELLS),
                              ("head", head_kind, HEADS)):
        if name not in known:
            raise ConfigError(f"{kind} must be one of {known}, got {name!r}")
    with_table = task == "acsa" and cell_kind == "aa"
    if with_table and not categories:
        raise ConfigError("acsa with an aspect-aware cell needs a category table "
                          "with at least one category")
    dx = embeddings.dim
    if min(dx, hidden_dim) < 1:
        raise ConfigError(f"dims must be >= 1, got embedding {dx}, hidden {hidden_dim}")
    if cell_kind == "aa" and task == "atsa" and dx != hidden_dim:
        raise ConfigError(
            f"aspect-aware cell needs aspect dim == hidden dim; atsa aspect vectors "
            f"have the embedding dim {dx}, hidden is {hidden_dim}")
    cell = make(AALstmParams if cell_kind == "aa" else ClassicLstmParams, dx, hidden_dim)
    attn = make(AttentionParams, hidden_dim) if head_kind == "attention" else None
    table = make(AspectEmbeddingTable, len(categories), hidden_dim) if with_table else None
    return SentimentModel(task, embeddings, cell, make(ClassifierParams, hidden_dim),
                          attn=attn, aspect_embeddings=table,
                          categories=tuple(categories) if with_table else None)


def build_model(task: str, cell_kind: str, head_kind: str,
                embeddings: EmbeddingTable, hidden_dim: int, seed=0,
                categories: tuple[str, ...] = RESTAURANT_CATEGORIES,
                init_low: float = INIT_LOW, init_high: float = INIT_HIGH) -> SentimentModel:
    """Construct a model with freshly initialized weights.

    Only the aspect-aware cell reads the aspect, and it needs the aspect and
    hidden dimensions to match. acsa category vectors have the hidden
    dimension; atsa span means live in embedding space, so aa + atsa needs
    emb.dim == hidden, which `assemble_model` checks.
    """
    return assemble_model(
        task, cell_kind, head_kind, embeddings, hidden_dim, categories,
        lambda cls, *dims: cls.init(*dims, lo=init_low, hi=init_high, seed=seed))
