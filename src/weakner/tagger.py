"""Feature-based linear-chain sequence tagger with soft and hard prediction.

The model assigns a sentence-level score to a tag sequence y:

    score(y | x) = sum_i emission(x, i, y_i) + sum_i transition(y_{i-1}, y_i)

where emissions are sums of learned weights over sparse indicator features
of token windows. Two inference modes are exposed:

* soft: per-token posterior marginals P(y_i = t | x) via forward-backward,
  the probabilistic analogue of a per-token softmax output;
* hard: the single most probable sequence via Viterbi decoding, the
  CRF-style output.

Both take a list of sentences and return one labeling per sentence, in
input order. Every feature template reads one text, the token's own or a
neighbour's, so feature strings are built and looked up once per distinct
text. The own-text templates' rows are summed once per distinct text, and
each token adds its neighbour templates' rows to its text's sum, in
template order. A neighbour template's rows are gathered per type, then
per token with np.take, so no per-token id array is built. An unknown
feature adds a zero row, so the sums equal, bit for bit, the in-order sums
over each token's known features. Hard prediction sorts a call's sentences
longest first and packs their rows position-major with no padding: block i
holds position i of every sentence longer than i, so one Viterbi pass runs
over the longest length, each step on a prefix of the sentences. Soft
prediction stacks the sentences of each length position-major into an
(n, B, k) array and runs one forward-backward per length, the kernel that
training runs on one sentence.

Two training objectives are supported, both optimized by per-sentence SGD
with an inverse-time learning-rate decay and L2 regularization:

* MARGINAL: cross-entropy between the model's posterior marginals and
  per-token soft target rows (accepts mixed one-hot / probabilistic rows).
  Its loss reads log mu = alpha + beta - log Z, so it runs both passes and
  differentiates through each;
* SEQUENCE: conditional log-likelihood of hard tag sequences. Its gradient
  needs only the forward pass: the node and pairwise expectations are the
  reverse-mode adjoint of the alpha recursion, with no backward pass. That
  adjoint is linear, so the node marginals are suffix products of the
  recursion's local derivative matrices, built by doubling in about log2(n)
  batched matrix products instead of one product per position.

Training reads an (n_tokens, n_templates) feature-id matrix built from the
same per-type tables. Each sentence's rows are a view of it that indexes a
working copy of the weights with one extra zero row, the row that id -1 (an
unknown or absent feature) names. A sentence's emissions are one gather,
template axis first, and one reduce over that leading axis, summing in
template order. Its SGD step is one np.subtract.at over every firing,
token by token in template order, after which the zero row is reset to zero.
The step scatters into the flat (1-D) view of the weights, at element
f * k + t for feature f and tag t, so id -1 names the zero row's k elements:
numpy's ufunc.at runs its fast indexed loop on a 1-D operand with 1-D
indices and values, but its generic per-row path when it indexes rows of a
2-D array. Each weight takes the same subtractions in the same order, so the
bits are those of the row scatter.

All dynamic programs run in log space. In each step's scores the tag being
summed out (or maximised over) comes first, (k, k) for one sentence and
(k, B, k) for a stack, so a log-sum-exp or max is one ufunc reduce over
axis 0: k - 1 elementwise passes over a row, not one short inner loop per
output element. The additions and their order are those of a reduce over
the middle or last axis, so the bits are too. Tie-breaking in
argmax/Viterbi is by lowest tag index, so results are deterministic.
"""

from __future__ import annotations

import enum
import json
import math
import string
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .corpus import Dataset, Provenance, SoftLabeling, TagSet, harden
from .errors import EmptyDataset, LabelLengthMismatch, ModelTagSetMismatch
from .errors import TrainingDiverged, WeaknerError, check_int

MODEL_FORMAT = "weakner-model"
MODEL_VERSION = 1
WINDOW = 2      # neighbour templates read offsets -WINDOW..-1 and 1..WINDOW


# on ASCII text the per-character rule below maps exactly these characters
_ASCII_SHAPE = str.maketrans(string.ascii_uppercase + string.ascii_lowercase + string.digits,
                             "X" * 26 + "x" * 26 + "d" * 10)


def _shape(text: str) -> str:
    if text.isascii():
        return text.translate(_ASCII_SHAPE)
    return "".join(
        "X" if c.isupper() else "x" if c.islower() else "d" if c.isdigit() else c
        for c in text
    )


class FeatureExtractor:
    """Deterministic sparse features of a token in its sentence context.

    Templates, in order: token identity, lowercased token, word shape,
    prefixes and suffixes of length 1-3, then the neighbours' identities at
    offsets -WINDOW..-1, 1..WINDOW (<s> / </s> past the sentence ends). Each
    reads the text at a fixed offset from the token, 0 for all but the
    neighbour ones, so strings are built once per distinct text.
    """

    # per template, the offset from the token of the text it reads
    offsets = (0,) * 9 + tuple(d for d in range(-WINDOW, WINDOW + 1) if d)

    def features(self, texts):
        """One row per distinct text: each template's string, in template
        order; None where the text is shorter than an affix."""
        heads = [f"w[{d}]=" for d in self.offsets if d]
        rows = []
        for text in texts:
            row = [f"w={text}", f"lw={text.lower()}", f"shape={_shape(text)}",
                   f"pre1={text[:1]}", f"suf1={text[-1:]}", f"pre2={text[:2]}",
                   f"suf2={text[-2:]}", f"pre3={text[:3]}", f"suf3={text[-3:]}",
                   *[head + text for head in heads]]
            if len(text) < 3:
                row[3 + 2 * len(text):9] = [None] * (6 - 2 * len(text))
            rows.append(row)
        return rows


class Objective(enum.Enum):
    MARGINAL = "marginal"
    SEQUENCE = "sequence"


@dataclass
class TrainConfig:
    """SGD settings. The effective rate at global epoch e (the model's epoch
    counter keeps running across fine-tuning calls) is

        learning_rate / (1 + decay * e)
    """

    epochs: int = 10
    learning_rate: float = 0.25
    decay: float = 0.08
    l2: float = 1e-4
    rng_seed: int = 0
    objective: Objective = Objective.MARGINAL

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        check_int("rng_seed", self.rng_seed, 0)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise WeaknerError(f"learning_rate must be finite and > 0, not {self.learning_rate!r}",
                               field="learning_rate")
        for name in ("decay", "l2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise WeaknerError(f"{name} must be finite and >= 0, not {value!r}", field=name)
        if self.learning_rate * self.l2 >= 1.0:  # the decayed rate is never larger
            raise WeaknerError("learning_rate * l2 must be < 1 (the L2 step would zero the model)",
                               field=("learning_rate", "l2"))


class TaggerModel:
    """Emission + transition weights over a frozen-on-predict feature index."""

    def __init__(self, tags: TagSet):
        self.tags = tags
        self.extractor = FeatureExtractor()
        self.feature_index = {}
        self.weights = np.zeros((0, len(tags)))        # (n_features, n_tags)
        self.transitions = np.zeros((len(tags), len(tags)))
        self.epochs_trained = 0

    def clone(self) -> "TaggerModel":
        other = TaggerModel(self.tags)
        other.feature_index = dict(self.feature_index)
        other.weights = self.weights.copy()
        other.transitions = self.transitions.copy()
        other.epochs_trained = self.epochs_trained
        return other

    # -- feature plumbing ---------------------------------------------------

    def _type_table(self, sentences, grow=False):
        """A dataset's features by type (distinct text): the (n_types,
        n_templates) id table, -1 where unknown or absent; per offset, the
        type each token reads there, with the sentences concatenated; and
        each sentence's first token. Strings are built and looked up once
        per type. With grow=True unseen strings first get the next free ids
        in first-seen order (sentence, token, template), and zero weight rows.
        """
        w, offsets = WINDOW, self.extractor.offsets
        texts = {"<s>": 0, "</s>": 1}   # the pads past a sentence end
        ids = [texts.setdefault(t, len(texts)) for s in sentences for t in s.tokens]
        lens = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
        block = w * (2 * np.arange(len(lens)) + 1)     # the pads before each sentence's tokens
        token = np.arange(len(ids)) + np.repeat(block, lens)
        padded = np.zeros(len(ids) + 2 * w * len(lens), dtype=np.intp)
        padded[token] = ids
        padded[(lens.cumsum() + block)[:, None] + np.arange(w)] = 1
        source = {d: padded[token + d] for d in set(offsets)}
        flat = [f for row in self.extractor.features(list(texts)) for f in row]
        index = self.feature_index
        if grow:
            # a string first fires with the first of its (type, template)
            # pairs, a pair at the first token whose source is that type
            first = {d: np.unique(types, return_index=True) for d, types in source.items()}
            where = np.concatenate([first[d][1] * len(offsets) + c for c, d in enumerate(offsets)])
            pairs = np.concatenate([first[d][0] * len(offsets) + c for c, d in enumerate(offsets)])
            for p in pairs[np.argsort(where)].tolist():
                if flat[p] is not None:
                    index.setdefault(flat[p], len(index))
            new = np.zeros((len(index) - len(self.weights), len(self.tags)))
            self.weights = np.vstack([self.weights, new])
        table = np.fromiter(map(index.get, flat, repeat(-1)), dtype=np.intp, count=len(flat))
        table = table.reshape(len(texts), -1)
        return table, source, lens.cumsum() - lens

    def _feature_ids(self, sentences, grow=False):
        """The (n_tokens, n_templates) feature ids of _type_table's tokens,
        -1 where unknown or absent, and each sentence's first token."""
        table, source, starts = self._type_table(sentences, grow)
        M = np.empty((len(source[0]), table.shape[1]), dtype=np.int32)    # training keeps its ids
        for c, d in enumerate(self.extractor.offsets):
            M[:, c] = table[source[d], c]
        return M, starts

    def emissions(self, sentences):
        """Emission score rows of a dataset's tokens, (n_tokens, n_tags) with
        the sentences concatenated, and each sentence's first row. The
        own-text templates, which come first, are summed once per type in
        template order from zeros; each token gathers its type's sum and adds
        its neighbour templates in order, an unknown feature adding zeros.
        A neighbour template's rows are gathered per type, then per token."""
        table, source, starts = self._type_table(sentences)
        R = np.vstack([self.weights, np.zeros((1, len(self.tags)))])    # id -1: zeros
        own = np.zeros((len(table), len(self.tags)))
        for c, d in enumerate(self.extractor.offsets):
            if d == 0:
                own += R[table[:, c]]
        E = np.take(own, source[0], axis=0)
        for c, d in enumerate(self.extractor.offsets):
            if d:
                E += np.take(R[table[:, c]], source[d], axis=0)
        return E, starts

    # -- inference ----------------------------------------------------------

    def predict_soft(self, sentences) -> list:
        """Posterior tag marginals per token of each sentence, in input order;
        provenance PREDICTED. The sentences of each length, lengths in
        first-seen order, share one forward-backward over their emission
        rows stacked position-major, (n, B, k); the labelings are views of
        one dataset-wide array, checked once."""
        E, starts = self.emissions(sentences)
        mu = np.empty_like(E)
        groups = {}
        for i, sentence in enumerate(sentences):
            groups.setdefault(len(sentence), []).append(i)
        for n, group in groups.items():
            rows = starts[group] + np.arange(n)[:, None]
            alpha, beta, log_z = _forward_backward(E[rows], self.transitions)
            batch = np.exp(alpha + beta - log_z[:, None])
            batch /= batch.sum(axis=-1, keepdims=True)
            mu[rows] = batch
        prov = np.full(len(mu), Provenance.PREDICTED, dtype=np.int8)
        return SoftLabeling.split(mu, prov, starts)

    def predict_hard(self, sentences) -> list:
        """Viterbi decode of each sentence, in input order; ties broken by
        lower tag index. The sentences are sorted longest first (a stable
        sort) and their emission rows packed position-major with no padding,
        so one Viterbi pass runs over the longest length (see _viterbi)."""
        if not sentences:
            return []
        E, starts = self.emissions(sentences)
        lens = np.diff(starts, append=len(E))
        order = np.argsort(-lens, kind="stable")
        sizes = len(lens) - np.bincount(lens).cumsum()[:-1]    # sentences longer than i
        # packed row r holds position i[r] of the j[r]-th longest sentence
        i = np.repeat(np.arange(len(sizes)), sizes)
        j = np.arange(len(E)) - np.repeat(sizes.cumsum() - sizes, sizes)
        packed = starts[order][j] + i
        tags = np.empty(len(E), dtype=np.intp)
        tags[packed] = _viterbi(np.take(E, packed, axis=0), self.transitions, sizes.tolist())
        flat = tags.tolist()
        return [flat[s:s + n] for s, n in zip(starts.tolist(), lens.tolist())]

    # -- serialization ------------------------------------------------------

    def save(self, path):
        """Write a deterministic, bit-exact reloadable model file."""
        feats = [None] * len(self.feature_index)
        for f, i in self.feature_index.items():
            feats[i] = f
        header = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "entity_types": list(self.tags.entity_types),
            "window": WINDOW,
            "epochs_trained": self.epochs_trained,
            "features": feats,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8"))
            fh.write(b"\n")
            fh.write(np.ascontiguousarray(self.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.transitions, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "TaggerModel":
        with open(path, "rb") as fh:
            blob = fh.read()
        head, _, body = blob.partition(b"\n")
        try:
            header = json.loads(head.decode("utf-8"))
            if not isinstance(header, dict) or (header.get("format"), header.get("version")) != (
                MODEL_FORMAT, MODEL_VERSION
            ):
                raise WeaknerError(f"not a version-{MODEL_VERSION} model file: {path}")
            for key, low, high in (("window", WINDOW, WINDOW), ("epochs_trained", 0, math.inf)):
                if type(header[key]) is not int or not low <= header[key] <= high:
                    raise WeaknerError(f"bad {key} {header[key]!r} in model file: {path}")
            for key in ("entity_types", "features"):
                if type(header[key]) is not list or not set(map(type, header[key])) <= {str}:
                    raise WeaknerError(f"bad {key} in model file, not a list of strings: {path}")
            try:
                model = cls(TagSet(tuple(header["entity_types"])))
            except WeaknerError as e:
                raise WeaknerError(f"bad entity_types in model file, {e}: {path}") from None
            model.epochs_trained = header["epochs_trained"]
            model.feature_index = {f: i for i, f in enumerate(header["features"])}
            if len(model.feature_index) != len(header["features"]):
                raise WeaknerError(f"bad features in model file, duplicate names: {path}")
        except (ValueError, KeyError, TypeError) as e:
            raise WeaknerError(f"unreadable model header in {path}: {e!r}") from None
        n_feat, n_tag = len(model.feature_index), len(model.tags)
        need = (n_feat + n_tag) * n_tag * 8
        if len(body) != need:
            raise WeaknerError(f"model file truncated: {path}")
        flat = np.frombuffer(body, dtype="<f8")
        model.weights = flat[: n_feat * n_tag].reshape(n_feat, n_tag).copy()
        model.transitions = flat[n_feat * n_tag:].reshape(n_tag, n_tag).copy()
        if not (np.isfinite(model.weights).all() and np.isfinite(model.transitions).all()):
            raise WeaknerError(f"non-finite weights in model file: {path}")
        return model


# ---------------------------------------------------------------------------
# Log-space dynamic programs
# ---------------------------------------------------------------------------

def _forward(E, T):
    """Log-space alpha of one sentence, E (n, k), or of equal-length
    sentences stacked position-major, E (n, B, k). A step's scores put the
    previous tag, the one summed out, first: (k, k), or (k, B, k) for a
    stack. So each log-sum-exp is one np.logaddexp.reduce over axis 0, k - 1
    elementwise passes over a row, written straight into that row."""
    alpha = np.empty_like(E)
    scores = np.empty(E.shape[-1:] + E.shape[1:])  # (k, k) or (k, B, k)
    T = T.reshape(scores.shape[:1] + (1,) * (E.ndim - 2) + T.shape[1:])
    alpha[0] = E[0]
    for prev, cur, e in zip(alpha.swapaxes(-1, 1)[:-1, ..., None], alpha[1:], E[1:]):
        np.add(prev, T, out=scores)
        np.logaddexp.reduce(scores, axis=0, out=cur)
        cur += e
    return alpha


def _forward_backward(E, T):
    """_forward's alpha, plus the log-space beta and the log partition
    function. Beta's scores put the next tag, the one summed out, first,
    so each row is one np.logaddexp.reduce over axis 0, like alpha's."""
    alpha = _forward(E, T)
    beta = np.zeros_like(E)
    scores = np.empty(E.shape[-1:] + E.shape[1:])
    ahead = np.empty_like(E[0])
    first = ahead.swapaxes(-1, 0)[..., None]        # ahead, next tag first
    T = T.T.reshape(scores.shape[:1] + (1,) * (E.ndim - 2) + T.shape[:1])
    for cur, after, e in zip(beta[-2::-1], beta[:0:-1], E[:0:-1]):
        np.add(e, after, out=ahead)
        np.add(T, first, out=scores)
        np.logaddexp.reduce(scores, axis=0, out=cur)
    log_z = np.logaddexp.reduce(alpha[-1], axis=-1)
    return alpha, beta, log_z


def _back(E, T, alpha):
    """The local derivatives of one sentence's alpha recursion, alpha[i] =
    E[i] + lse_s(alpha[i-1][s] + T[s, t]): back[i-1][s, t] = P(y_{i-1} = s |
    y_i = t, prefix), (n-1, k, k), each column summing to 1."""
    return np.exp(alpha[:-1, :, None] + T - (alpha[1:] - E[1:])[:, None, :])


def _viterbi(E, T, sizes):
    """Best tag paths of sentences sorted longest first, their emission rows
    packed position-major, E (n_tokens, k): block i holds position i of the
    sizes[i] sentences longer than i, in sentence order, so the list sizes
    never grows. Returns the tags in the same packed layout. Step i works on the
    prefix of sizes[i] sentences; the others have ended and keep their last
    delta. A step's scores put the previous tag first, (k, B, k), so its max
    and argmax are reduces over axis 0; the first max, i.e. the lowest
    previous tag, wins ties."""
    k = E.shape[1]
    starts = np.cumsum([0] + sizes).tolist()
    back = np.empty(E.shape, dtype=np.intp)     # block 0 is never read
    delta = E[:sizes[0]].copy()
    buffer = np.empty(k * sizes[0] * k)
    T = T[:, None, :]
    for b, lo in zip(sizes[1:], starts[1:]):
        scores = buffer[:k * b * k].reshape(k, b, k)
        cur = delta[:b]
        np.add(cur.T[:, :, None], T, out=scores)
        scores.argmax(axis=0, out=back[lo:lo + b])
        np.maximum.reduce(scores, axis=0, out=cur)
        cur += E[lo:lo + b]
    # a sentence's tag at its last position is the argmax of its last delta
    tags = delta.argmax(axis=1)
    paths = np.empty(len(E), dtype=np.intp)
    rows = np.arange(sizes[0])
    for b, lo in zip(sizes[:0:-1], starts[-2:0:-1]):
        paths[lo:lo + b] = tags[:b]
        tags[:b] = back[lo:lo + b][rows[:b], tags[:b]]
    paths[:sizes[0]] = tags
    return paths


# ---------------------------------------------------------------------------
# Objectives: per-sentence loss and analytic gradients
# ---------------------------------------------------------------------------

def _marginal_loss_grad(E, T, q):
    """Cross-entropy -sum q log mu and its exact gradients wrt E and T.

    The gradient is reverse-mode differentiation through the log-space
    forward and backward recursions, so it matches finite differences of
    the loss to machine precision. The local derivatives of both recursions
    are built for all positions at once; only the two adjoint recurrences
    run per position, one matrix-vector product each.
    """
    n = len(E)
    alpha, beta, log_z = _forward_backward(E, T)
    loss = -(q * (alpha + beta - log_z)).sum()

    # d loss / d log_z = sum(q); log_z = logsumexp(alpha[n-1])
    ga = -q
    ga[n - 1] += q.sum() * np.exp(alpha[n - 1] - log_z)
    back = _back(E, T, alpha)
    rows = list(ga)
    for b, g, g_prev in zip(back[::-1], rows[:0:-1], rows[-2::-1]):
        g_prev += np.dot(b, g)

    # beta recursion: beta[i][s] = lse_t(T[s, t] + E[i+1][t] + beta[i+1][t]);
    # fwd[i][s, t] = P(next = t | cur = s, suffix), rows sum to 1
    gb = -q
    fwd = np.exp(T + (E[1:] + beta[1:])[:, None, :] - beta[:-1, :, None])
    rows = list(gb)
    for f, g, g_next in zip(fwd, rows, rows[1:]):
        g_next += np.dot(g, f)

    # E[i] enters alpha[i] directly and beta[i-1] through fwd[i-1]; the
    # latter's adjoint is what gb[i] gained on top of its initial -q[i]
    gE = ga + (gb + q)
    gT = (back * ga[1:, None, :]).sum(axis=0) + (fwd * gb[:-1, :, None]).sum(axis=0)
    return loss, gE, gT


def _sequence_loss_grad(E, T, y):
    """Negative conditional log-likelihood of the tag sequence y, plus the
    classic expected-minus-empirical sufficient-statistics gradient. The
    expectations are the adjoint of the alpha recursion, which is linear:
    the node marginal of position i is back[i] @ ... @ back[n-2] applied to
    the last position's. Those suffix products are built by doubling
    (Hillis-Steele), one batched matmul per step, ceil(log2(n-1)) steps;
    products of _back's column-stochastic matrices stay in [0, 1]. The
    pairwise expectations are back[i] * marginal[i+1].
    """
    n = len(E)
    alpha = _forward(E, T)
    log_z = np.logaddexp.reduce(alpha[-1])
    loss = log_z - (E[np.arange(n), y].sum() + T[y[:-1], y[1:]].sum())

    back = _back(E, T, alpha)
    gE = np.empty_like(E)
    gE[-1] = np.exp(alpha[-1] - log_z)
    # after the step of span s, P[i] is the product of back[i .. i+2s-1],
    # cut at the last matrix
    P, Q = back.copy(), np.empty_like(back)
    s = 1
    while s < n - 1:
        np.matmul(P[:-s], P[s:], out=Q[:-s])
        Q[-s:] = P[-s:]
        P, Q = Q, P
        s *= 2
    np.matmul(P, gE[-1], out=gE[:-1])
    gT = (back * gE[1:, None, :]).sum(axis=0)
    gE[np.arange(n), y] -= 1.0
    np.subtract.at(gT, (y[:-1], y[1:]), 1.0)
    return loss, gE, gT


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _targets_for(labels, tags: TagSet, objective: Objective):
    """Training targets of a labeling tags.check accepts: soft rows (n, k) for
    MARGINAL (one-hot for hard labels), a tag-index array for SEQUENCE."""
    tags.check(labels)
    if isinstance(labels, SoftLabeling):
        if objective is Objective.MARGINAL:
            return labels.dist
        labels = harden(labels, tags)
    if objective is Objective.MARGINAL:
        target = np.zeros((len(labels), len(tags)))
        target[np.arange(len(labels)), labels] = 1.0
        return target
    return np.asarray(labels, dtype=np.intp)


def _sentence_loss_grad(E, T, target, objective: Objective):
    if objective is Objective.MARGINAL:
        return _marginal_loss_grad(E, T, target)
    return _sequence_loss_grad(E, T, target)


def train(
    data: Dataset,
    tags: TagSet,
    cfg: TrainConfig,
    init: TaggerModel | None = None,
) -> TaggerModel:
    """Train (or, when init is given, fine-tune) a tagger.

    Fine-tuning resumes from the init model's weights AND its epoch counter,
    so the learning-rate decay continues where the previous call stopped.
    The feature index grows to cover the new data; the init model itself is
    never mutated. L2 is applied as a once-per-epoch weight decay, matching
    the regularized objective's full-batch pull.

    Deterministic given (data, cfg, init): sentence order is shuffled with a
    generator seeded from (rng_seed, global epoch).
    """
    if len(data) == 0:
        raise EmptyDataset("no sentences to train on")
    for sent, lab in zip(data.sentences, data.labels):
        if lab is None:
            raise EmptyDataset("training requires labels on every sentence")
        if len(lab) != len(sent):
            raise LabelLengthMismatch(f"{len(lab)} labels for {len(sent)} tokens")

    if init is not None:
        if init.tags != tags:
            raise ModelTagSetMismatch(f"init model tags {init.tags} != {tags}")
        model = init.clone()
    else:
        model = TaggerModel(tags)

    # each sentence's rows of the id matrix index W, the weights plus id -1's zero row
    M, starts = model._feature_ids(data.sentences, grow=True)
    W = np.vstack([model.weights, np.zeros((1, len(tags)))])
    rows = [M[s:s + len(x)] for s, x in zip(starts.tolist(), data.sentences)]
    targets = [_targets_for(lab, tags, cfg.objective) for lab in data.labels]
    T = model.transitions
    # the step scatters into the flat weights: firing (token, template) of
    # feature f writes elements f * k + t, t = 0..k-1, and id -1 the last k
    k, n_templates = len(tags), M.shape[1]
    flat = W.reshape(-1)
    tag_of = np.tile(np.arange(k), max(map(len, data.sentences)) * n_templates)
    for _ in range(cfg.epochs):
        epoch = model.epochs_trained
        rate = cfg.learning_rate / (1.0 + cfg.decay * epoch)
        order = np.random.default_rng([cfg.rng_seed, epoch]).permutation(len(rows))
        for si in order.tolist():
            m = rows[si]
            E = np.add.reduce(np.take(W, m.T, axis=0), axis=0)
            _, gE, gT = _sentence_loss_grad(E, T, targets[si], cfg.objective)
            # one step per firing, in token then template order; what lands
            # on the zero row is wiped
            np.subtract.at(flat, (m * k).repeat(k) + tag_of[:m.size * k],
                           (rate * gE).repeat(n_templates, axis=0).ravel())
            W[-1] = 0.0
            T -= rate * gT
        if cfg.l2 > 0.0:
            shrink = 1.0 - rate * cfg.l2
            W *= shrink
            T *= shrink
        if not (np.isfinite(W).all() and np.isfinite(T).all()):
            raise TrainingDiverged(f"non-finite weights after epoch {epoch}; lower the rate")
        model.epochs_trained += 1
    model.weights = W[:-1]
    return model


def predict_dataset_soft(model: TaggerModel, data: Dataset) -> Dataset:
    """Model marginals for every sentence (labels of `data` are ignored)."""
    return Dataset(list(data.sentences), model.predict_soft(data.sentences))


def predict_dataset_hard(model: TaggerModel, data: Dataset) -> Dataset:
    return Dataset(list(data.sentences), model.predict_hard(data.sentences))
