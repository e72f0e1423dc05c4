"""Inference and training of the linear-chain tagger, checked against
exhaustive enumeration and central finite differences."""

import itertools
import json

import numpy as np
import pytest

from weakner.corpus import (
    Dataset,
    Provenance,
    Sentence,
    SoftLabeling,
    TagSet,
    harden,
)
from weakner.errors import (
    EmptyDataset,
    LabelLengthMismatch,
    ModelTagSetMismatch,
    TrainingDiverged,
    UnknownTag,
    WeaknerError,
)
from weakner import tagger
from weakner.synthetic import SyntheticSpec, generate_synthetic
from weakner.tagger import (
    FeatureExtractor,
    Objective,
    TaggerModel,
    TrainConfig,
    _forward,
    _forward_backward,
    _marginal_loss_grad,
    _sequence_loss_grad,
    _sentence_loss_grad,
    _shape,
    _targets_for,
    _viterbi,
    train,
)

from test_corpus import one_hot

PROT = TagSet(("PROT",))
TWO = TagSet(("PROT", "CELL"))

VOCAB = ["p53", "binds", "MDM2", "the", "TIGAR", "assay", "x1", "y2"]


def random_sentence(rng, max_len=6):
    n = int(rng.integers(1, max_len + 1))
    return Sentence([VOCAB[int(rng.integers(len(VOCAB)))] for _ in range(n)])


def random_model(rng, tags, sentences, scale=1.0):
    """A model whose feature index covers `sentences`, with random weights."""
    model = TaggerModel(tags)
    model._feature_ids(sentences, grow=True)
    model.weights = rng.normal(scale=scale, size=model.weights.shape)
    model.transitions = rng.normal(scale=scale, size=model.transitions.shape)
    return model


def sequence_score(model, sentence, labels) -> float:
    """Joint (unnormalized) score of one tag sequence: its emissions plus
    its transitions."""
    E, _ = model.emissions([sentence])
    y = np.asarray(labels)
    return float(E[np.arange(len(y)), y].sum() + model.transitions[y[:-1], y[1:]].sum())


def dataset_loss_and_gradient(model, data, cfg):
    """Full-batch objective value and analytic gradient for the model's
    current weights: sum of per-sentence losses plus (l2/2)||w||^2 (train
    applies L2 as a once-per-epoch shrink instead).

    Returns (loss, grad_weights, grad_transitions). Unseen features in
    `data` are ignored (the gradient is wrt the existing weight vector).
    """
    M, starts = model._feature_ids(data.sentences)
    W = np.vstack([model.weights, np.zeros((1, len(model.tags)))])    # id -1: zeros
    gW = np.zeros_like(W)
    gT = np.zeros_like(model.transitions)
    total = 0.0
    for s, sent, lab in zip(starts.tolist(), data.sentences, data.labels):
        m = M[s:s + len(sent)]
        target = _targets_for(lab, model.tags, cfg.objective)
        loss, gE, gTs = _sentence_loss_grad(W[m].sum(axis=1), model.transitions, target, cfg.objective)
        total += loss
        np.add.at(gW, m, gE[:, None, :])
        gT += gTs
    gW = gW[:-1]
    if cfg.l2 > 0.0:
        total += 0.5 * cfg.l2 * (
            float((model.weights ** 2).sum()) + float((model.transitions ** 2).sum())
        )
        gW += cfg.l2 * model.weights
        gT += cfg.l2 * model.transitions
    return total, gW, gT


def enumerate_posteriors(model, sentence):
    """Brute-force per-token marginals: softmax over all tag sequences."""
    n, k = len(sentence), len(model.tags)
    scores = np.array(
        [sequence_score(model, sentence, y) for y in itertools.product(range(k), repeat=n)]
    )
    m = scores.max()
    probs = np.exp(scores - m)
    probs /= probs.sum()
    marg = np.zeros((n, k))
    for prob, y in zip(probs, itertools.product(range(k), repeat=n)):
        for i, t in enumerate(y):
            marg[i, t] += prob
    return marg


def enumerate_argmax(model, sentence):
    """Brute-force best sequence (unique for continuous random weights)."""
    n, k = len(sentence), len(model.tags)
    best, best_score = None, -np.inf
    for y in itertools.product(range(k), repeat=n):
        s = sequence_score(model, sentence, y)
        if s > best_score:
            best, best_score = list(y), s
    return best, best_score


class TestInferenceOracles:
    def test_marginals_match_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            tags = TWO if rng.random() < 0.5 else PROT
            sent = random_sentence(rng)
            model = random_model(rng, tags, [sent])
            soft = model.predict_soft([sent])[0]
            expected = enumerate_posteriors(model, sent)
            assert np.abs(soft.dist - expected).max() < 1e-9
            assert np.abs(soft.dist.sum(axis=1) - 1.0).max() < 1e-9
            assert all(p == Provenance.PREDICTED for p in soft.provenance)

    def test_viterbi_matches_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            tags = TWO if rng.random() < 0.5 else PROT
            sent = random_sentence(rng)
            model = random_model(rng, tags, [sent])
            got = model.predict_hard([sent])[0]
            expected, best_score = enumerate_argmax(model, sent)
            assert got == expected
            assert sequence_score(model, sent, got) == pytest.approx(best_score)

    def test_zero_weights_uniform_marginals(self):
        sent = Sentence(["a", "b", "c"])
        model = TaggerModel(PROT)
        soft = model.predict_soft([sent])[0]
        assert np.allclose(soft.dist, 1.0 / 3.0)

    def test_zero_weights_decode_all_outside(self):
        sent = Sentence(["a", "b", "c", "d", "e", "f"])
        model = TaggerModel(TWO)
        assert model.predict_hard([sent])[0] == [0] * 6

    def test_viterbi_beats_random_sequences(self):
        rng = np.random.default_rng(44)
        sent = random_sentence(rng, max_len=12)
        model = random_model(rng, TWO, [sent])
        decoded = model.predict_hard([sent])[0]
        best = sequence_score(model, sent, decoded)
        k = len(model.tags)
        for _ in range(1000):
            y = rng.integers(0, k, size=len(sent))
            assert best >= sequence_score(model, sent, y) - 1e-12

    def test_marginal_rows_sum_to_one_everywhere(self):
        rng = np.random.default_rng(45)
        sent = random_sentence(rng, max_len=6)
        model = random_model(rng, TWO, [sent], scale=3.0)
        soft = model.predict_soft([sent])[0]
        assert np.abs(soft.dist.sum(axis=1) - 1.0).max() < 1e-9

    def test_batched_prediction_equals_one_sentence_at_a_time(self):
        rng = np.random.default_rng(46)
        lengths = [3, 1, 84, 3, 7, 1, 84, 12, 7, 91, 3, 1]
        sents = [
            Sentence([VOCAB[int(rng.integers(len(VOCAB)))] for _ in range(n)])
            for n in lengths
        ]
        for tags in (PROT, TWO):
            model = random_model(rng, tags, sents, scale=2.0)
            soft = model.predict_soft(sents)
            hard = model.predict_hard(sents)
            assert len(soft) == len(hard) == len(sents)
            for sent, got_soft, got_hard in zip(sents, soft, hard):
                one = model.predict_soft([sent])[0]
                assert got_soft.dist.flags.c_contiguous
                assert got_soft.dist.tobytes() == one.dist.tobytes()
                assert got_soft.provenance.tobytes() == one.provenance.tobytes()
                assert got_hard == model.predict_hard([sent])[0]
                assert all(type(t) is int for t in got_hard)
        assert model.predict_soft([]) == []
        assert model.predict_hard([]) == []


def finite_difference(model, data, cfg, h=1e-6, n_probes=12, seed=0):
    """Central differences of dataset_loss wrt random weight coordinates."""
    rng = np.random.default_rng(seed)
    _, gW, gT = dataset_loss_and_gradient(model, data, cfg)
    checks = []
    for _ in range(n_probes):
        if rng.random() < 0.7 and model.weights.size:
            i = int(rng.integers(model.weights.shape[0]))
            j = int(rng.integers(model.weights.shape[1]))
            orig = model.weights[i, j]
            model.weights[i, j] = orig + h
            up = dataset_loss_and_gradient(model, data, cfg)[0]
            model.weights[i, j] = orig - h
            down = dataset_loss_and_gradient(model, data, cfg)[0]
            model.weights[i, j] = orig
            checks.append(((up - down) / (2 * h), gW[i, j]))
        else:
            i = int(rng.integers(model.transitions.shape[0]))
            j = int(rng.integers(model.transitions.shape[1]))
            orig = model.transitions[i, j]
            model.transitions[i, j] = orig + h
            up = dataset_loss_and_gradient(model, data, cfg)[0]
            model.transitions[i, j] = orig - h
            down = dataset_loss_and_gradient(model, data, cfg)[0]
            model.transitions[i, j] = orig
            checks.append(((up - down) / (2 * h), gT[i, j]))
    return checks


def _random_training_set(rng, tags, n_sentences=5, soft_targets=False, max_len=6):
    sents, labels = [], []
    k = len(tags)
    for _ in range(n_sentences):
        sent = random_sentence(rng, max_len)
        if soft_targets:
            dist = rng.dirichlet(np.ones(k), size=len(sent))
            lab = SoftLabeling(dist, np.full(len(sent), Provenance.PREDICTED, dtype=np.int8))
        else:
            lab = [int(t) for t in rng.integers(0, k, size=len(sent))]
        sents.append(sent)
        labels.append(lab)
    return Dataset(sents, labels)


class TestGradients:
    @pytest.mark.parametrize("objective", [Objective.MARGINAL, Objective.SEQUENCE])
    def test_matches_finite_differences(self, objective):
        rng = np.random.default_rng(7)
        for trial in range(9):
            tags = TWO if trial % 2 else PROT
            data = _random_training_set(
                rng, tags, soft_targets=(objective is Objective.MARGINAL and trial % 3 == 0),
                max_len=6 if trial < 6 else 40,
            )
            model = random_model(rng, tags, data.sentences, scale=0.5)
            cfg = TrainConfig(objective=objective, l2=1e-3 if trial % 2 else 0.0)
            for fd, analytic in finite_difference(model, data, cfg, seed=trial):
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-7)


# Reference kernels: the log-space recursions written one position at a time
# with a max-shifted log-sum-exp, and the gradients accumulated per position.

def ref_logsumexp(x, axis):
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def ref_forward_backward(E, T):
    alpha = np.empty_like(E)
    beta = np.zeros_like(E)
    alpha[0] = E[0]
    for i in range(1, len(E)):
        alpha[i] = E[i] + ref_logsumexp(alpha[i - 1][..., :, None] + T, axis=-2)
    for i in range(len(E) - 2, -1, -1):
        beta[i] = ref_logsumexp(T + (E[i + 1] + beta[i + 1])[..., None, :], axis=-1)
    return alpha, beta, ref_logsumexp(alpha[-1], axis=-1)


def ref_marginal_loss_grad(E, T, q):
    n = len(E)
    alpha, beta, log_z = ref_forward_backward(E, T)
    loss = -(q * (alpha + beta - log_z)).sum()
    ga, gb = -q.copy(), -q.copy()
    gE, gT = np.zeros_like(E), np.zeros_like(T)
    ga[n - 1] += q.sum() * np.exp(alpha[n - 1] - log_z)
    for i in range(n - 1, 0, -1):
        back = np.exp(alpha[i - 1][:, None] + T - (alpha[i] - E[i])[None, :])
        gE[i] += ga[i]
        gT += back * ga[i][None, :]
        ga[i - 1] += back @ ga[i]
    gE[0] += ga[0]
    for i in range(n - 1):
        fwd = np.exp(T + (E[i + 1] + beta[i + 1])[None, :] - beta[i][:, None])
        gT += fwd * gb[i][:, None]
        down = fwd.T @ gb[i]
        gE[i + 1] += down
        gb[i + 1] += down
    return loss, gE, gT


def ref_sequence_loss_grad(E, T, y):
    n, k = E.shape
    alpha, beta, log_z = ref_forward_backward(E, T)
    score = E[np.arange(n), y].sum()
    gE = np.exp(alpha + beta - log_z)
    gE[np.arange(n), y] -= 1.0
    gT = np.zeros((k, k))
    for i in range(n - 1):
        score += T[y[i], y[i + 1]]
        gT += np.exp(alpha[i][:, None] + T + (E[i + 1] + beta[i + 1])[None, :] - log_z)
        gT[y[i], y[i + 1]] -= 1.0
    return log_z - score, gE, gT


def assert_matches_reference(got, ref):
    """Finite and equal to the reference within a relative 1e-9 of the
    array's largest magnitude (gradient entries can cancel to near zero)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.isfinite(got).all() and np.isfinite(ref).all()
    assert np.abs(got - ref).max(initial=0.0) <= 1e-9 * max(1.0, np.abs(ref).max(initial=0.0))


KERNEL_CASES = [(n, k) for n in (1, 2, 13, 46, 85) for k in (3, 5)]
# the SEQUENCE adjoint doubles its span each step: n - 1 on and either side
# of a power of two
SEQUENCE_CASES = KERNEL_CASES + [(n, k) for n in (3, 4, 5, 9, 17, 33, 65, 129) for k in (3, 5)]


def kernel_inputs(n, k, scale=2.0):
    rng = np.random.default_rng(1000 * n + k)
    E = rng.normal(scale=scale, size=(n, k))
    T = rng.normal(scale=scale, size=(k, k))
    return E, T, rng.dirichlet(np.ones(k), size=n), rng.integers(0, k, size=n)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("n,k", KERNEL_CASES)
    def test_forward_backward_one_sentence(self, n, k):
        E, T, _, _ = kernel_inputs(n, k)
        for got, ref in zip(_forward_backward(E, T), ref_forward_backward(E, T)):
            assert_matches_reference(got, ref)

    @pytest.mark.parametrize("n,k", KERNEL_CASES)
    def test_forward_backward_stacked(self, n, k):
        rng = np.random.default_rng(n + k)
        E = rng.normal(scale=2.0, size=(n, 4, k))
        T = rng.normal(scale=2.0, size=(k, k))
        alpha, beta, log_z = _forward_backward(E, T)
        assert log_z.shape == (4,)
        for b in range(4):
            ref = ref_forward_backward(E[:, b], T)
            for got, want in zip((alpha[:, b], beta[:, b], log_z[b]), ref):
                assert_matches_reference(got, want)
            one = _forward_backward(np.ascontiguousarray(E[:, b]), T)
            assert alpha[:, b].tobytes() == one[0].tobytes()
            assert beta[:, b].tobytes() == one[1].tobytes()
            assert log_z[b] == one[2]

    @pytest.mark.parametrize("n,k", KERNEL_CASES)
    def test_marginal_loss_grad(self, n, k):
        E, T, q, _ = kernel_inputs(n, k)
        q_before = q.copy()
        for got, ref in zip(_marginal_loss_grad(E, T, q), ref_marginal_loss_grad(E, T, q)):
            assert_matches_reference(got, ref)
        assert np.array_equal(q, q_before)

    @pytest.mark.parametrize("n,k", SEQUENCE_CASES)
    def test_sequence_loss_grad(self, n, k):
        E, T, _, y = kernel_inputs(n, k)
        for got, ref in zip(_sequence_loss_grad(E, T, y), ref_sequence_loss_grad(E, T, y)):
            assert_matches_reference(got, ref)

    @pytest.mark.parametrize("scale", [2.0, 200.0, 400.0])
    @pytest.mark.parametrize("n,k", SEQUENCE_CASES)
    def test_sequence_expectations_match_forward_backward(self, n, k, scale):
        # the SEQUENCE kernel runs only the forward pass and takes its
        # expectations from the adjoint; they must be forward-backward's
        E, T, _, y = kernel_inputs(n, k, scale)
        alpha, beta, log_z = _forward_backward(E, T)
        mu = np.exp(alpha + beta - log_z)
        _, gE, gT = _sequence_loss_grad(E, T, y)
        gE[np.arange(n), y] += 1.0
        np.add.at(gT, (y[:-1], y[1:]), 1.0)
        if scale == 2.0:
            assert np.abs(gE - mu).max() <= 1e-12
        assert_matches_reference(gE, mu)
        # summed over the next tag the pairwise expectations are the node
        # marginals of positions 0..n-2, over the previous tag those of 1..n-1
        assert_matches_reference(gT.sum(axis=1), mu[:-1].sum(axis=0))
        assert_matches_reference(gT.sum(axis=0), mu[1:].sum(axis=0))

    @pytest.mark.parametrize("scale", [200.0, 400.0])
    def test_large_score_spreads_stay_finite(self, scale):
        # hundreds of nats between tag paths: a probability-space recursion
        # over/underflows here, the log-space one does not
        for n, k in [(2, 3), (13, 3), (46, 5), (85, 3), (85, 5), (129, 5), (200, 3)]:
            E, T, q, y = kernel_inputs(n, k, scale)
            pairs = [
                (_forward_backward(E, T), ref_forward_backward(E, T)),
                (_marginal_loss_grad(E, T, q), ref_marginal_loss_grad(E, T, q)),
                (_sequence_loss_grad(E, T, y), ref_sequence_loss_grad(E, T, y)),
            ]
            for outputs, refs in pairs:
                for got, ref in zip(outputs, refs):
                    assert_matches_reference(got, ref)


# The kernels as they were before each step wrote into preallocated rows:
# a new array per step and the @ operator. The rewrite must not move a bit.

def alloc_forward_backward(E, T):
    alpha = np.empty_like(E)
    beta = np.zeros_like(E)
    alpha[0] = E[0]
    for i in range(1, len(E)):
        alpha[i] = E[i] + np.logaddexp.reduce(alpha[i - 1][..., :, None] + T, axis=-2)
    for i in range(len(E) - 2, -1, -1):
        beta[i] = np.logaddexp.reduce(T + (E[i + 1] + beta[i + 1])[..., None, :], axis=-1)
    return alpha, beta, np.logaddexp.reduce(alpha[-1], axis=-1)


def alloc_marginal_loss_grad(E, T, q):
    n = len(E)
    alpha, beta, log_z = alloc_forward_backward(E, T)
    loss = -(q * (alpha + beta - log_z)).sum()
    ga = -q
    ga[n - 1] += q.sum() * np.exp(alpha[n - 1] - log_z)
    back = np.exp(alpha[:-1, :, None] + T - (alpha[1:] - E[1:])[:, None, :])
    for i in range(n - 1, 0, -1):
        ga[i - 1] += back[i - 1] @ ga[i]
    gb = -q
    fwd = np.exp(T + (E[1:] + beta[1:])[:, None, :] - beta[:-1, :, None])
    for i in range(n - 1):
        gb[i + 1] += gb[i] @ fwd[i]
    gT = (back * ga[1:, None, :]).sum(axis=0) + (fwd * gb[:-1, :, None]).sum(axis=0)
    return loss, ga + (gb + q), gT


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def ref_viterbi(E, T):
    """Best path of one sentence, E (n, k), one tag at a time; a tag's best
    predecessor is the first strict maximum, so the lowest tag wins ties.
    Also returns how many of those choices were ties."""
    n, k = E.shape
    delta, back, ties = list(E[0]), [], 0
    for i in range(1, n):
        row, new = [], []
        for t in range(k):
            cands = [delta[s] + T[s, t] for s in range(k)]
            best = max(range(k), key=lambda s: (cands[s], -s))
            ties += cands.count(cands[best]) > 1
            row.append(best)
            new.append(E[i, t] + cands[best])
        back.append(row)
        delta = new
    path = [max(range(k), key=lambda t: (delta[t], -t))]
    for row in reversed(back):
        path.append(row[path[-1]])
    return path[::-1], ties


def pack_longest_first(blocks):
    """Rows (n_i, k) of several sentences packed as _viterbi reads them:
    sorted longest first (stable), position-major. Returns the packed rows,
    the block sizes and, per sentence, its packed row numbers."""
    order = sorted(range(len(blocks)), key=lambda j: -len(blocks[j]))
    rows, sizes, where = [], [], [[] for _ in blocks]
    for i in range(max(map(len, blocks))):
        alive = [j for j in order if len(blocks[j]) > i]
        for j in alive:
            where[j].append(len(rows))
            rows.append(blocks[j][i])
        sizes.append(len(alive))
    return np.array(rows), sizes, where


class TestViterbi:
    @pytest.mark.parametrize("b", [1, 6, 170])
    @pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (13, 3), (13, 5), (46, 5)])
    def test_stacked_equals_one_sentence_at_a_time(self, n, k, b):
        # integer scores from a narrow range tie often; the lowest previous
        # tag must win every tie, in a stack as for one sentence. b sentences
        # of one length pack as (n, b, k) read row by row.
        rng = np.random.default_rng(100 * n + k + b)
        E = rng.integers(-1, 2, size=(n, b, k)).astype(float)
        T = rng.integers(-1, 2, size=(k, k)).astype(float)
        paths = _viterbi(E.reshape(n * b, k), T, [b] * n)
        assert paths.shape == (n * b,)
        paths = paths.reshape(n, b)
        ties = 0
        for j in range(b):
            want, tied = ref_viterbi(E[:, j], T)
            ties += tied
            assert paths[:, j].tolist() == want
            assert _viterbi(E[:, j], T, [1] * n).tolist() == want
        assert ties > 0 or n == 1

    @pytest.mark.parametrize("k", [3, 5])
    def test_one_packed_call_over_mixed_lengths(self, k):
        # lengths on and either side of each power of two up to 128, in a
        # shuffled order; a sentence that ends early must keep its last delta
        lengths = [1, 2, 13, 46] + [2 ** j + d for j in range(1, 8) for d in (-1, 0, 1)]
        rng = np.random.default_rng(k)
        rng.shuffle(lengths)
        blocks = [rng.integers(-1, 2, size=(n, k)).astype(float) for n in lengths]
        T = rng.integers(-1, 2, size=(k, k)).astype(float)
        E, sizes, where = pack_longest_first(blocks)
        assert sizes[0] == len(lengths) and len(sizes) == 129
        paths = _viterbi(E, T, sizes)
        ties = 0
        for block, rows in zip(blocks, where):
            want, tied = ref_viterbi(block, T)
            ties += tied
            assert paths[rows].tolist() == want
        assert ties > 0

    def test_mixed_lengths_equal_one_sentence_at_a_time(self):
        # integer weights tie paths through the whole model, too
        rng = np.random.default_rng(47)
        lengths = [5, 1, 130, 2, 46, 5, 13, 1, 64, 65, 63, 2, 129, 13]
        sents = [Sentence([ODD_VOCAB[int(rng.integers(len(ODD_VOCAB)))] for _ in range(n)])
                 for n in lengths]
        for tags in (PROT, TWO):
            model = random_model(rng, tags, sents)
            model.weights = rng.integers(-1, 2, size=model.weights.shape).astype(float)
            model.transitions = rng.integers(-1, 2, size=model.transitions.shape).astype(float)
            hard = model.predict_hard(sents)
            assert [len(path) for path in hard] == lengths
            for sent, got in zip(sents, hard):
                assert got == model.predict_hard([sent])[0]
                assert all(type(t) is int for t in got)
        assert model.predict_hard([]) == []


class TestKernelsBitIdentical:
    @pytest.mark.parametrize("scale", [2.0, 300.0])
    @pytest.mark.parametrize("n", [1, 2, 10, 46])
    def test_against_allocating_kernels(self, n, scale):
        for k in (3, 5):
            E, T, q, _ = kernel_inputs(n, k, scale)
            rng = np.random.default_rng(n + k)
            # B = 170 is about decode's batch per sentence length
            stacks = [rng.normal(scale=scale, size=(n, b, k)) for b in (6, 170)]
            for scores in (E, *stacks):
                want = alloc_forward_backward(scores, T)
                assert_same_bits(_forward_backward(scores, T), want)
                # the SEQUENCE kernel runs _forward alone
                assert_same_bits([_forward(scores, T)], want[:1])
            assert_same_bits(_marginal_loss_grad(E, T, q), alloc_marginal_loss_grad(E, T, q))


class TestTraining:
    def _one_sentence_data(self):
        sent = Sentence(["p53", "binds", "MDM2"])
        return Dataset([sent], [[1, 0, 1]])

    def test_loss_decreases_monotonically(self):
        data = self._one_sentence_data()
        cfg = TrainConfig(epochs=1, learning_rate=0.1, decay=0.0, l2=0.0, rng_seed=0)
        model = None
        losses = []
        for _ in range(15):
            model = train(data, PROT, cfg, init=model)
            losses.append(dataset_loss_and_gradient(model, data, cfg)[0])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_sequence_mode_loss_decreases(self):
        data = self._one_sentence_data()
        cfg = TrainConfig(
            epochs=1, learning_rate=0.1, decay=0.0, l2=0.0, rng_seed=0,
            objective=Objective.SEQUENCE,
        )
        model = None
        losses = []
        for _ in range(15):
            model = train(data, PROT, cfg, init=model)
            losses.append(dataset_loss_and_gradient(model, data, cfg)[0])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_resume_identity_as_rate_vanishes(self):
        rng = np.random.default_rng(3)
        data = _random_training_set(rng, PROT)
        base = train(data, PROT, TrainConfig(epochs=3, rng_seed=1))
        resumed = train(data, PROT, TrainConfig(epochs=1, learning_rate=1e-12, rng_seed=1), init=base)
        assert np.allclose(resumed.weights, base.weights, atol=1e-9)
        assert np.allclose(resumed.transitions, base.transitions, atol=1e-9)
        assert resumed.epochs_trained == base.epochs_trained + 1

    def test_fine_tune_does_not_reinitialize(self):
        rng = np.random.default_rng(4)
        data = _random_training_set(rng, PROT, n_sentences=8)
        cfg = TrainConfig(epochs=4, learning_rate=0.2, rng_seed=0)
        base = train(data, PROT, cfg)
        tuned = train(data, PROT, TrainConfig(epochs=1, learning_rate=0.05, rng_seed=0), init=base)
        tuned_loss = dataset_loss_and_gradient(tuned, data, cfg)[0]
        assert tuned_loss <= dataset_loss_and_gradient(base, data, cfg)[0]
        # a bounded step, not a restart
        assert np.abs(tuned.weights - base.weights).max() < 1.0
        assert base.weights.shape[0] <= tuned.weights.shape[0]

    def test_init_not_mutated(self):
        rng = np.random.default_rng(5)
        data = _random_training_set(rng, PROT)
        base = train(data, PROT, TrainConfig(epochs=2))
        snapshot = base.weights.copy()
        train(data, PROT, TrainConfig(epochs=2), init=base)
        assert np.array_equal(base.weights, snapshot)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data = _random_training_set(rng, TWO, n_sentences=10)
        a = train(data, TWO, TrainConfig(epochs=5, rng_seed=9))
        b = train(data, TWO, TrainConfig(epochs=5, rng_seed=9))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.transitions, b.transitions)
        assert a.feature_index == b.feature_index

    def test_epoch_granularity_equivalence(self):
        """Running 4 epochs at once equals 4 resumed single-epoch calls:
        the schedule and shuffling depend only on the global epoch index."""
        rng = np.random.default_rng(8)
        data = _random_training_set(rng, PROT, n_sentences=6)
        whole = train(data, PROT, TrainConfig(epochs=4, rng_seed=2))
        stepped = None
        for _ in range(4):
            stepped = train(data, PROT, TrainConfig(epochs=1, rng_seed=2), init=stepped)
        assert np.array_equal(whole.weights, stepped.weights)
        assert np.array_equal(whole.transitions, stepped.transitions)

    def test_constructed_weights_drive_decode(self):
        sent = Sentence(["p53", "binds"])
        model = TaggerModel(PROT)
        model._feature_ids([sent], grow=True)
        model.weights[model.feature_index["w=p53"], PROT.b_index("PROT")] = 5.0
        assert model.predict_hard([sent])[0] == [1, 0]

    def test_mixed_hard_and_soft_labels(self):
        sents = [Sentence(["p53", "x1"]), Sentence(["TIGAR"])]
        data = Dataset(
            sents,
            [[1, 0], SoftLabeling(np.array([[0.0, 1.0, 0.0]]),
                                  np.array([Provenance.REFERENCE], dtype=np.int8))],
        )
        model = train(data, PROT, TrainConfig(epochs=3))
        assert len(model.feature_index) > 0

    @pytest.mark.parametrize("tags", [PROT, TWO])
    def test_sequence_on_soft_labels_equals_training_on_hardened(self, tags):
        # finalize hands SEQUENCE training soft labels and relies on this rule
        rng = np.random.default_rng(11)
        soft = _random_training_set(rng, tags, n_sentences=12, soft_targets=True)
        soft.labels[0] = [0] * len(soft.sentences[0])      # a hard seed sentence
        hard = Dataset(soft.sentences,
                       [lab if isinstance(lab, list) else harden(lab, tags) for lab in soft.labels])
        cfg = TrainConfig(epochs=3, rng_seed=4, objective=Objective.SEQUENCE)
        a, b = train(soft, tags, cfg), train(hard, tags, cfg)
        assert a.feature_index == b.feature_index
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.transitions.tobytes() == b.transitions.tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            train(Dataset([], []), PROT, TrainConfig())

    def test_unlabeled_sentence_rejected(self):
        data = Dataset([Sentence(["a"])], [None])
        with pytest.raises(EmptyDataset):
            train(data, PROT, TrainConfig())

    def test_label_length_mismatch_rejected(self):
        # a Dataset checks lengths when built; train checks a labeling replaced after that
        data = Dataset([Sentence(["a", "b"])], [[0, 0]])
        data.labels[0] = [0]
        with pytest.raises(LabelLengthMismatch, match="1 labels for 2 tokens"):
            train(data, PROT, TrainConfig())

    def test_tag_set_mismatch_on_init(self):
        data = Dataset([Sentence(["a"])], [[0]])
        base = train(data, PROT, TrainConfig(epochs=1))
        with pytest.raises(ModelTagSetMismatch):
            train(data, TWO, TrainConfig(epochs=1), init=base)

    def test_bad_config_rejected(self):
        with pytest.raises(WeaknerError):
            TrainConfig(epochs=0)
        with pytest.raises(WeaknerError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(WeaknerError):
            TrainConfig(l2=-1.0)

    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field, bad in (("learning_rate", 0.0), ("decay", -1.0), ("l2", -1e-4))
        for value in (float("nan"), float("inf"), bad)
    ])
    def test_bad_rate_names_its_field(self, field, value):
        # decay=-1 used to read "learning_rate must be > 0 and decay >= 0", and
        # a non-finite value "learning_rate, decay and l2 must be finite"
        with pytest.raises(WeaknerError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("setting", [
        {"l2": float("nan")}, {"learning_rate": float("nan")},
        {"decay": float("nan")}, {"decay": float("inf")},
    ])
    def test_non_finite_config_rejected(self, setting):
        # a NaN l2 used to train with no L2 at all (nan > 0.0 is False)
        with pytest.raises(WeaknerError):
            TrainConfig(**setting)

    def test_fractional_epochs_rejected(self):
        # used to fail later, in range(), with a bare TypeError
        with pytest.raises(WeaknerError):
            TrainConfig(epochs=2.5)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_rng_seed_rejected(self, seed):
        # used to fail in the first epoch's shuffle with a bare ValueError / TypeError
        with pytest.raises(WeaknerError):
            TrainConfig(rng_seed=seed)

    def test_l2_step_that_zeroes_the_model_rejected(self):
        # one decay step with rate * l2 >= 1 would wipe every weight
        with pytest.raises(WeaknerError):
            TrainConfig(epochs=2, learning_rate=1e6)
        with pytest.raises(WeaknerError):
            TrainConfig(learning_rate=2.0, l2=0.5)
        TrainConfig(learning_rate=1e6, l2=0.0)

    @pytest.mark.parametrize("objective", [Objective.MARGINAL, Objective.SEQUENCE])
    def test_negative_hard_tag_rejected(self, objective):
        # -1 used to index the last tag (I-PROT) and train silently
        data = Dataset([Sentence(["p53", "binds"])], [[1, -1]])
        cfg = TrainConfig(epochs=1, objective=objective)
        with pytest.raises(UnknownTag):
            train(data, PROT, cfg)
        with pytest.raises(UnknownTag):
            dataset_loss_and_gradient(TaggerModel(PROT), data, cfg)

    @pytest.mark.parametrize("objective", [Objective.MARGINAL, Objective.SEQUENCE])
    def test_hard_tag_past_tag_set_rejected(self, objective):
        data = Dataset([Sentence(["p53", "binds"])], [[1, 7]])
        cfg = TrainConfig(epochs=1, objective=objective)
        with pytest.raises(UnknownTag):
            train(data, PROT, cfg)
        with pytest.raises(UnknownTag):
            dataset_loss_and_gradient(TaggerModel(PROT), data, cfg)

    @pytest.mark.parametrize("objective", [Objective.MARGINAL, Objective.SEQUENCE])
    def test_non_integer_hard_tag_rejected(self, objective):
        # 1.5 passed the tag-set check: SEQUENCE trained on [1, 0] with no
        # error and MARGINAL failed on a bare numpy IndexError
        data = Dataset([Sentence(["p53", "binds"])], [[1.5, 0]])
        with pytest.raises(UnknownTag, match="1.5"):
            train(data, PROT, TrainConfig(epochs=1, objective=objective))

    def test_hard_labels_train_marginal_on_one_hot_rows(self):
        target = _targets_for([0, 2, 1], TWO, Objective.MARGINAL)
        assert target.dtype == np.float64
        assert target.tobytes() == np.eye(len(TWO))[[0, 2, 1]].tobytes()

    @pytest.mark.parametrize("objective", [Objective.MARGINAL, Objective.SEQUENCE])
    def test_soft_rows_of_wrong_width_rejected(self, objective):
        rows = SoftLabeling(np.array([[0.5, 0.5], [1.0, 0.0]]),
                            np.full(2, Provenance.PREDICTED, dtype=np.int8))
        data = Dataset([Sentence(["p53", "binds"])], [rows])
        cfg = TrainConfig(epochs=1, objective=objective)
        with pytest.raises(ModelTagSetMismatch):
            train(data, PROT, cfg)
        with pytest.raises(ModelTagSetMismatch):
            dataset_loss_and_gradient(TaggerModel(PROT), data, cfg)

    def test_diverging_training_raises(self):
        gold, _, _ = generate_synthetic(SyntheticSpec(n_sentences=60, rng_seed=0))
        cfg = TrainConfig(epochs=2, learning_rate=1e200, l2=0.0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train(gold, PROT, cfg)


def ref_shape(text):
    """Reference word shape, character by character: upper-case letters
    read X, lower-case ones x, digits d, anything else itself."""
    out = ""
    for c in text:
        if c.isupper():
            out += "X"
        elif c.islower():
            out += "x"
        elif c.isdigit():
            out += "d"
        else:
            out += c
    return out


def naive_features(sentence):
    """Reference feature strings: the per-token template builder, one list
    per token in template order, neighbours at offsets -2..-1 and 1..2."""
    texts = sentence.tokens
    out = []
    for i, text in enumerate(texts):
        feats = [f"w={text}", f"lw={text.lower()}", f"shape={ref_shape(text)}"]
        for k in (1, 2, 3):
            if len(text) >= k:
                feats.append(f"pre{k}={text[:k]}")
                feats.append(f"suf{k}={text[-k:]}")
        for d in (-2, -1, 1, 2):
            j = i + d
            neighbor = texts[j] if 0 <= j < len(texts) else ("<s>" if d < 0 else "</s>")
            feats.append(f"w[{d}]={neighbor}")
        out.append(feats)
    return out


def naive_grow(index, sentences):
    """Reference growth: per-occurrence setdefault, sentence -> token ->
    template."""
    for sent in sentences:
        for feats in naive_features(sent):
            for f in feats:
                index.setdefault(f, len(index))
    return index


def naive_rows(model, sentence):
    """Reference (ids, pos) rows: known feature ids, token by token."""
    ids, pos = [], []
    for i, feats in enumerate(naive_features(sentence)):
        row = [model.feature_index[f] for f in feats if f in model.feature_index]
        ids.extend(row)
        pos.extend([i] * len(row))
    return np.asarray(ids, dtype=np.intp), np.asarray(pos, dtype=np.intp)


def naive_emissions(model, sentence):
    """Reference emissions: per position, add the weight rows of its known
    features one at a time."""
    E = np.zeros((len(sentence), len(model.tags)))
    for i, feats in enumerate(naive_features(sentence)):
        for f in feats:
            if f in model.feature_index:
                E[i] += model.weights[model.feature_index[f]]
    return E


def naive_sgd_epoch(model, data, cfg):
    """Reference epoch of train: emissions from the feature strings, the
    same kernel, then a step on one weight row per firing feature."""
    model = model.clone()
    naive_grow(model.feature_index, data.sentences)
    grown = np.zeros((len(model.feature_index) - len(model.weights), len(model.tags)))
    model.weights = np.vstack([model.weights, grown])
    W, T, index = model.weights, model.transitions, model.feature_index
    epoch = model.epochs_trained
    rate = cfg.learning_rate / (1.0 + cfg.decay * epoch)
    for si in np.random.default_rng([cfg.rng_seed, epoch]).permutation(len(data)):
        sent, lab = data.sentences[si], data.labels[si]
        E = naive_emissions(model, sent)
        if cfg.objective is Objective.MARGINAL:
            q = lab.dist if isinstance(lab, SoftLabeling) else np.eye(len(model.tags))[lab]
            _, gE, gT = _marginal_loss_grad(E, T, q)
        else:
            _, gE, gT = _sequence_loss_grad(E, T, np.asarray(lab))
        for i, feats in enumerate(naive_features(sent)):
            for f in feats:
                W[index[f]] -= rate * gE[i]
        T -= rate * gT
    W *= 1.0 - rate * cfg.l2
    T *= 1.0 - rate * cfg.l2
    model.epochs_trained += 1
    return model


class TestSgdStep:
    # repeated words and shapes fire one feature several times per sentence;
    # texts shorter than the affixes leave absent features
    TEXTS = [
        ["p53", "binds", "p53", "and", "MDM2", "MDM2"],
        ["a", "TIGAR", "é", "x1", "y2", "TIGAR", "a"],
        ["42", "ΔN", "42"],
        ["the", "assay", "of", "Grün", "p53", "the", "a", "x1", "MDM2", "binds"],
    ]

    @pytest.mark.parametrize("objective", [Objective.MARGINAL, Objective.SEQUENCE])
    def test_epoch_matches_naive_loop(self, objective):
        rng = np.random.default_rng(60)
        sents = [Sentence(t) for t in self.TEXTS]
        sents += [odd_sentence(rng) for _ in range(8)]
        # long sentences run several doubling steps of the SEQUENCE adjoint;
        # the first two are in both datasets
        sents[5:5] = [Sentence([ODD_VOCAB[i] for i in rng.integers(len(ODD_VOCAB), size=n)])
                      for n in (60, 97, 130)]
        labels = [[int(t) for t in rng.integers(0, len(PROT), size=len(x))] for x in sents]
        first = Dataset(sents[:7], labels[:7])
        more = Dataset(sents[3:], labels[3:])
        cfg = TrainConfig(epochs=1, learning_rate=0.3, decay=0.1, l2=0.01, rng_seed=4,
                          objective=objective)
        base, want = train(first, PROT, cfg), naive_sgd_epoch(TaggerModel(PROT), first, cfg)
        # fine-tuning also keeps features the new data lacks
        tuned, want_tuned = train(more, PROT, cfg, init=base), naive_sgd_epoch(base, more, cfg)
        for got, ref in [(base, want), (tuned, want_tuned)]:
            assert list(got.feature_index) == list(ref.feature_index)
            assert got.epochs_trained == ref.epochs_trained
            assert np.abs(got.weights - ref.weights).max() <= 1e-12
            assert np.abs(got.transitions - ref.transitions).max() <= 1e-12
        assert np.abs(base.weights).max() > 0.01

    @pytest.mark.parametrize("objective", [Objective.MARGINAL, Objective.SEQUENCE])
    @pytest.mark.parametrize("tags", [PROT, TWO], ids=["k3", "k5"])
    def test_flat_step_keeps_the_row_scatter_bits(self, tags, objective):
        # train scatters each step into the flat weights; every weight must
        # take the same subtractions in the same order as the row scatter
        # below, so the bits match on every numpy. Words and shapes repeat
        # within a sentence, short texts fire id -1, and the longest
        # sentence uses the whole tag-offset tile
        rng = np.random.default_rng(len(tags))
        data = Dataset([Sentence(t) for t in self.TEXTS],
                       [[int(t) for t in rng.integers(0, len(tags), size=len(x))] for x in self.TEXTS])
        init = random_model(rng, tags, data.sentences)
        init.epochs_trained = 3
        cfg = TrainConfig(epochs=1, learning_rate=0.3, decay=0.1, l2=0.0, rng_seed=4,
                          objective=objective)
        got = train(data, tags, cfg, init=init)

        M, starts = init._feature_ids(data.sentences)
        assert (M == -1).any()
        W = np.vstack([init.weights, np.zeros((1, len(tags)))])
        T = init.transitions.copy()
        rate = cfg.learning_rate / (1.0 + cfg.decay * init.epochs_trained)
        for si in np.random.default_rng([cfg.rng_seed, init.epochs_trained]).permutation(len(data)):
            m = M[starts[si]:starts[si] + len(data.sentences[si])]
            E = np.add.reduce(np.take(W, m.T, axis=0), axis=0)
            target = _targets_for(data.labels[si], tags, objective)
            _, gE, gT = _sentence_loss_grad(E, T, target, objective)
            step = rate * gE
            np.subtract.at(W, m, step[:, None, :])
            W[-1] = 0.0
            T -= rate * gT
        assert got.weights.tobytes() == W[:-1].tobytes()
        assert got.transitions.tobytes() == T.tobytes()


class TestTrainingGather:
    @pytest.mark.parametrize("n", [1, 10, 46])
    def test_template_axis_first_keeps_the_bits(self, n):
        # train gathers a sentence's rows with the template axis first and
        # reduces over it; the additions and their order must be those of
        # the middle-axis sum it replaced, on every numpy. A sum of -0.0
        # weights reads -0.0 or +0.0 by where it starts; id -1 names the
        # extra zero row
        rng = np.random.default_rng(n)
        for k in (3, 5):
            W = rng.normal(size=(41, k))
            W[::4] = -0.0
            W[-1] = 0.0
            M = rng.integers(-1, 40, size=(n + 7, 13)).astype(np.int32)
            M[:, 5:9] = -1
            M[3] = 0            # every firing on a -0.0 row
            m = M[3:3 + n]      # a sentence's rows, a view as in train
            got = np.add.reduce(np.take(W, m.T, axis=0), axis=0)
            want = np.take(W, m, axis=0).sum(axis=1)
            assert got.shape == want.shape == (n, k)
            assert got.tobytes() == want.tobytes()


def sentence_emissions(model, sentence):
    return model.emissions([sentence])[0]


def token_features(sentence):
    """Per-token feature strings as the factored path assigns them."""
    model = TaggerModel(PROT)
    M, _ = model._feature_ids([sentence], grow=True)
    names = list(model.feature_index)
    return [[names[f] for f in row if f >= 0] for row in M.tolist()]


# tokens that stress the per-type tables: the pad strings themselves, texts
# shorter than the affixes, non-ASCII text and a digit-only token
ODD_VOCAB = VOCAB + ["<s>", "</s>", "a", "Xy", "é", "Grün", "ΔN", "42"]


def per_token_gather_emissions(model, sentences):
    """Reference emissions over the same type table: the own-text sums per
    type, then for each neighbour template a per-token id array
    table[source[d], c] and its rows, added in template order."""
    table, source, starts = model._type_table(sentences)
    R = np.vstack([model.weights, np.zeros((1, len(model.tags)))])
    own = np.zeros((len(table), len(model.tags)))
    for c, d in enumerate(model.extractor.offsets):
        if d == 0:
            own += R[table[:, c]]
    E = own[source[0]]
    for c, d in enumerate(model.extractor.offsets):
        if d:
            E += R[table[source[d], c]]
    return E, starts


def odd_sentence(rng, max_len=9):
    n = int(rng.integers(1, max_len + 1))
    return Sentence([ODD_VOCAB[int(rng.integers(len(ODD_VOCAB)))] for _ in range(n)])


class TestEmissions:
    def _p53_model(self):
        data = Dataset([Sentence(["p53"])], [[1]])
        return train(data, PROT, TrainConfig(epochs=2))

    def test_position_without_known_feature_gets_zero_row(self):
        model = self._p53_model()
        sent = Sentence(["a", "b", "c", "d", "e"])
        E = sentence_emissions(model, sent)
        # "c" and its +-2 neighbours never occur in training; every other
        # position still sees a sentence-boundary feature
        assert np.array_equal(E[2], np.zeros(len(PROT)))
        assert all(E[i].any() for i in (0, 1, 3, 4))
        soft = model.predict_soft([sent])[0]
        assert np.abs(soft.dist.sum(axis=1) - 1.0).max() < 1e-9
        assert len(model.predict_hard([sent])[0]) == 5

    def test_matches_naive_per_position_sum(self):
        rng = np.random.default_rng(46)
        model = random_model(rng, TWO, [random_sentence(rng) for _ in range(5)])
        p53 = self._p53_model()
        unseen = Sentence(["a", "b", "c", "d", "e"])
        for _ in range(20):
            sent = random_sentence(rng, max_len=10)
            assert np.array_equal(sentence_emissions(model, sent), naive_emissions(model, sent))
        assert np.array_equal(sentence_emissions(p53, unseen), naive_emissions(p53, unseen))

    def test_features_built_once_per_call_per_distinct_text(self, monkeypatch):
        calls = []
        original = FeatureExtractor.features

        def counting(self, texts):
            calls.append(list(texts))
            return original(self, texts)

        monkeypatch.setattr(FeatureExtractor, "features", counting)
        rng = np.random.default_rng(47)
        data = _random_training_set(rng, PROT, n_sentences=7)
        model = train(data, PROT, TrainConfig(epochs=3))
        assert len(calls) == 1
        train(data, PROT, TrainConfig(epochs=2), init=model)
        assert len(calls) == 2
        model.predict_soft(data.sentences)
        assert len(calls) == 3
        model.predict_hard(data.sentences)
        assert len(calls) == 4
        distinct = {t for sent in data.sentences for t in sent.tokens} | {"<s>", "</s>"}
        for texts in calls:
            assert len(texts) == len(set(texts)) and set(texts) == distinct


class TestFactoredFeatures:
    """The per-type feature path against the per-token reference builder."""

    @pytest.mark.parametrize("draw", [0, 1, 2, 3])
    def test_emissions_equal_naive(self, draw):
        rng = np.random.default_rng(48 + draw)
        seen = [odd_sentence(rng) for _ in range(12)]
        model = TaggerModel(TWO)
        model._feature_ids(seen, grow=True)
        model.weights = rng.normal(size=model.weights.shape)
        model.weights[::5] = -0.0
        # the unseen half brings unknown features of known and unknown texts
        data = seen + [odd_sentence(rng) for _ in range(12)] + [Sentence(["</s>"])]
        E, starts = model.emissions(data)
        assert len(E) == sum(map(len, data))
        for sent, start in zip(data, starts):
            assert E[start:start + len(sent)].tobytes() == naive_emissions(model, sent).tobytes()

    @pytest.mark.parametrize("draw", [0, 1, 2, 3])
    def test_emissions_equal_per_token_gather(self, draw):
        rng = np.random.default_rng(60 + draw)
        seen = [odd_sentence(rng) for _ in range(12)]
        model = TaggerModel(TWO)
        model._feature_ids(seen, grow=True)
        model.weights = rng.normal(scale=1e3, size=model.weights.shape)
        model.weights[::5] = -0.0
        # unseen sentences bring unknown features; 1 and 2 tokens reach the pads
        vocab = np.array(ODD_VOCAB, dtype=object)
        short = [Sentence(rng.choice(vocab, size=n).tolist()) for n in (1, 2, 1, 2)]
        data = [*seen[:6], *short, *(odd_sentence(rng) for _ in range(12)), *seen[6:]]
        E, starts = model.emissions(data)
        want, want_starts = per_token_gather_emissions(model, data)
        assert E.tobytes() == want.tobytes() and starts.tolist() == want_starts.tolist()

    def test_feature_columns_equal_per_token_rule(self):
        # every ODD_VOCAB text once as a token, and as each neighbour of the
        # others: the pad strings, 1- and 2-character texts, non-ASCII text
        sent = Sentence(ODD_VOCAB)
        texts = list(dict.fromkeys(["<s>", "</s>", *ODD_VOCAB]))
        fx = FeatureExtractor()
        columns = fx.features(texts)
        assert len(columns) == len(fx.offsets) and {len(col) for col in columns} == {len(texts)}
        at = {text: t for t, text in enumerate(texts)}
        w = tagger.WINDOW
        padded = ["<s>"] * w + list(sent.tokens) + ["</s>"] * w
        for i, want in enumerate(naive_features(sent)):
            got = [col[at[padded[w + i + d]]] for col, d in zip(columns, fx.offsets)]
            assert [f for f in got if f is not None] == want
        # an affix longer than its text is None, in its own template's column
        absent = {text: [c for c in range(9) if columns[c][at[text]] is None] for text in texts}
        assert {text: c for text, c in absent.items() if c} == {
            "a": [5, 6, 7, 8], "é": [5, 6, 7, 8],
            **dict.fromkeys(["x1", "y2", "Xy", "ΔN", "42"], [7, 8])}

    def test_types_number_the_pads_then_texts_first_seen(self, monkeypatch):
        calls = []
        original = FeatureExtractor.features

        def recording(self, texts):
            calls.append(list(texts))
            return original(self, texts)

        monkeypatch.setattr(FeatureExtractor, "features", recording)
        sentences = [Sentence(["b", "a", "b"]), Sentence(["</s>", "c", "a"]), Sentence(["<s>"])]
        table, source, starts = TaggerModel(PROT)._type_table(sentences)
        assert calls == [["<s>", "</s>", "b", "a", "c"]] and len(table) == 5
        assert source[0].tolist() == [2, 3, 2, 1, 4, 3, 0]
        assert source[-1].tolist() == [0, 2, 3, 0, 1, 4, 0]
        assert source[2].tolist() == [2, 1, 1, 3, 1, 1, 1]
        assert starts.tolist() == [0, 3, 6]

    def test_fresh_model_gives_zero_rows(self):
        rng = np.random.default_rng(52)
        data = [odd_sentence(rng) for _ in range(5)]
        E, starts = TaggerModel(PROT).emissions(data)
        assert E.shape == (sum(map(len, data)), len(PROT)) and not E.any()
        assert starts.tolist() == np.cumsum([0] + [len(s) for s in data[:-1]]).tolist()

    @pytest.mark.parametrize("draw", [0, 1, 2, 3])
    def test_growth_keeps_first_seen_order(self, draw):
        rng = np.random.default_rng(53 + draw)
        first = [odd_sentence(rng) for _ in range(10)]
        more = [odd_sentence(rng) for _ in range(10)]
        model = TaggerModel(PROT)
        model._feature_ids(first, grow=True)
        assert list(model.feature_index.items()) == list(naive_grow({}, first).items())
        model._feature_ids(more, grow=True)
        expected = naive_grow(naive_grow({}, first), more)
        assert list(model.feature_index.items()) == list(expected.items())
        assert model.weights.shape == (len(expected), len(PROT)) and not model.weights.any()

    @pytest.mark.parametrize("draw", [0, 1, 2, 3])
    def test_rows_equal_naive(self, draw):
        rng = np.random.default_rng(57 + draw)
        seen = [odd_sentence(rng) for _ in range(10)]
        unseen = [odd_sentence(rng) for _ in range(10)]
        model = TaggerModel(PROT)
        grown = model._feature_ids(seen, grow=True)
        for sents, (M, starts) in [(seen, grown), (seen + unseen, model._feature_ids(seen + unseen))]:
            assert M.dtype == np.int32 and M.shape == (sum(map(len, sents)), len(model.extractor.offsets))
            assert ((M >= 0) | (M == -1)).all()
            for sent, start in zip(sents, starts):
                known = M[start:start + len(sent)] >= 0
                want_ids, want_pos = naive_rows(model, sent)
                assert np.array_equal(M[start:start + len(sent)][known], want_ids)
                assert np.array_equal(np.nonzero(known)[0], want_pos)


class TestHarden:
    def test_argmax(self):
        soft = SoftLabeling(
            np.array([[0.1, 0.8, 0.1], [0.9, 0.05, 0.05]]),
            np.full(2, Provenance.PREDICTED, dtype=np.int8),
        )
        assert harden(soft, PROT) == [1, 0]

    def test_one_hot_identity(self):
        assert harden(one_hot([0, 1, 2]), PROT) == [0, 1, 2]

    @pytest.mark.parametrize("soft, tags", [(one_hot([1, 0]), TWO), (one_hot([3, 4], TWO), PROT)],
                             ids=["narrow", "wide"])
    def test_rows_of_another_tag_set_rejected(self, soft, tags):
        # narrow rows used to harden to [B-PROT, O] under TWO; wide rows
        # raised UnknownTag only when an argmax fell outside the tag set
        with pytest.raises(ModelTagSetMismatch, match="width"):
            harden(soft, tags)

    def test_leading_inside_repaired(self):
        soft = SoftLabeling(
            np.array([[0.1, 0.2, 0.7], [0.2, 0.1, 0.7]]),
            np.full(2, Provenance.PREDICTED, dtype=np.int8),
        )
        # argmax gives [I-PROT, I-PROT]; repair turns the first into B-PROT
        assert harden(soft, PROT) == [1, 2]

    def test_tie_breaks_to_lowest_index(self):
        soft = SoftLabeling(
            np.array([[0.5, 0.5, 0.0]]),
            np.full(1, Provenance.PREDICTED, dtype=np.int8),
        )
        assert harden(soft, PROT) == [0]


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        data = _random_training_set(rng, TWO, n_sentences=6)
        model = train(data, TWO, TrainConfig(epochs=3, rng_seed=5))
        path = tmp_path / "m.model"
        model.save(path)
        back = TaggerModel.load(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.transitions, model.transitions)
        assert back.feature_index == model.feature_index
        assert back.tags == model.tags
        assert back.epochs_trained == model.epochs_trained

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(12)
        data = _random_training_set(rng, PROT, n_sentences=4)
        model = train(data, PROT, TrainConfig(epochs=2))
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        model.save(a)
        TaggerModel.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(13)
        data = _random_training_set(rng, PROT, n_sentences=2)
        model = train(data, PROT, TrainConfig(epochs=1))
        path = tmp_path / "m.model"
        model.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(WeaknerError):
            TaggerModel.load(path)

    def test_non_finite_weights_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        data = _random_training_set(rng, PROT, n_sentences=2)
        model = train(data, PROT, TrainConfig(epochs=1))
        model.weights[:] = np.nan
        path = tmp_path / "m.model"
        model.save(path)
        with pytest.raises(WeaknerError):
            TaggerModel.load(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(WeaknerError):
            TaggerModel.load(path)

    # each body has the size the header would need if it were read as given,
    # so only the header check can reject it
    @pytest.mark.parametrize("field, value, n_features, n_tags", [
        ("features", "ab", 2, 3),
        ("features", ["a", 5], 2, 3),
        ("features", ["a", None], 2, 3),
        ("features", ["a", "a"], 2, 3),
        ("entity_types", [1], 1, 3),
        ("entity_types", "PROT", 1, 9),
        # names no label file can carry; [] used to load and decode all O
        ("entity_types", [], 1, 1),
        ("entity_types", [""], 1, 3),
        ("entity_types", ["A B"], 1, 3),
        # the features read a window of exactly 2; any other header value is refused
        ("window", 3, 1, 3),
        ("window", 0, 1, 3),
        ("window", 2.0, 1, 3),
        ("window", True, 1, 3),
        ("window", "2", 1, 3),
    ])
    def test_malformed_header_field_rejected(self, tmp_path, field, value, n_features, n_tags):
        header = {"format": tagger.MODEL_FORMAT, "version": tagger.MODEL_VERSION,
                  "entity_types": ["PROT"], "window": 2, "epochs_trained": 0,
                  "features": ["a"], field: value}
        path = tmp_path / "bad.model"
        body = np.zeros((n_features + n_tags) * n_tags, dtype="<f8").tobytes()
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        with pytest.raises(WeaknerError, match=f"bad {field} "):
            TaggerModel.load(path)


class TestFeatureExtractor:
    def test_deterministic(self):
        texts = ["Flag-tagged-TIGAR", "assay"]
        fx = FeatureExtractor()
        assert fx.features(texts) == fx.features(texts)

    def test_window_and_boundaries(self):
        sent = Sentence(["a", "b", "c"])
        feats = token_features(sent)
        assert "w[-1]=<s>" in feats[0]
        assert "w[-2]=<s>" in feats[1]
        assert "w[+1]=</s>" in feats[2] or "w[1]=</s>" in feats[2]
        assert any(f.startswith("shape=") for f in feats[0])

    def test_shape_feature(self):
        sent = Sentence(["MDM2"])
        feats = token_features(sent)[0]
        assert "shape=XXXd" in feats

    def test_shape_equals_per_character_rule(self):
        # titlecase ǅ is neither upper nor lower; ² and ٣ are digits
        texts = ["MDM2", "p53", "Flag-tagged-TIGAR", "a/b", "-", "/", "<s>", "</s>",
                 "é", "Grün", "ß", "ΔN", "ǅ", "x²", "٣", "".join(map(chr, range(128)))]
        assert [_shape(t) for t in texts] == [ref_shape(t) for t in texts]
        assert [_shape(t) for t in ("é", "ß", "ΔN", "ǅ", "x²", "٣", "<s>")] == [
            "x", "x", "XX", "ǅ", "xd", "d", "<x>"]

    def test_unknown_features_ignored_at_prediction(self):
        data = Dataset([Sentence(["p53"])], [[1]])
        model = train(data, PROT, TrainConfig(epochs=2))
        out = model.predict_soft([Sentence(["neverseen", "tokens"])])[0]
        assert np.abs(out.dist.sum(axis=1) - 1.0).max() < 1e-9
