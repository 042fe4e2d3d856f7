import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import gen_corpus_literal, gen_td_literal, gen_ti_literal, meta_rows
from spkver import synthgen
from spkver.cli import main
from spkver.config import PipelineConfig
from spkver.core import Language, Metas, NumericalError, TrialLabel
from spkver.metrics import levenshtein
from spkver.synthgen import Task, gen_corpus, gen_transcript, gen_trials


def _assert_resolvable(protocol, metas):
    """Trial ids are unique, one label per trial, and every model and
    utterance the protocol names exists."""
    trials, known = protocol.trials, set(metas.utt_ids)
    assert len(set(trials.ids)) == len(trials.ids) == len(protocol.labels)
    assert set(trials.model_ids) <= set(protocol.enroll_map)
    assert set(trials.test_ids) <= known
    assert all(set(utt_ids) <= known for utt_ids in protocol.enroll_map.values())


def _cfg(**kw):
    """Corpus settings; the config's seed is the one gen_corpus draws from."""
    base = dict(
        n_speakers=6,
        n_phrases=3,
        n_utts_per_cell=5,
        dim=8,
        phrase_strength=0.5,
        language_shift=0.3,
        noise_sigma=0.3,
        transcript_error_rate=0.05,
        seed=11,
    )
    base.update(kw)
    return PipelineConfig(**base)


N_ENROLL = PipelineConfig().n_enroll  # the configured enrollment count


def _corpus(**kw):
    cfg = _cfg(**kw)
    return gen_corpus(cfg, cfg.seed)


class TestGenCorpus:
    def test_all_embeddings_unit_norm(self):
        corpus = _corpus()
        for vec in corpus.x:
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_noise_free_degenerate_case(self):
        corpus = _corpus(phrase_strength=0.0, language_shift=0.0,
                         noise_sigma=0.0, transcript_error_rate=0.0)
        by_spk = {}
        for vec, spk in zip(corpus.x, corpus.metas.speakers):
            by_spk.setdefault(spk, []).append(vec)
        for vecs in by_spk.values():
            for v in vecs[1:]:
                np.testing.assert_array_equal(v, vecs[0])

    def test_seed_reproducibility_bitwise(self):
        a = _corpus(seed=7)
        b = _corpus(seed=7)
        assert a.metas == b.metas and a.inventory == b.inventory
        np.testing.assert_array_equal(a.x, b.x)

    def test_metadata_covers_embeddings(self):
        corpus = _corpus()
        n = 6 * 3 * 5
        assert corpus.x.shape == (n, 8)
        assert [len(column) for column in corpus.metas] == [n] * 5
        assert len(set(corpus.metas.utt_ids)) == n
        assert [len(column) for column in corpus.inventory] == [3] * 3

    def test_strong_phrase_factor_dominates_speaker(self):
        # brute-force nearest-centroid accuracy for both label families
        corpus = _corpus(phrase_strength=6.0, noise_sigma=0.6, seed=3)
        x = corpus.x

        def nearest_centroid_accuracy(labels):
            uniq = sorted(set(labels))
            cents = np.stack([x[[l == u for l in labels]].mean(axis=0) for u in uniq])
            hits = 0
            for row, lab in zip(x, labels):
                dists = [float(np.linalg.norm(row - c)) for c in cents]
                hits += uniq[int(np.argmin(dists))] == lab
            return hits / len(labels)

        phrase_acc = nearest_centroid_accuracy(list(corpus.metas.phrases))
        speaker_acc = nearest_centroid_accuracy(list(corpus.metas.speakers))
        assert phrase_acc > speaker_acc

    def test_no_language_shift_means_matched_language_distributions(self):
        # as sigma -> 0, per-speaker L1/L2 centroids collapse onto each other
        gaps = []
        for sigma in (0.4, 0.02):
            corpus = _corpus(language_shift=0.0, phrase_strength=0.0,
                             noise_sigma=sigma, n_utts_per_cell=40, seed=5)
            by = {}
            for vec, meta in zip(corpus.x, meta_rows(corpus.metas)):
                by.setdefault((meta.speaker_id, meta.language), []).append(vec)
            dists = []
            for spk in set(corpus.metas.speakers):
                l1 = by.get((spk, Language.L1))
                l2 = by.get((spk, Language.L2))
                if l1 and l2:
                    dists.append(np.linalg.norm(np.mean(l1, 0) - np.mean(l2, 0)))
            gaps.append(float(np.mean(dists)))
        assert gaps[1] < gaps[0] / 5

    def test_subset_by_speakers(self):
        corpus = _corpus()
        keep = corpus.speaker_ids[:2]
        sub = corpus.subset_by_speakers(keep)
        assert set(sub.metas.speakers) == set(keep)
        rows = [i for i, spk in enumerate(corpus.metas.speakers) if spk in keep]
        assert meta_rows(sub.metas) == [meta_rows(corpus.metas)[i] for i in rows]
        np.testing.assert_array_equal(sub.x, corpus.x[rows])
        assert sub.inventory == corpus.inventory


class _ZeroSpeaker:
    """A generator whose first draw, the speaker factors, has row 1 zeroed."""

    def __init__(self, seed, make=np.random.default_rng):
        self._rng, self._first = make(seed), True

    def standard_normal(self, size=None, out=None):
        drawn = self._rng.standard_normal(size, out=out)
        if self._first:
            drawn[1], self._first = 0.0, False
        return drawn

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _corpus_outcome(config):
    """A corpus's bytes and labels, or the type and message of what was raised."""
    try:
        corpus = gen_corpus(config, config.seed)
    except NumericalError as exc:
        return type(exc), str(exc)
    return corpus.x.tobytes(), corpus.metas, corpus.inventory


class TestGenCorpusAgainstLiteral:
    """The loop of draws, then whole arrays, against the per-utterance loop it
    replaced: the same bytes, labels and transcripts, and the same error."""

    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("error_rate", [0.0, 0.2])
    @pytest.mark.parametrize("seed", [0, 601])
    def test_same_corpus(self, dim, error_rate, seed):
        config = _cfg(dim=dim, transcript_error_rate=error_rate, seed=seed,
                      n_speakers=7, n_phrases=4, n_utts_per_cell=3)
        want = gen_corpus_literal(config, config.seed)
        assert _corpus_outcome(config) == (want.x.tobytes(), want.metas, want.inventory)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.0, 1.0]),
           st.sampled_from([0.0, 0.3, 1.0]))
    def test_any_sizes_and_strengths(self, seed, dim, n_phrases, n_utts, alpha, beta, sigma):
        config = _cfg(seed=seed, dim=dim, n_speakers=3, n_phrases=n_phrases,
                      n_utts_per_cell=n_utts, phrase_strength=alpha, language_shift=beta,
                      noise_sigma=sigma)
        want = gen_corpus_literal(config, config.seed)
        assert _corpus_outcome(config) == (want.x.tobytes(), want.metas, want.inventory)

    def test_zero_norm_utterance_is_named(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _ZeroSpeaker)
        config = _cfg(phrase_strength=0.0, language_shift=0.0, noise_sigma=0.0)
        got = _corpus_outcome(config)
        assert got == (NumericalError, "degenerate zero-norm utterance spk001_ph00_u00")
        with pytest.raises(NumericalError) as literal:
            gen_corpus_literal(config, config.seed)
        assert str(literal.value) == got[1]

    def test_zero_norm_utterance_exits_4(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(np.random, "default_rng", _ZeroSpeaker)
        settings = ["phrase_strength=0", "language_shift=0", "noise_sigma=0", f"workdir={tmp_path}"]
        assert main(["gen"] + [arg for item in settings for arg in ("--set", item)]) == 4
        assert ("numerical failure: degenerate zero-norm utterance spk001_ph00_u00"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


class TestGenTranscript:
    def test_zero_rate_verbatim(self):
        assert gen_transcript("salam", 0.0, seed=123) == "salam"

    def test_deterministic(self):
        a = gen_transcript("salamaleikum", 0.3, seed=9)
        b = gen_transcript("salamaleikum", 0.3, seed=9)
        assert a == b

    def test_observed_edit_rate(self):
        # Monte-Carlo over ~10k reference characters
        ref = "abcdefghijklmnopqrst"
        total_chars = 0
        total_edits = 0
        for seed in range(500):
            noisy = gen_transcript(ref, 0.1, seed=seed)
            total_chars += len(ref)
            total_edits += levenshtein(ref, noisy)
        rate = total_edits / total_chars
        assert 0.08 <= rate <= 0.12


class TestGenTrials:
    def test_td_all_tc(self):
        corpus = _corpus()
        protocol = gen_trials(corpus.metas, Task.TD, 40, seed=1,
                              proportions=(1, 0, 0, 0), n_enroll=N_ENROLL)
        assert all(label is TrialLabel.TC for label in protocol.labels)

    def test_td_histogram_matches_proportions(self):
        corpus = _corpus()
        protocol = gen_trials(corpus.metas, Task.TD, 101, seed=2,
                              proportions=(0.4, 0.1, 0.4, 0.1), n_enroll=N_ENROLL)
        counts = {}
        for label in protocol.labels:
            counts[label] = counts.get(label, 0) + 1
        assert counts[TrialLabel.TC] in (40, 41)
        assert counts[TrialLabel.TW] in (10, 11)
        assert counts[TrialLabel.IC] in (40, 41)
        assert counts[TrialLabel.IW] in (10, 11)
        assert sum(counts.values()) == 101

    def test_td_protocol_consistent_and_labels_truthful(self):
        corpus = _corpus()
        protocol = gen_trials(corpus.metas, Task.TD, 120, seed=3, proportions=(),
                              n_enroll=N_ENROLL)
        _assert_resolvable(protocol, corpus.metas)
        meta = {m.utt_id: m for m in meta_rows(corpus.metas)}
        trials = protocol.trials
        assert trials.ids == tuple(f"t{i:06d}" for i in range(120))
        for model_id, test_id, claimed, label in zip(
                trials.model_ids, trials.test_ids, trials.claimed, protocol.labels):
            _, spk, phr = model_id.split("_")
            test = meta[test_id]
            same_spk = test.speaker_id == spk
            same_phr = test.phrase_id == phr
            expected = {
                (True, True): TrialLabel.TC,
                (True, False): TrialLabel.TW,
                (False, True): TrialLabel.IC,
                (False, False): TrialLabel.IW,
            }[(same_spk, same_phr)]
            assert label is expected
            assert claimed == phr
            assert test_id not in protocol.enroll_map[model_id]

    def test_ti_exact_count_and_consistency(self):
        corpus = _corpus(n_utts_per_cell=8)
        protocol = gen_trials(corpus.metas, Task.TI, 100, seed=4, proportions=(),
                              n_enroll=N_ENROLL)
        assert all(len(column) == 100 for column in protocol.trials)
        assert len(protocol.labels) == 100
        assert protocol.trials.claimed == (None,) * 100
        _assert_resolvable(protocol, corpus.metas)

    def test_ti_enrollment_is_l1_only(self):
        corpus = _corpus(n_utts_per_cell=8)
        protocol = gen_trials(corpus.metas, Task.TI, 50, seed=5, proportions=(),
                              n_enroll=N_ENROLL)
        meta = {m.utt_id: m for m in meta_rows(corpus.metas)}
        for utt_ids in protocol.enroll_map.values():
            assert all(meta[u].language is Language.L1 for u in utt_ids)

    def test_tw_with_single_phrase_is_infeasible(self):
        corpus = _corpus(n_phrases=1)
        with pytest.raises(ValueError, match="^TW/IW trials need at least 2 phrases$"):
            gen_trials(corpus.metas, Task.TD, 10, seed=6, proportions=(0.5, 0.5, 0, 0),
                       n_enroll=N_ENROLL)

    def test_determinism(self):
        corpus = _corpus()
        a = gen_trials(corpus.metas, Task.TD, 60, seed=9, proportions=(), n_enroll=N_ENROLL)
        b = gen_trials(corpus.metas, Task.TD, 60, seed=9, proportions=(), n_enroll=N_ENROLL)
        assert a.trials == b.trials and a.labels == b.labels

    @pytest.mark.parametrize("task, uniform", [
        (Task.TD, (0.25, 0.25, 0.25, 0.25)), (Task.TI, (0.5, 0.5))])
    def test_empty_proportions_are_uniform(self, task, uniform):
        corpus = _corpus(n_utts_per_cell=8)
        got = gen_trials(corpus.metas, task, 97, seed=12, proportions=(), n_enroll=N_ENROLL)
        assert got == gen_trials(corpus.metas, task, 97, seed=12, proportions=uniform,
                                 n_enroll=N_ENROLL)


def _outcome(fn, *args):
    """fn's protocol, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _uneven_corpus(draw):
    """Metadata with a drawn number of utterances (possibly none) per
    (speaker, phrase) cell and drawn languages."""
    n_spk, n_phr = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    rows = []
    for s in range(n_spk):
        for p in range(n_phr):
            for u in range(draw(st.integers(0, 5))):
                lang = draw(st.sampled_from([Language.L1, Language.L2]))
                rows.append((f"s{s}_p{p}_u{u}", f"s{s}", f"p{p}", lang, "abc"))
    return Metas(*(tuple(row[k] for row in rows) for k in range(5)))


class TestGenTrialsAgainstLiteral:
    """Pools built once per model (TD) and speaker (TI) against the per-trial
    rescans they replaced: same draws, same protocol, same errors."""

    @settings(max_examples=150, deadline=None)
    @given(_uneven_corpus(), st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.integers(1, 80), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_td_protocol_equals_per_trial_form(self, metas, props, n_trials, n_enroll, seed):
        if sum(props) == 0:
            props[0] = 1
        counts = synthgen.trial_counts(Task.TD, n_trials, props)
        got = _outcome(synthgen._gen_td, metas, counts, n_enroll, np.random.default_rng(seed))
        assert got == _outcome(gen_td_literal, metas, counts, n_enroll,
                               np.random.default_rng(seed))

    @settings(max_examples=150, deadline=None)
    @given(_uneven_corpus(), st.lists(st.integers(0, 3), min_size=2, max_size=2),
           st.integers(1, 80), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_ti_protocol_equals_per_trial_form(self, metas, props, n_trials, n_enroll, seed):
        if sum(props) == 0:
            props[1] = 1
        counts = synthgen.trial_counts(Task.TI, n_trials, props)
        got = _outcome(synthgen._gen_ti, metas, counts, n_enroll, np.random.default_rng(seed))
        assert got == _outcome(gen_ti_literal, metas, counts, n_enroll,
                               np.random.default_rng(seed))

    @pytest.mark.parametrize("task, proportions", [
        (Task.TD, ()), (Task.TD, (0.5, 0.0, 0.5, 0.0)), (Task.TI, ()), (Task.TI, (0, 1)),
    ])
    def test_generated_corpus(self, task, proportions):
        corpus = _corpus(n_speakers=9, n_utts_per_cell=6)
        counts = synthgen.trial_counts(task, 300, proportions)
        if task is Task.TD:
            expected = gen_td_literal(corpus.metas, counts, 3, np.random.default_rng(21))
        else:
            expected = gen_ti_literal(corpus.metas, counts, 3, np.random.default_rng(21))
        got = gen_trials(corpus.metas, task, 300, seed=21,
                         proportions=proportions, n_enroll=3)
        assert got == expected
