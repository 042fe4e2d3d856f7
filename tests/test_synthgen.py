import numpy as np
import pytest

from spkver.core import Language, TrialLabel, validate_protocol
from spkver.metrics import levenshtein
from spkver.synthgen import GenConfig, Task, gen_corpus, gen_transcript, gen_trials


def _cfg(**kw):
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
    return GenConfig(**base)


class TestGenCorpus:
    def test_all_embeddings_unit_norm(self):
        corpus = gen_corpus(_cfg())
        for emb in corpus.embeddings:
            assert abs(np.linalg.norm(emb.vec) - 1.0) < 1e-12

    def test_noise_free_degenerate_case(self):
        corpus = gen_corpus(_cfg(phrase_strength=0.0, language_shift=0.0,
                                 noise_sigma=0.0, transcript_error_rate=0.0))
        by_spk = {}
        for emb, meta in zip(corpus.embeddings, corpus.metas):
            by_spk.setdefault(meta.speaker_id, []).append(emb.vec)
        for vecs in by_spk.values():
            for v in vecs[1:]:
                np.testing.assert_array_equal(v, vecs[0])

    def test_seed_reproducibility_bitwise(self):
        a = gen_corpus(_cfg(seed=7))
        b = gen_corpus(_cfg(seed=7))
        assert [m for m in a.metas] == [m for m in b.metas]
        for ea, eb in zip(a.embeddings, b.embeddings):
            assert ea.utt_id == eb.utt_id
            np.testing.assert_array_equal(ea.vec, eb.vec)

    def test_metadata_covers_embeddings(self):
        corpus = gen_corpus(_cfg())
        assert {e.utt_id for e in corpus.embeddings} == {m.utt_id for m in corpus.metas}
        assert len(corpus.inventory) == 3

    def test_strong_phrase_factor_dominates_speaker(self):
        # brute-force nearest-centroid accuracy for both label families
        corpus = gen_corpus(_cfg(phrase_strength=6.0, noise_sigma=0.6, seed=3))
        x = np.stack([e.vec for e in corpus.embeddings])

        def nearest_centroid_accuracy(labels):
            uniq = sorted(set(labels))
            cents = np.stack([x[[l == u for l in labels]].mean(axis=0) for u in uniq])
            hits = 0
            for row, lab in zip(x, labels):
                dists = [float(np.linalg.norm(row - c)) for c in cents]
                hits += uniq[int(np.argmin(dists))] == lab
            return hits / len(labels)

        phrase_acc = nearest_centroid_accuracy([m.phrase_id for m in corpus.metas])
        speaker_acc = nearest_centroid_accuracy([m.speaker_id for m in corpus.metas])
        assert phrase_acc > speaker_acc

    def test_no_language_shift_means_matched_language_distributions(self):
        # as sigma -> 0, per-speaker L1/L2 centroids collapse onto each other
        gaps = []
        for sigma in (0.4, 0.02):
            corpus = gen_corpus(_cfg(language_shift=0.0, phrase_strength=0.0,
                                     noise_sigma=sigma, n_utts_per_cell=40, seed=5))
            by = {}
            for emb, meta in zip(corpus.embeddings, corpus.metas):
                by.setdefault((meta.speaker_id, meta.language), []).append(emb.vec)
            dists = []
            for spk in {m.speaker_id for m in corpus.metas}:
                l1 = by.get((spk, Language.L1))
                l2 = by.get((spk, Language.L2))
                if l1 and l2:
                    dists.append(np.linalg.norm(np.mean(l1, 0) - np.mean(l2, 0)))
            gaps.append(float(np.mean(dists)))
        assert gaps[1] < gaps[0] / 5

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            _cfg(dim=1)
        with pytest.raises(ValueError):
            _cfg(n_speakers=0)
        with pytest.raises(ValueError):
            _cfg(transcript_error_rate=1.5)

    def test_subset_by_speakers(self):
        corpus = gen_corpus(_cfg())
        keep = corpus.speaker_ids[:2]
        sub = corpus.subset_by_speakers(keep)
        assert set(m.speaker_id for m in sub.metas) == set(keep)
        assert {e.utt_id for e in sub.embeddings} == {m.utt_id for m in sub.metas}


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
        corpus = gen_corpus(_cfg())
        protocol = gen_trials(corpus.metas, corpus.inventory, Task.TD, 40, seed=1,
                              proportions=(1, 0, 0, 0))
        assert all(k.label is TrialLabel.TC for k in protocol.keys)

    def test_td_histogram_matches_proportions(self):
        corpus = gen_corpus(_cfg())
        protocol = gen_trials(corpus.metas, corpus.inventory, Task.TD, 101, seed=2,
                              proportions=(0.4, 0.1, 0.4, 0.1))
        counts = {}
        for k in protocol.keys:
            counts[k.label] = counts.get(k.label, 0) + 1
        assert counts[TrialLabel.TC] in (40, 41)
        assert counts[TrialLabel.TW] in (10, 11)
        assert counts[TrialLabel.IC] in (40, 41)
        assert counts[TrialLabel.IW] in (10, 11)
        assert sum(counts.values()) == 101

    def test_td_protocol_consistent_and_labels_truthful(self):
        corpus = gen_corpus(_cfg())
        protocol = gen_trials(corpus.metas, corpus.inventory, Task.TD, 120, seed=3)
        assert validate_protocol(protocol.trials, protocol.keys,
                                 corpus.metas, protocol.enroll_map) == []
        meta = {m.utt_id: m for m in corpus.metas}
        key = {k.trial_id: k.label for k in protocol.keys}
        for trial in protocol.trials:
            _, spk, phr = trial.model_id.split("_")
            test = meta[trial.test_utt_id]
            label = key[trial.trial_id]
            same_spk = test.speaker_id == spk
            same_phr = test.phrase_id == phr
            expected = {
                (True, True): TrialLabel.TC,
                (True, False): TrialLabel.TW,
                (False, True): TrialLabel.IC,
                (False, False): TrialLabel.IW,
            }[(same_spk, same_phr)]
            assert label is expected
            assert trial.claimed_phrase_id == phr
            assert trial.test_utt_id not in protocol.enroll_map[trial.model_id]

    def test_ti_exact_count_and_consistency(self):
        corpus = gen_corpus(_cfg(n_utts_per_cell=8))
        protocol = gen_trials(corpus.metas, corpus.inventory, Task.TI, 100, seed=4)
        assert len(protocol.trials) == 100 and len(protocol.keys) == 100
        assert validate_protocol(protocol.trials, protocol.keys,
                                 corpus.metas, protocol.enroll_map) == []

    def test_ti_enrollment_is_l1_only(self):
        corpus = gen_corpus(_cfg(n_utts_per_cell=8))
        protocol = gen_trials(corpus.metas, corpus.inventory, Task.TI, 50, seed=5)
        meta = {m.utt_id: m for m in corpus.metas}
        for utt_ids in protocol.enroll_map.values():
            assert all(meta[u].language is Language.L1 for u in utt_ids)

    def test_tw_with_single_phrase_is_infeasible(self):
        corpus = gen_corpus(_cfg(n_phrases=1))
        with pytest.raises(ValueError):
            gen_trials(corpus.metas, corpus.inventory, Task.TD, 10, seed=6,
                       proportions=(0.5, 0.5, 0, 0))

    def test_determinism(self):
        corpus = gen_corpus(_cfg())
        a = gen_trials(corpus.metas, corpus.inventory, Task.TD, 60, seed=9)
        b = gen_trials(corpus.metas, corpus.inventory, Task.TD, 60, seed=9)
        assert a.trials == b.trials and a.keys == b.keys
