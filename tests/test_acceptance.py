"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Thresholds and runtime budgets are fixed here, not tuned at runtime.
"""

import itertools
import resource
import time

import numpy as np

from scdselect.corpus import LabelCorpus, LabelSequence, load_label_corpus, save_label_corpus
from scdselect.divergence import scd
from scdselect.ngram import count_ngrams
from scdselect.selection import (
    MarkovSource,
    SelectionConfig,
    build_target_distribution,
    generate_synthetic,
    select_contrastive,
    select_greedy_scd,
    select_oracle,
    select_random,
)

from conftest import make_corpus
from test_divergence import brute_force_scd, stats_from_counts
from test_selection import naive_greedy, random_instance


def report(line):
    print(f"\n{line}")


class TestAC1DivergenceCorrectness:
    def test_ac1(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        checked = 0
        max_gap = 0.0
        while checked < 200:
            k = int(rng.integers(2, 5))
            order = int(rng.integers(1, 3))
            grams = list(itertools.product(range(k), repeat=order))
            alpha = float(rng.choice([0.0, 0.1, 0.5, 1.0, 2.0]))
            if alpha == 0.0:
                # keep q positive everywhere so the divergence stays defined
                q_counts = {g: int(c) for g, c in zip(grams, rng.integers(1, 9, len(grams)))}
            else:
                q_counts = {g: int(c) for g, c in zip(grams, rng.integers(0, 9, len(grams))) if c}
            p_counts = {g: int(c) for g, c in zip(grams, rng.integers(0, 9, len(grams))) if c}
            if not p_counts or not q_counts:
                continue
            p = stats_from_counts(p_counts, k, order, alpha).distribution()
            q = stats_from_counts(q_counts, k, order, alpha).distribution()

            value = scd(p, q)
            gap = abs(value.nats - brute_force_scd(p, q))
            max_gap = max(max_gap, gap)
            assert gap <= 1e-9
            assert value.nats >= -1e-12
            assert abs(scd(p, p).nats) <= 1e-12
            checked += 1

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        report(f"AC-1 PASS: 200 tables, max |sparse - enumeration| = {max_gap:.2e} nats, "
               f"{elapsed:.2f}s")


class TestAC2GreedyOracleCoherence:
    def test_ac2(self):
        started = time.perf_counter()
        rng = np.random.default_rng(777)
        for _ in range(100):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(2, 5))
            universal, query = random_instance(rng, n, k=k)
            config = SelectionConfig(
                budget_c=int(rng.integers(1, min(n, 4) + 1)),
                order=int(rng.integers(1, 3)),
                lam=float(rng.choice([0.0, 0.3, 0.7, 1.0])),
                alpha=float(rng.choice([0.25, 0.5, 1.0])),
            )
            greedy = select_greedy_scd(universal, query, config)
            oracle = select_oracle(universal, query, config)
            assert oracle.final_scd.nats <= greedy.final_scd.nats + 1e-12

            ids, trace = naive_greedy(universal, query, config)
            assert greedy.selected_ids == ids
            assert greedy.scd_trace == trace

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        report(f"AC-2 PASS: 100 instances, oracle <= greedy and greedy == naive recount, "
               f"{elapsed:.1f}s")


AC3_K = 50
AC3_SEEDS = (0, 1, 2, 3, 4)


def ac3_sources():
    """Two chains over disjoint favored halves with within-half decay.

    The decay makes the tail labels genuinely rare, so a selection that
    hammers the most target-typical utterances loses coverage.
    """
    half = AC3_K // 2
    decay = np.linspace(1.0, 0.05, half)

    def build(favored_low):
        profile = np.ones(AC3_K)
        if favored_low:
            profile[:half] = 60.0 * decay
        else:
            profile[half:] = 60.0 * decay
        init = profile / profile.sum()
        return MarkovSource(alphabet_size=AC3_K, initial_probs=init, transition=np.tile(init, (AC3_K, 1)))

    return build(True), build(False)


def ac3_instance(seed):
    source_a, source_b = ac3_sources()
    universal, origins = generate_synthetic(source_a, source_b, 1000, 0.2, (20, 60), seed=seed)
    query, _ = generate_synthetic(source_a, source_b, 50, 1.0, (20, 60), seed=1000 + seed)
    return universal, origins, query


def distinct_gram_coverage(corpus, selected_ids, order=1):
    by_id = {seq.id: seq for seq in corpus}
    stats = count_ngrams(
        LabelCorpus(corpus.alphabet_size, tuple(by_id[i] for i in selected_ids)),
        order,
    )
    return len(stats.counts)


class TestAC3SyntheticTargetRecovery:
    def test_ac3(self):
        started = time.perf_counter()
        config = SelectionConfig(budget_c=100, order=1, lam=0.9, alpha=0.5)
        fractions = []
        random_fractions = []
        for seed in AC3_SEEDS:
            universal, origins, query = ac3_instance(seed)
            greedy = select_greedy_scd(universal, query, config)
            b_fraction = sum(1 for i in greedy.selected_ids if origins[i] == "B") / len(
                greedy.selected_ids
            )
            fractions.append(b_fraction)
            rand = select_random(universal, config, query=query)
            random_fractions.append(
                sum(1 for i in rand.selected_ids if origins[i] == "B") / len(rand.selected_ids)
            )
            # the selection must beat twice the expected random fraction
            assert b_fraction > 0.40, f"seed {seed}: B-fraction {b_fraction:.2f} <= 0.40"

        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        report(
            "AC-3 PASS: greedy B-fractions "
            + ", ".join(f"{f:.2f}" for f in fractions)
            + f" (random {np.mean(random_fractions):.2f}, threshold 0.40), {elapsed:.1f}s"
        )


class TestAC4LambdaEndpoints:
    def test_ac4(self):
        rng = np.random.default_rng(31415)
        checked = 0
        for order in (1, 2):
            for _ in range(5):
                universal, query = random_instance(rng, 10, k=int(rng.integers(2, 5)))
                alpha = float(rng.choice([0.25, 0.5, 1.0]))
                base = dict(order=order, alpha=alpha, budget_c=1)
                at0 = build_target_distribution(universal, query, SelectionConfig(lam=0.0, **base))
                at1 = build_target_distribution(universal, query, SelectionConfig(lam=1.0, **base))
                dense_u = count_ngrams(universal, order, alpha).distribution().to_dense()
                dense_q = count_ngrams(query, order, alpha).distribution().to_dense()
                assert np.max(np.abs(at0.to_dense() - dense_u)) <= 1e-12
                assert np.max(np.abs(at1.to_dense() - dense_q)) <= 1e-12
                checked += 1
        report(f"AC-4 PASS: lambda endpoints reproduce the component distributions "
               f"exactly on {checked} instances")


class TestAC5DiversityVersusContrastive:
    def test_ac5(self):
        config = SelectionConfig(budget_c=100, order=1, lam=0.9, alpha=0.5)
        wins = 0
        pairs = []
        for seed in AC3_SEEDS:
            universal, _, query = ac3_instance(seed)
            greedy = select_greedy_scd(universal, query, config)
            contrastive = select_contrastive(universal, query, config)
            cov_g = distinct_gram_coverage(universal, greedy.selected_ids)
            cov_c = distinct_gram_coverage(universal, contrastive.selected_ids)
            pairs.append((cov_g, cov_c))
            if cov_g >= cov_c:
                wins += 1
        assert wins >= 4, f"greedy coverage >= contrastive on only {wins}/5 seeds: {pairs}"
        report(f"AC-5 PASS: coverage (greedy, contrastive) per seed = {pairs}, "
               f"greedy >= contrastive on {wins}/5")


class TestAC6PerformanceEnvelope:
    def test_ac6(self):
        k = 500
        n_utts = 100_000
        rng = np.random.default_rng(99)
        lengths = rng.integers(400, 601, size=n_utts)
        flat = rng.integers(0, k, size=int(lengths.sum()), dtype=np.int32)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        universal = LabelCorpus(
            alphabet_size=k,
            sequences=tuple(
                LabelSequence(f"u{i:06d}", 0.0, flat[offsets[i] : offsets[i + 1]])
                for i in range(n_utts)
            ),
        )
        query = make_corpus(
            [rng.integers(0, k, size=500).tolist() for _ in range(50)],
            k,
            ids=[f"q{i}" for i in range(50)],
        )

        config = SelectionConfig(budget_c=100, order=1, lam=0.9, alpha=0.5)
        started = time.perf_counter()
        result = select_greedy_scd(universal, query, config)
        elapsed = time.perf_counter() - started

        assert len(result.selected_ids) == 100
        assert elapsed < 60.0
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
        assert peak_gb < 2.0
        report(f"AC-6 PASS: C=100 from |U|=100k (50M frames, K=500) in {elapsed:.1f}s, "
               f"peak RSS {peak_gb:.2f} GB")


class TestAC7PipelineDeterminism:
    def _run_cli(self, argv):
        from scdselect.cli import main

        assert main(argv) == 0

    def test_ac7_audio_route(self, tmp_path):
        from test_discretizer import tone, write_wav

        wavs = []
        for i in range(6):
            path = tmp_path / f"w{i}.wav"
            write_wav(path, tone(6400 + 960 * i, freq=200.0 + 120.0 * i, seed=i))
            wavs.append(path)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(f"utt{i}\t{p}\n" for i, p in enumerate(wavs)), encoding="utf-8")
        query_path = tmp_path / "query.labels"

        model_path = tmp_path / "model.json"
        corpus_path = tmp_path / "pool.labels"
        report_path = tmp_path / "report.tsv"

        snapshots = []
        for threads in ("1", "8", "1"):  # two executions at 1, one at 8
            self._run_cli(["train-kmeans", str(manifest), "--k", "6", "--seed", "3",
                           "--threads", threads, "--output", str(model_path)])
            self._run_cli(["discretize", str(manifest), "--model", str(model_path),
                           "--threads", threads, "--output", str(corpus_path)])
            pool = load_label_corpus(corpus_path)
            save_label_corpus(
                LabelCorpus(pool.alphabet_size, pool.sequences[:2]), query_path
            )
            self._run_cli(["select", str(corpus_path), str(query_path),
                           "--strategy", "greedy-scd", "--budget-count", "3",
                           "--threads", threads, "--output", str(report_path)])
            snapshots.append(
                (
                    model_path.read_bytes(),
                    corpus_path.read_bytes(),
                    report_path.read_bytes(),
                    (tmp_path / "report.tsv.ids").read_bytes(),
                )
            )

        assert snapshots[0] == snapshots[1] == snapshots[2]
        report("AC-7 PASS (audio route): model, corpus, report and id files byte-identical "
               "across executions and thread counts 1/8")

    def test_ac7_label_route(self, tmp_path):
        universal, _, query = ac3_instance(0)
        u_path, q_path = tmp_path / "u.labels", tmp_path / "q.labels"
        save_label_corpus(universal, u_path)
        save_label_corpus(query, q_path)
        report_path = tmp_path / "report.tsv"

        snapshots = []
        for threads in ("1", "8", "1"):
            self._run_cli(["select", str(u_path), str(q_path), "--budget-count", "40",
                           "--lambda", "0.9", "--threads", threads,
                           "--output", str(report_path)])
            snapshots.append((report_path.read_bytes(), (tmp_path / "report.tsv.ids").read_bytes()))
        assert snapshots[0] == snapshots[1] == snapshots[2]
        report("AC-7 PASS (label route): selection outputs byte-identical across "
               "executions and thread counts 1/8")
