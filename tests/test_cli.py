import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from scdselect import cli, discretizer
from scdselect.cli import RunConfig, main
from scdselect.corpus import LabelCorpus, LabelSequence, load_label_corpus, save_label_corpus
from scdselect.selection import SelectionConfig

from conftest import make_corpus
from test_discretizer import tone, write_wav


def write_corpus(tmp_path, name, seqs, k, ids=None):
    path = tmp_path / name
    save_label_corpus(make_corpus(seqs, k, ids=ids), path)
    return str(path)


@pytest.fixture
def audio_setup(tmp_path):
    wavs = []
    for i in range(3):
        path = tmp_path / f"w{i}.wav"
        write_wav(path, tone(6000 + 2000 * i, freq=250.0 * (i + 1), seed=i))
        wavs.append(path)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        "".join(f"utt{i}\t{p}\n" for i, p in enumerate(wavs)), encoding="utf-8"
    )
    return str(manifest)


class TestTrainKmeans:
    def test_deterministic_bytes(self, audio_setup, tmp_path, capsys):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = [audio_setup, "--k", "4", "--seed", "5", "--output"]
        assert main(["train-kmeans"] + argv + [str(m1)]) == 0
        assert main(["train-kmeans"] + argv + [str(m2)]) == 0
        bytes1 = m1.read_bytes()
        assert bytes1.replace(str(m1).encode(), b"") == m2.read_bytes().replace(str(m2).encode(), b"")

    def test_empty_manifest_fails(self, tmp_path, capsys):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("\n", encoding="utf-8")
        code = main(["train-kmeans", str(manifest), "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: manifest is empty; nothing to train on\n"
        assert not (tmp_path / "m.json").exists()

    def test_sample_rate_past_float_range_fails(self, audio_setup, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["train-kmeans", audio_setup, "--sample-rate", "1" + "0" * 400, "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: frame_length_ms=25.0 spans no finite sample count at 1000")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_k_exceeds_frames(self, audio_setup, tmp_path, capsys):
        # The manifest holds 36 + 48 + 61 = 145 frames.
        code = main(["train-kmeans", audio_setup, "--k", "200", "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert "at least k" in capsys.readouterr().err

    @pytest.fixture
    def mfcc_calls(self, monkeypatch):
        """Every compute_mfcc call the CLI makes, by either module's name."""
        calls = []
        real = cli.compute_mfcc

        def recording(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_mfcc", recording)
        monkeypatch.setattr(discretizer, "compute_mfcc", recording)
        return calls

    def test_max_frames_below_k_is_usage_error(self, audio_setup, tmp_path, capsys, mfcc_calls):
        with pytest.raises(SystemExit) as exc:
            main(["train-kmeans", audio_setup, "--k", "50", "--max-frames", "49",
                  "--output", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-frames 49 is below --k 50" in err
        assert mfcc_calls == []
        # Equal is enough.
        assert main(["train-kmeans", audio_setup, "--k", "50", "--max-frames", "50", "--max-iters", "1",
                     "--output", str(tmp_path / "m.json")]) == 0

    def test_too_few_frames_fail_before_any_mfcc(self, audio_setup, tmp_path, capsys, mfcc_calls):
        code = main(["train-kmeans", audio_setup, "--k", "146", "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: need at least k=146 frames, the manifest has 145\n"
        assert mfcc_calls == []
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_short_file_is_named_as_discretize_names_it(self, tmp_path, capsys, threads):
        good, short = tmp_path / "good.wav", tmp_path / "short.wav"
        write_wav(good, tone(8000, seed=0))
        write_wav(short, tone(100, seed=1))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"a\t{good}\nb\t{short}\n", encoding="utf-8")
        model = tmp_path / "m.json"
        assert main(["train-kmeans", str(manifest), "--k", "2", "--max-frames", "2",
                     "--output", str(model)]) == 1
        trained = capsys.readouterr().err
        assert trained == (f"error: utterance 'b': {short}: audio of 100 samples is shorter "
                           "than one 400-sample frame\n")
        one_file = tmp_path / "one.tsv"
        one_file.write_text(f"a\t{good}\n", encoding="utf-8")
        assert main(["train-kmeans", str(one_file), "--k", "2", "--output", str(model)]) == 0
        capsys.readouterr()
        assert main(["discretize", str(manifest), "--model", str(model), "--threads", str(threads),
                     "--output", str(tmp_path / "labels.txt")]) == 1
        assert capsys.readouterr().err == trained

    @pytest.mark.parametrize("subcommand", ["train-kmeans", "discretize"])
    @pytest.mark.parametrize("body,fault", [
        (b"a\ta.wav\nb\tb\xff.wav\n", "not valid UTF-8"),
        (b"a\ta.wav\n\tb.wav\n", "manifest entry id must be non-empty"),
        (b"a\ta.wav\na\tb.wav\n", "duplicate manifest id 'a'"),
        (b"a\ta.wav\nb\t\n", "manifest entry 'b': empty audio path"),
    ])
    def test_manifest_fault_names_file_and_line(self, tmp_path, capsys, subcommand, body, fault):
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(body)
        model = ["--model", str(tmp_path / "model.json")] if subcommand == "discretize" else []
        code = main([subcommand, str(manifest), *model, "--output", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {manifest}:2: {fault}\n"

    def test_max_frames_zero_is_usage_error(self, audio_setup, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train-kmeans", audio_setup, "--max-frames", "0",
                  "--output", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error_before_any_wav_is_read(self, tmp_path, capsys):
        # The manifest's WAV does not exist, so reading it would exit 1.
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"utt0\t{tmp_path / 'missing.wav'}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["train-kmeans", str(manifest), "--seed", "-1", "--output", str(tmp_path / "m.json")])
        assert exc.value.code == 2
        assert "--seed: expected a non-negative integer, got -1" in capsys.readouterr().err

    def test_model_file_config_echo_parses_back(self, audio_setup, tmp_path):
        import json

        out = tmp_path / "m.json"
        assert main(["train-kmeans", audio_setup, "--k", "3", "--output", str(out)]) == 0
        echo = json.loads(out.read_text(encoding="utf-8"))["config_echo"]
        recovered = RunConfig.from_json(json.dumps(echo["run_config"]))
        assert recovered.subcommand == "train-kmeans"
        assert recovered.options["k"] == 3
        assert echo["mfcc"]["sample_rate_hz"] == 16000


    @pytest.mark.parametrize("flag", ["--frame-length-ms", "--frame-shift-ms"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
    def test_bad_frame_size_is_usage_error(self, audio_setup, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["train-kmeans", audio_setup, flag, value, "--output", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    def test_shift_below_one_sample_runtime_error(self, audio_setup, tmp_path, capsys):
        code = main(["train-kmeans", audio_setup, "--frame-shift-ms", "1e-9",
                     "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert "below one sample" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_frame_length_without_finite_sample_count_runtime_error(self, audio_setup, tmp_path, capsys):
        code = main(["train-kmeans", audio_setup, "--k", "2", "--frame-length-ms", "1e308",
                     "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: frame_length_ms=1e+308 spans no finite sample count at 16000 Hz\n"
        assert not (tmp_path / "m.json").exists()


class TestDiscretize:
    @pytest.fixture
    def model_path(self, audio_setup, tmp_path):
        path = tmp_path / "model.json"
        assert main(["train-kmeans", audio_setup, "--k", "4", "--seed", "1",
                     "--output", str(path)]) == 0
        return str(path)

    def test_writes_loadable_corpus(self, audio_setup, model_path, tmp_path, capsys):
        out = tmp_path / "c.labels"
        assert main(["discretize", audio_setup, "--model", model_path,
                     "--output", str(out)]) == 0
        corpus = load_label_corpus(out)
        assert corpus.ids == ("utt0", "utt1", "utt2")
        assert corpus.alphabet_size == 4
        body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        assert len(body) == 3

    def test_config_echo_parses_back(self, audio_setup, model_path, tmp_path):
        out = tmp_path / "c.labels"
        argv = ["discretize", audio_setup, "--model", model_path, "--output", str(out)]
        assert main(argv) == 0
        echo_line = next(
            l for l in out.read_text(encoding="utf-8").splitlines() if l.startswith("#cfg=")
        )
        recovered = RunConfig.from_json(echo_line[len("#cfg=") :])
        assert recovered.subcommand == "discretize"
        assert recovered.options["model"] == model_path
        assert recovered == RunConfig(subcommand="discretize", options=recovered.options)

    def test_bad_mfcc_echo_names_model(self, audio_setup, model_path, tmp_path, capsys):
        import json

        with open(model_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["config_echo"]["mfcc"]["frame_length_ms"] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["discretize", audio_setup, "--model", str(bad),
                     "--output", str(tmp_path / "c.labels")])
        assert code == 1
        assert "bad.json: bad MFCC config echo" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("num_mel_filters", 26.5, "num_mel_filters must be an integer, got 26.5"),
        ("include_deltas", "no", "include_deltas must be a bool, got 'no'"),
        ("num_coeffs", 0, "num_coeffs must be >= 1, got 0"),
    ])
    def test_mistyped_mfcc_echo_field_names_model(self, audio_setup, model_path, tmp_path, capsys,
                                                  field, value, message):
        payload = json.loads(Path(model_path).read_text(encoding="utf-8"))
        payload["config_echo"]["mfcc"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "c.labels"
        assert main(["discretize", audio_setup, "--model", str(bad), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: bad MFCC config echo ({message})\n"
        assert not out.exists()

    def test_model_without_mfcc_echo_uses_defaults(self, audio_setup, model_path, tmp_path, caplog):
        import json

        with open(model_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        # The model was trained with the default MFCC config.
        assert payload["config_echo"].pop("mfcc") == dataclasses.asdict(discretizer.MfccConfig())
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(payload), encoding="utf-8")
        with_echo, without = tmp_path / "echo.labels", tmp_path / "bare.labels"
        assert main(["discretize", audio_setup, "--model", model_path, "--output", str(with_echo)]) == 0
        assert not any("MFCC config" in m for m in caplog.messages)
        with caplog.at_level("WARNING"):
            assert main(["discretize", audio_setup, "--model", str(bare), "--output", str(without)]) == 0
        assert "model file carries no MFCC config; using defaults" in caplog.messages
        assert load_label_corpus(without).sequences == load_label_corpus(with_echo).sequences

    @pytest.mark.parametrize("k,edited", [(4, 4.0), (1, True)])
    def test_non_integer_model_k_refused(self, audio_setup, tmp_path, capsys, k, edited):
        model = tmp_path / "model.json"
        assert main(["train-kmeans", audio_setup, "--k", str(k), "--seed", "1", "--output", str(model)]) == 0
        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["k"] = edited
        model.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "c.labels"
        assert main(["discretize", audio_setup, "--model", str(model), "--output", str(out)]) == 1
        assert f"model.json: bad model file (k must be an integer, got {edited!r})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("k", 0, "k must be >= 1, got 0"),
        ("iterations_run", -1, "iterations_run must be >= 0, got -1"),
    ])
    def test_model_field_below_its_minimum_refused(self, audio_setup, model_path, tmp_path, capsys,
                                                   field, value, message):
        payload = json.loads(Path(model_path).read_text(encoding="utf-8"))
        payload[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "c.labels"
        assert main(["discretize", audio_setup, "--model", str(bad), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: bad model file ({message})\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"k": 2}',
        "{not json",
        '{"k": 1, "feature_dim": 2, "iterations_run": 1, "final_inertia": 0.0, "centroids": [[0.0, NaN]]}',
    ])
    def test_malformed_model_file_runtime_error(self, audio_setup, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        code = main(["discretize", audio_setup, "--model", str(bad),
                     "--output", str(tmp_path / "c.labels")])
        assert code == 1
        assert "bad.json: " in capsys.readouterr().err
        assert not (tmp_path / "c.labels").exists()


class TestNgramStats:
    def test_dump(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, "c.labels", [[0, 0, 1], [1, 2]], 3)
        out = tmp_path / "stats.tsv"
        assert main(["ngram-stats", corpus, "--order", "1", "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#order=1"
        body = [l for l in lines if not l.startswith("#")]
        assert body == ["0\t2", "1\t2", "2\t1"]
        echo_line = next(l for l in lines if l.startswith("#cfg="))
        recovered = RunConfig.from_json(echo_line[len("#cfg=") :])
        assert recovered.subcommand == "ngram-stats"
        assert recovered.options["order"] == 1


class TestScd:
    def test_self_divergence_zero(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, "c.labels", [[0, 1, 1, 2]], 3)
        assert main(["scd", corpus, corpus]) == 0
        out = capsys.readouterr().out
        assert "SCD = 0.000000 nats" in out
        assert "scd_nats=0.0" in out

    def test_derived_value(self, tmp_path, capsys):
        x = write_corpus(tmp_path, "x.labels", [[0, 0, 0, 1]], 2)
        y = write_corpus(tmp_path, "y.labels", [[0, 0, 1, 1]], 2)
        assert main(["scd", x, y, "--alpha", "0"]) == 0
        out = capsys.readouterr().out
        nats = float(next(l for l in out.splitlines() if l.startswith("scd_nats=")).split("=")[1])
        assert nats == pytest.approx(0.130812, abs=1e-4)

    def test_asymmetry(self, tmp_path, capsys):
        x = write_corpus(tmp_path, "x.labels", [[0, 0, 0, 1]], 2)
        y = write_corpus(tmp_path, "y.labels", [[0, 0, 1, 1]], 2)
        main(["scd", x, y])
        forward = capsys.readouterr().out
        main(["scd", y, x])
        backward = capsys.readouterr().out
        assert forward.splitlines()[1] != backward.splitlines()[1]

    @pytest.mark.parametrize("subcommand", ["scd", "select"])
    def test_alphabet_mismatch_is_runtime_error(self, tmp_path, capsys, subcommand):
        x = write_corpus(tmp_path, "x.labels", [[0]], 2)
        y = write_corpus(tmp_path, "y.labels", [[0]], 3)
        report = tmp_path / "r.txt"
        flags = ["--budget-count", "1", "--output", str(report)] if subcommand == "select" else []
        assert main([subcommand, x, y, *flags]) == 1
        assert f"alphabet mismatch: {x} has K=2, {y} has K=3" in capsys.readouterr().err
        assert not report.exists()


class TestSelect:
    @pytest.fixture
    def instance(self, tmp_path):
        universal = write_corpus(
            tmp_path, "u.labels", [[0, 0], [1, 1], [0, 1], [1, 0]], 2,
            ids=["u1", "u2", "u3", "u4"],
        )
        query = write_corpus(tmp_path, "q.labels", [[0, 0]], 2, ids=["q0"])
        return universal, query

    def test_greedy_derived_instance(self, instance, tmp_path, capsys):
        universal, query = instance
        out = tmp_path / "report.tsv"
        assert main(["select", universal, query, "--strategy", "greedy-scd",
                     "--budget-count", "2", "--lambda", "1.0", "--alpha", "0.5",
                     "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        body = [l.split("\t") for l in lines if not l.startswith("#")]
        assert [row[1] for row in body] == ["u1", "u3"]
        ids_file = (tmp_path / "report.tsv.ids").read_text(encoding="utf-8").splitlines()
        assert [l for l in ids_file if not l.startswith("#")] == ["u1", "u3"]

    def test_report_config_echo_round_trips(self, instance, tmp_path):
        universal, query = instance
        out = tmp_path / "report.tsv"
        main(["select", universal, query, "--budget-count", "1", "--output", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        config_line = next(l for l in lines if l.startswith("#config="))
        assert SelectionConfig.from_json(config_line[len("#config=") :]) == SelectionConfig(
            budget_c=1, order=1, lam=0.5, alpha=0.5, prune_min_count=0, seed=0
        )
        run_line = next(l for l in lines if l.startswith("#run_config="))
        recovered = RunConfig.from_json(run_line[len("#run_config=") :])
        assert recovered.subcommand == "select"
        assert recovered.options["budget_count"] == 1

    def test_random_reproducible(self, instance, tmp_path):
        universal, query = instance
        out = tmp_path / "r.tsv"
        argv = ["select", universal, query, "--strategy", "random",
                "--budget-count", "2", "--seed", "42", "--output", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_negative_seed_usage_error(self, instance, tmp_path, capsys):
        # random.Random(-5) shuffles like random.Random(5), so -5 would repeat
        # the picks of --seed 5 under a different config echo.
        universal, query = instance
        with pytest.raises(SystemExit) as exc:
            main(["select", universal, query, "--strategy", "random", "--budget-count", "2",
                  "--seed", "-5", "--output", str(tmp_path / "r.tsv")])
        assert exc.value.code == 2
        assert "--seed: expected a non-negative integer, got -5" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_invalid_lambda_usage_error(self, instance, tmp_path):
        universal, query = instance
        with pytest.raises(SystemExit) as exc:
            main(["select", universal, query, "--budget-count", "1",
                  "--lambda", "1.5", "--output", str(tmp_path / "r.tsv")])
        assert exc.value.code == 2

    def test_missing_budget_usage_error(self, instance, tmp_path):
        universal, query = instance
        with pytest.raises(SystemExit) as exc:
            main(["select", universal, query, "--output", str(tmp_path / "r.tsv")])
        assert exc.value.code == 2

    def test_budget_too_large_runtime_error(self, instance, tmp_path, capsys):
        universal, query = instance
        assert main(["select", universal, query, "--budget-count", "9",
                     "--output", str(tmp_path / "r.tsv")]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_oracle_and_contrastive_run(self, instance, tmp_path):
        universal, query = instance
        for strategy in ("oracle", "contrastive"):
            out = tmp_path / f"{strategy}.tsv"
            assert main(["select", universal, query, "--strategy", strategy,
                         "--budget-count", "2", "--output", str(out)]) == 0
            assert out.exists()


class TestNarrowLabelOutputs:
    """A K=257 file loads as uint16; every output equals that of the same corpus held as int32."""

    @staticmethod
    def load_as_int32(path):
        loaded = load_label_corpus(path)
        sequences = [LabelSequence(seq.id, seq.duration_s, seq.labels.astype(np.int32)) for seq in loaded]
        return LabelCorpus(loaded.alphabet_size, sequences)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ngram-stats", "{u}", "--order", "2"],
            ["ngram-stats", "{u}", "--order", "3", "--prune-min-count", "2"],
            ["select", "{u}", "{q}", "--order", "2", "--budget-count", "6", "--lambda", "0.9"],
            ["select", "{u}", "{q}", "--order", "3", "--strategy", "contrastive", "--budget-count", "4"],
        ],
    )
    def test_outputs_match_an_int32_corpus(self, tmp_path, argv):
        rng = np.random.default_rng(257)
        # Labels above 255 in runs, so that grams repeat across utterances.
        seqs = [np.repeat(rng.integers(240, 257, size=n), 3).tolist() for n in rng.integers(0, 15, size=40)]
        universal = write_corpus(tmp_path, "u.labels", seqs, 257)
        query = write_corpus(tmp_path, "q.labels", seqs[:5], 257, ids=[f"q{i}" for i in range(5)])
        assert load_label_corpus(universal).labels.dtype == np.uint16
        assert self.load_as_int32(universal).labels.dtype == np.int32
        out = tmp_path / "out.tsv"
        argv = [arg.format(u=universal, q=query) for arg in argv] + ["--output", str(out)]
        outputs = []
        for loader in (load_label_corpus, self.load_as_int32):
            with mock.patch.object(cli, "load_label_corpus", loader):
                assert main(argv) == 0
            ids = tmp_path / "out.tsv.ids"
            outputs.append((out.read_bytes(), ids.read_bytes() if ids.exists() else None))
        assert outputs[0] == outputs[1]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        corpus = write_corpus(tmp_path, "c.labels", [[0, 1]], 2)
        proc = subprocess.run(
            [sys.executable, "-m", "scdselect", "scd", corpus, corpus],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "scd_nats=0.0" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scdselect", "select", "missing-universal"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_missing_file_runtime_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "scdselect", "scd", "no-such-file", "no-such-file"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1


class TestEarlyFailures:
    def test_non_finite_duration_fails_before_selection(self, tmp_path, capsys):
        universal = tmp_path / "u.labels"
        universal.write_text("#K=2\nu1\t1.0\t0 1\nu2\tnan\t1 1\n", encoding="utf-8")
        query = write_corpus(tmp_path, "q.labels", [[0, 1]], 2, ids=["q0"])
        code = main(["select", str(universal), query, "--budget-seconds", "1.0",
                     "--output", str(tmp_path / "r.tsv")])
        assert code == 1
        assert "u.labels:3: duration 'nan' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_label_outside_int32_fails_before_selection(self, tmp_path, capsys):
        universal = tmp_path / "u.labels"
        universal.write_text("#K=4\nu1\t1.0\t0 1\nu2\t1.0\t1 99999999999 2\n", encoding="utf-8")
        query = write_corpus(tmp_path, "q.labels", [[0, 1]], 4, ids=["q0"])
        code = main(["select", str(universal), query, "--budget-count", "1",
                     "--output", str(tmp_path / "r.tsv")])
        assert code == 1
        assert "u.labels:3: utterance 'u2' has a label outside the int32 range" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_undefined_divergence_names_the_gram(self, tmp_path, capsys):
        # alpha=0, lambda=0: the target is the pool model, and the first
        # candidate u1=[1, 1] leaves label 0 with zero subset probability.
        universal = write_corpus(tmp_path, "u.labels", [[1, 1], [0, 1]], 2, ids=["u1", "u2"])
        query = write_corpus(tmp_path, "q.labels", [[0, 1]], 2, ids=["q0"])
        code = main(["select", universal, query, "--budget-count", "1", "--alpha", "0",
                     "--lambda", "0", "--output", str(tmp_path / "r.tsv")])
        assert code == 1
        assert "zero probability at gram (0,) " in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["select", "scd", "ngram-stats"])
    def test_order_beyond_int64_codes(self, tmp_path, capsys, subcommand):
        # 2**63 grams of order 63 over K=2 do not fit in int64 codes.
        corpus = write_corpus(tmp_path, "c.labels", [[0, 1]], 2)
        argv = {
            "select": ["select", corpus, corpus, "--budget-count", "1",
                       "--output", str(tmp_path / "r.tsv")],
            "scd": ["scd", corpus, corpus],
            "ngram-stats": ["ngram-stats", corpus, "--output", str(tmp_path / "s.tsv")],
        }[subcommand]
        assert main(argv + ["--order", "63"]) == 1
        assert "K=2 at order 63" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--alpha", "inf"), ("--alpha", "nan"),
                                            ("--budget-seconds", "nan"), ("--budget-seconds", "inf")])
    def test_non_finite_number_is_usage_error(self, tmp_path, flag, value):
        corpus = write_corpus(tmp_path, "c.labels", [[0, 1], [1, 1]], 2)
        budget = [] if flag == "--budget-seconds" else ["--budget-count", "1"]
        with pytest.raises(SystemExit) as exc:
            main(["select", corpus, corpus, *budget, flag, value,
                  "--output", str(tmp_path / "r.tsv")])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,bad_range,expected,kind",
    [
        (["select", "u.labels", "q.labels", "--output", "r.tsv", "--budget-count"], "0",
         "expected a positive integer, got 0", "int"),
        (["select", "u.labels", "q.labels", "--output", "r.tsv", "--budget-count", "1", "--seed"], "-1",
         "expected a non-negative integer, got -1", "int"),
        (["select", "u.labels", "q.labels", "--output", "r.tsv", "--budget-seconds"], "-1.5",
         "expected a finite non-negative number, got -1.5", "float"),
        (["train-kmeans", "m.tsv", "--output", "m.json", "--frame-length-ms"], "0",
         "expected a finite positive number, got 0", "float"),
        (["select", "u.labels", "q.labels", "--output", "r.tsv", "--budget-count", "1", "--lambda"], "1.5",
         "expected a value in [0, 1], got 1.5", "float"),
    ],
)
def test_numeric_option_errors(capsys, argv, bad_range, expected, kind):
    # An out-of-range value names the rule; text that is no number gets
    # argparse's own wording for its converter.
    for value, message in ((bad_range, expected), ("x", f"invalid {kind} value: 'x'")):
        with pytest.raises(SystemExit) as exc:
            main(argv + [value])
        assert exc.value.code == 2
        assert f"{argv[-1]}: {message}" in capsys.readouterr().err
