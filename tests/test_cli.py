import argparse
import shlex
from pathlib import Path

import numpy as np
import pytest

from aigmdet import cli, models, pipeline
from aigmdet.audio import AudioBuffer, load_wav, save_wav
from aigmdet.cli import EXIT_IO, EXIT_MUSIC, EXIT_OK, EXIT_USAGE, main
from aigmdet.data import Manifest, ManifestEntry, render_track
from aigmdet.extractors import get_extractor

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small pre-split corpus of short clips plus one long structured track."""
    root = tmp_path_factory.mktemp("clidata")
    entries = []
    rng = np.random.default_rng(0)
    for i in range(12):
        label = i % 2
        buf = render_track(label, 120, 4.0, 16000, rng)
        path = root / f"clip{i}.wav"
        save_wav(buf, path)
        split = "train" if i < 8 else ("val" if i < 10 else "test")
        entries.append(ManifestEntry(str(path), label, split))
    manifest_path = root / "manifest.csv"
    Manifest(entries).save(manifest_path)
    long_path = root / "long.wav"
    save_wav(render_track(0, 120, 24.0, 16000, np.random.default_rng(1)), long_path)
    return {"root": root, "manifest": manifest_path, "long": long_path,
            "clip": entries[0].path}


# ---------------------------------------------------------------- usage
def test_no_command_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == EXIT_USAGE


def test_missing_required_argument(capsys):
    assert run(["train", "--stage", "1"]) == EXIT_USAGE


def test_bad_stage_value(capsys):
    assert run(["train", "--stage", "9", "--arch", "audiocat",
                "--manifest", "m.csv", "--out", "o"]) == EXIT_USAGE


# ---------------------------------------------------------------- beats
def test_beats_command(corpus, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = run(["beats", str(corpus["long"]), "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.exists()
    bpm = float([l for l in captured.splitlines() if l.startswith("bpm=")][0][4:])
    assert abs(bpm - 120) <= 2.0
    assert any(l.startswith("bar_period_s=") for l in captured.splitlines())
    assert any(l.startswith("residual_rms_s=") for l in captured.splitlines())
    assert any(l.startswith("downbeats=") for l in captured.splitlines())


def test_beats_on_silence_exits_3(tmp_path, capsys):
    from aigmdet.audio import AudioBuffer
    path = tmp_path / "silence.wav"
    save_wav(AudioBuffer(np.zeros((1, 16000 * 8)), 16000), path)
    assert run(["beats", str(path), "--out", str(tmp_path / "g.csv")]) == EXIT_MUSIC


@pytest.mark.parametrize("command", ["beats", "ssm"])
def test_below_one_frame_exits_3(command, tmp_path, capsys):
    # 500 samples: shorter than one 1024-sample analysis frame
    path = tmp_path / "tiny.wav"
    save_wav(AudioBuffer(0.1 * np.ones((1, 500)), 16000), path)
    assert run([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_MUSIC
    assert capsys.readouterr().err.startswith("error: ")


def test_beats_missing_file_exits_2(capsys):
    assert run(["beats", "/nonexistent/x.wav", "--out", "g.csv"]) == EXIT_IO


def test_beats_malformed_wav_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"garbage")
    assert run(["beats", str(path), "--out", str(tmp_path / "g.csv")]) == EXIT_IO


# ---------------------------------------------------------------- train / eval / predict
@pytest.fixture(scope="module")
def stage1_ckpt(corpus, tmp_path_factory, capsysbinary=None):
    out = tmp_path_factory.mktemp("ckpt") / "s1.aigm"
    code = main(["train", "--stage", "1", "--arch", "audiocat",
                 "--manifest", str(corpus["manifest"]),
                 "--extractor", "seq-512", "--epochs", "1",
                 "--lr", "1e-3", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_train_stage1_outputs(stage1_ckpt):
    assert stage1_ckpt.exists()
    assert (stage1_ckpt.parent / (stage1_ckpt.name + ".history.csv")).exists()


def test_train_bad_manifest_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n")
    assert run(["train", "--stage", "1", "--arch", "audiocat",
                "--manifest", str(path), "--out", str(tmp_path / "o")]) == EXIT_IO


def test_eval_command(corpus, stage1_ckpt, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run(["eval", "--ckpt", str(stage1_ckpt),
                "--manifest", str(corpus["manifest"]),
                "--split", "test", "--out", str(out)])
    captured = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert captured[0] == "acc,prec,recall,f1,auc,spec"
    values = [float(v) for v in captured[1].split(",")]
    assert len(values) == 6
    assert all(0.0 <= v <= 1.0 for v in values)
    assert out.read_text().splitlines()[0] == "acc,prec,recall,f1,auc,spec"


def test_predict_segment_mode(corpus, stage1_ckpt, capsys):
    code = run(["predict", "--ckpt", str(stage1_ckpt),
                "--audio", corpus["clip"], "--mode", "segment"])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "probability=" in captured
    assert "label=" in captured


def test_predict_missing_ckpt_exits_2(corpus, capsys):
    assert run(["predict", "--ckpt", "/nonexistent.aigm",
                "--audio", corpus["clip"]]) == EXIT_IO


def test_full_mode_needs_stage2_ckpt(corpus, stage1_ckpt, capsys):
    assert run(["predict", "--ckpt", str(stage1_ckpt),
                "--audio", corpus["clip"], "--mode", "full"]) == EXIT_IO


# ---------------------------------------------------------------- stage 2
@pytest.fixture(scope="module")
def tracks(tmp_path_factory):
    """Pre-split manifest of 16 s tracks: each holds whole 4-bar windows."""
    root = tmp_path_factory.mktemp("tracks")
    rng = np.random.default_rng(2)
    entries = []
    for i, split in enumerate(["train"] * 4 + ["val"] * 2 + ["test"] * 2):
        label = i % 2
        path = root / f"track{i}.wav"
        save_wav(render_track(label, 120, 16.0, 16000, rng), path)
        entries.append(ManifestEntry(str(path), label, split))
    Manifest(entries).save(root / "tracks.csv")
    return {"manifest": root / "tracks.csv", "track": entries[-1].path}


@pytest.fixture(scope="module")
def stage2_ckpt(tracks, stage1_ckpt, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt2") / "s2.aigm"
    code = main(["train", "--stage", "2", "--arch", "segtr",
                 "--manifest", str(tracks["manifest"]),
                 "--stage1-ckpt", str(stage1_ckpt), "--epochs", "1",
                 "--lr", "1e-3", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_train_stage2_outputs(stage2_ckpt, stage1_ckpt):
    model, arch, _ = pipeline.load_model(stage2_ckpt)
    stage1, _, _ = pipeline.load_model(stage1_ckpt)
    assert arch == "segtr"
    assert model.d_in == stage1.cfg.d_model
    assert (stage2_ckpt.parent / (stage2_ckpt.name + ".history.csv")).exists()


def test_eval_stage2(tracks, stage1_ckpt, stage2_ckpt, capsys):
    code = run(["eval", "--ckpt", str(stage2_ckpt), "--stage1-ckpt", str(stage1_ckpt),
                "--manifest", str(tracks["manifest"])])
    captured = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert captured[-2] == "acc,prec,recall,f1,auc,spec"
    values = [float(v) for v in captured[-1].split(",")]
    assert len(values) == 6 and all(0.0 <= v <= 1.0 for v in values)


def test_predict_full_mode(tracks, stage1_ckpt, stage2_ckpt, capsys):
    code = run(["predict", "--ckpt", str(stage2_ckpt), "--stage1-ckpt", str(stage1_ckpt),
                "--audio", tracks["track"], "--mode", "full"])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    # the score is the one track_to_sequence gives on the same track
    stage1, _, preset = pipeline.load_model(stage1_ckpt)
    stage2, _, _ = pipeline.load_model(stage2_ckpt)
    buf = load_wav(tracks["track"])
    seq = models.track_to_sequence(pipeline.analysis_buffer(buf),
                                   pipeline.analyze_beats(buf).grid,
                                   stage1, get_extractor(preset))
    assert f"probability={stage2.forward(seq).probability:.6f}" in captured


# ---------------------------------------------------------------- ssm
def test_ssm_from_wav(corpus, tmp_path, capsys):
    out = tmp_path / "ssm"
    code = run(["ssm", str(corpus["long"]), "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "ssm_size=" in captured
    matrix = np.loadtxt(str(out) + ".csv", delimiter=",")
    assert matrix.shape[0] == matrix.shape[1]
    assert np.allclose(matrix, matrix.T)
    assert (tmp_path / "ssm.pgm").read_bytes().startswith(b"P5\n")


def test_ssm_from_embedding_file(tmp_path, capsys):
    from aigmdet.extractors import save_embeddings
    rng = np.random.default_rng(0)
    emb = tmp_path / "seq.emb"
    save_embeddings(emb, rng.normal(size=(6, 16)).astype(np.float32))
    code = run(["ssm", str(emb), "--out", str(tmp_path / "s")])
    assert code == EXIT_OK
    assert "ssm_size=6" in capsys.readouterr().out


def test_ssm_bad_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    assert run(["ssm", str(path), "--out", str(tmp_path / "s")]) == EXIT_IO


# ---------------------------------------------------------------- config plumbing
def make_args(**kw):
    defaults = dict(preset="paper-s1-bce", config=None, epochs=None,
                    batch_size=None, lr=None, seed=None)
    defaults.update(kw)
    return argparse.Namespace(**defaults)


def test_config_file_overrides(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment\nepochs = 7\nlr=0.01\n\nweight_decay=0.5\n")
    cfg = cli._train_config(make_args(config=str(path)))
    assert cfg.epochs == 7
    assert cfg.lr == 0.01
    assert cfg.weight_decay == 0.5
    assert cfg.batch_size == 8  # preset value untouched


def test_cli_flags_beat_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("epochs=7\n")
    cfg = cli._train_config(make_args(config=str(path), epochs=3))
    assert cfg.epochs == 3


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("AIGM_SEED", "123")
    assert cli._train_config(make_args()).seed == 123
    monkeypatch.delenv("AIGM_SEED")
    assert cli._train_config(make_args()).seed == 0
    assert cli._train_config(make_args(seed=5)).seed == 5


# ---------------------------------------------------------------- README
def _readme_commands():
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("aigmdet ")]


def test_readme_cli_examples_parse():
    argvs = [shlex.split(c)[1:] for c in _readme_commands()]
    assert {argv[0] for argv in argvs} == set(cli._COMMANDS)  # every command shown
    parser = cli.make_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]
