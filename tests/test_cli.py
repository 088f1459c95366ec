import argparse
import re
import shlex
import struct
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from aigmdet import cli, experiment, models, nn, pipeline
from aigmdet.audio import MAX_FLOAT_SAMPLE, AudioBuffer, load_wav, save_wav
from aigmdet.cli import EXIT_IO, EXIT_MUSIC, EXIT_OK, EXIT_TRAIN, EXIT_USAGE, main
from aigmdet.data import SPLITS, Manifest, ManifestEntry, render_track, split_dataset
from aigmdet.dsp import MIN_SEGMENT_S, N_MELS
from aigmdet.errors import AnalysisError, DivergedLoss, InputError
from aigmdet.extractors import get_extractor
from aigmdet.models import SegmentTransformer
from aigmdet.training import PRESETS, EvalReport, TrainConfig, evaluate

from util import click_track, raw_wav

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
    assert run(["train", "--arch", "audiocat"]) == EXIT_USAGE


def test_eval_unknown_split_is_usage_error(capsys):
    assert run(["eval", "--ckpt", "c.aigm", "--manifest", "m.csv",
                "--split", "tset"]) == EXIT_USAGE
    assert "invalid choice: 'tset'" in capsys.readouterr().err


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


# the CSV holds the bars that end by the track's end, while downbeats=
# counts the grid's downbeats up to it; a render at seed 0 of each
@pytest.mark.parametrize("bpm, duration, last_row, downbeats", [
    (120, 16.0, "6,12.496000,14.496000", 8),
    (100, 30.0, "11,27.600000,30.000000", 13),
    (92, 14.0, "3,9.776000,12.384000", 5),
], ids=["120bpm_16s", "100bpm_30s", "92bpm_14s"])
def test_beats_writes_whole_bars(bpm, duration, last_row, downbeats, tmp_path, capsys):
    path, out = tmp_path / "track.wav", tmp_path / "grid.csv"
    save_wav(render_track(0, float(bpm), duration, 16000, np.random.default_rng(0)), path)
    assert run(["beats", str(path), "--out", str(out)]) == EXIT_OK
    assert f"downbeats={downbeats}" in capsys.readouterr().out.splitlines()
    rows = out.read_text().splitlines()
    assert rows[-1] == last_row
    assert all(float(row.split(",")[2]) <= duration for row in rows[1:])


def test_beats_on_silence_exits_3(tmp_path, capsys):
    from aigmdet.audio import AudioBuffer
    path = tmp_path / "silence.wav"
    save_wav(AudioBuffer(np.zeros((1, 16000 * 8)), 16000), path)
    assert run(["beats", str(path), "--out", str(tmp_path / "g.csv")]) == EXIT_MUSIC
    assert capsys.readouterr().err == f"error: {path}: flat onset envelope\n"


# tempo estimation reads 250 onset frames (4 s), which a 16 kHz track
# first holds at 64,768 samples: one sample fewer, or 4.0 s, exits 3
@pytest.mark.parametrize("samples, frames", [(64768, 250), (64767, 249), (64000, 247)])
def test_beats_needs_4048_ms(samples, frames, tmp_path, capsys):
    path = tmp_path / "short.wav"
    row = click_track(120, 5.0, accent_every=4).samples[:, :samples]
    save_wav(AudioBuffer(row, 16000), path)
    code = run(["beats", str(path), "--out", str(tmp_path / "g.csv")])
    err = capsys.readouterr().err
    if frames == 250:
        assert code == EXIT_OK and err == ""
    else:
        assert code == EXIT_MUSIC
        assert err == (f"error: {path}: need at least 250 onset frames (4 s) for the "
                       f"tempo, got {frames}: a track needs 4.048 s (64768 samples at "
                       f"16 kHz)\n")


@pytest.mark.parametrize("command", ["beats", "ssm"])
def test_below_one_frame_exits_3(command, stage1_ckpt, tmp_path, capsys):
    # 500 samples: shorter than one 1024-sample analysis frame
    path = tmp_path / "tiny.wav"
    save_wav(AudioBuffer(0.1 * np.ones((1, 500)), 16000), path)
    stage1 = ["--stage1-ckpt", str(stage1_ckpt)] if command == "ssm" else []
    assert run([command, str(path), *stage1, "--out", str(tmp_path / "out")]) == EXIT_MUSIC
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_beats_missing_file_exits_2(capsys):
    assert run(["beats", "/nonexistent/x.wav", "--out", "g.csv"]) == EXIT_IO


def test_beats_malformed_wav_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"garbage")
    assert run(["beats", str(path), "--out", str(tmp_path / "g.csv")]) == EXIT_IO


# the error line names the file once: as load_wav's message quotes it (a
# missing file, a NUL byte), or else as a prefix, even where the name
# occurs in the message, as "a" and "file" do in "not a RIFF/WAVE file"
@pytest.mark.parametrize("name, line", [
    ("a", "error: a: not a RIFF/WAVE file"),
    ("file", "error: file: not a RIFF/WAVE file"),
    ("missing.wav", "error: [Errno 2] No such file or directory: 'missing.wav'"),
    ("a\x00b.wav", "error: 'a\\x00b.wav': embedded null byte"),
], ids=["a", "file", "missing", "nul"])
def test_beats_error_names_the_file_once(name, line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if name in ("a", "file"):
        Path(name).write_bytes(b"not a wave file.")
    assert run(["beats", name, "--out", "g.csv"]) == EXIT_IO
    assert capsys.readouterr().err == line + "\n"


# ---------------------------------------------------------------- train / eval / predict
@pytest.fixture(scope="module")
def stage1_ckpt(corpus, tmp_path_factory, capsysbinary=None):
    out = tmp_path_factory.mktemp("ckpt") / "s1.aigm"
    code = main(["train", "--arch", "audiocat",
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
    assert run(["train", "--arch", "audiocat",
                "--manifest", str(path), "--out", str(tmp_path / "o")]) == EXIT_IO


@pytest.mark.parametrize("row", ["a.wav,x", "a.wav"], ids=["bad_label", "no_label"])
def test_train_malformed_manifest_row_exits_2(row, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(f"path,label\n{row}\n")
    assert run(["train", "--arch", "audiocat",
                "--manifest", str(path), "--out", str(tmp_path / "o")]) == EXIT_IO
    assert "line 2" in capsys.readouterr().err


# spreadsheet editors save "CSV UTF-8" with a byte-order mark
def test_train_reads_files_with_a_byte_order_mark(corpus, tmp_path):
    manifest = tmp_path / "bom.csv"
    manifest.write_bytes(b"\xef\xbb\xbf" + corpus["manifest"].read_bytes())
    assert run(["train", "--arch", "audiocat", "--extractor", "stats-160",
                "--manifest", str(manifest), "--epochs", "1",
                "--out", str(tmp_path / "o.aigm")]) == EXIT_OK
    assert len((tmp_path / "o.aigm.history.csv").read_text().splitlines()) == 2


# split_dataset refuses no manifest by its size: 4 + 4 unsplit entries split
# 3/1/0 a class, and train needs only the train and val splits
def test_train_splits_a_manifest_of_4_plus_4(corpus, tmp_path):
    entries = [ManifestEntry(e.path, e.label)
               for e in Manifest.load(corpus["manifest"]).entries[:8]]
    split = split_dataset(Manifest(entries))
    for name, want in zip(SPLITS, (3, 1, 0)):
        labels = [e.label for e in split.subset(name)]
        assert labels.count(0) == labels.count(1) == want
    Manifest(entries).save(tmp_path / "small.csv")
    assert run(["train", "--arch", "audiocat", "--extractor", "stats-160",
                "--manifest", str(tmp_path / "small.csv"), "--epochs", "1",
                "--out", str(tmp_path / "o.aigm")]) == EXIT_OK
    assert (tmp_path / "o.aigm").exists()


def assert_eval_row(row):
    """Six values in [0, 1] of a split of both classes, on which accuracy
    and AUC are defined; a ratio of 0 / 0 (precision when no clip is
    called AI, say) reads nan."""
    values = row.split(",")
    assert len(values) == 6
    assert "nan" not in (values[0], values[4])
    assert all(v == "nan" or 0.0 <= float(v) <= 1.0 for v in values)


def test_eval_command(corpus, stage1_ckpt, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run(["eval", "--ckpt", str(stage1_ckpt),
                "--manifest", str(corpus["manifest"]),
                "--split", "test", "--out", str(out)])
    captured = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert captured[0] == "acc,prec,recall,f1,auc,spec"
    assert_eval_row(captured[1])
    assert out.read_text().splitlines()[0] == "acc,prec,recall,f1,auc,spec"


def test_eval_scores_the_split_that_train_left_out(corpus, tmp_path, monkeypatch, capsys):
    """A manifest that names no split is split at seed 0, whatever --seed
    is: train reads its train and val rows, and eval's default split is
    the rest.  7 clips a class split 5/1/1."""
    entries = [ManifestEntry(e.path, e.label) for e in Manifest.load(corpus["manifest"]).entries]
    for label in (0, 1):
        path = tmp_path / f"extra{label}.wav"
        save_wav(render_track(label, 120, 4.0, 16000, np.random.default_rng(label)), path)
        entries.append(ManifestEntry(str(path), label))
    manifest, ckpt = tmp_path / "unsplit.csv", tmp_path / "s1.aigm"
    Manifest(entries).save(manifest)
    read, features = [], pipeline.stage1_features
    monkeypatch.setattr(pipeline, "stage1_features",
                        lambda path, extractor: read.append(path) or features(path, extractor))
    assert run(["train", "--arch", "audiocat", "--extractor", "stats-160", "--manifest",
                str(manifest), "--epochs", "1", "--seed", "3", "--out", str(ckpt)]) == EXIT_OK
    left_out = [e for e in entries if e.path not in read]
    assert [e.path for e in left_out] == \
        [e.path for e in split_dataset(Manifest(entries)).subset("test")]
    assert sorted(e.label for e in left_out) == [0, 1]
    capsys.readouterr()
    assert run(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest)]) == EXIT_OK
    score = pipeline.scorer(ckpt)
    report = evaluate([score(e.path).probability for e in left_out], [e.label for e in left_out])
    assert capsys.readouterr().out.splitlines() == [EvalReport.CSV_HEADER, report.csv_row()]


def test_eval_on_an_empty_split_exits_2(corpus, stage1_ckpt, tmp_path, capsys):
    # every row is train or val: "test" must not fall back to all of them
    entries = Manifest.load(corpus["manifest"]).entries
    path = tmp_path / "no_test.csv"
    Manifest([e for e in entries if e.split != "test"]).save(path)
    assert run(["eval", "--ckpt", str(stage1_ckpt), "--manifest", str(path),
                "--split", "test"]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'test' split is empty" in captured.err


def test_eval_on_a_one_class_split_writes_nan(corpus, stage1_ckpt, tmp_path, capsys):
    """A split of class-1 clips only has no ROC-AUC and no specificity:
    their columns read nan, not 0.000000."""
    entries = Manifest.load(corpus["manifest"]).entries
    path, out = tmp_path / "class1.csv", tmp_path / "report.csv"
    Manifest([e for e in entries if e.label == 1]).save(path)
    assert run(["eval", "--ckpt", str(stage1_ckpt), "--manifest", str(path),
                "--out", str(out)]) == EXIT_OK
    header, row = capsys.readouterr().out.splitlines()
    assert header == "acc,prec,recall,f1,auc,spec"
    values = row.split(",")
    assert values[4:] == ["nan", "nan"]
    assert float(values[0]) in (0.0, 1.0) and values[2] == values[0]
    assert out.read_text().splitlines() == [header, row]


def test_predict_segment_mode(corpus, stage1_ckpt, capsys):
    code = run(["predict", "--ckpt", str(stage1_ckpt),
                "--audio", corpus["clip"]])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "probability=" in captured
    assert "label=" in captured


def test_predict_below_min_segment_s_exits_3(stage1_ckpt, tmp_path, capsys):
    """A clip shorter than MIN_SEGMENT_S holds too few log-mel frames for
    stage 1: AnalysisError, exit 3."""
    path = tmp_path / "short.wav"
    save_wav(AudioBuffer(0.1 * np.ones((1, round(0.9 * MIN_SEGMENT_S * 16000))), 16000), path)
    with pytest.raises(AnalysisError):
        pipeline.stage1_features(path, get_extractor("seq-512"))
    assert run(["predict", "--ckpt", str(stage1_ckpt), "--audio", str(path)]) == EXIT_MUSIC
    assert capsys.readouterr().err.startswith("error: ")


def test_predict_missing_ckpt_exits_2(corpus, capsys):
    assert run(["predict", "--ckpt", "/nonexistent.aigm",
                "--audio", corpus["clip"]]) == EXIT_IO


# --stage1-ckpt gives a segtr model its stage 1; a stage-1 model takes none
@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_stage1_ckpt_with_a_stage1_model_exits_2(command, corpus, stage1_ckpt, tmp_path,
                                                  monkeypatch, capsys):
    def no_extraction(*args):
        raise AssertionError("features extracted before --stage1-ckpt was checked")

    monkeypatch.setattr(pipeline, "stage1_features", no_extraction)
    argv = {"train": ["--arch", "audiocat", "--manifest", str(corpus["manifest"]),
                      "--out", str(tmp_path / "o.aigm")],
            "eval": ["--ckpt", str(stage1_ckpt), "--manifest", str(corpus["manifest"])],
            "predict": ["--ckpt", str(stage1_ckpt), "--audio", corpus["clip"]]}[command]
    assert run([command, *argv, "--stage1-ckpt", str(stage1_ckpt)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--stage1-ckpt" in err


def test_predict_segment_mode_on_stage2_ckpt_exits_2(corpus, tmp_path, capsys):
    # a segtr checkpoint scores a track only over a stage-1 checkpoint
    path = tmp_path / "segtr.aigm"
    pipeline.save_model(path, pipeline.build_model("segtr", seed=0), "segtr")
    assert run(["predict", "--ckpt", str(path), "--audio", corpus["clip"]]) == EXIT_IO
    assert capsys.readouterr().err == f"error: {path}: a segtr model needs --stage1-ckpt\n"


def test_checkpoint_without_meta_exits_2(corpus, tmp_path, capsys):
    path = tmp_path / "bare.aigm"
    nn.save_checkpoint(path, pipeline.build_model("segtr", seed=0).state_arrays())
    assert run(["predict", "--ckpt", str(path), "--audio", corpus["clip"]]) == EXIT_IO
    assert capsys.readouterr().err.startswith(
        f"error: {path}: not a loadable aigmdet model (meta holds [], ")


# segtr needs --stage1-ckpt; fxseg cannot take the default seq-512 sequence
# extractor
@pytest.mark.parametrize("arch", ["segtr", "fxseg"])
def test_impossible_stage1_train_exits_2_before_extraction(
        arch, corpus, tmp_path, monkeypatch, capsys):
    def no_extraction(*args):
        raise AssertionError("features extracted before the combination was checked")

    monkeypatch.setattr(pipeline, "stage1_features", no_extraction)
    assert run(["train", "--arch", arch,
                "--manifest", str(corpus["manifest"]),
                "--out", str(tmp_path / "o.aigm")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")


# a manifest whose every entry sits in one split leaves the other empty
@pytest.mark.parametrize("only, empty", [("train", "val"), ("val", "train")])
def test_train_with_an_empty_split_exits_2_before_extraction(
        only, empty, corpus, tmp_path, monkeypatch, capsys):
    def no_extraction(*args):
        raise AssertionError("features extracted before the splits were checked")

    monkeypatch.setattr(pipeline, "stage1_features", no_extraction)
    entries = Manifest.load(corpus["manifest"]).entries
    path = tmp_path / f"all_{only}.csv"
    Manifest([ManifestEntry(e.path, e.label, only) for e in entries]).save(path)
    assert run(["train", "--arch", "audiocat", "--manifest", str(path),
                "--out", str(tmp_path / "o.aigm")]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(empty) in err


def _edit_meta(change):
    """A checkpoint edit: change(meta) on the header's meta, same tensors."""
    def edit(path):
        arrays, meta = nn.load_checkpoint(path)
        change(meta)
        nn.save_checkpoint(path, arrays, meta)
    return edit


def _tensors_of(build):
    """A checkpoint edit: the tensors of the model build() makes, same meta."""
    def edit(path):
        _, meta = nn.load_checkpoint(path)
        nn.save_checkpoint(path, build().state_arrays(), meta)
    return edit


# the sizes an AIGM header recorded beside "arch" and "extractor" before it
# named only those two: a segtr's, as build_model makes it
OLD_SIZES = {"attention": {"d_model": 128, "heads": 4, "ffn_dim": 256},
             "hparams": {"d_in": 128, "n_layers_content": 2, "n_layers_structure": 2,
                         "max_len": 48}}


def _asking(key, **sizes):
    """A checkpoint edit: the meta also holds OLD_SIZES[key], with `sizes`."""
    return _edit_meta(lambda m: m.update({key: {**OLD_SIZES[key], **sizes}}))


def _edit_bytes(change):
    def edit(path):
        path.write_bytes(change(path.read_bytes()))
    return edit


def _with_header(blob, header: bytes) -> bytes:
    """`blob` with its JSON header replaced and the length field updated."""
    size = struct.unpack_from("<I", blob, 8)[0]
    return blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + size:]


def _to_v1(path):
    """Rewrite the weights in the version-1 layout: magic, u32 version,
    u32 count, then per tensor u32 name length, name, u32 rank, u32 dims
    and the float64 payload."""
    arrays, _ = nn.load_checkpoint(path)
    out = [b"AIGM", struct.pack("<II", 1, len(arrays))]
    for name, a in arrays.items():
        encoded = name.encode("utf-8")
        out += [struct.pack(f"<I{len(encoded)}sI{a.ndim}I", len(encoded), encoded,
                            a.ndim, *a.shape), a.astype("<f8").tobytes()]
    path.write_bytes(b"".join(out))


# a segtr checkpoint edited: a meta of more keys than "arch" and "extractor"
# (whatever sizes they ask for), or tensors that are not build_model's
# segtr's, named "<the file's> vs <the model's>"
BAD_CHECKPOINTS = {
    "unknown_arch": _edit_meta(lambda m: m.update(arch="7")),
    "d_model_missing": _edit_meta(lambda m: m.update(attention={"heads": 4, "ffn_dim": 256})),
    "heads_0": _asking("attention", heads=0),
    "heads_3": _asking("attention", heads=3),
    "meta_with_hparams": _edit_meta(lambda m: m.update(OLD_SIZES)),
    "extractor_not_a_string": _edit_meta(lambda m: m.update(extractor=300)),
    "segtr_extractor_not_empty": _edit_meta(lambda m: m.update(extractor="seq-512")),
    "max_len_nan": _asking("hparams", max_len=float("nan")),
    "d_model_64_vs_128_wide_tensors": _tensors_of(lambda: SegmentTransformer(
        d_in=128, cfg=nn.AttentionConfig(d_model=64, heads=4, ffn_dim=256))),
    "fewer_layers_than_tensors": _tensors_of(
        lambda: SegmentTransformer(d_in=128, n_layers_content=1)),
    "more_layers_than_tensors": _tensors_of(
        lambda: SegmentTransformer(d_in=128, n_layers_content=3)),
    "max_len_49_vs_48_rows": _tensors_of(lambda: SegmentTransformer(d_in=128, max_len=49)),
    "segtr_max_len_32": _tensors_of(lambda: SegmentTransformer(d_in=128, max_len=32)),
    "ffn_dim_512_vs_256_wide_tensors": _tensors_of(
        lambda: SegmentTransformer(d_in=128, cfg=nn.AttentionConfig(ffn_dim=512))),
    "header_not_json": _edit_bytes(lambda b: _with_header(b, b"{not json")),
    "header_not_an_object": _edit_bytes(lambda b: _with_header(b, b"[1, 2]")),
    "truncated_payload": _edit_bytes(lambda b: b[:-8]),
    "trailing_bytes": _edit_bytes(lambda b: b + bytes(8)),
    "version_1": _to_v1,
    "version_2": _edit_bytes(lambda b: b[:4] + struct.pack("<I", 2) + b[8:]),
}


@pytest.mark.parametrize("case", BAD_CHECKPOINTS)
def test_malformed_checkpoint_exits_2(case, tracks, stage1_ckpt, tmp_path, monkeypatch,
                                      capsys):
    path = tmp_path / "segtr.aigm"
    pipeline.save_model(path, pipeline.build_model("segtr", seed=0), "segtr")
    BAD_CHECKPOINTS[case](path)
    monkeypatch.setattr(pipeline, "load_wav", lambda wav: pytest.fail(f"read {wav}"))
    assert run(["predict", "--ckpt", str(path), "--stage1-ckpt", str(stage1_ckpt),
                "--audio", tracks["track"]]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("edit", [
    _asking("hparams", n_layers_content=10**6),
    _asking("hparams", max_len=10**7),
    _asking("attention", d_model=2**20, heads=1, ffn_dim=2**20),
], ids=["n_layers_1e6", "max_len_1e7", "d_model_2e20"])
def test_oversized_header_exits_2_without_building_the_model(
        edit, tracks, stage1_ckpt, tmp_path, monkeypatch, capsys):
    """A header that asks for a model far larger than its tensors, as an
    older header could, is refused for its extra key before the model is
    built."""
    class NotBuilt(SegmentTransformer):
        def __init__(self, **kwargs):
            raise AssertionError("model built before its header was checked")

    path = tmp_path / "segtr.aigm"
    pipeline.save_model(path, pipeline.build_model("segtr", seed=0), "segtr")
    edit(path)
    monkeypatch.setitem(pipeline.ARCHS, "segtr", NotBuilt)
    start = time.perf_counter()
    assert run(["predict", "--ckpt", str(path), "--stage1-ckpt", str(stage1_ckpt),
                "--audio", tracks["track"]]) == EXIT_IO
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "not exactly 'arch' and 'extractor'" in err


# a stage-1 checkpoint holding a NaN or an infinity is refused by name
# before any WAV is read, given as --ckpt or as a segtr's --stage1-ckpt
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_non_finite_checkpoint_exits_2(command, value, tracks, stage1_ckpt, tmp_path,
                                       monkeypatch, capsys):
    bad, segtr = tmp_path / "bad.aigm", tmp_path / "segtr.aigm"
    arrays, meta = nn.load_checkpoint(stage1_ckpt)
    arrays["head.bias"][0] = value
    nn.save_checkpoint(bad, arrays, meta)
    pipeline.save_model(segtr, pipeline.build_model("segtr", seed=0), "segtr")
    monkeypatch.setattr(pipeline, "load_wav", lambda wav: pytest.fail(f"read {wav}"))
    source = {"predict": ["--audio", tracks["track"]],
              "eval": ["--manifest", str(tracks["manifest"])]}[command]
    for ckpts in (["--ckpt", str(bad)], ["--ckpt", str(segtr), "--stage1-ckpt", str(bad)]):
        assert run([command, *ckpts, *source]) == EXIT_IO
        assert capsys.readouterr().err == (f"error: {bad}: tensor 'head.bias' holds a NaN "
                                           f"or an infinity\n")


def test_checkpoint_with_key_biases_exits_2(tracks, stage1_ckpt, tmp_path, monkeypatch, capsys):
    """The tensors of a checkpoint written while attention had key biases:
    today's, plus a ...wk.bias beside each ...wk.weight."""
    arrays, meta = nn.load_checkpoint(stage1_ckpt)
    arrays.update({name.replace("wk.weight", "wk.bias"): np.zeros(a.shape[1])
                   for name, a in arrays.items() if name.endswith("wk.weight")})
    path = tmp_path / "key_biases.aigm"
    nn.save_checkpoint(path, arrays, meta)
    monkeypatch.setattr(pipeline, "load_wav", lambda wav: pytest.fail(f"read {wav}"))
    assert run(["predict", "--ckpt", str(path), "--audio", tracks["track"]]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "unexpected ['blocks.0.cross_attn.wk.bias', " in err


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
    code = main(["train", "--arch", "segtr",
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
    assert_eval_row(captured[-1])


def test_predict_full_mode(tracks, stage1_ckpt, stage2_ckpt, capsys):
    code = run(["predict", "--ckpt", str(stage2_ckpt), "--stage1-ckpt", str(stage1_ckpt),
                "--audio", tracks["track"]])
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


# a segtr checkpoint given as a stage 1 is refused by name before any WAV is read
@pytest.mark.parametrize("command", ["train", "eval", "predict", "ssm"])
def test_segtr_as_stage1_ckpt_exits_2(command, tracks, stage2_ckpt, tmp_path, monkeypatch,
                                      capsys):
    monkeypatch.setattr(pipeline, "load_wav", lambda path: pytest.fail(f"read {path}"))
    argv = {"train": ["--arch", "segtr", "--manifest", str(tracks["manifest"]),
                      "--out", str(tmp_path / "o.aigm")],
            "eval": ["--ckpt", str(stage2_ckpt), "--manifest", str(tracks["manifest"])],
            "predict": ["--ckpt", str(stage2_ckpt), "--audio", tracks["track"]],
            "ssm": [tracks["track"], "--out", str(tmp_path / "o")]}[command]
    assert run([command, *argv, "--stage1-ckpt", str(stage2_ckpt)]) == EXIT_IO
    assert capsys.readouterr().err == (f"error: {stage2_ckpt}: a segtr checkpoint "
                                       f"is not a stage-1 model\n")


# train, eval and predict read each WAV through the one pipeline.model_input
@pytest.mark.parametrize("arch, extractor", [("audiocat", "seq-512"), ("fxseg", "stats-160"),
                                             ("segtr", "")])
def test_train_eval_predict_share_model_input(arch, extractor, corpus, tracks, stage1_ckpt,
                                              tmp_path, monkeypatch, capsys):
    calls = []
    model_input = pipeline.model_input

    def recorder(*args):
        calls.append(args[:3])
        return model_input(*args)

    monkeypatch.setattr(pipeline, "model_input", recorder)
    manifest = (tracks if arch == "segtr" else corpus)["manifest"]
    stage1 = ["--stage1-ckpt", str(stage1_ckpt)] if arch == "segtr" else []
    ckpt = tmp_path / f"{arch}.aigm"
    assert run(["train", "--arch", arch, "--manifest", str(manifest), *stage1,
                *(["--extractor", extractor] if extractor else []),
                "--epochs", "1", "--lr", "1e-3", "--out", str(ckpt)]) == EXIT_OK
    assert run(["eval", "--ckpt", str(ckpt), *stage1, "--manifest", str(manifest)]) == EXIT_OK
    capsys.readouterr()
    assert run(["predict", "--ckpt", str(ckpt), *stage1, "--audio", tracks["track"]]) == EXIT_OK
    read_as = (arch, extractor, str(stage1_ckpt) if stage1 else None)
    assert calls == [read_as] * 3
    # predict prints the loaded model's forward on what model_input reads
    model, _, _ = pipeline.load_model(ckpt)
    x = model_input(*read_as, ckpt)(tracks["track"])
    out = model.forward(x) if arch == "segtr" else model.forward([x])[0]
    assert capsys.readouterr().out.startswith(f"probability={out.probability:.6f} ")


# ---------------------------------------------------------------- ssm
def test_ssm_from_wav(corpus, stage1_ckpt, tmp_path, capsys):
    out = tmp_path / "ssm"
    code = run(["ssm", str(corpus["long"]), "--stage1-ckpt", str(stage1_ckpt),
                "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "ssm_size=" in captured
    matrix = np.loadtxt(str(out) + ".csv", delimiter=",")
    assert matrix.shape[0] == matrix.shape[1]
    assert np.allclose(matrix, matrix.T)
    assert (tmp_path / "ssm.pgm").read_bytes().startswith(b"P5\n")


@pytest.fixture(scope="module")
def four_segments(tmp_path_factory):
    """A 30 s render at 140 bpm: 4 whole 4-bar windows of 6.9 s."""
    path = tmp_path_factory.mktemp("ssm") / "track.wav"
    save_wav(render_track(0, 140, 30.0, 16000, np.random.default_rng(0)), path)
    return str(path)


# ssm writes the matrix that stage 2 builds of the same WAV over the same
# stage 1, to the CSV's 9 decimals
@pytest.mark.parametrize("arch, preset", [("audiocat", "seq-512"), ("fxseg", "stats-160")])
def test_ssm_is_the_matrix_stage2_reads(arch, preset, four_segments, tmp_path, monkeypatch,
                                        capsys):
    stage1, segtr = tmp_path / "s1.aigm", tmp_path / "s2.aigm"
    pipeline.save_model(stage1, pipeline.build_model(arch, get_extractor(preset), seed=0),
                        arch, preset)
    pipeline.save_model(segtr, pipeline.build_model("segtr", seed=0), "segtr")
    built, self_similarity = [], models.self_similarity

    def spy(seq):
        built.append(self_similarity(seq))
        return built[-1]

    monkeypatch.setattr(models, "self_similarity", spy)
    out = tmp_path / "ssm"
    assert run(["predict", "--ckpt", str(segtr), "--stage1-ckpt", str(stage1),
                "--audio", four_segments]) == EXIT_OK
    assert run(["ssm", four_segments, "--stage1-ckpt", str(stage1),
                "--out", str(out)]) == EXIT_OK
    (matrix,) = built  # predict's stage 2 built it; ssm read nothing of stage 2
    written = np.loadtxt(str(out) + ".csv", delimiter=",")
    assert written.shape == matrix.shape == (4, 4)
    assert np.abs(written - matrix).max() <= 5e-10
    assert capsys.readouterr().out.splitlines()[-1] == f"ssm_size={len(matrix)}"


# stage 2 reads the first MAX_SEQ_LEN segments of a track, and so does ssm
def test_ssm_of_more_segments_than_stage2_reads(four_segments, stage1_ckpt, tmp_path,
                                                monkeypatch, capsys):
    argv = ["ssm", four_segments, "--stage1-ckpt", str(stage1_ckpt), "--out"]
    assert run([*argv, str(tmp_path / "all")]) == EXIT_OK
    full = np.loadtxt(tmp_path / "all.csv", delimiter=",")
    assert full.shape == (4, 4)
    monkeypatch.setattr(models, "MAX_SEQ_LEN", 2)
    capsys.readouterr()
    assert run([*argv, str(tmp_path / "first")]) == EXIT_OK
    assert capsys.readouterr().out == "ssm_size=2\n"
    assert np.allclose(np.loadtxt(tmp_path / "first.csv", delimiter=","), full[:2, :2],
                       rtol=0, atol=1e-9)
    assert (tmp_path / "first.pgm").read_bytes().startswith(b"P5\n2 2\n255\n")


def test_ssm_needs_stage1_ckpt(corpus, capsys):
    assert run(["ssm", str(corpus["long"])]) == EXIT_USAGE
    assert "--stage1-ckpt" in capsys.readouterr().err


# float32 bit patterns; casting a signalling NaN to float64 warns, and
# log_mel's float32 power of a finite 1e20 overflows
NON_FINITE = {"nan": 0x7FC00000, "signalling_nan": 0x7FA00000, "inf": 0x7F800000,
              "minus_inf": 0xFF800000, "1e20": int(np.float32(1e20).view("<u4"))}


@pytest.mark.parametrize("value", list(NON_FINITE))
@pytest.mark.parametrize("command", ["beats", "ssm"])
def test_non_finite_float32_input_exits_2(command, value, stage1_ckpt, tmp_path, capsys):
    payload = np.zeros(16_000, dtype="<u4")
    payload[100] = NON_FINITE[value]
    path = tmp_path / "in.wav"
    path.write_bytes(raw_wav(3, 1, 32, payload.tobytes()))
    stage1 = ["--stage1-ckpt", str(stage1_ckpt)] if command == "ssm" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([command, str(path), *stage1, "--out", str(tmp_path / "out")]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not list(tmp_path.glob("out*"))


def test_float32_input_at_the_bound_scores(stage1_ckpt, tmp_path, capsys):
    """A float32 WAV whose largest sample is exactly MAX_FLOAT_SAMPLE is
    read and scored to a finite probability, without a numpy warning."""
    row = render_track(0, 120, 4.0, 16000, np.random.default_rng(0)).samples[0]
    row = (row * (MAX_FLOAT_SAMPLE / np.abs(row).max())).astype("<f4")
    assert np.abs(row).max() == MAX_FLOAT_SAMPLE
    path = tmp_path / "loud.wav"
    path.write_bytes(raw_wav(3, 1, 32, row.tobytes()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["predict", "--ckpt", str(stage1_ckpt), "--audio", str(path)]) == EXIT_OK
    probability = float(capsys.readouterr().out.split()[0].removeprefix("probability="))
    assert 0.0 <= probability <= 1.0


def test_full_scale_square_at_44k_scores(stage1_ckpt, tmp_path, capsys):
    """A float32 44.1 kHz WAV of a 1 kHz square at MAX_FLOAT_SAMPLE, which
    resample takes some 20% past that bound (to 39,183), still gets a beat
    grid and a probability, without a numpy warning."""
    t = np.arange(16 * 44100) / 44100
    row = np.where(np.sin(2 * np.pi * 1000 * t) >= 0, MAX_FLOAT_SAMPLE, -MAX_FLOAT_SAMPLE)
    path = tmp_path / "square.wav"
    path.write_bytes(raw_wav(3, 1, 32, row.astype("<f4").tobytes(), rate=44100))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["beats", str(path), "--out", str(tmp_path / "square.csv")]) == EXIT_OK
        assert capsys.readouterr().out.startswith("bpm=")
        assert run(["predict", "--ckpt", str(stage1_ckpt), "--audio", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("probability=")


# each ends in error: and exit 2, not in a numpy ValueError, UnicodeDecodeError,
# csv.Error, "embedded null byte" or wrong-shape tensor traceback
@pytest.mark.parametrize("case", ["beats_odd_wav", "beats_not_wav", "predict_odd_wav",
                                  "train_manifest", "eval_manifest", "train_corrupt_wav",
                                  "eval_corrupt_wav", "experiment_corrupt_wav",
                                  "train_long_field", "eval_nul_path",
                                  "predict_width_mismatch", "eval_width_mismatch",
                                  "train_manifest_header", "predict_preset_mismatch",
                                  "predict_stage1_preset_mismatch",
                                  "predict_fxseg_preset_mismatch",
                                  "predict_removed_preset_mismatch",
                                  "predict_stage1_removed_preset_mismatch",
                                  "predict_vec2048_preset_mismatch",
                                  "predict_stage1_vec2048_preset_mismatch",
                                  "train_manifest_label", "train_manifest_duplicate",
                                  "train_manifest_split", "eval_manifest_split",
                                  "train_manifest_mixed_split", "eval_manifest_mixed_split"])
def test_unreadable_input_exits_2(case, corpus, stage1_ckpt, tmp_path, monkeypatch,
                                  capsys):
    bad_text = tmp_path / "latin1.txt"
    bad_text.write_bytes(b"path,label\nch\xffur.wav,0\n")
    odd = tmp_path / "odd.wav"
    odd.write_bytes(raw_wav(1, 1, 16, b"\x00" * 201))  # PCM16: 100.5 frames
    junk = tmp_path / "junk.wav"  # not a RIFF/WAVE file, first of the train split
    junk.write_bytes(b"garbage")
    corrupt = tmp_path / "corrupt.csv"
    entries = Manifest.load(corpus["manifest"]).entries
    Manifest([ManifestEntry(str(junk), 0, "train"), *entries[1:]]).save(corrupt)
    long_field = tmp_path / "long.csv"  # a path over csv.field_size_limit()
    long_field.write_text("path,label\n" + "x" * 200_000 + ",0\n")
    nul = tmp_path / "nul.csv"
    nul.write_text("path,label,split\na\x00b.wav,0,test\n")
    no_header = tmp_path / "nohdr.csv"
    no_header.write_text("file,label\na.wav,0\n")
    label_2 = tmp_path / "label2.csv"
    label_2.write_text("path,label\na.wav,0\nb.wav,2\n")
    duplicate = tmp_path / "dup.csv"
    duplicate.write_text("path,label\na.wav,0\nb.wav,1\na.wav,1\n")
    bad_split = tmp_path / "split.csv"  # a split other than train, val or test
    bad_split.write_text("path,label,split\na.wav,0,train\nb.wav,1,tset\nc.wav,0,Test\n")
    mixed_split = tmp_path / "mixed.csv"  # a split on some rows only
    mixed_split.write_text("path,label,split\na.wav,0,train\nb.wav,1,val\nc.wav,0\n")
    # a stage 1 of d_model 16, whose vectors no segtr reads: not build_model's
    narrow, segtr = tmp_path / "narrow.aigm", tmp_path / "segtr.aigm"
    pipeline.save_model(narrow, models.AudioCAT(d_enc=N_MELS, cfg=nn.AttentionConfig(
        d_model=16, heads=2, ffn_dim=32)), "audiocat", "seq-512")
    pipeline.save_model(segtr, pipeline.build_model("segtr", seed=0), "segtr")
    # stage-1 models that build_model does not make of their recorded
    # extractor preset: a seq-512 AudioCAT of d_enc 512, as trained before
    # seq-512 gave the 40-wide log-mel frames, an fxseg of a sequence preset,
    # and one of each removed preset, seq-768 and vec-2048
    old_seq512, fxseg = tmp_path / "old_seq512.aigm", tmp_path / "fxseg.aigm"
    pipeline.save_model(old_seq512, models.AudioCAT(d_enc=512), "audiocat", "seq-512")
    pipeline.save_model(fxseg, models.FXSegment(d_enc=512), "fxseg", "seq-512")
    seq768 = tmp_path / "seq768.aigm"
    pipeline.save_model(seq768, models.AudioCAT(d_enc=768), "audiocat", "seq-768")
    vec2048 = tmp_path / "vec2048.aigm"
    pipeline.save_model(vec2048, models.FXSegment(d_enc=2048), "fxseg", "vec-2048")
    widths = ["in_proj.weight: checkpoint (512, 128) vs model (40, 128)"]
    out = str(tmp_path / "out")
    argv, named = {
        "beats_odd_wav": (["beats", str(odd), "--out", out], [f"error: {odd}: "]),
        "beats_not_wav": (["beats", str(junk), "--out", out],
                          [f"error: {junk}: not a RIFF/WAVE file"]),
        "predict_odd_wav": (["predict", "--ckpt", str(stage1_ckpt), "--audio", str(odd)], []),
        "train_manifest": (["train", "--arch", "audiocat", "--manifest", str(bad_text),
                            "--out", out], [bad_text]),
        "eval_manifest": (["eval", "--ckpt", str(stage1_ckpt), "--manifest", str(bad_text)],
                          [bad_text]),
        "train_corrupt_wav": (["train", "--arch", "audiocat", "--manifest", str(corrupt),
                               "--out", out], [f"error: {junk}: not a RIFF/WAVE file"]),
        "eval_corrupt_wav": (["eval", "--ckpt", str(stage1_ckpt), "--manifest", str(corrupt),
                              "--split", "train"], [f"error: {junk}: not a RIFF/WAVE file"]),
        "experiment_corrupt_wav": (experiment_argv(experiment_dir(tmp_path, junk, corpus), 7,
                                                   "--out", out),
                                   [f"error: {junk}: not a RIFF/WAVE file"]),
        "train_long_field": (["train", "--arch", "audiocat", "--manifest", str(long_field),
                              "--out", out], [f"{long_field}, line 2"]),
        "eval_nul_path": (["eval", "--ckpt", str(stage1_ckpt), "--manifest", str(nul)],
                          ["a\\x00b.wav"]),
        "predict_width_mismatch": (["predict", "--ckpt", str(segtr), "--stage1-ckpt",
                                    str(narrow), "--audio", corpus["clip"]],
                                   [f"error: {narrow}: ", "in_proj.weight"]),
        "eval_width_mismatch": (["eval", "--ckpt", str(segtr), "--stage1-ckpt", str(narrow),
                                 "--manifest", str(corpus["manifest"])],
                                [f"error: {narrow}: ", "in_proj.weight"]),
        "train_manifest_header": (["train", "--arch", "audiocat", "--manifest", str(no_header),
                                   "--out", out], [f"error: {no_header}, line 1: "]),
        "predict_preset_mismatch": (["predict", "--ckpt", str(old_seq512), "--audio",
                                     corpus["clip"]], [f"error: {old_seq512}: ", *widths]),
        "predict_stage1_preset_mismatch": (["predict", "--ckpt", str(segtr), "--stage1-ckpt",
                                            str(old_seq512), "--audio", corpus["clip"]],
                                           [f"error: {old_seq512}: ", *widths]),
        "predict_fxseg_preset_mismatch": (["predict", "--ckpt", str(fxseg), "--audio",
                                           corpus["clip"]],
                                          [f"error: {fxseg}: ", "fxseg needs a vector"]),
        "predict_removed_preset_mismatch": (["predict", "--ckpt", str(seq768), "--audio",
                                             corpus["clip"]],
                                            [f"error: {seq768}: ", "'seq-768'"]),
        "predict_stage1_removed_preset_mismatch": (
            ["predict", "--ckpt", str(segtr), "--stage1-ckpt", str(seq768), "--audio",
             corpus["clip"]], [f"error: {seq768}: ", "'seq-768'"]),
        "predict_vec2048_preset_mismatch": (["predict", "--ckpt", str(vec2048), "--audio",
                                             corpus["clip"]],
                                            [f"error: {vec2048}: ", "'vec-2048'"]),
        "predict_stage1_vec2048_preset_mismatch": (
            ["predict", "--ckpt", str(segtr), "--stage1-ckpt", str(vec2048), "--audio",
             corpus["clip"]], [f"error: {vec2048}: ", "'vec-2048'"]),
        "train_manifest_label": (["train", "--arch", "audiocat", "--manifest", str(label_2),
                                  "--out", out], [f"error: {label_2}, line 3: "]),
        "train_manifest_duplicate": (["train", "--arch", "audiocat", "--manifest",
                                      str(duplicate), "--out", out],
                                     [f"error: {duplicate}, line 4: duplicate path "
                                      f"{tmp_path / 'a.wav'}"]),
        "train_manifest_split": (["train", "--arch", "audiocat", "--manifest", str(bad_split),
                                  "--out", out], [f"error: {bad_split}, line 3: ", "'tset'"]),
        "eval_manifest_split": (["eval", "--ckpt", str(stage1_ckpt), "--manifest",
                                 str(bad_split)], [f"error: {bad_split}, line 3: ", "'tset'"]),
        "train_manifest_mixed_split": (["train", "--arch", "audiocat", "--manifest",
                                        str(mixed_split), "--out", out],
                                       [f"error: {mixed_split}, line 4: "]),
        "eval_manifest_mixed_split": (["eval", "--ckpt", str(stage1_ckpt), "--manifest",
                                       str(mixed_split)], [f"error: {mixed_split}, line 4: "]),
    }[case]
    if case.endswith("_mismatch"):  # refused before any WAV is read
        monkeypatch.setattr(pipeline, "load_wav", lambda path: pytest.fail(f"read {path}"))
    assert run(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    for name in named:
        assert str(name) in captured.err
    assert not list(tmp_path.glob("out*"))  # no checkpoint or CSV


# ---------------------------------------------------------------- experiment
def experiment_argv(data_dir, tracks_per_class, *flags):
    return ["experiment", "--data-dir", str(data_dir),
            "--tracks-per-class", str(tracks_per_class), "--duration-s", "24",
            "--seeds", "0", "--epochs", "1", *flags]


def experiment_dir(tmp_path, first, corpus):
    """A corpus directory whose manifest.csv names `first`, then the
    corpus fixture's 13 WAVs: 7 tracks a class, so it splits."""
    data_dir = tmp_path / "experiment"
    data_dir.mkdir()
    paths = [first, *(e.path for e in Manifest.load(corpus["manifest"]).entries),
             corpus["long"]]
    Manifest([ManifestEntry(str(p), i % 2) for i, p in enumerate(paths)]).save(
        data_dir / "manifest.csv")
    return data_dir


def test_experiment_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "results.csv"
    monkeypatch.chdir(tmp_path)
    assert run(experiment_argv("corpus", 7, "--out", str(out))) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("seed 0: ") for line in lines) == 1
    assert any(line.startswith("mean: accuracy=") for line in lines)
    rows = out.read_text().splitlines()
    assert rows[0] == "seed,accuracy,auc"
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "mean"]
    # a second run, from inside the corpus, reuses it (its manifest names
    # each WAV relative to itself), and says that the size flags go unread
    monkeypatch.chdir(tmp_path / "corpus")
    assert run(experiment_argv(".", 64)) == EXIT_OK, capsys.readouterr().err
    assert ("reusing manifest.csv (14 tracks); "
            "--tracks-per-class and --duration-s are not read"
            in capsys.readouterr().out.splitlines())


def assert_refused_before_rendering(code, capsys, data_dir) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_IO
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not list(data_dir.glob("*.wav"))
    return lines[0]


# below 7 tracks a class (6 is the largest), the 8/1/1 split's test share is
# empty; the error names the count and the least, 7
@pytest.mark.parametrize("tracks_per_class", [4, 6])
def test_experiment_too_small_corpus_exits_2(tracks_per_class, tmp_path, capsys):
    code = run(experiment_argv(tmp_path / "corpus", tracks_per_class))
    line = assert_refused_before_rendering(code, capsys, tmp_path / "corpus")
    assert line.startswith(f"error: --tracks-per-class {tracks_per_class}: ")
    assert "at least 7 tracks a class" in line


# a duration render_track cannot make a track of
@pytest.mark.parametrize("duration", ["nan", "inf", "-5", "0"])
def test_experiment_bad_duration_exits_2(duration, tmp_path, capsys):
    argv = experiment_argv(tmp_path / "corpus", 7)
    argv[argv.index("--duration-s") + 1] = duration
    line = assert_refused_before_rendering(run(argv), capsys, tmp_path / "corpus")
    assert line.startswith(f"error: --duration-s {float(duration)}: ")


# a training setting TrainConfig refuses, on a corpus large enough to split
@pytest.mark.parametrize("flags", [["--epochs", "0"], ["--lr", "-1"], ["--seeds", "0", "-1"]],
                         ids=["epochs_0", "lr_negative", "seeds_negative"])
def test_experiment_bad_training_setting_exits_2(flags, tmp_path, capsys):
    code = run(experiment_argv(tmp_path / "corpus", 7, *flags))
    assert_refused_before_rendering(code, capsys, tmp_path / "corpus")


# a reused corpus whose 80/10/10 split leaves a class without a track in
# some split, or a seed TrainConfig refuses: exit 2, before any WAV is read
@pytest.mark.parametrize("labels, flags, named", [
    ([1] * 10, [], "{manifest}: class 0 has 0 tracks, so its 'train' split is empty"),
    ([0] * 10 + [1] * 3, [], "{manifest}: class 1 has 3 tracks, so its 'val' split is empty"),
    ([0, 1] * 7, ["--seeds", "0", "-1"], "seed must be >= 0, got -1"),
], ids=["one_class", "10_plus_3", "seeds_negative"])
def test_experiment_refuses_a_reused_corpus_before_reading(labels, flags, named, tmp_path,
                                                           monkeypatch, capsys):
    monkeypatch.setattr(experiment, "load_wav", lambda path: pytest.fail(f"read {path}"))
    data_dir = tmp_path / "reused"
    data_dir.mkdir()
    manifest = data_dir / "manifest.csv"
    Manifest([ManifestEntry(f"missing{i}.wav", y) for i, y in enumerate(labels)]).save(manifest)
    code = run(experiment_argv(data_dir, 7, *flags))
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_IO
    assert len(err) == 1 and err[0].startswith(f"error: {named.format(manifest=manifest)}")


def test_experiment_silent_track_exits_3(corpus, tmp_path, capsys):
    silent = tmp_path / "silence.wav"
    save_wav(AudioBuffer(np.zeros((1, 16000 * 8)), 16000), silent)
    out = tmp_path / "out.csv"
    code = run(experiment_argv(experiment_dir(tmp_path, silent, corpus), 7, "--out", str(out)))
    assert code == EXIT_MUSIC
    err = capsys.readouterr().err
    assert err.startswith(f"error: {silent}: ") and len(err.splitlines()) == 1
    assert not out.exists()


def diverge(*args, **kwargs):
    raise DivergedLoss("loss is nan at epoch 1")


# train and the experiment's both stages go through training.train
@pytest.mark.parametrize("command", ["train", "experiment"])
def test_diverged_loss_exits_4(command, corpus, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    if command == "train":
        monkeypatch.setattr(cli, "train", diverge)
        argv = ["train", "--arch", "audiocat", "--manifest", str(corpus["manifest"]),
                "--out", str(out)]
    else:
        monkeypatch.setattr(experiment, "train", diverge)
        argv = experiment_argv(tmp_path / "corpus", 7, "--out", str(out))
    assert run(argv) == EXIT_TRAIN
    assert capsys.readouterr().err == "error: loss is nan at epoch 1\n"
    assert not list(tmp_path.glob("out*"))  # no checkpoint, history or CSV


def test_a_real_divergence_exits_4_with_one_line(corpus, tmp_path, capsys):
    """At lr 1e300 the first steps overflow: one error line, and no numpy
    warning before it."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["train", "--arch", "audiocat", "--extractor", "stats-160",
                    "--manifest", str(corpus["manifest"]), "--lr", "1e300",
                    "--out", str(out)]) == EXIT_TRAIN
    assert re.fullmatch(r"error: (validation )?loss is (nan|inf) at epoch \d+\n",
                        capsys.readouterr().err)
    assert not list(tmp_path.glob("out*"))


# the one exit-code table of main: each family of failure, raised by any
# command, is one line of its message and its exit code
@pytest.mark.parametrize("error, code", [(InputError, EXIT_IO), (AnalysisError, EXIT_MUSIC),
                                         (DivergedLoss, EXIT_TRAIN), (OSError, EXIT_IO)])
def test_main_maps_each_failure_to_its_exit_code(error, code, monkeypatch, capsys):
    def fail(args):
        raise error(f"{error.__name__} of {args.audio}")
    monkeypatch.setitem(cli._COMMANDS, "beats", fail)
    assert run(["beats", "x.wav"]) == code
    assert capsys.readouterr().err == f"error: {error.__name__} of x.wav\n"


# ---------------------------------------------------------------- training settings
def test_train_flags_are_the_train_config_fields(capsys):
    parser = cli.make_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    train = sub.choices["train"]
    not_settings = {"help", "arch", "manifest", "preset", "extractor", "stage1_ckpt", "out"}
    settings = {a.dest: a for a in train._actions if a.dest not in not_settings}
    assert set(settings) == {f.name for f in fields(TrainConfig)}
    for f in fields(TrainConfig):
        assert settings[f.name].option_strings == [f"--{f.name.replace('_', '-')}"]
        assert settings[f.name].default is None
        assert settings[f.name].type is type(f.default)
    assert run(["train", "--arch", "audiocat", "--manifest", "m.csv", "--out", "o",
                "--config", "settings.cfg"]) == EXIT_USAGE
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_seed_defaults_to_0():
    argv = ["train", "--arch", "audiocat", "--manifest", "m.csv", "--out", "o"]
    parser = cli.make_parser()
    assert cli._train_config(parser.parse_args(argv)).seed == 0
    assert cli._train_config(parser.parse_args(argv + ["--seed", "5"])).seed == 5


# each flag is applied over the preset, one at a time
def test_train_flags_override_the_preset():
    argv = ["train", "--arch", "audiocat", "--manifest", "m.csv", "--out", "o",
            "--preset", "paper-s1-focal", "--lr", "0.01", "--weight-decay", "0",
            "--early-stop-patience", "2"]
    cfg = cli._train_config(cli.make_parser().parse_args(argv))
    assert cfg == replace(PRESETS["paper-s1-focal"], lr=0.01, weight_decay=0.0,
                          early_stop_patience=2)


# each ends in error: naming the flag and its value before any feature is
# extracted, not in an InputError or ValueError traceback
@pytest.mark.parametrize("flags, named", [
    (["--epochs", "0"], "--epochs 0"),
    (["--batch-size", "0"], "--batch-size 0"),
    (["--loss", "mse"], "--loss mse"),
    (["--lr", "nan"], "--lr nan"),
    (["--lr", "-0.001"], "--lr -0.001"),
    (["--lr", "0"], "--lr 0.0"),
    (["--seed", "-1"], "--seed -1"),
    (["--weight-decay", "-1"], "--weight-decay -1.0"),
    (["--weight-decay", "inf"], "--weight-decay inf"),
    (["--early-stop-patience", "0"], "--early-stop-patience 0"),
], ids=["epochs_0", "batch_size_0", "loss_mse", "lr_nan", "lr_negative", "lr_0",
        "seed_negative", "weight_decay_negative", "weight_decay_inf", "early_stop_patience_0"])
def test_bad_training_setting_exits_2(flags, named, corpus, tmp_path, monkeypatch, capsys):
    def no_extraction(*args):
        raise AssertionError("features extracted before the settings were checked")

    monkeypatch.setattr(pipeline, "stage1_features", no_extraction)
    assert run(["train", "--arch", "audiocat", "--manifest", str(corpus["manifest"]),
                "--out", str(tmp_path / "o.aigm"), *flags]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ")


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


def test_readme_cli_examples_run(corpus, tracks, tmp_path, monkeypatch, capsys):
    """Each README example, in order, on the test fixtures: the input files
    it names are the corpus and tracks fixtures, its outputs land in a
    fresh directory, and training runs one epoch."""
    inputs = {"data/clips.csv": str(corpus["manifest"]), "clip.wav": corpus["clip"],
              "data/tracks.csv": str(tracks["manifest"]), "track.wav": tracks["track"]}
    monkeypatch.chdir(tmp_path)
    for command in _readme_commands():
        argv = [inputs.get(arg, arg) for arg in shlex.split(command)[1:]]
        if argv[0] == "train":
            argv += ["--epochs", "1"]
        elif argv[0] == "experiment":  # 7 tracks a class of 24 s, one seed
            argv += ["--tracks-per-class", "7", "--duration-s", "24", "--seeds", "0",
                     "--epochs", "1"]
        assert run(argv) == EXIT_OK, (command, capsys.readouterr().err)
