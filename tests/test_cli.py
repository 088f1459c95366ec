import argparse
import shlex
import struct
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from aigmdet import cli, models, nn, pipeline
from aigmdet.audio import AudioBuffer, load_wav, save_wav
from aigmdet.cli import EXIT_IO, EXIT_MUSIC, EXIT_OK, EXIT_USAGE, main
from aigmdet.data import Manifest, ManifestEntry, render_track
from aigmdet.extractors import EmbeddingSequence, get_extractor
from aigmdet.models import SegmentTransformer

from util import raw_wav

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


def test_predict_segment_mode(corpus, stage1_ckpt, capsys):
    code = run(["predict", "--ckpt", str(stage1_ckpt),
                "--audio", corpus["clip"]])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "probability=" in captured
    assert "label=" in captured


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
    assert capsys.readouterr().err == f"error: {path}: a segtr checkpoint needs --stage1-ckpt\n"


def test_checkpoint_without_meta_exits_2(corpus, tmp_path, capsys):
    path = tmp_path / "bare.aigm"
    nn.save_checkpoint(path, pipeline.build_model("segtr", seed=0).state_arrays())
    assert run(["predict", "--ckpt", str(path), "--audio", corpus["clip"]]) == EXIT_IO
    assert "KeyError: 'arch'" in capsys.readouterr().err


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


BAD_CHECKPOINTS = {
    "unknown_arch": _edit_meta(lambda m: m.update(arch="7")),
    "d_model_missing": _edit_meta(lambda m: m["attention"].pop("d_model")),
    "heads_0": _edit_meta(lambda m: m["attention"].update(heads=0)),
    "heads_3": _edit_meta(lambda m: m["attention"].update(heads=3)),
    "d_model_64_vs_128_wide_tensors": _edit_meta(lambda m: m["attention"].update(d_model=64)),
    "extractor_not_a_string": _edit_meta(lambda m: m.update(extractor=300)),
    "max_len_nan": _edit_meta(lambda m: m["hparams"].update(max_len=float("nan"))),
    "fewer_layers_than_tensors": _edit_meta(lambda m: m["hparams"].update(n_layers_content=1)),
    "more_layers_than_tensors": _edit_meta(lambda m: m["hparams"].update(n_layers_content=3)),
    "max_len_49_vs_48_rows": _edit_meta(lambda m: m["hparams"].update(max_len=49)),
    "ffn_dim_512_vs_256_wide_tensors": _edit_meta(lambda m: m["attention"].update(ffn_dim=512)),
    "header_not_json": _edit_bytes(lambda b: _with_header(b, b"{not json")),
    "header_not_an_object": _edit_bytes(lambda b: _with_header(b, b"[1, 2]")),
    "truncated_payload": _edit_bytes(lambda b: b[:-8]),
    "trailing_bytes": _edit_bytes(lambda b: b + bytes(8)),
    "version_1": _to_v1,
}


@pytest.mark.parametrize("case", BAD_CHECKPOINTS)
def test_malformed_checkpoint_exits_2(case, tracks, stage1_ckpt, tmp_path, capsys):
    path = tmp_path / "segtr.aigm"
    pipeline.save_model(path, pipeline.build_model("segtr", seed=0), "segtr")
    BAD_CHECKPOINTS[case](path)
    assert run(["predict", "--ckpt", str(path), "--stage1-ckpt", str(stage1_ckpt),
                "--audio", tracks["track"]]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("change", [
    lambda m: m["hparams"].update(n_layers_content=10**6),
    lambda m: m["hparams"].update(max_len=10**7),
    lambda m: m["attention"].update(d_model=2**20, heads=1, ffn_dim=2**20),
], ids=["n_layers_1e6", "max_len_1e7", "d_model_2e20"])
def test_oversized_header_exits_2_without_building_the_model(
        change, tracks, stage1_ckpt, tmp_path, monkeypatch, capsys):
    """A header asking for a model far larger than its tensors is refused
    before the model is built."""
    class NotBuilt(SegmentTransformer):
        def __init__(self, **kwargs):
            raise AssertionError("model built before its header was checked")

    path = tmp_path / "segtr.aigm"
    pipeline.save_model(path, pipeline.build_model("segtr", seed=0), "segtr")
    _edit_meta(change)(path)
    monkeypatch.setitem(pipeline.ARCHS, "segtr", NotBuilt)
    start = time.perf_counter()
    assert run(["predict", "--ckpt", str(path), "--stage1-ckpt", str(stage1_ckpt),
                "--audio", tracks["track"]]) == EXIT_IO
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "the header asks for" in err


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
    values = [float(v) for v in captured[-1].split(",")]
    assert len(values) == 6 and all(0.0 <= v <= 1.0 for v in values)


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


# a segtr reads the first max_len segments: all of the long track's, or 1 of them
@pytest.mark.parametrize("max_len", [32, 1])
def test_segtr_of_any_max_len_scores(max_len, corpus, tracks, stage1_ckpt, tmp_path,
                                     capsys):
    path = tmp_path / "segtr.aigm"
    pipeline.save_model(path, SegmentTransformer(d_in=128, max_len=max_len, seed=0), "segtr")
    args = ["--ckpt", str(path), "--stage1-ckpt", str(stage1_ckpt)]
    assert run(["eval", *args, "--manifest", str(tracks["manifest"])]) == EXIT_OK
    assert run(["predict", *args, "--audio", str(corpus["long"])]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()[-1]
    stage1, _, preset = pipeline.load_model(stage1_ckpt)
    stage2, _, _ = pipeline.load_model(path)
    buf = load_wav(corpus["long"])
    seq = models.track_to_sequence(pipeline.analysis_buffer(buf),
                                   pipeline.analyze_beats(buf).grid,
                                   stage1, get_extractor(preset))
    assert 2 <= len(seq.vectors) < 32
    first = EmbeddingSequence(seq.vectors[:max_len], seq.mask[:max_len])
    assert printed.startswith(f"probability={stage2.forward(first).probability:.6f} ")


# a segtr checkpoint given as a stage 1 is refused by name, not run
@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_segtr_as_stage1_ckpt_exits_2(command, tracks, stage2_ckpt, tmp_path, capsys):
    argv = {"train": ["--arch", "segtr", "--manifest", str(tracks["manifest"]),
                      "--out", str(tmp_path / "o.aigm")],
            "eval": ["--ckpt", str(stage2_ckpt), "--manifest", str(tracks["manifest"])],
            "predict": ["--ckpt", str(stage2_ckpt), "--audio", tracks["track"]]}[command]
    assert run([command, *argv, "--stage1-ckpt", str(stage2_ckpt)]) == EXIT_IO
    assert capsys.readouterr().err == (f"error: {stage2_ckpt}: a segtr checkpoint "
                                       f"is not a stage-1 model\n")


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


# float32 bit patterns; casting a signalling NaN to float64 warns
NON_FINITE = {"nan": 0x7FC00000, "signalling_nan": 0x7FA00000, "inf": 0x7F800000}


@pytest.mark.parametrize("value", list(NON_FINITE))
@pytest.mark.parametrize("command", ["beats", "ssm"])
def test_non_finite_float32_input_exits_2(command, value, tmp_path, capsys):
    payload = np.zeros(16_000, dtype="<u4")
    payload[100] = NON_FINITE[value]
    path = tmp_path / ("in.wav" if command == "beats" else "in.emb")
    path.write_bytes(raw_wav(3, 1, 32, payload.tobytes()) if command == "beats" else
                     b"EMB1" + struct.pack("<III", 1, 4000, 4) + payload.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("out*"))


# each ends in error: and exit 2, not in a numpy ValueError, UnicodeDecodeError,
# csv.Error, "embedded null byte" or ShapeMismatch traceback
@pytest.mark.parametrize("case", ["beats_odd_wav", "predict_odd_wav", "train_manifest",
                                  "eval_manifest", "train_config", "ssm_emb1_dim_0",
                                  "train_long_field", "eval_nul_path",
                                  "predict_width_mismatch", "eval_width_mismatch",
                                  "train_manifest_header"])
def test_unreadable_input_exits_2(case, corpus, stage1_ckpt, tmp_path, monkeypatch,
                                  capsys):
    bad_text = tmp_path / "latin1.txt"
    bad_text.write_bytes(b"path,label\nch\xffur.wav,0\n")
    emb = tmp_path / "d0.emb"
    emb.write_bytes(b"EMB1" + struct.pack("<III", 1, 3, 0))  # 3 vectors of dim 0
    odd = tmp_path / "odd.wav"
    odd.write_bytes(raw_wav(1, 1, 16, b"\x00" * 201))  # PCM16: 100.5 frames
    long_field = tmp_path / "long.csv"  # a path over csv.field_size_limit()
    long_field.write_text("path,label\n" + "x" * 200_000 + ",0\n")
    nul = tmp_path / "nul.csv"
    nul.write_text("path,label,split\na\x00b.wav,0,test\n")
    no_header = tmp_path / "nohdr.csv"
    no_header.write_text("file,label\na.wav,0\n")
    # a stage 1 of d_model 16 under a segtr that reads d_in 128
    narrow, segtr = tmp_path / "narrow.aigm", tmp_path / "segtr.aigm"
    pipeline.save_model(narrow, models.AudioCAT(d_enc=512, cfg=nn.AttentionConfig(
        d_model=16, heads=2, ffn_dim=32)), "audiocat", "seq-512")
    pipeline.save_model(segtr, pipeline.build_model("segtr", seed=0), "segtr")
    out = str(tmp_path / "out")
    argv, named = {
        "beats_odd_wav": (["beats", str(odd), "--out", out], []),
        "predict_odd_wav": (["predict", "--ckpt", str(stage1_ckpt), "--audio", str(odd)], []),
        "train_manifest": (["train", "--arch", "audiocat", "--manifest", str(bad_text),
                            "--out", out], [bad_text]),
        "eval_manifest": (["eval", "--ckpt", str(stage1_ckpt), "--manifest", str(bad_text)],
                          [bad_text]),
        "train_config": (["train", "--arch", "audiocat", "--manifest", str(corpus["manifest"]),
                          "--config", str(bad_text), "--out", out], [bad_text]),
        "ssm_emb1_dim_0": (["ssm", str(emb), "--out", out], []),
        "train_long_field": (["train", "--arch", "audiocat", "--manifest", str(long_field),
                              "--out", out], [f"{long_field}, line 2"]),
        "eval_nul_path": (["eval", "--ckpt", str(stage1_ckpt), "--manifest", str(nul)],
                          ["a\\x00b.wav"]),
        "predict_width_mismatch": (["predict", "--ckpt", str(segtr), "--stage1-ckpt",
                                    str(narrow), "--audio", corpus["clip"]], [narrow, segtr]),
        "eval_width_mismatch": (["eval", "--ckpt", str(segtr), "--stage1-ckpt", str(narrow),
                                 "--manifest", str(corpus["manifest"])], [narrow, segtr]),
        "train_manifest_header": (["train", "--arch", "audiocat", "--manifest", str(no_header),
                                   "--out", out], [f"error: {no_header}, line 1: "]),
    }[case]
    if case.endswith("_width_mismatch"):  # refused before any WAV is read
        monkeypatch.setattr(pipeline, "load_wav", lambda path: pytest.fail(f"read {path}"))
    assert run(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    for name in named:
        assert str(name) in captured.err


# ---------------------------------------------------------------- config plumbing
def make_args(**kw):
    defaults = dict(preset="paper-s1-bce", config=None, epochs=None,
                    batch_size=None, lr=None, seed=0)
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


def test_seed_defaults_to_0():
    argv = ["train", "--arch", "audiocat", "--manifest", "m.csv", "--out", "o"]
    parser = cli.make_parser()
    assert cli._train_config(parser.parse_args(argv)).seed == 0
    assert cli._train_config(parser.parse_args(argv + ["--seed", "5"])).seed == 5


# each ends in error: naming the key (and the file) before any feature is
# extracted, not in a TrainingError or ValueError traceback
@pytest.mark.parametrize("flags, config, named", [
    (["--epochs", "0"], None, "--epochs 0"),
    (["--batch-size", "0"], None, "--batch-size 0"),
    ([], "loss=mse\n", "loss=mse in "),
    ([], "epochs=abc\n", "epochs=abc in "),
], ids=["epochs_0", "batch_size_0", "config_loss_mse", "config_epochs_abc"])
def test_bad_training_setting_exits_2(flags, config, named, corpus, tmp_path,
                                      monkeypatch, capsys):
    def no_extraction(*args):
        raise AssertionError("features extracted before the settings were checked")

    monkeypatch.setattr(pipeline, "stage1_features", no_extraction)
    if config is not None:
        (tmp_path / "cfg").write_text(config)
        flags = ["--config", str(tmp_path / "cfg")]
        named += str(tmp_path / "cfg")
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
        assert run(argv) == EXIT_OK, (command, capsys.readouterr().err)
