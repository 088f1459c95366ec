import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigmdet.audio import AudioBuffer, load_wav, save_wav
from aigmdet.data import (SPLITS, Manifest, ManifestEntry, _apportion, read_lines,
                          render_track, split_dataset, synth_dataset)
from aigmdet.errors import InputError
from aigmdet.experiment import _check_splits


def make_manifest(n0, n1):
    entries = [ManifestEntry(f"a{i}.wav", 0) for i in range(n0)]
    entries += [ManifestEntry(f"b{i}.wav", 1) for i in range(n1)]
    return Manifest(entries)


# ---------------------------------------------------------------- manifest
def test_manifest_round_trip(tmp_path):
    for splits in (["train", "val", "test", "train", "val"], [""] * 5):
        m = make_manifest(3, 2)
        for e, split in zip(m.entries, splits):
            e.split = split
        path = tmp_path / "m.csv"
        m.save(path)
        loaded = Manifest.load(path)
        # a relative path is read against the manifest's directory
        assert [(e.path, e.label, e.split) for e in loaded.entries] == \
               [(str(tmp_path / e.path), e.label, e.split) for e in m.entries]


def test_manifest_reads_relative_paths_against_its_directory(tmp_path, monkeypatch):
    """A hand-made manifest naming its WAVs relative to itself reads them
    from any working directory; a duplicate is found on the resolved path."""
    data = tmp_path / "data"
    (data / "more").mkdir(parents=True)
    for name in ("clip0.wav", "more/clip1.wav"):
        save_wav(AudioBuffer(np.zeros((1, 160)), 16000), data / name)
    (data / "clips.csv").write_text("path,label\nclip0.wav,0\nmore/clip1.wav,1\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    for manifest in (data / "clips.csv", "../data/clips.csv"):
        entries = Manifest.load(manifest).entries
        assert [e.label for e in entries] == [0, 1]
        assert [load_wav(e.path).frames for e in entries] == [160, 160]
    (data / "dup.csv").write_text("path,label\nclip0.wav,0\n./clip0.wav,1\n")
    with pytest.raises(InputError, match="line 3: duplicate path .*clip0.wav"):
        Manifest.load(data / "dup.csv")


def test_manifest_rejects_duplicates_and_bad_labels():
    with pytest.raises(InputError):
        Manifest([ManifestEntry("x.wav", 0), ManifestEntry("x.wav", 1)])
    with pytest.raises(InputError):
        Manifest([ManifestEntry("x.wav", 2)])


@pytest.mark.parametrize("split", ["tset", "Test"])
def test_manifest_rejects_unknown_split(split, tmp_path):
    """An entry of any other split would drop out of every train, val and
    test subset without a word."""
    path = tmp_path / "m.csv"
    path.write_text(f"path,label,split\na.wav,0,train\nb.wav,1,{split}\n")
    with pytest.raises(InputError, match=f"{path}, line 3: .*{split!r}"):
        Manifest.load(path)
    with pytest.raises(InputError, match=repr(split)):
        Manifest([ManifestEntry("b.wav", 1, split)])


# the rows of a manifest with a split on some rows, and the line of the
# first row that breaks the rule
MIXED_SPLITS = {
    "named_then_empty": ("a.wav,0,train\nb.wav,1\nc.wav,0,val\n", 3),
    "empty_then_named": ("a.wav,0\nb.wav,1,\nc.wav,0,test\n", 4),
    "4_of_12_named": ("".join(f"t{i}.wav,{i % 2},{'train' if i < 2 else 'val'}\n"
                              for i in range(4))
                      + "".join(f"u{i}.wav,{i % 2}\n" for i in range(8)), 6),
}


@pytest.mark.parametrize("case", list(MIXED_SPLITS))
def test_manifest_splits_on_every_row_or_none(case, tmp_path):
    """A row without a split among rows with one, or the other way round,
    would drop out of every train, val and test subset without a word."""
    rows, line = MIXED_SPLITS[case]
    path = tmp_path / "m.csv"
    path.write_text("path,label,split\n" + rows)
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}, line {line}: .*"
                                        f"every row names a split, or none does"):
        Manifest.load(path)
    entries = [ManifestEntry(p, int(y), s[0] if s else "")
               for p, y, *s in (row.split(",") for row in rows.split())]
    with pytest.raises(InputError, match="every row names a split, or none does"):
        Manifest(entries)


def test_manifest_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("file,class\nx.wav,0\n")
    with pytest.raises(InputError):
        Manifest.load(path)


# spreadsheet editors save "CSV UTF-8" with a byte-order mark
def test_read_lines_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfpath,label\r\nx.wav,0\r\n")
    assert read_lines(path) == ["path,label\r\n", "x.wav,0\r\n"]


def test_manifest_subset():
    m = make_manifest(4, 0)
    m.entries[0].split = m.entries[1].split = "train"
    m.entries[2].split = "val"
    assert len(m.subset("train")) == 2
    assert len(m.subset("test")) == 0


# ---------------------------------------------------------------- apportion
def test_apportion_exact():
    assert _apportion(100, (8, 1, 1)) == [80, 10, 10]
    assert _apportion(50, (8, 1, 1)) == [40, 5, 5]


def test_apportion_remainders_favor_earlier_bins():
    # 11 * 0.8 = 8.8, 11 * 0.1 = 1.1 twice -> 9/1/1 (train takes leftover)
    assert _apportion(11, (8, 1, 1)) == [9, 1, 1]
    assert sum(_apportion(13, (8, 1, 1))) == 13


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 500))
def test_apportion_sums_and_order(n):
    counts = _apportion(n, (8, 1, 1))
    assert sum(counts) == n
    assert all(c >= 0 for c in counts)


# ---------------------------------------------------------------- split
def test_split_8_1_1_stratified():
    m = make_manifest(50, 50)
    out = split_dataset(m)
    assert len(out.subset("train")) == 80
    assert len(out.subset("val")) == 10
    assert len(out.subset("test")) == 10
    for name, want in (("train", 40), ("val", 5), ("test", 5)):
        labels = [e.label for e in out.subset(name)]
        assert labels.count(0) == want and labels.count(1) == want


def test_split_deterministic_and_seed_sensitive():
    m = make_manifest(30, 30)
    a = split_dataset(m, seed=1)
    b = split_dataset(m, seed=1)
    c = split_dataset(m, seed=2)
    assert [e.split for e in a.entries] == [e.split for e in b.entries]
    assert [e.split for e in a.entries] != [e.split for e in c.entries]


# run_experiment's corpus check is the split itself: it accepts exactly
# the label counts whose every split holds a track of each class
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_experiment_check_is_the_split(n0, n1, seed):
    split = split_dataset(make_manifest(n0, n1), seed=seed)
    splits_both = all({e.label for e in split.subset(name)} == {0, 1} for name in SPLITS)
    try:
        _check_splits([0] * n0 + [1] * n1, "corpus")
    except InputError as exc:
        assert not splits_both
        assert str(exc).startswith("corpus: class ")
        assert "at least 7 tracks a class" in str(exc)
    else:
        assert splits_both


def test_split_preserves_paths_and_labels():
    m = make_manifest(20, 20)
    out = split_dataset(m)
    assert [(e.path, e.label) for e in out.entries] == \
           [(e.path, e.label) for e in m.entries]


# ---------------------------------------------------------------- synthesis
def test_render_track_shape_and_range():
    rng = np.random.default_rng(0)
    buf = render_track(0, 120, 16.0, 16000, rng)
    assert buf.frames == 16 * 16000
    assert buf.channels == 1
    assert np.abs(buf.samples).max() <= 0.8 + 1e-9


def test_render_track_class0_deterministic():
    a = render_track(0, 120, 8.0, 16000, np.random.default_rng(0))
    b = render_track(0, 120, 8.0, 16000, np.random.default_rng(99))
    # class 0 draws nothing from the rng
    assert np.array_equal(a.samples, b.samples)


def test_render_track_classes_differ():
    a = render_track(0, 120, 16.0, 16000, np.random.default_rng(0))
    b = render_track(1, 120, 16.0, 16000, np.random.default_rng(0))
    assert not np.array_equal(a.samples, b.samples)


def test_render_track_has_expected_tempo():
    from aigmdet.beats import estimate_tempo
    from aigmdet.dsp import log_mel, onset_envelope
    buf = render_track(0, 124, 20.0, 16000, np.random.default_rng(0))
    env = onset_envelope(log_mel(buf.samples[0]))
    assert abs(estimate_tempo(env) - 124) <= 2.0


def test_synth_dataset_layout(tmp_path):
    m = synth_dataset(tmp_path / "ds", n_per_class=4, seed=0, duration_s=8.0)
    assert len(m.entries) == 8
    assert sum(e.label for e in m.entries) == 4
    assert (tmp_path / "ds" / "manifest.csv").exists()
    for e in m.entries:
        buf = load_wav(e.path)
        assert buf.frames == 8 * 16000


def test_synth_dataset_reloads_from_any_working_directory(tmp_path, monkeypatch):
    """A corpus rendered into a relative directory names each WAV relative
    to its manifest, so the manifest it returns and the one it wrote read
    the same WAVs from its own directory and from any other."""
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    rendered = synth_dataset("corpus", n_per_class=1, seed=0, duration_s=1.0)
    assert [e.path for e in rendered.entries] == ["corpus/class0_000_bpm132.wav",
                                                  "corpus/class1_000_bpm124.wav"]
    wavs = [load_wav(e.path).samples.tobytes() for e in rendered.entries]
    for cwd, manifest in ((".", "corpus/manifest.csv"), ("corpus", "manifest.csv"),
                          ("elsewhere", "../corpus/manifest.csv")):
        monkeypatch.chdir(tmp_path / cwd)
        entries = Manifest.load(manifest).entries
        assert [e.label for e in entries] == [0, 1]
        assert [load_wav(e.path).samples.tobytes() for e in entries] == wavs


def test_synth_dataset_byte_stable(tmp_path):
    digests = []
    for name in ("a", "b"):
        m = synth_dataset(tmp_path / name, n_per_class=4, seed=7, duration_s=4.0)
        h = hashlib.sha256()
        for e in m.entries:
            with open(e.path, "rb") as fh:
                h.update(fh.read())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]


# SHA-256 of the corpus bytes: any change to the synthesis arithmetic, or
# to the order of its operations, changes them.  10.3 s at 100 bpm ends
# inside a bar, and 1.0 s at 92 bpm and 0.5 s at 140 bpm are shorter than
# one bar.
RENDER_DIGESTS = {
    (0, 116, 16.0, 16000): "02608f311b251c59a39b6d417bc91b245ac67f99fc28e403e87f0f96e67dc38a",
    (1, 116, 16.0, 16000): "4d8e5aeac3dac5d7b716a605f1e97678a2605475ce0b13c528483db835a276f4",
    (0, 132, 8.0, 44100): "48e7a7ee59a91f9e35c6c62d6ad9c47727085ded402ae4f503e194799c905b00",
    (1, 132, 8.0, 44100): "cfc6d542b7595a56aed8426eceac425b17ed5a0003d95eb010d3a5d095b13fba",
    (1, 100, 10.3, 16000): "f27d831b0976df9d8ddb65a3953c51ec0c306f762742b80a2ceab5ecbe2a1f91",
    (0, 92, 1.0, 16000): "7a4d13aa62c249c3c0dc70816fe8a18e22aa2f6fc4faf33c13b2478173ac9a7e",
    (1, 140, 0.5, 16000): "231ab1296c5f953c2978b2ba7c5c32138ff494d53ce02c9b51d76cd098d05f0d",
}

CORPUS_DIGESTS = {
    "class0_000_bpm132.wav": "33b22004079052572eb76f1242ac6449d4938c0977ad7e1f376ab6bc17b0de72",
    "class0_001_bpm124.wav": "4854fb2c7a03c8960470434ea960413a3e39149fe27d12a603bb336b953ca4ef",
    "class0_002_bpm116.wav": "a57cdc9bacf2bd7be3ffbfe8ab8ec3107fd45bb6cec98033142a97836a0c5cf6",
    "class0_003_bpm100.wav": "68cd7b89d9aeabf965c8cdfb980ccfd947bf7038dfc5bc7685132835df8c7b10",
    "class1_000_bpm108.wav": "3cb9a3bc86a35f7a2cebca02fd6fd1e6c90c2f558893fe0bb695e8c6f2f81ee8",
    "class1_001_bpm100.wav": "225c5044f0ecea60c4387627c7b040792b3bcbfef23a3fe35741d98bd53e6301",
    "class1_002_bpm92.wav": "f1f0b1750ee8e26dec4f0aad2453360567b75733fa1ab3bdd6f676255ab3c297",
    "class1_003_bpm116.wav": "bc5460804adee23b0831e1ca319e90b843df4ed5b1818eb5e9effbd0b5bf7576",
    "manifest.csv": "c311ac6cb49e3542458cf7a3b36e0ed8ffb374e9290a4d6b05831c80a78c4c6b",
}


@pytest.mark.parametrize("case", list(RENDER_DIGESTS), ids=str)
def test_render_track_bytes_are_pinned(case):
    samples = render_track(*case, np.random.default_rng(3)).samples
    assert hashlib.sha256(samples.tobytes()).hexdigest() == RENDER_DIGESTS[case]


def test_synth_dataset_bytes_are_pinned(tmp_path):
    # the manifest names each WAV by its file name, whatever the directory
    synth_dataset(tmp_path / "corpus", n_per_class=4, seed=0, duration_s=8.0)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "corpus").iterdir()}
    assert got == CORPUS_DIGESTS
