"""The three readers of outside files (load_wav, load_precomputed and
Manifest.load) on truncated, byte-edited and arbitrary input, and on
manifest fields and WAV paths that hold control characters or run long:
each either reads the file or raises its documented error, which the CLI
maps to exit 2.  Any other exception fails the test."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aigmdet.audio import AudioBuffer, AudioError, load_wav
from aigmdet.data import DataError, Manifest
from aigmdet.extractors import EmbeddingFileError, load_precomputed

from util import raw_wav, wav_bytes


_rng = np.random.default_rng(0)
VALID = {
    "pcm16": wav_bytes(AudioBuffer(_rng.uniform(-1, 1, (2, 50)), 16000)),
    "float32": raw_wav(3, 1, 32, _rng.uniform(-1, 1, 60).astype("<f4").tobytes(), 22050),
    "emb1": b"EMB1" + struct.pack("<III", 1, 3, 4) + _rng.normal(size=(3, 4)).astype("<f4").tobytes(),
    "manifest": "path,label,split\nchœur.wav,0,train\nb.wav,1,test\n".encode("utf-8"),
}
# each reader and the errors it may raise
READERS = {"pcm16": (load_wav, AudioError), "float32": (load_wav, AudioError),
           "emb1": (load_precomputed, EmbeddingFileError),
           "manifest": (Manifest.load, DataError)}
_DATA_SIZE_AT = 40  # offset of the data chunk's size in a 44-byte WAV header

fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _read_only_documented_errors(kind, blob, path):
    reader, errors = READERS[kind]
    path.write_bytes(blob)
    try:
        reader(path)
    except errors:
        pass


@pytest.mark.parametrize("kind", list(READERS))
@fuzz
@given(cut=st.integers(0, 300))
def test_truncated(kind, cut, tmp_path):
    _read_only_documented_errors(kind, VALID[kind][:cut], tmp_path / kind)


@pytest.mark.parametrize("kind", list(READERS))
@fuzz
@given(edits=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                      min_size=1, max_size=4))
# a data chunk that is not whole frames: 199 bytes of PCM16 or float32, 238 of float32
@example(edits=[(_DATA_SIZE_AT, 199)])
@example(edits=[(_DATA_SIZE_AT, 238)])
def test_byte_edited(kind, edits, tmp_path):
    blob = bytearray(VALID[kind])
    for at, value in edits:
        blob[at % len(blob)] = value
    _read_only_documented_errors(kind, bytes(blob), tmp_path / kind)


@pytest.mark.parametrize("kind", list(READERS))
@fuzz
@given(tail=st.binary(max_size=300), keep=st.integers(0, 64))
def test_arbitrary_bytes(kind, tail, keep, tmp_path):
    # keep a prefix of the valid file so the tail reaches past the magic
    _read_only_documented_errors(kind, VALID[kind][:keep] + tail, tmp_path / kind)


# text with NUL and other control characters.  A field or path is a drawn
# piece repeated: hypothesis draws no string as long as csv.field_size_limit()
# (131,072 characters) or the 255-byte name limit of most file systems
piece = st.text(st.characters(max_codepoint=0x7f) | st.characters(), min_size=1, max_size=4)
repeats = st.sampled_from([1, 3, 100, 140_000])


@fuzz
@given(rows=st.lists(st.tuples(piece, repeats, st.sampled_from(["0", "1", "x"]), piece),
                     min_size=1, max_size=3))
@example(rows=[("x", 140_000, "0", "train")])
@example(rows=[("a\x00b.wav", 1, "1", "\r")])
@example(rows=[("0", 1, "0", "\ud800")])
def test_manifest_fields(rows, tmp_path):
    text = "path,label,split\n" + "".join(
        f"{path * n},{label},{split}\n" for path, n, label, split in rows)
    # a lone surrogate has no UTF-8 form; surrogatepass writes the bytes it would
    # have, which the reader must refuse as not UTF-8
    _read_only_documented_errors("manifest", text.encode("utf-8", "surrogatepass"),
                                 tmp_path / "m.csv")


@fuzz
@given(name=piece.filter(lambda name: "/" not in name), n=repeats)  # stay in tmp_path
@example(name="a\x00b.wav", n=1)
def test_wav_paths(name, n, tmp_path):
    try:
        load_wav(tmp_path / (name * n))
    except AudioError:
        pass
