"""Dataset manifests, stratified splitting, and the synthetic corpus
generator used for desk-scale experiments.

Synthetic class 0 ("human-like") tracks have a coherent AABA bar layout
with regular downbeat accents; class 1 ("ai-like") tracks draw from the
same timbre pool but shuffle bar order and randomize accents, which
destroys the structural repetition the stage-2 model keys on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, save_wav


class DataError(Exception):
    pass


class TooFewEntries(DataError):
    pass


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file (a manifest or a --config file), line
    ends as written; DataError names a file that is not UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


@dataclass
class ManifestEntry:
    path: str
    label: int
    split: str = ""  # train / val / test, or empty


@dataclass
class Manifest:
    entries: list = field(default_factory=list)
    name: str = "dataset"

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.path in seen:
                raise DataError(f"duplicate path {e.path}")
            seen.add(e.path)
            if e.label not in (0, 1):
                raise DataError(f"label must be 0 or 1, got {e.label}")

    def subset(self, split: str) -> list:
        return [e for e in self.entries if e.split == split]

    def subsets(self, *splits: str) -> list[list]:
        """subset() of each named split; DataError names the first empty one."""
        for split in splits:
            if not self.subset(split):
                raise DataError(f"{self.name}: the {split!r} split is empty")
        return [self.subset(split) for split in splits]

    def save(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "label", "split"])
            for e in self.entries:
                writer.writerow([e.path, e.label, e.split])

    @staticmethod
    def load(path) -> "Manifest":
        reader = csv.reader(read_lines(path))
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
        if not rows or [h.strip() for h in rows[0][1][:2]] != ["path", "label"]:
            raise DataError(f"{path}, line 1: manifest must start with header "
                            f"path,label[,split]")
        entries = []
        for line, row in rows[1:]:
            if not row:
                continue
            where = f"{path}, line {line}"
            if len(row) < 2:
                raise DataError(f"{where}: expected path,label[,split], got {row!r}")
            try:
                label = int(row[1])
            except ValueError:
                raise DataError(f"{where}: label must be 0 or 1, "
                                f"got {row[1]!r}") from None
            split = row[2].strip() if len(row) > 2 else ""
            entries.append(ManifestEntry(row[0], label, split))
        return Manifest(entries, name=Path(path).stem)


def _apportion(n: int, ratios: tuple) -> list[int]:
    """Largest-remainder apportionment of n items into len(ratios) bins."""
    total = sum(ratios)
    quotas = [n * r / total for r in ratios]
    counts = [int(np.floor(q)) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    leftover = n - sum(counts)
    # ties broken toward earlier bins (train before val before test)
    order = sorted(range(len(ratios)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def split_dataset(manifest: Manifest, ratios: tuple = (8, 1, 1), seed: int = 0) -> Manifest:
    """Stratified, seeded 3-way split with largest-remainder sizing."""
    if len(manifest.entries) < 10:
        raise TooFewEntries(f"need >= 10 entries, got {len(manifest.entries)}")
    rng = np.random.default_rng(seed)
    split_names = ("train", "val", "test")
    assigned = {}
    for label in (0, 1):
        idx = [i for i, e in enumerate(manifest.entries) if e.label == label]
        if not idx:
            continue
        perm = rng.permutation(len(idx))
        counts = _apportion(len(idx), ratios)
        pos = 0
        for name, count in zip(split_names, counts):
            for j in perm[pos:pos + count]:
                assigned[idx[j]] = name
            pos += count
    entries = [ManifestEntry(e.path, e.label, assigned[i])
               for i, e in enumerate(manifest.entries)]
    return Manifest(entries, name=manifest.name)


# ----------------------------------------------------------------------
# synthetic corpus
_SECTION_ROOTS = {"A": 220.0, "B": 293.66}
_PARTIAL_AMPS = (0.30, 0.15, 0.08)
_CLICK_FREQ = 1800.0
_CLICK_DECAY = 90.0
_CLICK_LEN_S = 0.03
_PLAIN_BEAT_AMP = 0.45
_ACCENT_AMP = 1.0


def _render_click(rate: int, amp: float) -> np.ndarray:
    t = np.arange(int(_CLICK_LEN_S * rate)) / rate
    return amp * np.exp(-t * _CLICK_DECAY) * np.sin(2 * np.pi * _CLICK_FREQ * t)


def _render_bar(root: float, accent_beat: int, accent_amp: float,
                bpm: float, rate: int) -> np.ndarray:
    beat_len = 60.0 / bpm
    n = int(round(4 * beat_len * rate))
    t = np.arange(n) / rate
    bar = np.zeros(n)
    for harmonic, amp in enumerate(_PARTIAL_AMPS, start=1):
        bar += amp * np.sin(2 * np.pi * root * harmonic * t)
    # light per-beat amplitude envelope on the tone
    env = 0.6 + 0.4 * np.abs(np.sin(np.pi * t / beat_len))
    bar *= env
    for beat in range(4):
        amp = accent_amp if beat == accent_beat else _PLAIN_BEAT_AMP
        click = _render_click(rate, amp)
        start = int(round(beat * beat_len * rate))
        end = min(n, start + len(click))
        bar[start:end] += click[:end - start]
    fade = min(64, n // 4)
    ramp = np.linspace(0.0, 1.0, fade)
    bar[:fade] *= ramp
    bar[-fade:] *= ramp[::-1]
    return bar


def _bar_plan(label: int, bpm: float, duration_s: float,
              rng: np.random.Generator) -> list[tuple[str, int, float]]:
    """(section, accent beat, accent amp) of each bar of a track; class 1
    shuffles bar order and accents."""
    bar_len = 240.0 / bpm
    # enough whole 4-bar units to cover the target; excess is cropped
    n_units = max(1, int(np.ceil(duration_s / (4 * bar_len))))
    unit_pattern = ["AABA"[i % 4] for i in range(n_units)]
    bar_types = [u for u in unit_pattern for _ in range(4)]

    if label == 0:
        accents = [(0, _ACCENT_AMP)] * len(bar_types)
    else:
        rng.shuffle(bar_types)
        accents = [(int(rng.integers(4)), float(rng.uniform(0.3, 1.4)))
                   for _ in bar_types]
    return [(s, beat, amp) for s, (beat, amp) in zip(bar_types, accents)]


def render_track(label: int, bpm: float, duration_s: float, rate: int,
                 rng: np.random.Generator) -> AudioBuffer:
    """One synthetic track of _bar_plan's bars, peak-normalised to 0.8."""
    audio = np.zeros(int(round(duration_s * rate)))
    # bars past the end are cropped, but still count towards the peak
    peak, pos = 1e-9, 0
    for section, beat, amp in _bar_plan(label, bpm, duration_s, rng):
        bar = _render_bar(_SECTION_ROOTS[section], beat, amp, bpm, rate)
        peak = max(peak, bar.max(), -bar.min())
        dst = audio[pos:pos + len(bar)]
        dst[:] = bar[:len(dst)]
        pos += len(bar)
    audio *= 0.8
    audio /= peak
    return AudioBuffer(audio[None, :], rate)


def synth_dataset(out_dir, n_per_class: int, seed: int = 0,
                  duration_s: float = 64.0, rate: int = 16000,
                  bpm_choices: tuple = (92, 100, 108, 116, 124, 132, 140)) -> Manifest:
    """Generate class-0/class-1 WAVs plus a manifest; byte-stable per seed."""
    if n_per_class < 4:
        raise DataError("need at least 4 tracks per class")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    for label in (0, 1):
        for i in range(n_per_class):
            bpm = float(bpm_choices[rng.integers(len(bpm_choices))])
            track = render_track(label, bpm, duration_s, rate, rng)
            name = f"class{label}_{i:03d}_bpm{int(bpm)}.wav"
            path = out_dir / name
            save_wav(track, path)
            entries.append(ManifestEntry(str(path), label))
    manifest = Manifest(entries, name=out_dir.name)
    manifest.save(out_dir / "manifest.csv")
    return manifest
