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
from .errors import InputError

SPLITS = ("train", "val", "test")


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file (a manifest), line ends as written,
    less a leading byte-order mark; InputError names a file that is not
    UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from None


@dataclass
class ManifestEntry:
    path: str
    label: int
    split: str = ""  # one of SPLITS, or empty

    def check(self, seen: set, first: "ManifestEntry"):
        """InputError unless the label is 0 or 1, the split one of SPLITS or
        empty, and named if and only if the manifest's `first` entry names
        one (every row names a split, or none does), and the path not in
        `seen`, which it then joins."""
        if self.label not in (0, 1):
            raise InputError(f"label must be 0 or 1, got {self.label!r}")
        if self.split not in ("", *SPLITS):
            raise InputError(f"split must be train, val, test or empty, got {self.split!r}")
        if bool(self.split) != bool(first.split):
            raise InputError(f"split {self.split!r}, but {first.split!r} on the first row: "
                             f"every row names a split, or none does")
        if self.path in seen:
            raise InputError(f"duplicate path {self.path}")
        seen.add(self.path)


@dataclass
class Manifest:
    entries: list = field(default_factory=list)
    name: str = "dataset"

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            e.check(seen, self.entries[0])

    def subset(self, split: str) -> list:
        return [e for e in self.entries if e.split == split]

    def subsets(self, *splits: str) -> list[list]:
        """subset() of each named split, of split_dataset's split at seed 0
        if no row names one; InputError names the first empty one."""
        manifest = self if any(e.split for e in self.entries) else split_dataset(self)
        for split in splits:
            if not manifest.subset(split):
                raise InputError(f"{self.name}: the {split!r} split is empty")
        return [manifest.subset(split) for split in splits]

    def save(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "label", "split"])
            for e in self.entries:
                writer.writerow([e.path, e.label, e.split])

    @staticmethod
    def load(path) -> "Manifest":
        """The manifest in the CSV file `path`; a relative WAV path is read
        against the file's own directory, and duplicates are found among
        the paths so resolved."""
        reader = csv.reader(read_lines(path))
        try:
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise InputError(f"{path}, line {reader.line_num}: {exc}") from None
        if not rows or [h.strip() for h in rows[0][1][:2]] != ["path", "label"]:
            raise InputError(f"{path}, line 1: manifest must start with header "
                             f"path,label[,split]")
        entries, seen = [], set()
        for line, row in rows[1:]:
            if not row:
                continue
            try:
                if len(row) < 2:
                    raise InputError(f"expected path,label[,split], got {row!r}")
                try:
                    label = int(row[1])
                except ValueError:
                    label = row[1]
                entry = ManifestEntry(str(Path(path).parent / row[0]), label,
                                      row[2].strip() if len(row) > 2 else "")
                entry.check(seen, entries[0] if entries else entry)
            except InputError as exc:
                raise InputError(f"{path}, line {line}: {exc}") from None
            entries.append(entry)
        return Manifest(entries, name=str(path))


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


def split_counts(n: int) -> list[int]:
    """The (train, val, test) counts split_dataset gives a class of n entries."""
    return _apportion(n, (8, 1, 1))


def split_dataset(manifest: Manifest, seed: int = 0) -> Manifest:
    """Stratified, seeded 8:1:1 train/val/test split of each class, sized by
    split_counts; a split may come out empty."""
    rng = np.random.default_rng(seed)
    assigned = {}
    for label in (0, 1):
        idx = [i for i, e in enumerate(manifest.entries) if e.label == label]
        if not idx:
            continue
        perm = rng.permutation(len(idx))
        names = [s for s, n in zip(SPLITS, split_counts(len(idx))) for _ in range(n)]
        assigned.update((idx[j], name) for j, name in zip(perm, names))
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
_SYNTH_TEMPI = (92, 100, 108, 116, 124, 132, 140)


def _section_tone(root: float, t: np.ndarray, env: np.ndarray) -> np.ndarray:
    """A bar of section tone: the partials of `root` at times `t`, under the
    per-beat envelope `env`."""
    tone = np.zeros(len(t))
    for harmonic, amp in enumerate(_PARTIAL_AMPS, start=1):
        tone += amp * np.sin(2 * np.pi * root * harmonic * t)
    tone *= env
    return tone


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
    """One synthetic track of _bar_plan's bars, peak-normalised to 0.8.

    All bars have one length, and every bar of a section starts as the same
    tone, so each section's tone is computed once a track.  A bar is a copy
    of that tone plus a click on each beat (the accent beat's at its own
    amplitude), with a fade of up to 64 samples at both ends.  Bars past
    the end are cropped, but still count towards the peak."""
    # the output first: allocated after the bar-sized arrays below, a 3-minute
    # track did not reuse the heap space glibc's malloc kept from the last
    # one, and rendering 7 in a row peaked 17 MB higher in resident memory
    audio = np.zeros(int(round(duration_s * rate)))
    plan = _bar_plan(label, bpm, duration_s, rng)
    beat_len = 60.0 / bpm
    n = int(round(4 * beat_len * rate))
    t = np.arange(n) / rate
    # light per-beat amplitude envelope on the tone
    env = 0.6 + 0.4 * np.abs(np.sin(np.pi * t / beat_len))
    tones = {s: _section_tone(root, t, env) for s, root in _SECTION_ROOTS.items()}
    t_click = np.arange(int(_CLICK_LEN_S * rate)) / rate
    decay = np.exp(-t_click * _CLICK_DECAY)
    carrier = np.sin(2 * np.pi * _CLICK_FREQ * t_click)
    plain_click = _PLAIN_BEAT_AMP * decay * carrier
    starts = [int(round(beat * beat_len * rate)) for beat in range(4)]
    fade = min(64, n // 4)
    ramp = np.linspace(0.0, 1.0, fade)

    bar = np.empty(n)
    peak = 1e-9
    for i, (section, accent_beat, accent_amp) in enumerate(plan):
        bar[:] = tones[section]
        for beat, start in enumerate(starts):
            click = accent_amp * decay * carrier if beat == accent_beat else plain_click
            end = min(n, start + len(click))
            bar[start:end] += click[:end - start]
        bar[:fade] *= ramp
        bar[-fade:] *= ramp[::-1]
        peak = max(peak, bar.max(), -bar.min())
        dst = audio[i * n:(i + 1) * n]
        dst[:] = bar[:len(dst)]
    audio *= 0.8
    audio /= peak
    return AudioBuffer(audio[None, :], rate)


def synth_dataset(out_dir, n_per_class: int, seed: int = 0,
                  duration_s: float = 64.0) -> Manifest:
    """16 kHz class-0/class-1 WAVs at _SYNTH_TEMPI plus out_dir/manifest.csv,
    which names each WAV by its file name, relative to the manifest;
    byte-stable per seed.  Returns Manifest.load of that file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    for label in (0, 1):
        for i in range(n_per_class):
            bpm = float(_SYNTH_TEMPI[rng.integers(len(_SYNTH_TEMPI))])
            track = render_track(label, bpm, duration_s, 16000, rng)
            name = f"class{label}_{i:03d}_bpm{int(bpm)}.wav"
            save_wav(track, out_dir / name)
            entries.append(ManifestEntry(name, label))
    Manifest(entries).save(out_dir / "manifest.csv")
    return Manifest.load(out_dir / "manifest.csv")
