"""Synthetic coupled cardio-respiratory recordings with known ground truth.

Each heartbeat is a blend of two prototype morphologies; the blend weight
follows lung volume, flow sign, or nothing, so the downstream grouping
analysis has a construction whose correct answer is known in advance.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .respiration import FlowPhase, VolumePhase, label_events, phases
from .signal_core import Channel, Recording, rms

DEFAULT_MORPH_LENGTH_S = 0.25
_RESP_FREQ = 0.25         # Hz
_RESP_AMPLITUDE = 0.5     # L/s, peak flow
_HEART_RATE_BPM = 66.0
_HR_JITTER_PCT = 5.0      # uniform +/- percent on each beat period


class Coupling(enum.Enum):
    VOLUME = "volume"
    FLOW = "flow"
    NONE = "none"


@dataclass(frozen=True)
class SynthConfig:
    duration_s: float = 120.0
    fs: float = 320.0
    coupling: Coupling = Coupling.VOLUME
    snr_db: float = 20.0             # math.inf for noiseless
    seed: int = 0

    def __post_init__(self):
        for name in ("duration_s", "fs"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if self.duration_s <= 0:
            raise InputError("duration_s must be > 0")
        if self.fs <= 0:
            raise InputError("fs must be > 0")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise InputError(f"snr_db must be a number or inf (noiseless), got {self.snr_db}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GroundTruth:
    beat_indices: list[int]
    alpha: list[float]
    flow_phase: list[FlowPhase]
    volume_phase: list[VolumePhase]

    def to_json(self, path):
        payload = {
            "beat_indices": self.beat_indices,
            "alpha": self.alpha,
            "flow_phase": [p.value for p in self.flow_phase],
            "volume_phase": [p.value for p in self.volume_phase],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def _morph_length(fs: float) -> int:
    """Samples in each of default_morphologies(fs)."""
    return max(8, int(round(DEFAULT_MORPH_LENGTH_S * fs)))


def default_morphologies(fs: float):
    """Two unit-RMS damped-oscillation bursts with a shared 20 Hz carrier.

    The shared carrier keeps cross-correlation alignment between blends
    honest (peak at zero lag); the envelopes and a second harmonic make
    the shapes clearly distinct for the dissimilarity metrics.
    """
    t = np.arange(_morph_length(fs)) / fs
    m_low = np.sin(2 * np.pi * 20 * t) * np.exp(-t / 0.05)
    m_high = (np.sin(2 * np.pi * 20 * t) + 0.8 * np.sin(2 * np.pi * 40 * t)) * np.exp(-t / 0.03)
    return m_low / rms(m_low), m_high / rms(m_high)


@functools.lru_cache(maxsize=1, typed=True)  # typed: Channel.fs keeps the type of fs
def gen_respiration(duration_s: float, fs: float):
    """Sinusoidal flow and its closed-form integral (lung volume), read-only,
    so that recordings of one length and rate can share them."""
    n = int(round(duration_s * fs))
    w = 2 * np.pi * _RESP_FREQ
    # in place, so that no more than two arrays of the recording's length
    # are held: the values of A * sin(w * t) and (A / w) * (1 - cos(w * t))
    phase = np.arange(n) / fs
    phase *= w
    flow = np.sin(phase)
    flow *= _RESP_AMPLITUDE
    volume = np.cos(phase, out=phase)
    np.subtract(1.0, volume, out=volume)
    volume *= _RESP_AMPLITUDE / w
    flow.flags.writeable = volume.flags.writeable = False
    return Channel(flow, fs, "flow"), Channel(volume, fs, "volume")


def gen_recording(cfg: SynthConfig):
    """Generate a (Recording, GroundTruth) pair.

    Beats sit at quasi-regular intervals (uniform period jitter); beat k is
    (1-alpha_k)*m_low + alpha_k*m_high with alpha driven by the configured
    coupling at the beat instant. White Gaussian noise is added to the SCG
    channel to hit snr_db (RMS over the whole record). The Recording holds
    two channels, scg and flow, as one that ingest_csv reads, and the beat
    indices as its ecg_beats, where the ECG spikes; it keeps no dense ECG.
    The flow channel is shared, read-only, by every recording of the same
    duration and rate.
    """
    length = _morph_length(cfg.fs)
    n = int(round(cfg.duration_s * cfg.fs))
    period = cfg.fs * 60.0 / _HEART_RATE_BPM
    jitter = _HR_JITTER_PCT / 100.0
    if period * (1 - jitter) < length:
        raise InputError("beat overlap: heart period shorter than morphology")
    if n < 3 * length:  # the first beat needs a morphology-length margin on each side
        raise InputError(f"duration_s = {cfg.duration_s:g} is too short to hold one beat")
    m_low, m_high = default_morphologies(cfg.fs)

    rng = np.random.default_rng(cfg.seed)
    flow_ch, volume_ch = gen_respiration(cfg.duration_s, cfg.fs)

    # cumsum adds the jittered periods in sequence, as a loop would. A twin of
    # rng draws one for every beat that could fit; rng skips one per beat placed
    jitters = np.random.default_rng(cfg.seed).uniform(-jitter, jitter,
                                                      size=int(n / (period * (1 - jitter))))
    pos = np.cumsum([float(length), *(period * (1.0 + jitters))])
    starts = np.rint(pos[pos + length <= n - length]).astype(int)
    rng.uniform(-jitter, jitter, size=len(starts))
    centers = starts + length // 2
    inspiring, high_volume = label_events(centers, flow_ch.samples, volume_ch.samples)

    if cfg.coupling is Coupling.VOLUME:  # closed-form volume normalized to [0, 1]
        alphas = 0.5 * (1.0 - np.cos(2 * np.pi * _RESP_FREQ * (centers / cfg.fs)))
    elif cfg.coupling is Coupling.FLOW:
        alphas = inspiring.astype(float)
    else:
        alphas = np.full(len(centers), 0.5)
    a = alphas[:, None]
    scg = np.zeros(n)
    # beats never overlap (period * (1 - jitter) >= length): no sample is added to twice
    scg[starts[:, None] + np.arange(length)] += (1 - a) * m_low + a * m_high

    if math.isfinite(cfg.snr_db):
        noise_rms = rms(scg) * 10 ** (-cfg.snr_db / 20.0)
        scg = scg + rng.normal(0.0, noise_rms, size=n)

    channels = {"scg": Channel(scg, cfg.fs, "scg"), "flow": flow_ch}
    return (Recording(channels, f"synth-{cfg.coupling.value}-seed{cfg.seed}", centers),
            GroundTruth(centers.tolist(), alphas.tolist(), *phases(inspiring, high_volume)))
