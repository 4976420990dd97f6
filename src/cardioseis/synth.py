"""Synthetic coupled cardio-respiratory recordings with known ground truth.

Each heartbeat is a blend of two prototype morphologies; the blend weight
follows lung volume, flow sign, or nothing, so the downstream grouping
analysis has a construction whose correct answer is known in advance.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .respiration import FlowPhase, VolumePhase
from .signal_core import Channel, Recording, rms

DEFAULT_MORPH_LENGTH_S = 0.25


class Coupling(enum.Enum):
    VOLUME = "volume"
    FLOW = "flow"
    NONE = "none"


@dataclass(frozen=True)
class SynthConfig:
    duration_s: float = 120.0
    fs: float = 320.0
    resp_freq: float = 0.25          # Hz
    resp_amplitude: float = 0.5      # L/s
    heart_rate_bpm: float = 66.0
    hr_jitter_pct: float = 5.0       # uniform +/- percent on each beat period
    coupling: Coupling = Coupling.VOLUME
    coupling_strength: float = 1.0   # alpha_max in [0, 1]
    snr_db: float = 20.0             # math.inf for noiseless
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise InputError("duration_s must be > 0")
        if self.fs <= 0:
            raise InputError("fs must be > 0")
        if not 0 < self.resp_freq < self.heart_rate_bpm / 60.0:
            raise InputError("resp_freq must be positive and below the heart rate")
        if not 0 <= self.coupling_strength <= 1:
            raise InputError("coupling_strength must be in [0, 1]")
        if math.isnan(self.snr_db):
            raise InputError("snr_db must not be NaN")


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

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        return cls(
            beat_indices=[int(i) for i in payload["beat_indices"]],
            alpha=[float(a) for a in payload["alpha"]],
            flow_phase=[FlowPhase(p) for p in payload["flow_phase"]],
            volume_phase=[VolumePhase(p) for p in payload["volume_phase"]],
        )


def default_morphologies(fs: float, length_s: float = DEFAULT_MORPH_LENGTH_S):
    """Two unit-RMS damped-oscillation bursts with a shared 20 Hz carrier.

    The shared carrier keeps cross-correlation alignment between blends
    honest (peak at zero lag); the envelopes and a second harmonic make
    the shapes clearly distinct for the dissimilarity metrics.
    """
    n = max(8, int(round(length_s * fs)))
    t = np.arange(n) / fs
    m_low = np.sin(2 * np.pi * 20 * t) * np.exp(-t / 0.05)
    m_high = (np.sin(2 * np.pi * 20 * t) + 0.8 * np.sin(2 * np.pi * 40 * t)) * np.exp(-t / 0.03)
    return m_low / rms(m_low), m_high / rms(m_high)


def gen_respiration(cfg: SynthConfig):
    """Sinusoidal flow and its closed-form integral (lung volume)."""
    n = int(round(cfg.duration_s * cfg.fs))
    t = np.arange(n) / cfg.fs
    w = 2 * np.pi * cfg.resp_freq
    flow = cfg.resp_amplitude * np.sin(w * t)
    volume = (cfg.resp_amplitude / w) * (1.0 - np.cos(w * t)) if cfg.resp_amplitude else np.zeros(n)
    return Channel(flow, cfg.fs, "flow"), Channel(volume, cfg.fs, "volume")


def _alpha_at(cfg: SynthConfig, flow_val: float, t: float) -> float:
    if cfg.coupling is Coupling.VOLUME:
        # closed-form volume normalized to [0, 1]
        frac = 0.5 * (1.0 - np.cos(2 * np.pi * cfg.resp_freq * t))
    elif cfg.coupling is Coupling.FLOW:
        frac = 1.0 if flow_val > 0 else 0.0
    else:
        frac = 0.5
    return cfg.coupling_strength * float(frac)


def gen_recording(cfg: SynthConfig, m_low=None, m_high=None):
    """Generate a (Recording, GroundTruth) pair.

    Beats sit at quasi-regular intervals (uniform period jitter); beat k is
    (1-alpha_k)*m_low + alpha_k*m_high with alpha driven by the configured
    coupling at the beat instant. White Gaussian noise is added to the SCG
    channel to hit snr_db (RMS over the whole record). A spike-train ECG
    channel marks each beat index.
    """
    if m_low is None or m_high is None:
        m_low, m_high = default_morphologies(cfg.fs)
    m_low = np.asarray(m_low, dtype=float)
    m_high = np.asarray(m_high, dtype=float)
    if m_low.shape != m_high.shape:
        raise InputError("morphologies must have equal length")
    for name, m in (("m_low", m_low), ("m_high", m_high)):
        if abs(rms(m) - 1.0) > 1e-6:
            raise InputError(f"{name} must be unit-RMS normalized")
    length = len(m_low)
    n = int(round(cfg.duration_s * cfg.fs))
    period = cfg.fs * 60.0 / cfg.heart_rate_bpm
    jitter = cfg.hr_jitter_pct / 100.0
    if period * (1 - jitter) < length:
        raise InputError("beat overlap: heart period shorter than morphology")

    rng = np.random.default_rng(cfg.seed)
    flow_ch, volume_ch = gen_respiration(cfg)

    scg = np.zeros(n)
    ecg = np.zeros(n)
    beat_indices, alphas = [], []
    pos = float(length)  # start margin: one morphology length
    while pos + length <= n - length:
        start = int(round(pos))
        center = start + length // 2
        alpha = _alpha_at(cfg, flow_ch.samples[center], center / cfg.fs)
        scg[start:start + length] += (1 - alpha) * m_low + alpha * m_high
        ecg[center] = 1.0
        beat_indices.append(center)
        alphas.append(alpha)
        pos += period * (1.0 + rng.uniform(-jitter, jitter))

    if math.isfinite(cfg.snr_db):
        noise_rms = rms(scg) * 10 ** (-cfg.snr_db / 20.0)
        scg = scg + rng.normal(0.0, noise_rms, size=n)

    mean_volume = float(np.mean(volume_ch.samples))
    truth = GroundTruth(
        beat_indices=beat_indices,
        alpha=alphas,
        flow_phase=[FlowPhase.INSPIRATION if flow_ch.samples[i] > 0 else FlowPhase.EXPIRATION
                    for i in beat_indices],
        volume_phase=[VolumePhase.HLV if volume_ch.samples[i] > mean_volume else VolumePhase.LLV
                      for i in beat_indices],
    )
    rec = Recording(
        channels={
            "scg": Channel(scg, cfg.fs, "scg"),
            "ecg": Channel(ecg, cfg.fs, "ecg"),
            "flow": flow_ch,
            "volume": volume_ch,
        },
        recording_id=f"synth-{cfg.coupling.value}-seed{cfg.seed}",
    )
    return rec, truth
