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
from .respiration import FlowPhase, RespirationTrace, VolumePhase, phases_at
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
    coupling_strength: float = 1.0   # alpha_max in [0, 1]
    snr_db: float = 20.0             # math.inf for noiseless
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise InputError("duration_s must be > 0")
        if self.fs <= 0:
            raise InputError("fs must be > 0")
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


def default_morphologies(fs: float):
    """Two unit-RMS damped-oscillation bursts with a shared 20 Hz carrier.

    The shared carrier keeps cross-correlation alignment between blends
    honest (peak at zero lag); the envelopes and a second harmonic make
    the shapes clearly distinct for the dissimilarity metrics.
    """
    n = max(8, int(round(DEFAULT_MORPH_LENGTH_S * fs)))
    t = np.arange(n) / fs
    m_low = np.sin(2 * np.pi * 20 * t) * np.exp(-t / 0.05)
    m_high = (np.sin(2 * np.pi * 20 * t) + 0.8 * np.sin(2 * np.pi * 40 * t)) * np.exp(-t / 0.03)
    return m_low / rms(m_low), m_high / rms(m_high)


def gen_respiration(cfg: SynthConfig):
    """Sinusoidal flow and its closed-form integral (lung volume)."""
    n = int(round(cfg.duration_s * cfg.fs))
    t = np.arange(n) / cfg.fs
    w = 2 * np.pi * _RESP_FREQ
    flow = _RESP_AMPLITUDE * np.sin(w * t)
    volume = (_RESP_AMPLITUDE / w) * (1.0 - np.cos(w * t))
    return Channel(flow, cfg.fs, "flow"), Channel(volume, cfg.fs, "volume")


def _alpha_at(cfg: SynthConfig, index: int, phase: FlowPhase) -> float:
    if cfg.coupling is Coupling.VOLUME:
        # closed-form volume normalized to [0, 1]
        frac = 0.5 * (1.0 - np.cos(2 * np.pi * _RESP_FREQ * (index / cfg.fs)))
    elif cfg.coupling is Coupling.FLOW:
        frac = 1.0 if phase is FlowPhase.INSPIRATION else 0.0
    else:
        frac = 0.5
    return cfg.coupling_strength * float(frac)


def gen_recording(cfg: SynthConfig):
    """Generate a (Recording, GroundTruth) pair.

    Beats sit at quasi-regular intervals (uniform period jitter); beat k is
    (1-alpha_k)*m_low + alpha_k*m_high with alpha driven by the configured
    coupling at the beat instant. White Gaussian noise is added to the SCG
    channel to hit snr_db (RMS over the whole record). A spike-train ECG
    channel marks each beat index.
    """
    m_low, m_high = default_morphologies(cfg.fs)
    length = len(m_low)
    n = int(round(cfg.duration_s * cfg.fs))
    period = cfg.fs * 60.0 / _HEART_RATE_BPM
    jitter = _HR_JITTER_PCT / 100.0
    if period * (1 - jitter) < length:
        raise InputError("beat overlap: heart period shorter than morphology")
    if n < 3 * length:  # the first beat needs a morphology-length margin on each side
        raise InputError(f"duration_s = {cfg.duration_s:g} is too short to hold one beat")

    rng = np.random.default_rng(cfg.seed)
    flow_ch, volume_ch = gen_respiration(cfg)
    trace = RespirationTrace(flow_ch, volume_ch, float(np.mean(volume_ch.samples)))

    starts = []
    pos = float(length)  # start margin: one morphology length
    while pos + length <= n - length:
        starts.append(int(round(pos)))
        pos += period * (1.0 + rng.uniform(-jitter, jitter))
    beat_indices = [start + length // 2 for start in starts]
    flow_phase, volume_phase = phases_at(trace, beat_indices)

    scg = np.zeros(n)
    ecg = np.zeros(n)
    alphas = [_alpha_at(cfg, center, phase) for center, phase in zip(beat_indices, flow_phase)]
    for start, center, alpha in zip(starts, beat_indices, alphas):
        scg[start:start + length] += (1 - alpha) * m_low + alpha * m_high
        ecg[center] = 1.0

    if math.isfinite(cfg.snr_db):
        noise_rms = rms(scg) * 10 ** (-cfg.snr_db / 20.0)
        scg = scg + rng.normal(0.0, noise_rms, size=n)

    truth = GroundTruth(
        beat_indices=beat_indices,
        alpha=alphas,
        flow_phase=flow_phase,
        volume_phase=volume_phase,
    )
    rec = Recording(
        channels={
            "scg": Channel(scg, cfg.fs, "scg"),
            "ecg": Channel(ecg, cfg.fs, "ecg"),
            "flow": flow_ch,
        },
        recording_id=f"synth-{cfg.coupling.value}-seed{cfg.seed}",
    )
    return rec, truth
