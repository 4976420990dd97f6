"""Lung volume from respiratory flow, and event phase labeling.

Volume is the cumulative trapezoidal integral of flow; the recording-mean
volume is the low/high lung-volume threshold. Flow phase is just the sign
of the flow at the event instant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .signal_core import Channel


class FlowPhase(enum.Enum):
    INSPIRATION = "Inspiration"
    EXPIRATION = "Expiration"


class VolumePhase(enum.Enum):
    LLV = "LLV"
    HLV = "HLV"


@dataclass(frozen=True)
class RespirationTrace:
    """Flow channel plus derived lung-volume channel and its mean."""

    flow: Channel
    volume: Channel
    mean_volume: float


def integrate_flow(flow: Channel, detrend: bool = True) -> RespirationTrace:
    """Cumulative trapezoidal integral of flow (L/s -> L), starting at 0.

    With detrend the flow is offset-corrected so the trapezoidal integral
    over the whole recording is exactly zero, killing spirometer-offset
    drift (the offset used is the trapezoid mean, not the arithmetic mean,
    so the final volume sample lands on 0 to machine precision).
    """
    from scipy.integrate import cumulative_trapezoid
    if len(flow) == 0:
        raise InputError("empty waveform")
    f = flow.samples
    if detrend and len(f) > 1:
        f = f - np.trapezoid(f) / (len(f) - 1)
    volume = cumulative_trapezoid(f, dx=1.0 / flow.fs, initial=0.0)
    vol_ch = Channel(volume, flow.fs, "volume")
    return RespirationTrace(flow=flow, volume=vol_ch, mean_volume=float(np.mean(volume)))


def flow_phase_at(trace: RespirationTrace, index: int) -> FlowPhase:
    """Positive flow -> Inspiration; zero or negative -> Expiration."""
    if not 0 <= index < len(trace.flow):
        raise InputError(f"index {index} out of range")
    return FlowPhase.INSPIRATION if trace.flow.samples[index] > 0 else FlowPhase.EXPIRATION


def volume_phase_at(trace: RespirationTrace, index: int) -> VolumePhase:
    """Volume above the recording mean -> HLV; at or below -> LLV."""
    if not 0 <= index < len(trace.volume):
        raise InputError(f"index {index} out of range")
    return VolumePhase.HLV if trace.volume.samples[index] > trace.mean_volume else VolumePhase.LLV


def label_events(events, trace: RespirationTrace):
    """Attach flow and volume phase labels at each event's reference instant.

    The trace must already be at the events' analysis rate.
    """
    labeled = []
    for ev in events:
        if ev.source.fs != trace.flow.fs:
            raise InputError("channel rate mismatch")
        labeled.append(ev.relabeled(flow_phase_at(trace, ev.ref_index),
                                    volume_phase_at(trace, ev.ref_index)))
    return labeled
