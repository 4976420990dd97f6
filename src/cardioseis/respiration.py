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
from .event_detection import ScgEvent
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
    if len(flow) == 0:
        raise InputError("empty waveform")
    f = flow.samples
    if detrend and len(f) > 1:
        f = f - np.trapezoid(f) / (len(f) - 1)
    # scipy's cumulative_trapezoid(f, dx=1/fs, initial=0), in its order of operations
    volume = np.concatenate(([0.0], np.cumsum((1.0 / flow.fs) * (f[1:] + f[:-1]) / 2.0)))
    vol_ch = Channel(volume, flow.fs, "volume")
    return RespirationTrace(flow=flow, volume=vol_ch, mean_volume=float(np.mean(volume)))


_FLOW_PHASES = np.array([FlowPhase.EXPIRATION, FlowPhase.INSPIRATION], dtype=object)
_VOLUME_PHASES = np.array([VolumePhase.LLV, VolumePhase.HLV], dtype=object)


def phases_at(trace: RespirationTrace, indices) -> tuple[list, list]:
    """Flow and volume phase at each sample index.

    Positive flow -> Inspiration; zero or negative -> Expiration. Volume
    above the recording mean -> HLV; at or below -> LLV.
    """
    indices = np.asarray(indices, dtype=int)
    outside = (indices < 0) | (indices >= len(trace.flow))
    if outside.any():
        raise InputError(f"index {indices[outside][0]} out of range")
    inspiring = trace.flow.samples[indices] > 0
    high = trace.volume.samples[indices] > trace.mean_volume
    return _FLOW_PHASES[inspiring.astype(int)].tolist(), _VOLUME_PHASES[high.astype(int)].tolist()


def label_events(events, trace: RespirationTrace):
    """Attach flow and volume phase labels at each event's reference instant.

    The trace must already be at the rate of the channel the events were
    detected in.
    """
    flow, volume = phases_at(trace, [ev.ref_index for ev in events])
    return [ScgEvent(ev.ref_index, ev.window, f, v) for ev, f, v in zip(events, flow, volume)]
