"""Lung volume from respiratory flow, and event phase labeling.

Volume is the cumulative trapezoidal integral of flow; the recording-mean
volume is the low/high lung-volume threshold. Flow phase is just the sign
of the flow at the event instant. The labels are two bool masks over the
events; phases turns them into the phase enums.
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
    if len(flow) == 0:
        raise InputError("empty waveform")
    f = flow.samples
    if detrend and len(f) > 1:
        f = f - np.trapezoid(f) / (len(f) - 1)
    # scipy's cumulative_trapezoid(f, dx=1/fs, initial=0), in its order of operations
    volume = np.concatenate(([0.0], np.cumsum((1.0 / flow.fs) * (f[1:] + f[:-1]) / 2.0)))
    vol_ch = Channel(volume, flow.fs, "volume")
    return RespirationTrace(flow=flow, volume=vol_ch, mean_volume=float(np.mean(volume)))


def label_events(refs, trace: RespirationTrace):
    """The labels of the events at refs: (inspiring, high_volume) masks.

    Positive flow -> Inspiration; zero or negative -> Expiration. Volume
    above the recording mean -> HLV; at or below -> LLV. The trace must
    already be at the rate of the channel the events were detected in.
    """
    refs = np.asarray(refs, dtype=int)
    outside = (refs < 0) | (refs >= len(trace.flow))
    if outside.any():
        raise InputError(f"index {refs[outside][0]} out of range")
    return trace.flow.samples[refs] > 0, trace.volume.samples[refs] > trace.mean_volume


def phases(inspiring, high_volume) -> tuple[list[FlowPhase], list[VolumePhase]]:
    """The flow and volume phase of each event, from label_events' masks."""
    return ([FlowPhase.INSPIRATION if i else FlowPhase.EXPIRATION for i in inspiring],
            [VolumePhase.HLV if h else VolumePhase.LLV for h in high_volume])
