"""Lung volume from respiratory flow, and event phase labeling.

Volume is the cumulative trapezoidal integral of flow; the recording-mean
volume is the low/high lung-volume threshold. Flow phase is just the sign
of the flow at the event instant. The labels are two bool masks over the
events; phases turns them into the phase enums.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InputError
from .signal_core import Channel


class FlowPhase(enum.Enum):
    INSPIRATION = "Inspiration"
    EXPIRATION = "Expiration"


class VolumePhase(enum.Enum):
    LLV = "LLV"
    HLV = "HLV"


def integrate_flow(flow: Channel) -> np.ndarray:
    """The volume samples: the cumulative trapezoidal integral of flow
    (L/s -> L), starting at 0.

    The flow is offset-corrected so the trapezoidal integral over the whole
    recording is exactly zero, killing spirometer-offset drift (the offset
    used is the trapezoid mean, not the arithmetic mean, so the final
    volume sample lands on 0 to machine precision).

    Each step after the offset runs in place in the volume it returns, so
    it holds at most two arrays of the flow's length.
    """
    if len(flow) == 0:
        raise InputError("empty waveform")
    f = flow.samples
    if len(f) > 1:
        f = f - np.trapezoid(f) / (len(f) - 1)
    # scipy's cumulative_trapezoid(f, dx=1/fs, initial=0), in its order of operations
    volume = np.empty(len(f))
    volume[0] = 0.0
    steps = volume[1:]
    np.add(f[1:], f[:-1], out=steps)
    steps *= 1.0 / flow.fs
    steps /= 2.0
    np.cumsum(steps, out=steps)
    return volume


def label_events(refs, flow, volume):
    """The labels of the events at refs: (inspiring, high_volume) masks.

    flow and volume are sample arrays of one length, at the rate of the
    channel the events were detected in. Positive flow -> Inspiration; zero
    or negative -> Expiration. Volume above its recording mean -> HLV; at or
    below -> LLV.
    """
    refs = np.asarray(refs, dtype=int)
    outside = (refs < 0) | (refs >= len(flow))
    if outside.any():
        raise InputError(f"index {refs[outside][0]} out of range")
    return flow[refs] > 0, volume[refs] > float(np.mean(volume))


def phases(inspiring, high_volume) -> tuple[list[FlowPhase], list[VolumePhase]]:
    """The flow and volume phase of each event, from label_events' masks."""
    return ([FlowPhase.INSPIRATION if i else FlowPhase.EXPIRATION for i in inspiring],
            [VolumePhase.HLV if h else VolumePhase.LLV for h in high_volume])
