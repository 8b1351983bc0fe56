"""Intra prediction modes.

Implements the shared pool of spatial prediction modes the codec models
draw from.  Each mode predicts a block from its reconstructed top
neighbour row and left neighbour column, exactly the dependency
structure real encoders have (and the reason wavefront parallelism
exists — see :mod:`repro.parallel.models`).

The mode *vocabulary* differs per codec and is a large part of AV1's
extra search work: H.264 offers 4 modes at 16x16, VP9 10, AV1 13 (the
smooth family and finer directions are AV1 additions).
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import CodecError


class IntraMode(enum.Enum):
    """Spatial prediction modes (AV1 naming)."""

    DC = "dc"
    V = "v"
    H = "h"
    PAETH = "paeth"
    SMOOTH = "smooth"
    SMOOTH_V = "smooth_v"
    SMOOTH_H = "smooth_h"
    D45 = "d45"
    D135 = "d135"
    D117 = "d117"
    D207 = "d207"
    D63 = "d63"
    D153 = "d153"


#: Mode sets per codec family (ordered by typical search priority).
H264_MODES: tuple[IntraMode, ...] = (
    IntraMode.DC,
    IntraMode.V,
    IntraMode.H,
    IntraMode.PAETH,  # stands in for H.264 "plane" mode
)
H265_MODES: tuple[IntraMode, ...] = H264_MODES + (
    IntraMode.D45,
    IntraMode.D135,
    IntraMode.D117,
    IntraMode.D207,
)
VP9_MODES: tuple[IntraMode, ...] = (
    IntraMode.DC,
    IntraMode.V,
    IntraMode.H,
    IntraMode.PAETH,  # VP9 TM mode
    IntraMode.D45,
    IntraMode.D135,
    IntraMode.D117,
    IntraMode.D207,
    IntraMode.D63,
    IntraMode.D153,
)
AV1_MODES: tuple[IntraMode, ...] = VP9_MODES + (
    IntraMode.SMOOTH,
    IntraMode.SMOOTH_V,
    IntraMode.SMOOTH_H,
)


def _weights(n: int) -> np.ndarray:
    """Smooth-mode blending weights, front-loaded like AV1's."""
    t = np.arange(n, dtype=np.float64) / max(n - 1, 1)
    return (1.0 - t) ** 2 * 0.75 + (1.0 - t) * 0.25


def predict(
    mode: IntraMode,
    above: np.ndarray,
    left: np.ndarray,
    height: int,
    width: int,
) -> np.ndarray:
    """Predict a ``height x width`` block from its neighbours.

    Parameters
    ----------
    mode:
        Prediction mode.
    above:
        Reconstructed row above the block, length >= ``width + height``
        for directional modes (callers extend with edge replication).
    left:
        Reconstructed column left of the block, length >= ``height +
        width``.
    """
    if height <= 0 or width <= 0:
        raise CodecError("prediction block must be non-empty")
    need_above = width + height
    need_left = height + width
    if len(above) < need_above or len(left) < need_left:
        raise CodecError(
            f"neighbour arrays too short for {width}x{height} {mode.value}: "
            f"got above={len(above)}, left={len(left)}"
        )
    # No copy for float64 input (what extend_neighbours returns); the
    # modes below only read their neighbours.
    above = np.asarray(above, dtype=np.float64)
    left = np.asarray(left, dtype=np.float64)
    top = above[:width]
    side = left[:height]

    if mode is IntraMode.DC:
        # A constant block: round and clip the one value, then fill.
        # ``add.reduce(x) / n`` is ``x.mean()`` bit for bit, and round()
        # rounds half to even as np.rint does.
        top_mean = float(np.add.reduce(top)) / width
        side_mean = float(np.add.reduce(side)) / height
        dc = round((top_mean + side_mean) / 2.0)
        return np.full((height, width), min(max(dc, 0), 255), dtype=np.uint8)
    if mode is IntraMode.V:
        out = np.tile(top, (height, 1))
    elif mode is IntraMode.H:
        out = np.tile(side[:, None], (1, width))
    elif mode is IntraMode.PAETH:
        top_left = above[0] if width > 0 else 128.0
        base = side[:, None] + top[None, :] - top_left
        candidates = np.stack(
            [np.tile(top, (height, 1)), np.tile(side[:, None], (1, width)),
             np.full((height, width), top_left)]
        )
        dists = np.abs(candidates - base[None])
        pick = dists.argmin(axis=0)
        out = np.take_along_axis(candidates, pick[None], axis=0)[0]
    elif mode is IntraMode.SMOOTH:
        wv = _weights(height)[:, None]
        wh = _weights(width)[None, :]
        vert = wv * top[None, :] + (1 - wv) * side[-1]
        horz = wh * side[:, None] + (1 - wh) * top[-1]
        out = (vert + horz) / 2.0
    elif mode is IntraMode.SMOOTH_V:
        wv = _weights(height)[:, None]
        out = wv * top[None, :] + (1 - wv) * side[-1]
    elif mode is IntraMode.SMOOTH_H:
        wh = _weights(width)[None, :]
        out = wh * side[:, None] + (1 - wh) * top[-1]
    else:
        out = _directional(mode, above, left, height, width)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


#: Directional modes as (d_row, d_col) steps per predicted row, in a
#: coarse integer-geometry approximation of the AV1 angles.
_DIRECTIONS: dict[IntraMode, tuple[int, int]] = {
    IntraMode.D45: (-1, 1),   # up-right
    IntraMode.D63: (-2, 1),
    IntraMode.D117: (-1, -2),
    IntraMode.D135: (-1, -1),  # up-left
    IntraMode.D153: (-2, -1),
    IntraMode.D207: (1, -2),   # from the left edge, going down
}


def _directional(
    mode: IntraMode,
    above: np.ndarray,
    left: np.ndarray,
    height: int,
    width: int,
) -> np.ndarray:
    d_row, d_col = _DIRECTIONS[mode]
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    if d_row < 0 and d_col > 0:
        # Project onto the above row, walking up-right.
        steps = rows // -d_row if d_row != -1 else rows
        idx = np.minimum(cols + (steps + 1) * d_col, len(above) - 1)
        return above[idx]
    if d_row < 0 and d_col < 0:
        # Blend of above and left projections (up-left family).
        offset = (rows + 1) * (-d_col)
        above_idx = np.clip(cols - offset, 0, len(above) - 1)
        from_above = above[above_idx]
        left_idx = np.clip(rows - (cols + 1) * (-d_row), 0, len(left) - 1)
        from_left = left[left_idx]
        use_above = cols >= offset
        return np.where(use_above, from_above, from_left)
    # Down-left family: project onto the left column.
    idx = np.minimum(rows + (cols + 1), len(left) - 1)
    return left[idx]


def extend_neighbours(
    plane: np.ndarray,
    row: int,
    col: int,
    height: int,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gather above/left reference arrays from a reconstructed plane.

    Missing neighbours (frame edges) are filled with 128, the standard
    half-range default.  Arrays are extended by edge replication to the
    lengths directional modes need.
    """
    need = width + height  # both arrays: what the directional modes read
    if row > 0:
        avail = min(need, plane.shape[1] - col)
        above = np.empty(need)
        above[:avail] = plane[row - 1, col : col + avail]
        above[avail:] = above[avail - 1]
    else:
        above = np.full(need, 128.0)
    if col > 0:
        avail = min(need, plane.shape[0] - row)
        left = np.empty(need)
        left[:avail] = plane[row : row + avail, col - 1]
        left[avail:] = left[avail - 1]
    else:
        left = np.full(need, 128.0)
    return above, left
