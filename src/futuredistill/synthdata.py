"""Deterministic synthetic driving-world videos with per-frame ego-action labels.

A single agent moves on a 32x32 top-down canvas under a scripted Markov action
sequence over the seven ego actions. A colored indicator block appears exactly
CUE_LEAD frames before every action change, colored by the upcoming action, so
near-future actions are genuinely predictable from past frames.

Every pixel-channel takes one of the six LEVELS, so a video stores uint8
indices into LEVELS and decodes float32 frames only when a clip is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, SamplingError

ACTION_NAMES = ("Move", "Stop", "TurnLeft", "TurnRight", "Overtake", "MoveLeft", "MoveRight")
N_ACTIONS = len(ACTION_NAMES)
CUE_LEAD = 4  # frames of warning before a transition
DWELL_RANGE = (6, 18)  # inclusive frames an action persists (min > CUE_LEAD)
FRAME_SIZE = 32
CHANNELS = 3

# one distinct saturated color per upcoming action; never white/gray so the
# cue block is unambiguous against agent and background pixels
CUE_PALETTE = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [1.0, 0.5, 0.0],
    ],
    dtype=np.float32,
)
# every value the renderer paints, ascending; a video's codes index this table
LEVELS = np.array([0.0, 0.08, 0.25, 0.5, 0.7, 1.0], dtype=np.float32)
_BACKGROUND, _LANE, _TICK, _AGENT = 1, 2, 4, 5  # the codes of 0.08, 0.25, 0.7 and 1.0
_CUE_CODES = np.searchsorted(LEVELS, CUE_PALETTE).astype(np.uint8)
# row i holds the levels of the two codes a little-endian uint16 i packs,
# (i & 255, i >> 8), so decoding looks up two pixel-channels at once; codes
# past the end of LEVELS read as its last value
_BYTE_LEVELS = LEVELS[np.minimum(np.arange(256), len(LEVELS) - 1)]
_PAIR_LEVELS = np.stack(np.meshgrid(_BYTE_LEVELS, _BYTE_LEVELS), axis=-1).reshape(-1, 2)
_CUE_SLICE = (slice(1, 4), slice(1, 4))  # rows/cols of the indicator block

# relative preference for switching into each action (self-transitions excluded)
_ACTION_WEIGHTS = np.array([0.26, 0.12, 0.11, 0.11, 0.12, 0.14, 0.14])


@dataclass
class WorldState:
    x: float
    y: float
    heading: float
    action: int
    until_change: int
    pending: int | None = None  # upcoming action while its cue is shown


@dataclass
class SyntheticVideo:
    codes: np.ndarray  # [L, 3, 32, 32] uint8 indices into LEVELS
    labels: np.ndarray  # [L] uint8 action ids
    video_id: int = -1

    def __len__(self) -> int:
        return len(self.labels)

    def decode(self, frames=slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """Float32 frames in [0, 1] for `frames` (a slice or frame indices), written into `out` if given."""
        pairs = self.codes[frames].view("<u2")
        if out is None:
            out = np.empty((*pairs.shape[:-1], 2 * pairs.shape[-1]), np.float32)
        rows = out.view()
        rows.shape = (*pairs.shape, 2)  # raises instead of copying when out has no such view
        np.take(_PAIR_LEVELS, pairs, axis=0, mode="clip", out=rows)  # mode="raise" would buffer out
        return out


@dataclass(frozen=True)
class ClipSample:
    """t past and t_pred future frames of one video from `start`; frames decode on each read."""

    video: SyntheticVideo
    start: int
    t: int
    t_pred: int

    @property
    def past(self) -> np.ndarray:  # [t, 3, 32, 32]
        return self.video.decode(slice(self.start, self.start + self.t))

    @property
    def future_labels(self) -> np.ndarray:  # [t_pred]
        return self.video.labels[self.start + self.t : self.start + self.t + self.t_pred].copy()


def _switch_cdf(current: int) -> np.ndarray:
    """CDF of the next action given `current`, built the way `Generator.choice` builds it from p."""
    w = _ACTION_WEIGHTS.copy()
    w[current] = 0.0
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


_SWITCH_CDFS = tuple(_switch_cdf(a) for a in range(N_ACTIONS))


def _next_action(rng: np.random.Generator, current: int) -> int:
    """Draw the next action (never `current`); the same draw as rng.choice(N_ACTIONS, p=...)."""
    return int(np.searchsorted(_SWITCH_CDFS[current], rng.random(), side="right"))


def _advance(state: WorldState) -> None:
    a = state.action
    dx = np.cos(state.heading)
    dy = np.sin(state.heading)
    if a == 0:  # Move
        step = 1.2
    elif a == 1:  # Stop
        step = 0.0
    elif a in (2, 3):  # TurnLeft / TurnRight
        state.heading += -0.22 if a == 2 else 0.22
        dx, dy = np.cos(state.heading), np.sin(state.heading)
        step = 0.8
    elif a == 4:  # Overtake
        step = 1.8
    else:  # MoveLeft / MoveRight: forward plus lateral drift
        step = 1.0
        lateral = -0.7 if a == 5 else 0.7
        state.x += lateral * -dy
        state.y += lateral * dx
    state.x = (state.x + step * dx) % FRAME_SIZE
    state.y = (state.y + step * dy) % FRAME_SIZE


def _render_video(x: np.ndarray, y: np.ndarray, heading: np.ndarray, cue: np.ndarray) -> np.ndarray:
    """Paint the level codes of every frame at once from per-frame poses and cue ids (-1: no cue).

    Layers, each over the last: background, dashed lane lines, the 3x3 agent
    body on the torus, the heading tick two cells ahead, the cue block.
    """
    length = len(x)
    codes = np.full((length, CHANNELS, FRAME_SIZE, FRAME_SIZE), _BACKGROUND, dtype=np.uint8)
    codes[:, :, ::3, 8] = _LANE
    codes[:, :, ::3, 23] = _LANE
    # a channels-last view, so one (frame, row, col) index paints all channels
    pixels = codes.transpose(0, 2, 3, 1)
    f = np.arange(length)
    # np.rint rounds half to even, like Python's round
    offsets = np.array([-1, 0, 1])
    rows = (np.rint(x).astype(np.intp)[:, None] + offsets) % FRAME_SIZE
    cols = (np.rint(y).astype(np.intp)[:, None] + offsets) % FRAME_SIZE
    pixels[f[:, None, None], rows[:, :, None], cols[:, None, :]] = _AGENT
    tick_x = np.rint(x + 2 * np.cos(heading)).astype(np.intp) % FRAME_SIZE
    tick_y = np.rint(y + 2 * np.sin(heading)).astype(np.intp) % FRAME_SIZE
    pixels[f, tick_x, tick_y] = _TICK
    # cue block last so nothing can occlude it
    shown = cue >= 0
    codes[shown, :, _CUE_SLICE[0], _CUE_SLICE[1]] = _CUE_CODES[cue[shown]][:, :, None, None]
    return codes


def generate_video(seed: int, length: int) -> SyntheticVideo:
    """Simulate one scripted video frame by frame, then render all frames at once.

    Identical (seed, length) gives identical bytes.
    """
    if length < 24:
        raise ConfigurationError(f"video length must be >= 24 frames, got {length}")
    rng = np.random.default_rng(seed)
    state = WorldState(
        x=float(rng.uniform(4, FRAME_SIZE - 4)),
        y=float(rng.uniform(4, FRAME_SIZE - 4)),
        heading=float(rng.uniform(0, 2 * np.pi)),
        action=int(rng.integers(0, N_ACTIONS)),
        until_change=int(rng.integers(DWELL_RANGE[0], DWELL_RANGE[1] + 1)),
    )
    x, y, heading = np.empty(length), np.empty(length), np.empty(length)
    cue = np.empty(length, dtype=np.intp)
    labels = np.empty(length, dtype=np.uint8)
    for f in range(length):
        if state.until_change == 0:
            state.action = state.pending
            state.pending = None
            state.until_change = int(rng.integers(DWELL_RANGE[0], DWELL_RANGE[1] + 1))
        if state.until_change == CUE_LEAD:
            state.pending = _next_action(rng, state.action)
        x[f], y[f], heading[f] = state.x, state.y, state.heading
        cue[f] = -1 if state.pending is None else state.pending
        labels[f] = state.action
        _advance(state)
        state.until_change -= 1
    return SyntheticVideo(codes=_render_video(x, y, heading, cue), labels=labels)


def derive_video_seed(master_seed: int, video_id: int) -> int:
    return int(np.random.SeedSequence([master_seed, video_id]).generate_state(1)[0])


def make_dataset(
    master_seed: int, n_videos: int, frames_per_video: int, ids: Sequence[int] | None = None
) -> list[SyntheticVideo]:
    """Generate n_videos independent videos; per-video seeds derive from (master, id).

    `ids` picks which of the n_videos to generate, in that order (all by
    default); a video is the same whichever others are generated with it.
    """
    videos = []
    for vid in range(n_videos) if ids is None else ids:
        video = generate_video(derive_video_seed(master_seed, vid), frames_per_video)
        video.video_id = vid
        videos.append(video)
    return videos


def split_dataset(
    videos: list[SyntheticVideo],
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> tuple[list[SyntheticVideo], list[SyntheticVideo], list[SyntheticVideo]]:
    """Partition at video granularity: (train, val, test), remainder to train."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigurationError(f"split ratios must sum to 1, got {ratios}")
    n = len(videos)
    n_val = int(np.floor(ratios[1] * n))
    n_test = int(np.floor(ratios[2] * n))
    n_train = n - n_val - n_test
    for name, count, ratio in (("train", n_train, ratios[0]), ("val", n_val, ratios[1]), ("test", n_test, ratios[2])):
        if ratio > 0 and count == 0:
            raise ConfigurationError(f"too few videos ({n}) to give the {name} split at ratio {ratio}")
    order = np.random.default_rng(seed).permutation(n)
    train = [videos[i] for i in order[:n_train]]
    val = [videos[i] for i in order[n_train : n_train + n_val]]
    test = [videos[i] for i in order[n_train + n_val :]]
    return train, val, test


def sample_clip(video: SyntheticVideo, t: int, t_pred: int, rng: np.random.Generator) -> ClipSample:
    """Uniform random start; past and future_labels share one frame indexing."""
    span = t + t_pred
    if len(video) < span:
        raise SamplingError(f"video of {len(video)} frames cannot fit a clip of {span}")
    start = int(rng.integers(0, len(video) - span + 1))
    return clip_at(video, start, t, t_pred)


def clip_at(video: SyntheticVideo, start: int, t: int, t_pred: int) -> ClipSample:
    span = t + t_pred
    if start < 0 or start + span > len(video):
        raise SamplingError(f"clip [{start}, {start + span}) out of range for {len(video)} frames")
    return ClipSample(video, start, t, t_pred)


def eval_clip_starts(video_length: int, t: int, t_pred: int, stride: int | None = None) -> list[int]:
    """Deterministic strided window starts covering the video."""
    span = t + t_pred
    if video_length < span:
        return []
    stride = stride or max(1, t_pred)
    return list(range(0, video_length - span + 1, stride))

