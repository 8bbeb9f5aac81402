"""Deterministic synthetic driving-world videos with per-frame ego-action labels.

A single agent moves on a 32x32 top-down canvas under a scripted Markov action
sequence over the seven ego actions. A colored indicator block appears exactly
CUE_LEAD frames before every action change, colored by the upcoming action, so
near-future actions are genuinely predictable from past frames.

A frame is a function of five small integers: the agent's centre cell, its
heading tick's cell and the cue id. A video stores those per frame, five
bytes, and `render` paints float32 frames from them only when a clip is read.
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
# the values the renderer paints besides the cue colors
_BACKGROUND, _LANE, _TICK, _AGENT = 0.08, 0.25, 0.7, 1.0
# background and dashed lane lines, the layers every frame starts from
_EMPTY_FRAME = np.full((CHANNELS, FRAME_SIZE, FRAME_SIZE), _BACKGROUND, dtype=np.float32)
_EMPTY_FRAME[:, ::3, [8, 23]] = _LANE
_CUE_SLICE = (slice(1, 4), slice(1, 4))  # rows/cols of the indicator block
# the columns of SyntheticVideo.paint
AGENT_ROW, AGENT_COL, TICK_ROW, TICK_COL, CUE = range(5)

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
    """One video as its labels and the paint coordinates of each frame; frames render on each read."""

    paint: np.ndarray  # [L, 5] int8: agent row and col, tick row and col, cue id (-1: none)
    labels: np.ndarray  # [L] uint8 action ids
    video_id: int = -1

    def __len__(self) -> int:
        return len(self.labels)

    def decode(self, frames=slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """Float32 frames in [0, 1] for `frames` (an index, a slice or frame indices), written into `out` if given."""
        if out is None:
            out = np.empty((*self.labels[frames].shape, CHANNELS, FRAME_SIZE, FRAME_SIZE), np.float32)
        return render([(self, frames)], out)


@dataclass(frozen=True)
class ClipSample:
    """t past and t_pred future frames of one video from `start`; frames render on each read."""

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


def render(clips: Sequence[tuple[SyntheticVideo, object]], out: np.ndarray) -> np.ndarray:
    """Paint the float32 frames of each (video, frames) pair in turn into `out` and return it.

    `frames` is an index, a slice or frame indices. `out` holds exactly the
    frames picked, in any leading shape (a [B, t, 3, 32, 32] batch takes B
    pairs of t frames each), and must have an [N, 3, 32, 32] view, as every
    C-contiguous array does; the frames are bitwise those of the per-frame
    reference renderer in the tests. Layers, each over the last:
    background, dashed lane lines, the 3x3 agent body on the torus, the
    heading tick two cells ahead, the cue block.
    """
    paint = np.concatenate([video.paint[frames].reshape(-1, 5) for video, frames in clips])
    canvas = out.view()
    canvas.shape = (len(paint), CHANNELS, FRAME_SIZE, FRAME_SIZE)  # raises where reshape would copy
    canvas[...] = _EMPTY_FRAME
    # a channels-last view, so one (frame, row, col) index paints all channels
    pixels = canvas.transpose(0, 2, 3, 1)
    f = np.arange(len(paint))
    offsets = np.array([-1, 0, 1])
    rows = (paint[:, AGENT_ROW, None] + offsets) % FRAME_SIZE
    cols = (paint[:, AGENT_COL, None] + offsets) % FRAME_SIZE
    pixels[f[:, None, None], rows[:, :, None], cols[:, None, :]] = _AGENT
    pixels[f, paint[:, TICK_ROW], paint[:, TICK_COL]] = _TICK
    # cue block last so nothing can occlude it
    cue = paint[:, CUE]
    shown = cue >= 0
    canvas[shown, :, _CUE_SLICE[0], _CUE_SLICE[1]] = CUE_PALETTE[cue[shown]][:, :, None, None]
    return out


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


def generate_video(seed: int, length: int) -> SyntheticVideo:
    """Simulate one scripted video frame by frame, then find every frame's paint coordinates at once.

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
    paint = np.empty((length, 5), dtype=np.int8)
    labels = np.empty(length, dtype=np.uint8)
    for f in range(length):
        if state.until_change == 0:
            state.action = state.pending
            state.pending = None
            state.until_change = int(rng.integers(DWELL_RANGE[0], DWELL_RANGE[1] + 1))
        if state.until_change == CUE_LEAD:
            state.pending = _next_action(rng, state.action)
        x[f], y[f], heading[f] = state.x, state.y, state.heading
        paint[f, CUE] = -1 if state.pending is None else state.pending
        labels[f] = state.action
        _advance(state)
        state.until_change -= 1
    # np.rint rounds half to even, like Python's round
    paint[:, AGENT_ROW] = np.rint(x).astype(np.intp) % FRAME_SIZE
    paint[:, AGENT_COL] = np.rint(y).astype(np.intp) % FRAME_SIZE
    paint[:, TICK_ROW] = np.rint(x + 2 * np.cos(heading)).astype(np.intp) % FRAME_SIZE
    paint[:, TICK_COL] = np.rint(y + 2 * np.sin(heading)).astype(np.intp) % FRAME_SIZE
    return SyntheticVideo(paint=paint, labels=labels)


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

