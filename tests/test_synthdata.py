"""Synthetic world: determinism, cue logic, splits, clip alignment, file IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futuredistill import synthdata as sd
from futuredistill.errors import ConfigurationError, SamplingError


@pytest.fixture(scope="module")
def video():
    return sd.generate_video(seed=7, length=240)


@pytest.fixture(scope="module")
def dataset():
    return sd.make_dataset(master_seed=0, n_videos=42, frames_per_video=240)


CUE_PROBE = (2, 2)  # center pixel of the indicator block


def cue_visible(frame):
    """The upcoming action id the frame's cue signals, or None when no cue is shown."""
    probe = frame[:, CUE_PROBE[0], CUE_PROBE[1]]
    for action, color in enumerate(sd.CUE_PALETTE):
        if np.array_equal(probe, color):
            return action
    return None


def transition_frames(labels):
    return set((np.nonzero(labels[1:] != labels[:-1])[0] + 1).tolist())


def reference_render(state):
    """The per-frame renderer `generate_video` used before it painted all frames at once."""
    img = np.full((sd.CHANNELS, sd.FRAME_SIZE, sd.FRAME_SIZE), 0.08, dtype=np.float32)
    img[:, ::3, 8] = 0.25
    img[:, ::3, 23] = 0.25
    cx, cy = int(round(state.x)) % sd.FRAME_SIZE, int(round(state.y)) % sd.FRAME_SIZE
    rows = [(cx + d) % sd.FRAME_SIZE for d in (-1, 0, 1)]
    cols = [(cy + d) % sd.FRAME_SIZE for d in (-1, 0, 1)]
    img[:, np.ix_(rows, cols)[0], np.ix_(rows, cols)[1]] = 1.0
    tx = int(round(state.x + 2 * np.cos(state.heading))) % sd.FRAME_SIZE
    ty = int(round(state.y + 2 * np.sin(state.heading))) % sd.FRAME_SIZE
    img[:, tx, ty] = 0.7
    if state.pending is not None:
        img[:, 1:4, 1:4] = sd.CUE_PALETTE[state.pending][:, None, None]
    return img


def reference_video(seed, length):
    """Simulate and render one frame at a time; also name what wrapped across the canvas edge."""
    rng = np.random.default_rng(seed)
    state = sd.WorldState(
        x=float(rng.uniform(4, sd.FRAME_SIZE - 4)),
        y=float(rng.uniform(4, sd.FRAME_SIZE - 4)),
        heading=float(rng.uniform(0, 2 * np.pi)),
        action=int(rng.integers(0, sd.N_ACTIONS)),
        until_change=int(rng.integers(sd.DWELL_RANGE[0], sd.DWELL_RANGE[1] + 1)),
    )
    frames = np.empty((length, sd.CHANNELS, sd.FRAME_SIZE, sd.FRAME_SIZE), dtype=np.float32)
    labels = np.empty(length, dtype=np.uint8)
    wrapped = set()
    edge = (0, sd.FRAME_SIZE - 1)
    for f in range(length):
        if state.until_change == 0:
            state.action = state.pending
            state.pending = None
            state.until_change = int(rng.integers(sd.DWELL_RANGE[0], sd.DWELL_RANGE[1] + 1))
        if state.until_change == sd.CUE_LEAD:
            state.pending = sd._next_action(rng, state.action)
        frames[f] = reference_render(state)
        labels[f] = state.action
        if round(state.x) % sd.FRAME_SIZE in edge or round(state.y) % sd.FRAME_SIZE in edge:
            wrapped.add("agent")
        tick = (round(state.x + 2 * np.cos(state.heading)), round(state.y + 2 * np.sin(state.heading)))
        if not all(0 <= c < sd.FRAME_SIZE for c in tick):
            wrapped.add("tick")
        sd._advance(state)
        state.until_change -= 1
    return frames, labels, wrapped


class TestGeneration:
    def test_byte_determinism(self, video):
        again = sd.generate_video(seed=7, length=240)
        assert video.paint.tobytes() == again.paint.tobytes()
        assert video.labels.tobytes() == again.labels.tobytes()

    def test_bytes_match_the_per_frame_reference(self):
        wrapped_videos = 0
        for length in (24, 25, 47, 100, 240):
            for seed in range(30):
                video = sd.generate_video(seed, length)
                frames, labels, wrapped = reference_video(seed, length)
                decoded = video.decode()
                assert decoded.shape == (length, sd.CHANNELS, sd.FRAME_SIZE, sd.FRAME_SIZE)
                assert decoded.dtype == np.float32 and decoded.flags.c_contiguous
                assert decoded.tobytes() == frames.tobytes(), (seed, length)
                assert video.labels.tobytes() == labels.tobytes(), (seed, length)
                wrapped_videos += wrapped == {"agent", "tick"}
        assert wrapped_videos > 0, "no compared video wrapped both the agent and its heading tick"

    def test_stores_five_int8_paint_coordinates_per_frame(self):
        for length in (24, 240):
            video = sd.generate_video(seed=3, length=length)
            assert video.paint.dtype == np.int8 and video.paint.shape == (length, 5)
            cells = video.paint[:, [sd.AGENT_ROW, sd.AGENT_COL, sd.TICK_ROW, sd.TICK_COL]]
            assert cells.min() >= 0 and cells.max() < sd.FRAME_SIZE
            assert set(np.unique(video.paint[:, sd.CUE])) <= set(range(-1, sd.N_ACTIONS))
            # paint coordinates and label: 6 bytes per frame, where one frame of float32 pixels takes 12288
            assert (video.paint.nbytes + video.labels.nbytes) / length <= 6

    def test_render_fills_a_batch_from_several_videos(self, dataset):
        pairs = [(dataset[0], slice(5, 8)), (dataset[3], np.array([9, 2, 2])), (dataset[0], slice(230, 233))]
        batch = np.full((3, 3, sd.CHANNELS, sd.FRAME_SIZE, sd.FRAME_SIZE), np.nan, dtype=np.float32)
        assert sd.render(pairs, batch) is batch
        want = np.stack([video.decode()[frames] for video, frames in pairs])
        assert batch.tobytes() == want.tobytes()
        with pytest.raises(AttributeError):  # no [9, 3, 32, 32] view of it exists; render never writes a copy
            sd.render(pairs, batch.swapaxes(0, 1))
        with pytest.raises(ValueError):
            sd.render(pairs, batch[:2])

    def test_decode_writes_into_out(self, video):
        buf = np.full((5, sd.CHANNELS, sd.FRAME_SIZE, sd.FRAME_SIZE), np.nan, dtype=np.float32)
        assert video.decode(slice(10, 15), out=buf) is buf
        assert buf.tobytes() == video.decode()[10:15].tobytes()
        picked, head = np.array([3, 9, 200]), buf[:3]
        assert video.decode(picked, out=head) is head
        assert buf[:3].tobytes() == video.decode()[picked].tobytes()

    def test_frames_are_finite_unit_range(self, video):
        frames = video.decode()
        assert frames.dtype == np.float32
        assert np.all(np.isfinite(frames))
        assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_minimum_length_enforced(self):
        with pytest.raises(ConfigurationError):
            sd.generate_video(seed=0, length=23)

    def test_cue_precedes_every_transition(self, video):
        transitions = transition_frames(video.labels)
        assert transitions, "expected at least one action change in 240 frames"
        for f in transitions:
            upcoming = video.labels[f]
            for g in range(f - sd.CUE_LEAD, f):
                assert cue_visible(video.decode(g)) == upcoming

    def test_cue_iff_transition_within_lead(self, video):
        transitions = transition_frames(video.labels)
        for f in range(len(video) - sd.CUE_LEAD):
            has_cue = cue_visible(video.decode(f)) is not None
            incoming = any(ft in transitions for ft in range(f + 1, f + sd.CUE_LEAD + 1))
            assert has_cue == incoming, f"cue/transition mismatch at frame {f}"

    def test_label_histogram_covers_all_classes(self, dataset):
        labels = np.concatenate([v.labels for v in dataset])
        assert len(labels) >= 10_000
        shares = np.bincount(labels, minlength=sd.N_ACTIONS) / len(labels)
        assert shares.min() >= 0.02

    def test_dwell_times_within_range(self, video):
        marks = sorted(transition_frames(video.labels))
        dwells = np.diff(marks)
        assert np.all(dwells >= sd.DWELL_RANGE[0])
        assert np.all(dwells <= sd.DWELL_RANGE[1])

    def test_parallel_style_subseeding_is_order_free(self):
        # regenerating any single video by id matches the batch generation
        batch = sd.make_dataset(master_seed=3, n_videos=4, frames_per_video=48)
        solo = sd.generate_video(sd.derive_video_seed(3, 2), 48)
        assert batch[2].paint.tobytes() == solo.paint.tobytes()

    def test_next_action_draws_as_weighted_choice(self):
        # the precomputed CDFs give the same draw, and consume the same
        # generator state, as choice() with the renormalized weights
        def choice_draw(rng, current):
            w = sd._ACTION_WEIGHTS.copy()
            w[current] = 0.0
            return int(rng.choice(sd.N_ACTIONS, p=w / w.sum()))

        currents = np.random.default_rng(0).integers(0, sd.N_ACTIONS, size=3000)
        fast, ref = np.random.default_rng(11), np.random.default_rng(11)
        drawn = [sd._next_action(fast, int(c)) for c in currents]
        assert drawn == [choice_draw(ref, int(c)) for c in currents]
        assert fast.bit_generator.state == ref.bit_generator.state
        assert all(d != c for d, c in zip(drawn, currents))


class TestSplits:
    def test_ten_videos_six_two_two(self, dataset):
        train, val, test = sd.split_dataset(dataset[:10], seed=1)
        assert (len(train), len(val), len(test)) == (6, 2, 2)

    def test_five_videos_remainder_to_train(self, dataset):
        train, val, test = sd.split_dataset(dataset[:5], seed=1)
        assert (len(train), len(val), len(test)) == (3, 1, 1)

    def test_partition_property(self, dataset):
        train, val, test = sd.split_dataset(dataset[:11], seed=5)
        ids = [v.video_id for v in train + val + test]
        assert sorted(ids) == sorted(v.video_id for v in dataset[:11])
        assert len(set(ids)) == len(ids)

    def test_too_few_videos(self, dataset):
        with pytest.raises(ConfigurationError):
            sd.split_dataset(dataset[:2], seed=0)

    def test_deterministic_under_seed(self, dataset):
        a = sd.split_dataset(dataset[:10], seed=9)
        b = sd.split_dataset(dataset[:10], seed=9)
        assert [v.video_id for v in a[0]] == [v.video_id for v in b[0]]


class TestClips:
    def test_only_valid_start_when_exact_fit(self):
        video = sd.generate_video(seed=1, length=24)
        clip = sd.sample_clip(video, t=12, t_pred=12, rng=np.random.default_rng(0))
        assert clip.start == 0

    def test_past_is_the_window_at_start(self, video):
        rng = np.random.default_rng(2)
        clip = sd.sample_clip(video, t=6, t_pred=6, rng=rng)
        assert np.array_equal(clip.past, video.decode(slice(0, len(video)))[clip.start : clip.start + 6])

    def test_label_alignment_100_samples(self, video):
        rng = np.random.default_rng(3)
        for _ in range(100):
            clip = sd.sample_clip(video, t=6, t_pred=6, rng=rng)
            start = clip.start
            assert np.array_equal(clip.future_labels, video.labels[start + 6 : start + 12])

    def test_too_long_clip_rejected(self):
        video = sd.generate_video(seed=1, length=24)
        with pytest.raises(SamplingError):
            sd.sample_clip(video, t=20, t_pred=12, rng=np.random.default_rng(0))

    @given(st.integers(3, 12), st.integers(0, 12), st.integers(36, 60))
    @settings(max_examples=20, deadline=None)
    def test_eval_windows_inside_bounds(self, t, t_pred, length):
        starts = sd.eval_clip_starts(length, t, t_pred)
        assert all(0 <= s <= length - (t + t_pred) for s in starts)
        assert starts == sorted(starts)

