import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fail_writes_halfway
from oracles import align_bruteforce
from seqfuse import (
    DimMismatchError,
    EmptyTrackError,
    FrameTrack,
    LengthMismatchError,
    MalformedRowError,
    TokenFeature,
    TokenTrack,
    align_tokens_to_frames,
    fuse,
    load_fused_dataset,
    parse_feature_csv,
    synth_generate,
    write_feature_csv,
)
from seqfuse.featureio import (
    frame_track_to_tokens,
    load_manifest,
    read_label_csv,
    save_manifest,
    write_label_csv,
    Manifest,
    VideoEntry,
)


def make_track(tokens, dim, name="trk"):
    return TokenTrack(name, dim, [TokenFeature(s, e, np.array(v, float)) for s, e, v in tokens])


def random_track(rng, n_tokens, dim, max_ms=20_000):
    tokens = []
    for _ in range(n_tokens):
        start = int(rng.integers(0, max_ms))
        length = int(rng.integers(1, 800))
        vec = rng.normal(size=dim)
        tokens.append(TokenFeature(start, start + length, vec))
    return TokenTrack("rand", dim, tokens)


# ---------------------------------------------------------------------------
# parse/write feature CSV
# ---------------------------------------------------------------------------


class TestParseFeatureCsv:
    def test_two_row_readback(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start_ms,end_ms,f0,f1\n0,250,1.0,0.0\n250,500,3.0,2.0\n")
        track = parse_feature_csv(path)
        assert track.dim == 2
        assert len(track.tokens) == 2
        assert track.name == "t"
        assert track.tokens[0].start_ms == 0 and track.tokens[0].end_ms == 250
        assert np.array_equal(track.tokens[0].vector, [1.0, 0.0])
        assert np.array_equal(track.tokens[1].vector, [3.0, 2.0])

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start_ms,end_ms,f0,f1\n0,250,1.0,abc\n")
        with pytest.raises(MalformedRowError):
            parse_feature_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start_ms,end_ms,f0,f1\n0,250,1.0\n")
        with pytest.raises(MalformedRowError):
            parse_feature_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        path.write_text(f"start_ms,end_ms,f0,f1\n0,250,1.0,{bad}\n")
        with pytest.raises(MalformedRowError):
            parse_feature_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("begin,end,f0\n0,250,1.0\n")
        with pytest.raises(MalformedRowError):
            parse_feature_csv(path)

    def test_empty_span(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start_ms,end_ms,f0\n250,250,1.0\n")
        with pytest.raises(MalformedRowError):
            parse_feature_csv(path)

    def test_expected_dim_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start_ms,end_ms,f0,f1\n0,250,1.0,2.0\n")
        with pytest.raises(DimMismatchError):
            parse_feature_csv(path, expected_dim=3)

    def test_empty_track(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("start_ms,end_ms,f0,f1\n")
        with pytest.raises(EmptyTrackError):
            parse_feature_csv(path)

    def test_rows_sorted_stably_by_start(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "start_ms,end_ms,f0\n500,750,1.0\n0,250,2.0\n500,600,3.0\n"
        )
        track = parse_feature_csv(path)
        starts = [tok.start_ms for tok in track.tokens]
        assert starts == [0, 500, 500]
        # stable: the two start=500 rows keep file order
        assert track.tokens[1].vector[0] == 1.0
        assert track.tokens[2].vector[0] == 3.0

    def test_roundtrip_1000_random_rows(self, tmp_path):
        rng = np.random.default_rng(99)
        starts = np.sort(rng.integers(0, 100_000, size=1000))
        tokens = [
            TokenFeature(int(s), int(s) + int(rng.integers(1, 500)), rng.normal(size=5))
            for s in starts
        ]
        track = TokenTrack("big", 5, tokens)
        path = tmp_path / "big.csv"
        write_feature_csv(path, track)
        back = parse_feature_csv(path, expected_dim=5, name="big")
        assert back.dim == track.dim
        assert len(back.tokens) == len(track.tokens)
        for a, b in zip(track.tokens, back.tokens):
            assert a.start_ms == b.start_ms
            assert a.end_ms == b.end_ms
            assert np.array_equal(a.vector, b.vector)


# Bad data rows after a valid header: (id, body, file line of the first bad
# row). Blank lines count in line numbers but hold no row.
BAD_FEATURE_ROWS = [
    ("wrong-column-count-mid", "0,250,1.0,2.0\n250,500,1.0\n500,750,1.0,2.0\n", 3),
    ("extra-column-mid", "0,250,1.0,2.0\n250,500,1.0,2.0,3.0\n", 3),
    ("float-span", "0,250,1.0,2.0\n250.0,500,1.0,2.0\n", 3),
    ("empty-span-cell", "0,,1.0,2.0\n", 2),
    ("empty-span", "0,250,1.0,2.0\n250,250,1.0,2.0\n", 3),
    ("reversed-span", "500,250,1.0,2.0\n", 2),
    ("nan", "0,250,nan,2.0\n", 2),
    ("inf", "0,250,1.0,inf\n", 2),
    ("minus-inf", "0,250,-inf,2.0\n", 2),
    ("non-numeric-value", "0,250,1.0,abc\n", 2),
    ("non-numeric-span", "zero,250,1.0,2.0\n", 2),
    ("span-beyond-int64", "0,9223372036854775808,1.0,2.0\n", 2),
    ("span-below-int64", "-9223372036854775809,0,1.0,2.0\n", 2),
    ("blank-lines-mixed", "\n0,250,1.0,2.0\n\n\n250,500,1.0,x\n", 6),
    ("blank-line-then-empty-span", "0,250,1.0,2.0\n\n250,250,1.0,2.0\n", 4),
    ("whitespace-only-line", "0,250,1.0,2.0\n   \n", 3),
    # float() and int() accept these; the bulk parser does not.
    ("underscore-digits", "0,250,1_000.5,2.0\n", 2),
    ("non-ascii-digits", "0,250,\u0661.5,2.0\n", 2),
    ("underscore-span", "0,2_50,1.0,2.0\n", 2),
    ("non-ascii-span", "0,\u0662\u0665\u0660,1.0,2.0\n", 2),
]

BAD_LABEL_ROWS = [
    ("float-frame", "0,0.5\n250.0,0.5\n", 3),
    ("off-grid", "0,0.5\n300,0.5\n", 3),
    ("out-of-range", "0,0.5\n250,1.5\n", 3),
    ("nan", "0,nan\n", 2),
    ("non-numeric", "0,abc\n", 2),
    ("wrong-column-count", "0,0.5,1\n", 2),
    ("frame-beyond-int64", "9223372036854775808,0.5\n", 2),
    ("blank-lines-mixed", "0,0.5\n\n\n250,2.0\n", 5),
]

FEATURE_HEADER = "start_ms,end_ms,f0,f1\n"
LABEL_HEADER = "frame_ms,value\n"


def _ids(cases):
    return [case[0] for case in cases]


def _one_video_dataset(root, features, labels):
    """One train video with feature track ``a`` and arousal labels."""
    root.mkdir()
    (root / "v_a.csv").write_text(features, encoding="utf-8")
    (root / "v_ar.csv").write_text(labels, encoding="utf-8")
    manifest = {
        "videos": {
            "v": {
                "partition": "train",
                "features": {"a": "v_a.csv"},
                "labels": {"arousal": "v_ar.csv"},
            }
        }
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root / "manifest.json"


class TestBadRows:
    @pytest.mark.parametrize("case, body, lineno", BAD_FEATURE_ROWS, ids=_ids(BAD_FEATURE_ROWS))
    def test_feature_error_names_path_and_line(self, tmp_path, case, body, lineno):
        path = tmp_path / "t.csv"
        path.write_text(FEATURE_HEADER + body, encoding="utf-8")
        with pytest.raises(MalformedRowError) as err:
            parse_feature_csv(path)
        assert f"{path}:{lineno}: " in str(err.value)

    @pytest.mark.parametrize("case, body, lineno", BAD_LABEL_ROWS, ids=_ids(BAD_LABEL_ROWS))
    def test_label_error_names_path_and_line(self, tmp_path, case, body, lineno):
        path = tmp_path / "lab.csv"
        path.write_text(LABEL_HEADER + body, encoding="utf-8")
        with pytest.raises(MalformedRowError) as err:
            read_label_csv(path)
        assert f"{path}:{lineno}: " in str(err.value)

    @pytest.mark.parametrize(
        "case, body, lineno",
        [("features-" + c[0], *c[1:]) for c in BAD_FEATURE_ROWS]
        + [("labels-" + c[0], *c[1:]) for c in BAD_LABEL_ROWS],
        ids=["features-" + c for c in _ids(BAD_FEATURE_ROWS)]
        + ["labels-" + c for c in _ids(BAD_LABEL_ROWS)],
    )
    def test_align_exits_2(self, tmp_path, run_cli, case, body, lineno):
        features = FEATURE_HEADER + "0,500,1.0,2.0\n"
        labels = LABEL_HEADER + "0,0.5\n250,0.5\n"
        if case.startswith("features-"):
            features, bad = FEATURE_HEADER + body, "v_a.csv"
        else:
            labels, bad = LABEL_HEADER + body, "v_ar.csv"
        manifest = _one_video_dataset(tmp_path / "data", features, labels)
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", tmp_path / "out")
        assert code == 2, err
        assert f"{bad}:{lineno}: " in err
        assert "Traceback" not in err

    def test_first_bad_row_wins(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(FEATURE_HEADER + "0,250,1.0,2.0\n0,250,nan,1.0\n0,0,1.0,2.0\n")
        with pytest.raises(MalformedRowError, match=r"t\.csv:3: "):
            parse_feature_csv(path)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


class TestAlign:
    def test_single_token_covers_all_frames(self):
        track = make_track([(0, 1000, [2.0])], dim=1)
        out = align_tokens_to_frames(track, 250, 4)
        assert np.array_equal(out.frames, [[2.0], [2.0], [2.0], [2.0]])

    def test_mean_of_two_overlapping_tokens(self):
        track = make_track([(0, 500, [1.0, 0.0]), (250, 500, [3.0, 2.0])], dim=2)
        out = align_tokens_to_frames(track, 250, 2)
        assert np.array_equal(out.frames[0], [1.0, 0.0])
        assert np.array_equal(out.frames[1], [2.0, 1.0])

    def test_uncovered_frames_are_zero(self):
        track = make_track([(0, 250, [1.0, 5.0])], dim=2)
        out = align_tokens_to_frames(track, 250, 3)
        assert np.array_equal(out.frames[1], [0.0, 0.0])
        assert np.array_equal(out.frames[2], [0.0, 0.0])

    def test_boundary_token_does_not_leak(self):
        # span ending exactly at a frame start does not overlap that frame
        track = make_track([(0, 250, [1.0]), (250, 500, [3.0])], dim=1)
        out = align_tokens_to_frames(track, 250, 2)
        assert np.array_equal(out.frames, [[1.0], [3.0]])

    def test_empty_token_list_yields_zeros(self):
        track = TokenTrack("empty", 2, [])
        out = align_tokens_to_frames(track, 250, 4)
        assert np.array_equal(out.frames, np.zeros((4, 2)))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            track = random_track(rng, 200, dim=3, max_ms=50 * 250)
            ours = align_tokens_to_frames(track, 250, 50)
            ref = align_bruteforce(track, 250, 50)
            assert np.array_equal(ours.frames, ref.frames), f"trial {trial}"

    def test_tiling_tokens_reproduce_vectors(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(6, 4))
        tokens = [(j * 250, (j + 1) * 250, vectors[j]) for j in range(6)]
        track = make_track(tokens, dim=4)
        out = align_tokens_to_frames(track, 250, 6)
        assert np.array_equal(out.frames, vectors)

    @settings(max_examples=50, deadline=None)
    @given(
        starts=st.lists(
            st.integers(min_value=0, max_value=3000), min_size=1, max_size=30, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_token_order_invariance(self, starts, seed):
        rng = np.random.default_rng(seed)
        tokens = [
            TokenFeature(s, s + int(rng.integers(1, 700)), rng.normal(size=2))
            for s in starts
        ]
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        a = align_tokens_to_frames(TokenTrack("a", 2, tokens), 250, 8)
        b = align_tokens_to_frames(TokenTrack("b", 2, shuffled), 250, 8)
        assert np.array_equal(a.frames, b.frames)

    def test_duplicate_spans_average_close(self):
        # ties in start_ms: order among them may vary, result is the same mean
        track_a = make_track([(0, 250, [1.0]), (0, 250, [2.0]), (0, 250, [4.0])], dim=1)
        track_b = make_track([(0, 250, [4.0]), (0, 250, [2.0]), (0, 250, [1.0])], dim=1)
        a = align_tokens_to_frames(track_a, 250, 1)
        b = align_tokens_to_frames(track_b, 250, 1)
        np.testing.assert_allclose(a.frames, b.frames, atol=1e-12)
        np.testing.assert_allclose(a.frames, [[7.0 / 3.0]], atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_tokens=st.integers(0, 60))
    def test_output_always_finite(self, seed, n_tokens):
        rng = np.random.default_rng(seed)
        track = (
            random_track(rng, n_tokens, dim=2)
            if n_tokens
            else TokenTrack("none", 2, [])
        )
        out = align_tokens_to_frames(track, 250, 12)
        assert np.all(np.isfinite(out.frames))


@st.composite
def adversarial_alignments(draw):
    """(track, frame_len_ms, n_frames) with spans chosen to break alignment.

    Starts run from before 0 to past the label horizon, lengths include 1 ms
    and spans longer than the horizon, some spans are repeated, the token list
    is shuffled, and values include signed zeros.
    """
    frame_len_ms = draw(st.sampled_from([1, 7, 250, 1000]))
    n_frames = draw(st.integers(1, 12))
    horizon = frame_len_ms * n_frames
    span = st.tuples(
        st.integers(-2 * horizon - 3, 2 * horizon + 3),
        st.one_of(st.just(1), st.integers(1, 3 * horizon + 3)),
    )
    spans = draw(st.lists(span, max_size=20))
    if spans:
        spans = draw(st.permutations(spans + draw(st.lists(st.sampled_from(spans), max_size=5))))
    dim = draw(st.integers(1, 3))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    tokens = [
        TokenFeature(start, start + length, np.array(draw(st.lists(value, min_size=dim, max_size=dim))))
        for start, length in spans
    ]
    return TokenTrack("adversarial", dim, tokens), frame_len_ms, n_frames


class TestAlignAdversarial:
    @settings(max_examples=200, deadline=None)
    @given(case=adversarial_alignments())
    def test_matches_bruteforce_oracle(self, case):
        track, frame_len_ms, n_frames = case
        ours = align_tokens_to_frames(track, frame_len_ms, n_frames)
        ref = align_bruteforce(track, frame_len_ms, n_frames)
        assert np.array_equal(ours.frames, ref.frames)
        assert np.array_equal(np.signbit(ours.frames), np.signbit(ref.frames))

    def test_long_overlapping_tokens_bounded_memory(self):
        rng = np.random.default_rng(3)
        dim, frame_len_ms, n_frames = 64, 250, 500
        starts = rng.integers(0, 100 * frame_len_ms, size=2000)
        tokens = [
            TokenFeature(int(s), int(s) + 400 * frame_len_ms, rng.normal(size=dim))
            for s in starts
        ]
        track = TokenTrack("long", dim, tokens)
        tracemalloc.start()
        try:
            ours = align_tokens_to_frames(track, frame_len_ms, n_frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 800k (token, frame) pairs of 64 cells: gathering them at once
        # would take over 400 MB.
        assert peak < 32 * 2**20
        ref = align_bruteforce(track, frame_len_ms, n_frames)
        assert np.array_equal(ours.frames, ref.frames)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def frame_track(name, data):
    data = np.asarray(data, dtype=float)
    return FrameTrack(name, data.shape[1], 250, data)


class TestFuse:
    def test_single_track_identity(self):
        data = np.arange(8.0).reshape(4, 2)
        fused = fuse([frame_track("a", data)], {"arousal": np.zeros(4)})
        assert np.array_equal(fused.data, data)
        assert fused.track_dims == (("a", 2),)

    def test_two_tracks_concatenate_rowwise(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 3))
        fused = fuse(
            [frame_track("a", a), frame_track("b", b)], {"arousal": np.zeros(4)}
        )
        assert fused.dim == 5
        for j in range(4):
            assert np.array_equal(fused.data[j, :2], a[j])
            assert np.array_equal(fused.data[j, 2:], b[j])

    def test_length_mismatch(self):
        a = np.zeros((10, 2))
        b = np.zeros((9, 3))
        with pytest.raises(LengthMismatchError):
            fuse([frame_track("a", a), frame_track("b", b)], {})

    def test_label_length_mismatch(self):
        a = np.zeros((10, 2))
        with pytest.raises(LengthMismatchError):
            fuse([frame_track("a", a)], {"arousal": np.zeros(9)})

    def test_column_slice_recovers_tracks(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 3))
        fused = fuse(
            [frame_track("a", a), frame_track("b", b)], {"arousal": np.zeros(6)}
        )
        assert np.array_equal(fused.track_slice("a"), a)
        assert np.array_equal(fused.track_slice("b"), b)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


class TestSynthGenerate:
    def test_same_seed_bitwise_identical(self):
        a = synth_generate(7, 4, (10, 30), [3, 2], 50.0)
        b = synth_generate(7, 4, (10, 30), [3, 2], 50.0)
        assert len(a) == len(b) == 4
        for va, vb in zip(a, b):
            assert va.video_id == vb.video_id
            for ta, tb in zip(va.tracks, vb.tracks):
                assert np.array_equal(ta.frames, tb.frames)
            for target in va.labels:
                assert np.array_equal(va.labels[target], vb.labels[target])

    def test_postconditions(self):
        videos = synth_generate(1, 5, (5, 25), [4, 6], 10.0)
        for v in videos:
            t = v.n_frames
            assert 5 <= t <= 25
            assert set(v.labels) == {"arousal", "valence"}
            for values in v.labels.values():
                assert values.shape == (t,)
                assert np.all(values >= -1.0) and np.all(values <= 1.0)
            assert [tr.dim for tr in v.tracks] == [4, 6]
            for tr in v.tracks:
                assert tr.n_frames == t

    def test_labels_recoverable_by_least_squares(self):
        videos = synth_generate(3, 8, (60, 100), [4, 6], 100.0)
        X = np.vstack([np.hstack([tr.frames for tr in v.tracks]) for v in videos])
        X1 = np.hstack([X, np.ones((X.shape[0], 1))])
        for target in ("arousal", "valence"):
            y = np.concatenate([v.labels[target] for v in videos])
            coef, *_ = np.linalg.lstsq(X1, y, rcond=None)
            mse = float(np.mean((X1 @ coef - y) ** 2))
            assert mse < 0.01, f"{target}: linear readout MSE {mse}"

    def test_different_seeds_differ(self):
        a = synth_generate(1, 2, (10, 10), [3], 50.0)
        b = synth_generate(2, 2, (10, 10), [3], 50.0)
        assert not np.array_equal(a[0].tracks[0].frames, b[0].tracks[0].frames)


# ---------------------------------------------------------------------------
# label CSV and manifest
# ---------------------------------------------------------------------------


class TestLabelCsv:
    def test_roundtrip(self, tmp_path):
        values = np.array([-1.0, 0.25, 1.0, -0.125])
        path = tmp_path / "lab.csv"
        write_label_csv(path, values)
        assert np.array_equal(read_label_csv(path), values)

    def test_bad_grid(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("frame_ms,value\n0,0.5\n300,0.5\n")
        with pytest.raises(MalformedRowError):
            read_label_csv(path)

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("frame_ms,value\n0,1.5\n")
        with pytest.raises(MalformedRowError):
            read_label_csv(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "lab.csv"
        path.write_text("frame_ms,value\n")
        with pytest.raises(EmptyTrackError):
            read_label_csv(path)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = Manifest(
            {
                "vid1": VideoEntry(
                    "train", {"a": "features/vid1_a.csv"}, {"arousal": "labels/v1.csv"}
                ),
                "vid2": VideoEntry(
                    "devel", {"a": "features/vid2_a.csv"}, {"arousal": "labels/v2.csv"}
                ),
            }
        )
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        back = load_manifest(path)
        assert back.video_ids() == ["vid1", "vid2"]
        assert back.video_ids("devel") == ["vid2"]
        assert back.videos["vid1"].features == {"a": "features/vid1_a.csv"}
        assert back.root == tmp_path

    def test_bad_partition(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"videos": {"v": {"partition": "dev", "features": {"a": "x"}, "labels": {"arousal": "y"}}}}'
        )
        from seqfuse import ConfigError

        with pytest.raises(ConfigError):
            load_manifest(path)

    def test_frame_track_to_tokens_tiles_grid(self):
        data = np.arange(6.0).reshape(3, 2)
        tokens = frame_track_to_tokens(FrameTrack("a", 2, 250, data))
        assert [(t.start_ms, t.end_ms) for t in tokens.tokens] == [
            (0, 250),
            (250, 500),
            (500, 750),
        ]
        for j, tok in enumerate(tokens.tokens):
            assert np.array_equal(tok.vector, data[j])


class TestColumnarTracks:
    def test_list_constructor_keeps_token_arrays(self):
        late, early = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        track = TokenTrack("t", 2, [TokenFeature(250, 500, late), TokenFeature(0, 250, early)])
        assert track.start_ms.dtype == np.int64 and track.start_ms.tolist() == [0, 250]
        assert track.end_ms.tolist() == [250, 500]
        assert all(tok.vector is v for tok, v in zip(track.tokens, (early, late)))
        assert np.array_equal(track.vectors, [[3.0, 4.0], [1.0, 2.0]])

    def test_frame_track_to_tokens_shares_frames(self):
        frames = np.arange(6.0).reshape(3, 2)
        track = frame_track_to_tokens(FrameTrack("a", 2, 250, frames))
        assert np.shares_memory(track.vectors, frames)
        assert track.start_ms.tolist() == [0, 250, 500]

    def test_load_path_builds_no_token_objects(self, tmp_path, run_cli, monkeypatch):
        def refuse(self):
            raise AssertionError("a TokenFeature was built")

        monkeypatch.setattr(TokenFeature, "__post_init__", refuse)
        raw = tmp_path / "raw"
        code, _, err = run_cli(
            "synth", "--out-dir", raw, "--seed", 2, "--n-train", 2, "--n-devel", 1,
            "--dims", "2,3", "--t-range", "8:12",
        )
        assert code == 0, err
        dataset = load_fused_dataset(load_manifest(raw / "manifest.json"), "all")
        assert [seq.dim for seq in dataset] == [5, 5, 5]
        code, _, err = run_cli(
            "align", "--manifest", raw / "manifest.json", "--out-dir", tmp_path / "aligned"
        )
        assert code == 0, err


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_feature_csv(path, make_track([(0, 250, [1.0, 2.0])], dim=2)),
            lambda path: write_label_csv(path, np.array([0.5, -0.25])),
            lambda path: save_manifest(
                Manifest({"v": VideoEntry("train", {"a": "a.csv"}, {"arousal": "l.csv"})}),
                path,
            ),
        ],
        ids=["feature-csv", "label-csv", "manifest"],
    )
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artefact"
        write(path)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            write(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artefact"]
