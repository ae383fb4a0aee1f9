import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fail_writes_halfway
from oracles import align_bruteforce, feature_csv_rowwise
from seqfuse import (
    ConfigError,
    DimMismatchError,
    EmptyTrackError,
    FrameTrack,
    LabeledSequence,
    LengthMismatchError,
    MalformedRowError,
    TokenFeature,
    TokenTrack,
    align_tokens_to_frames,
    fuse,
    parse_feature_csv,
    synth_generate,
    write_feature_csv,
)
from seqfuse.featureio import (
    frame_track_to_tokens,
    load_fused_datasets,
    load_labeled_sequence,
    load_manifest,
    read_label_csv,
    save_manifest,
    write_dataset,
    write_label_csv,
    Manifest,
    VideoEntry,
)
from seqfuse.util import write_atomic


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
        back = parse_feature_csv(path, name="big")
        assert back.dim == track.dim
        assert len(back.tokens) == len(track.tokens)
        for a, b in zip(track.tokens, back.tokens):
            assert a.start_ms == b.start_ms
            assert a.end_ms == b.end_ms
            assert np.array_equal(a.vector, b.vector)


def _runs(rng, n_rows, dim, max_run=6):
    """(n_rows, dim) matrix of runs of equal rows, about a third of them zero."""
    rows = []
    while len(rows) < n_rows:
        vector = rng.normal(size=dim) if rng.random() > 0.3 else np.zeros(dim)
        rows += [vector] * int(rng.integers(1, max_run + 1))
    return np.array(rows[:n_rows])


# Matrices whose rows repeat in the ways the writer's row reuse must get right.
WRITER_CASES = {
    "runs": [[1.0, 2.0]] * 3 + [[0.0, 0.0]] * 2 + [[0.5, -3.0]] + [[1.0, 2.0]] * 2,
    "signed-zeros": [[0.0, 0.0], [-0.0, -0.0]] * 3 + [[1.0, 0.0], [1.0, -0.0], [1.0, 0.0]],
    "last-cell-differs": [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [1.0, 2.0, 4.0], [1.0, 2.0, 3.0]],
    "single-row": [[0.1, -0.25]],
    "all-equal": [[0.1, 1e-300, -7.5]] * 50,
}


def _writer_track(matrix, backing):
    """A track over ``matrix``: frame-backed (one shared matrix) or TokenFeature-backed."""
    matrix = np.array(matrix, dtype=np.float64)
    if backing == "matrix":
        return frame_track_to_tokens(FrameTrack("w", matrix.shape[1], 250, matrix))
    return make_track(
        [(j * 100, j * 100 + 300, row) for j, row in enumerate(matrix)], dim=matrix.shape[1]
    )


class TestWriteFeatureCsv:
    @pytest.mark.parametrize("backing", ["matrix", "tokens"])
    @pytest.mark.parametrize("case", list(WRITER_CASES))
    def test_bytes_match_rowwise_oracle(self, tmp_path, case, backing):
        track = _writer_track(WRITER_CASES[case], backing)
        path = tmp_path / "w.csv"
        write_feature_csv(path, track)
        assert path.read_bytes() == feature_csv_rowwise(track).encode()
        back = parse_feature_csv(path)
        assert back.vectors.tobytes() == track.vectors.tobytes()

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_random_tracks_with_forced_repeats(self, tmp_path, data):
        dim = data.draw(st.integers(1, 5))
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        pool = data.draw(
            st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=4)
        )
        # Each vector's twin with its zeros' signs flipped: equal as floats, not as bits.
        pool += [[-v if v == 0.0 else v for v in vector] for vector in pool]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        # Repeat every pick one to three times, so runs of equal rows always occur.
        rows = [pool[k] for k in picks for _ in range(data.draw(st.integers(1, 3)))]
        backing = data.draw(st.sampled_from(["matrix", "tokens"]))
        track = _writer_track(rows, backing)
        path = tmp_path / "w.csv"
        write_feature_csv(path, track)
        assert path.read_bytes() == feature_csv_rowwise(track).encode()

    @pytest.mark.parametrize("backing", ["matrix", "tokens"])
    def test_peak_memory_no_higher_than_rowwise(self, tmp_path, backing):
        track = _writer_track(_runs(np.random.default_rng(5), 300, 768), backing)
        path = tmp_path / "w.csv"
        peaks = []
        for write in (
            lambda: write_feature_csv(path, track),
            lambda: write_atomic(path, feature_csv_rowwise(track)),
        ):
            tracemalloc.start()
            try:
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    def test_empty_track_rejected_without_writing(self, tmp_path):
        path = tmp_path / "w.csv"
        with pytest.raises(EmptyTrackError):
            write_feature_csv(path, TokenTrack("none", 2, []))
        assert list(tmp_path.iterdir()) == []


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
        fused = fuse([frame_track("a", data)])
        assert np.array_equal(fused, data)
        seq = LabeledSequence("v", [frame_track("a", data)], {"arousal": np.zeros(4)})
        assert np.array_equal(seq.data, data)
        assert seq.track_dims == (("a", 2),)
        assert seq.dim == 2

    def test_two_tracks_concatenate_rowwise(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 3))
        tracks = [frame_track("a", a), frame_track("b", b)]
        fused = fuse(tracks)
        assert fused.dtype == np.float64
        assert np.array_equal(fused, np.hstack([a, b]))
        for j in range(4):
            assert np.array_equal(fused[j, :2], a[j])
            assert np.array_equal(fused[j, 2:], b[j])
        seq = LabeledSequence("v", tracks, {"arousal": np.zeros(4)})
        assert np.array_equal(seq.data, fused)
        assert seq.dim == 5
        assert seq.track_dims == (("a", 2), ("b", 3))

    def test_length_mismatch(self):
        a = np.zeros((10, 2))
        b = np.zeros((9, 3))
        with pytest.raises(LengthMismatchError, match=r"frame count \[9, 10\]"):
            LabeledSequence("v", [frame_track("a", a), frame_track("b", b)], {})

    def test_label_length_mismatch(self):
        a = np.zeros((10, 2))
        with pytest.raises(LengthMismatchError, match="'arousal' have length 9"):
            LabeledSequence("v", [frame_track("a", a)], {"arousal": np.zeros(9)})

    def test_labeled_sequence_tracks_on_two_grids(self):
        tracks = [frame_track("a", np.zeros((4, 2))), FrameTrack("b", 1, 500, np.zeros((4, 1)))]
        with pytest.raises(LengthMismatchError, match=r"frame_len_ms \[250, 500\]"):
            LabeledSequence("v", tracks, {})

    def test_column_slice_recovers_tracks(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 3))
        seq = LabeledSequence(
            "v", [frame_track("a", a), frame_track("b", b)], {"arousal": np.zeros(6)}
        )
        for track, frames in zip(seq.tracks, (a, b)):
            assert np.shares_memory(seq.data, track.frames)
            assert not np.shares_memory(track.frames, frames)
            assert np.array_equal(track.frames, frames)
        assert np.array_equal(seq.data[:, :2], a)
        assert np.array_equal(seq.data[:, 2:], b)

    def test_pickle_sends_data_once_and_tracks_view_it(self, tmp_path):
        videos = synth_generate(4, 1, (120, 120), [300, 40, 7], 100.0)
        write_dataset(tmp_path, zip(["train"], videos))
        manifest = load_manifest(tmp_path / "manifest.json")
        seq = load_labeled_sequence(manifest, "video000", ["track0", "track1", "track2"])
        raw = pickle.dumps(seq)
        back = pickle.loads(raw)
        assert back.video_id == seq.video_id and back.track_dims == seq.track_dims
        assert back.data.tobytes() == seq.data.tobytes()
        assert back.labels.keys() == seq.labels.keys()
        for target, values in seq.labels.items():
            assert back.labels[target].tobytes() == values.tobytes()
        assert back.label_bytes == seq.label_bytes and len(seq.label_bytes) == 2
        for track, original in zip(back.tracks, seq.tracks):
            assert np.shares_memory(track.frames, back.data)
            assert track.frames.tobytes() == original.frames.tobytes()
            assert track.frame_len_ms == original.frame_len_ms
        label_size = sum(v.nbytes for v in seq.labels.values())
        label_size += sum(map(len, seq.label_bytes.values()))
        assert len(raw) < 1.1 * seq.data.nbytes + label_size


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

    @pytest.mark.parametrize("snr", [float("nan"), 0.0, -1.0])
    def test_snr_not_positive_rejected(self, snr):
        with pytest.raises(ConfigError, match=r"^snr must be positive, got "):
            synth_generate(1, 1, (4, 4), [2], snr)

    def test_frame_grid_past_int64_rejected(self):
        last = (2**63 - 1) // 250  # the last row whose frame_ms fits in int64
        with pytest.raises(ConfigError, match="past the int64 range"):
            synth_generate(1, 1, (2, last + 2), [2], 100.0)
        with pytest.raises(ConfigError, match="past the int64 range"):
            synth_generate(1, 1, (2, 10**20), [2], 100.0)


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

    @pytest.mark.parametrize(
        "values, error",
        [
            ([], EmptyTrackError),
            ([0.5, np.nan], MalformedRowError),
            ([np.inf], MalformedRowError),
            ([2.0, np.nan], MalformedRowError),
            ([0.0, -1.5], MalformedRowError),
            ([[0.5, 0.25]], MalformedRowError),
        ],
        ids=["empty", "nan", "inf", "out-of-range-then-nan", "below-range", "2-d"],
    )
    def test_write_rejects_what_read_rejects(self, tmp_path, values, error):
        path = tmp_path / "lab.csv"
        with pytest.raises(error):
            write_label_csv(path, np.array(values, dtype=np.float64))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "frame_len_ms, rows, lineno, grid",
        [
            (2**63 - 1, [0, 2**63 - 1, -2], 4, 2 * (2**63 - 1)),  # -2 once the grid wraps
            (2**62, [0, 2**62, 0], 4, 2**63),
            (2**63, [0, 0], 3, 2**63),
        ],
        ids=["wrapping-grid", "grid-one-past", "frame-len-past"],
    )
    def test_grid_past_int64_rejected_at_its_first_row(
        self, tmp_path, frame_len_ms, rows, lineno, grid
    ):
        path = tmp_path / "lab.csv"
        path.write_text("frame_ms,value\n" + "".join(f"{ms},0.5\n" for ms in rows))
        with pytest.raises(MalformedRowError) as err:
            read_label_csv(path, frame_len_ms)
        assert str(err.value) == f"{path}:{lineno}: frame_ms {rows[-1]} != {grid}"
        path.write_text("frame_ms,value\n" + "".join(f"{ms},0.5\n" for ms in rows[:-1]))
        assert np.array_equal(read_label_csv(path, frame_len_ms), [0.5] * (len(rows) - 1))

    def test_write_refuses_frame_ms_past_int64(self, tmp_path):
        path = tmp_path / "lab.csv"
        with pytest.raises(MalformedRowError, match=f"frame 2: frame_ms {2**63} is past the int64"):
            write_label_csv(path, np.array([0.5, 0.25, 0.0]), 2**62)
        assert list(tmp_path.iterdir()) == []
        write_label_csv(path, np.array([0.5, 0.25]), 2**62)
        assert path.read_text() == f"frame_ms,value\n0,0.5\n{2**62},0.25\n"
        assert np.array_equal(read_label_csv(path, 2**62), [0.5, 0.25])


class TestCheckSameTracks:
    """Videos of one partition must have the first video's tracks and dims."""

    @pytest.mark.parametrize("dims_per_video,message", [
        ([[2, 3], [2]], "video001: has no track 'track1' where video000 has one of dim 3"),
        ([[2], [2, 3]], "video001: has track 'track1' of dim 3 where video000 has no such track"),
        ([[2, 3], [2, 4]],
         "video001: track 'track1' has dim 4 where video000 has track 'track1' of dim 3"),
    ], ids=["missing", "extra", "other-dim"])
    def test_first_difference_named(self, tmp_path, dims_per_video, message):
        videos = []
        for k, dims in enumerate(dims_per_video):
            (video,) = synth_generate(k, 1, (6, 6), dims, 100.0)
            video.video_id = f"video{k:03d}"
            videos.append(video)
        write_dataset(tmp_path, zip(["train"] * len(videos), videos))
        with pytest.raises(DimMismatchError) as info:
            load_fused_datasets(load_manifest(tmp_path / "manifest.json"), ["train"])
        assert str(info.value) == message


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

    def test_write_dataset_round_trips_on_its_frame_grid(self, tmp_path):
        videos = synth_generate(4, 2, (3, 5), [2, 1], 100.0)
        for video in videos:
            for track in video.tracks:
                track.frame_len_ms = 500
        assert write_dataset(tmp_path, zip(["train", "test"], videos)) == 2
        assert json.loads((tmp_path / "manifest.json").read_text())["frame_len_ms"] == 500
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest.frame_len_ms == 500
        assert [manifest.videos[v.video_id].partition for v in videos] == ["train", "test"]
        for video in videos:
            back = load_labeled_sequence(manifest, video.video_id)
            for target, values in video.labels.items():
                assert np.array_equal(back.labels[target], values)
            for track, again in zip(video.tracks, back.tracks):
                assert np.array_equal(again.frames, track.frames)

    @pytest.mark.parametrize("frame_len_ms", [2**63, 2**64])
    def test_frame_len_past_int64_rejected(self, tmp_path, frame_len_ms):
        path = tmp_path / "m.json"
        entry = {"partition": "train", "features": {"a": "f.csv"}, "labels": {"arousal": "l.csv"}}
        path.write_text(json.dumps({"frame_len_ms": frame_len_ms, "videos": {"v": entry}}))
        with pytest.raises(ConfigError, match=f"frame_len_ms {frame_len_ms} is past the int64"):
            load_manifest(path)
        path.write_text(json.dumps({"frame_len_ms": 2**63 - 1, "videos": {"v": entry}}))
        assert load_manifest(path).frame_len_ms == 2**63 - 1

    def test_frames_ending_past_int64_rejected_before_any_file(self, tmp_path):
        (video,) = synth_generate(3, 1, (2, 2), [2], 100.0)
        video.tracks[0].frame_len_ms = 2**63 - 1  # frame 1 would end at 2**64 - 2
        with pytest.raises(MalformedRowError, match="video000: frame 1 ends past int64"):
            write_dataset(tmp_path, [("train", video)])
        assert [list(tmp_path.glob(f"{d}/*")) for d in ("features", "labels")] == [[], []]

    def test_track_off_the_grid_rejected_before_any_file(self, tmp_path):
        (video,) = synth_generate(3, 1, (6, 6), [2, 3], 100.0)
        video.tracks[1].frame_len_ms = 500
        with pytest.raises(LengthMismatchError, match=r"video000: .*\[250, 500\]"):
            write_dataset(tmp_path, [("train", video)])
        assert [list(tmp_path.glob(f"{d}/*")) for d in ("features", "labels")] == [[], []]
        assert not (tmp_path / "manifest.json").exists()

    def test_later_sequence_on_another_grid_rejected_before_its_files(self, tmp_path):
        first, second = synth_generate(3, 2, (6, 6), [2, 3], 100.0)
        for track in second.tracks:
            track.frame_len_ms = 500
        with pytest.raises(LengthMismatchError, match="video001"):
            write_dataset(tmp_path, [("train", first), ("devel", second)])
        written = sorted(p.name for p in tmp_path.glob("*/*"))
        assert written and all(name.startswith("video000_") for name in written)
        assert not (tmp_path / "manifest.json").exists()

    def test_colliding_sequence_writes_none_of_its_files(self, tmp_path):
        first, second = synth_generate(3, 2, (6, 6), [2, 3], 100.0)
        # Only second's last file, after its labels and track0, collides:
        # "video000" + "_" + "x_track1" == "video000_x" + "_" + "track1".
        first.tracks[1].name = "x_track1"
        second.video_id = "video000_x"
        write_dataset(tmp_path / "ref", [("train", first)])
        collision = tmp_path / "out" / "features" / "video000_x_track1.csv"
        with pytest.raises(ConfigError, match=re.escape(f"{collision}: two dataset entries")):
            write_dataset(tmp_path / "out", [("train", first), ("devel", second)])
        written = {p.relative_to(tmp_path / "out"): p.read_bytes()
                   for p in (tmp_path / "out").rglob("*") if p.is_file()}
        assert written == {p.relative_to(tmp_path / "ref"): p.read_bytes()
                           for p in (tmp_path / "ref").glob("*/*")}
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("name", ["../x", "a\\b", "a\0b"], ids=["slash", "backslash", "nul"])
    @pytest.mark.parametrize("where", ["video", "track", "target"])
    def test_name_that_is_not_a_file_name_part_rejected(self, tmp_path, where, name):
        entry = {"partition": "train", "features": {"a": "f.csv"}, "labels": {"arousal": "l.csv"}}
        if where == "track":
            entry["features"] = {name: "f.csv"}
        elif where == "target":
            entry["labels"] = {name: "l.csv"}
        vid = name if where == "video" else "v"
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"videos": {vid: entry}}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: video {vid!r}")):
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
        (dataset,) = load_fused_datasets(load_manifest(raw / "manifest.json"), ["all"])
        assert [seq.dim for seq in dataset] == [5, 5, 5]
        assert all(np.shares_memory(seq.data, tr.frames) for seq in dataset for tr in seq.tracks)
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
