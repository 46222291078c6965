"""Cadlag path queries: exact examples plus randomized invariants."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdelab import CadlagPath, PathBuilder, constant_path, sup_distance, write_path_csv
from sdelab.paths import path_csv_text
from sdelab.errors import PathDomainError


def two_step():
    return CadlagPath(np.array([0.0, 1.0]), np.array([[2.0], [5.0]]), 2.0)


def appended(builder: PathBuilder, t: float) -> PathBuilder:
    builder.append(t, 1.0)
    return builder


def frozen_at(p: CadlagPath, t: float) -> CadlagPath:
    """p rebuilt by a PathBuilder through its breakpoints up to t, then frozen."""
    k = int(np.searchsorted(p.breakpoints, t, side="right"))
    builder = PathBuilder(CadlagPath(p.breakpoints[:1], p.values[:1], p.start), p.end, k - 1)
    for bt, v in zip(p.breakpoints[1:k], p.values[1:k]):
        builder.append(bt, v)
    return builder.freeze()


class TestValueAt:
    def test_constant_path(self):
        p = constant_path(1.0, -1.0, 2.0)
        assert p.value_at(0.5) == pytest.approx(1.0)

    def test_right_continuity_at_jump(self):
        assert two_step().value_at(1.0)[0] == 5.0

    def test_within_first_segment(self):
        assert two_step().value_at(0.999)[0] == 2.0

    def test_domain_errors(self):
        p = two_step()
        with pytest.raises(PathDomainError):
            p.value_at(-0.1)
        with pytest.raises(PathDomainError):
            p.value_at(2.5)


class TestLeftLimit:
    def test_differs_from_value_at_jump(self):
        assert two_step().left_limit(1.0)[0] == 2.0

    def test_constant(self):
        p = constant_path(3.0, 0.0, 2.0)
        assert p.left_limit(1.7)[0] == 3.0

    def test_three_segments(self):
        p = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [4.0], [2.0]]), 1.0)
        assert p.left_limit(1.0)[0] == 4.0

    def test_undefined_at_start(self):
        with pytest.raises(PathDomainError):
            two_step().left_limit(0.0)


class TestWindowSup:
    def test_includes_right_endpoint(self):
        p = CadlagPath(np.array([0.0, 1.0]), np.array([[2.0], [-5.0]]), 1.0)
        assert p.window_sup(0.0, 1.0) == 5.0

    def test_constant(self):
        assert constant_path(1.0, 0.0, 3.0).window_sup(0.2, 2.9) == 1.0

    def test_interior_max(self):
        p = CadlagPath(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [4.0], [2.0]]), 1.0)
        assert p.window_sup(0.0, 0.6) == 4.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            two_step().window_sup(1.0, 0.5)

    def test_euclidean_norm(self):
        p = CadlagPath(np.array([0.0]), np.array([[3.0, 4.0]]), 1.0)
        assert p.window_sup(0.0, 1.0) == pytest.approx(5.0)


class TestHistory:
    """PathBuilder.freeze: the history built so far, constant to the end."""

    def test_identity_on_constants(self):
        h = frozen_at(constant_path(2.5, -1.0, 3.0), 1.0)
        for t in (-1.0, 0.0, 2.0, 3.0):
            assert h.value_at(t)[0] == 2.5

    def test_frozen_value_propagates(self):
        assert frozen_at(two_step(), 0.5).value_at(1.5)[0] == 2.0

    def test_idempotence(self):
        # Freezing twice gives the same view, and a later append leaves it be.
        builder = PathBuilder(constant_path(2.0, 0.0, 0.0), 2.0, 1)
        once = builder.freeze()
        twice = builder.freeze()
        builder.append(1.0, np.array([5.0]))
        assert np.array_equal(once.breakpoints, twice.breakpoints)
        assert np.array_equal(once.values, twice.values)
        assert once.value_at(1.5)[0] == 2.0

    def test_a_view_is_the_validated_path_of_its_data(self):
        # A view is built by one store of its attribute dict: it must not see
        # later appends, must hold what a validated path on the same arrays
        # holds, and shares the builder's jump-time tuple without a copy.
        seed = CadlagPath(np.array([-1.0, -0.5]), np.array([[1.0, 0.0], [2.0, 0.5]]), 0.0, (-0.5,))
        builder = PathBuilder(seed, 3.0, 3)
        first = builder.freeze()
        assert first.jump_times is seed.jump_times
        builder.append(0.5, np.array([4.0, 1.0]), jump=True)
        view = builder.freeze()
        assert builder.freeze().jump_times is view.jump_times
        builder.append(1.0, np.array([5.0, 2.0]))
        builder.append(2.0, 6.0, jump=True)
        assert view.breakpoints.tolist() == [-1.0, -0.5, 0.5] and view.jump_times == (-0.5, 0.5)
        assert view.value_at(2.5).tolist() == [4.0, 1.0] and first.value_at(2.5).tolist() == [2.0, 0.5]
        for v in (first, view, builder.freeze(), builder.finish()):
            p = CadlagPath(v.breakpoints, v.values, v.end, v.jump_times)
            assert v == p and p == v and repr(v) == repr(p) and vars(v) == vars(p)
            assert dataclasses.replace(v, end=4.0) == dataclasses.replace(p, end=4.0)
            assert dataclasses.replace(v).value_at(v.end).tolist() == p.value_at(p.end).tolist()
        assert builder.finish().jump_times == (-0.5, 0.5, 2.0)


def test_construction_invariants():
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.0, 0.0]), np.array([[1.0], [2.0]]), 1.0)
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.0, 1.0]), np.array([[1.0]]), 1.0)
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.0]), np.array([[1.0]]), -1.0)
    with pytest.raises(ValueError, match="values must be 2-d"):
        CadlagPath(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 1.0)


def test_paths_are_immutable():
    p = two_step()
    with pytest.raises(ValueError):
        p.values[0, 0] = 9.0


def test_sup_distance_exact():
    p = CadlagPath(np.array([0.0, 1.0]), np.array([[0.0], [3.0]]), 2.0)
    q = CadlagPath(np.array([0.0, 0.5]), np.array([[1.0], [1.0]]), 2.0)
    assert sup_distance(p, q, 0.0, 2.0) == pytest.approx(2.0)
    assert sup_distance(p, q, 0.0, 0.9) == pytest.approx(1.0)


def test_csv_dump():
    buf = io.StringIO()
    write_path_csv(CadlagPath(np.array([0.0, 1.0]), np.array([[2.0, 0.5], [5.0, -1.0]]), 2.0), buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x_1,x_2"
    assert lines[1] == "0.0,2.0,0.5"
    assert len(lines) == 3


def test_csv_text_puts_the_lead_before_each_row():
    # The one row format of witness CSVs and trajectories.csv: repr floats.
    p = CadlagPath(np.array([0.0, 0.1]), np.array([[1 / 3, -0.0], [1e-300, 2.5]]), 1.0)
    assert path_csv_text(p, "7,") == "7,0.0,0.3333333333333333,-0.0\n7,0.1,1e-300,2.5\n"
    buf = io.StringIO()
    write_path_csv(p, buf)
    assert buf.getvalue() == "t,x_1,x_2\n" + path_csv_text(p)


def test_csv_text_takes_a_lead_with_percent_signs_as_it_is():
    p = CadlagPath(np.array([0.0, 0.1]), np.array([[1 / 3, -0.0], [1e-300, 2.5]]), 1.0)
    assert path_csv_text(p, "%d%%r,") == "%d%%r,0.0,0.3333333333333333,-0.0\n%d%%r,0.1,1e-300,2.5\n"


def reference_csv_lines(path: CadlagPath, lead: str = "") -> str:
    """The per-line `%r` formatter that path_csv_text replaced, kept as its reference."""
    line = lead.replace("%", "%%") + "%r," + ",".join(["%r"] * path.dimension) + "\n"
    return "".join(map(line.__mod__, zip(path.breakpoints.tolist(), *path.values.T.tolist())))


SPECIAL_FLOATS = [-0.0, 1e-300, math.inf, -math.inf, math.nan]


@st.composite
def csv_paths(draw):
    d = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    times = sorted(draw(st.lists(finite, min_size=1, max_size=6, unique=True)))
    entry = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    values = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=len(times), max_size=len(times)))
    return CadlagPath(np.array(times), np.array(values), times[-1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_paths(), st.text(alphabet="%rds,7-", max_size=6))
@example(CadlagPath(np.array([0.0, 1.0]), np.array([SPECIAL_FLOATS[:3], SPECIAL_FLOATS[2:]]), 1.0), "%%r%d,")
def test_csv_text_is_the_per_line_formatter(p, lead):
    assert path_csv_text(p, lead) == reference_csv_lines(p, lead)


def test_a_float_append_stores_what_a_one_entry_row_does():
    # and an int time what the float time does: floats go through the
    # builder's memoryviews, an int or a row through numpy's item store
    values = [1 / 3, -0.0, 1e-300, math.inf, math.nan, -2.5]
    paths = []
    for as_row, int_time in ((False, False), (True, False), (False, True)):
        builder = PathBuilder(constant_path(0.5, 0.0, 0.0), 7.0, len(values))
        for t, v in enumerate(values, 1):
            builder.append(t if int_time else float(t), np.array([v]) if as_row else v, jump=t % 2 == 0)
        paths.append(builder.finish())
    floats = paths[0]
    for other in paths[1:]:
        assert floats.values.tobytes() == other.values.tobytes()
        assert floats.breakpoints.tobytes() == other.breakpoints.tobytes()
        assert floats.jump_times == other.jump_times == (2.0, 4.0, 6.0)


@pytest.mark.parametrize(
    "query",
    [
        lambda p: p.value_at(math.nan),
        lambda p: p.left_limit(math.nan),
        lambda p: p.window_sup(math.nan, 0.5),
        lambda p: p.window_sup(0.0, math.nan),
    ],
    ids=["value_at", "left_limit", "window_sup-a", "window_sup-b"],
)
def test_nan_time_is_outside_the_domain(query):
    # searchsorted puts NaN after every breakpoint, so each query used to
    # read the last segment and return 1.0.
    with pytest.raises(PathDomainError, match="t=nan outside path domain"):
        query(constant_path(1.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "make, problem",
    [
        (lambda: CadlagPath(np.empty(0), np.empty((0, 1)), 1.0), "non-empty 1-d"),
        (lambda: CadlagPath(np.array([0.0, math.inf]), np.ones((2, 1)), math.inf), "must be finite"),
        (lambda: two_step().window_sup(-0.5, 1.0), r"t=-0.5 outside path domain \[0.0, 2.0\]"),
        (lambda: two_step().window_sup(0.0, 2.5), r"t=2.5 outside path domain \[0.0, 2.0\]"),
        (lambda: two_step().window_sup(1.5, 0.5), "empty window: a=1.5 > b=0.5"),
        (lambda: two_step().values_at(np.array([0.0, 2.5])), "t=2.5 outside path domain"),
        (lambda: two_step().values_at(np.array([math.nan, 1.0])), "t=nan outside path domain"),
        (lambda: PathBuilder(two_step(), 1.0, 1), "builder end must extend the seed path"),
        (lambda: PathBuilder(two_step(), 3.0, 1).append(1.0, np.ones(1)), r"strictly increase in time \(1.0\)"),
        (lambda: PathBuilder(two_step(), 3.0, 1).append(math.nan, np.ones(1)), r"strictly increase in time \(nan\)"),
        (lambda: appended(PathBuilder(two_step(), 2.0, 1), 3.0).finish(), "end=2.0 must be >= the last breakpoint 3.0"),
        (lambda: sup_distance(two_step(), two_step(), 1.0, 0.0), "empty window: a=1.0 > b=0.0"),
        (lambda: sup_distance(two_step(), two_step(), math.nan, 1.0), "t=nan outside path domain"),
        (lambda: CadlagPath(np.array([0.0]), np.ones((1, 1)), math.nan), "end=nan must be >= the last breakpoint"),
        (lambda: CadlagPath(np.array([0.0, 1.0]), np.ones((2, 1)), 2.0, (0.5,)),
         r"jump times \(0.5,\) must be breakpoints after the start"),
        (lambda: CadlagPath(np.array([0.0, 1.0]), np.ones((2, 1)), 2.0, (0.0, 1.0)),
         r"jump times \(0.0, 1.0\) must be breakpoints after the start"),
    ],
    ids=[
        "empty", "infinite", "window-before-start", "window-after-end", "window-empty",
        "values_at-after-end", "values_at-nan", "builder-end", "builder-order", "builder-nan",
        "builder-past-end",
        "sup_distance-empty", "sup_distance-nan", "end-nan", "jump-off-breakpoint", "jump-at-start",
    ],
)
def test_rejection_branches(make, problem):
    with pytest.raises(ValueError, match=problem):
        make()


def test_values_at_no_times_is_an_empty_block():
    # It read the first segment index before anything else: IndexError.
    p = CadlagPath(np.array([0.0, 1.0]), np.ones((2, 3)), 2.0)
    out = p.values_at(np.array([]))
    assert out.shape == (0, 3)


# --- randomized invariants ------------------------------------------------

@st.composite
def paths(draw, max_segments=6):
    k = draw(st.integers(1, max_segments))
    times = draw(
        st.lists(
            st.floats(-2.0, 4.0, allow_nan=False, allow_infinity=False),
            min_size=k, max_size=k, unique=True,
        )
    )
    bp = np.sort(np.asarray(times))
    vals = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=k, max_size=k,
        )
    )
    end = float(bp[-1]) + draw(st.floats(0.0, 2.0, allow_nan=False))
    return CadlagPath(bp, np.asarray(vals)[:, None], end)


@st.composite
def path_and_times(draw):
    p = draw(paths())
    span = p.end - p.start

    def pick():
        t = p.start + draw(st.floats(0.0, 1.0)) * span
        return float(min(max(t, p.start), p.end))

    return p, pick(), pick()


@settings(max_examples=200, deadline=None)
@given(path_and_times())
def test_history_composes_with_value_at(case):
    p, t, s = case
    assert frozen_at(p, t).value_at(s)[0] == p.value_at(min(s, t))[0]


@settings(max_examples=200, deadline=None)
@given(path_and_times())
def test_window_sup_dominates_samples(case):
    p, t, s = case
    a, b = min(t, s), max(t, s)
    assert p.window_sup(a, b) >= abs(p.value_at(s)[0]) - 1e-12 or s > b


@settings(max_examples=200, deadline=None)
@given(path_and_times())
def test_left_limit_matches_value_off_breakpoints(case):
    p, t, _ = case
    if t <= p.start or t in p.breakpoints:
        return
    assert p.left_limit(t)[0] == p.value_at(t)[0]


@settings(max_examples=200, deadline=None)
@given(path_and_times())
def test_values_at_matches_value_at(case):
    p, t, s = case
    ts = np.array(sorted({p.start, t, s, p.end}))
    assert np.array_equal(p.values_at(ts), np.array([p.value_at(u) for u in ts]))


@st.composite
def tail_cases(draw):
    k = draw(st.integers(1, 6))
    times = draw(st.lists(st.floats(-2.0, 4.0), min_size=k, max_size=k, unique=True))
    bp = np.sort(np.asarray(times, dtype=float))
    vals = np.asarray(draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * k, max_size=2 * k)))
    end = float(bp[-1]) + draw(st.sampled_from([0.0, 1e-9, 0.5, 2.0]))
    return bp, vals.reshape(k, 2), end


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tail_cases())
def test_value_at_on_every_construction_reads_the_searched_segment(case):
    # The last segment is answered without a search; every time must still
    # read values[searchsorted(bp, t, "right") - 1] bit for bit, and every
    # time off the domain must raise the searched path's message.
    bp, vals, end = case
    builder = PathBuilder(CadlagPath(bp[:1], vals[:1], float(bp[0])), end, bp.size - 1)
    for t, v in zip(bp[1:].tolist(), vals[1:]):
        builder.append(t, v)
    made = [CadlagPath(bp, vals, end), CadlagPath._trusted(bp, vals, end), builder.freeze()]
    times = [*bp.tolist(), (float(bp[-1]) + end) / 2, end]
    for p in made:
        for t in times:
            want = vals[np.searchsorted(bp, t, "right") - 1]
            assert p.value_at(t).tobytes() == want.tobytes()
        for t in (math.nan, float(bp[0]) - 1.0, end + 1.0):
            problem = re.escape(f"t={t} outside path domain [{bp[0]}, {end}]")
            with pytest.raises(PathDomainError, match=problem):
                p.value_at(t)


@st.composite
def path_pairs(draw):
    d = draw(st.integers(1, 5))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

    def one():
        times = draw(st.lists(st.floats(0.0, 2.0), min_size=0, max_size=5, unique=True))
        bp = np.unique(np.concatenate([[0.0], times]))
        vals = draw(st.lists(finite, min_size=bp.size * d, max_size=bp.size * d))
        return CadlagPath(bp, np.reshape(vals, (bp.size, d)), 2.0)

    a, b = sorted(draw(st.floats(0.0, 2.0)) for _ in range(2))
    return one(), one(), a, b


@settings(max_examples=300, deadline=None)
@given(path_pairs())
def test_sup_distance_is_the_pointwise_max_bit_for_bit(case):
    # The reference is the per-point loop sup_distance replaced: the same
    # points, each row norm from diff @ diff, the largest root kept.
    p, q, a, b = case
    pts = np.union1d(p.breakpoints, q.breakpoints)
    pts = np.concatenate(([a], pts[(pts > a) & (pts <= b)], [b]))
    best = 0.0
    for t in pts:
        diff = p.value_at(t) - q.value_at(t)
        best = max(best, float(np.sqrt(diff @ diff)))
    assert sup_distance(p, q, a, b) == best
