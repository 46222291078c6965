"""Cadlag path queries: exact examples plus randomized invariants."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdelab import CadlagPath, constant_path, sup_distance, write_path_csv
from sdelab.errors import PathDomainError


def two_step():
    return CadlagPath(np.array([0.0, 1.0]), np.array([[2.0], [5.0]]), 2.0)


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
    def test_identity_on_constants(self):
        p = constant_path(2.5, -1.0, 3.0)
        h = p.history(1.0)
        for t in (-1.0, 0.0, 2.0, 3.0):
            assert h.value_at(t)[0] == 2.5

    def test_frozen_value_propagates(self):
        assert two_step().history(0.5).value_at(1.5)[0] == 2.0

    def test_idempotence(self):
        p = two_step()
        once = p.history(0.7)
        twice = once.history(0.7)
        assert np.array_equal(once.breakpoints, twice.breakpoints)
        assert np.array_equal(once.values, twice.values)


def test_construction_invariants():
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.0, 0.0]), np.array([[1.0], [2.0]]), 1.0)
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.0, 1.0]), np.array([[1.0]]), 1.0)
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.0]), np.array([[1.0]]), -1.0)


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
    assert p.history(t).value_at(s)[0] == p.value_at(min(s, t))[0]


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
