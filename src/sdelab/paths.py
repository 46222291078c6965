"""Right-continuous piecewise-constant paths on [start, end].

A path holds one d-dimensional value per half-open segment [t_i, t_{i+1});
the final segment runs through the closed right endpoint of the domain.
Piecewise-constant storage makes left limits and windowed suprema exact and
O(log m) per query, which is all the Euler scheme and the pure-jump noise
ever produce (drift variation within a step is absorbed by grid refinement).
A value query at or after the last breakpoint, where every Euler query on a
frozen history lands, costs one comparison and no search.

Breakpoints that correspond to genuine discontinuities of the modelled
process (Poisson events, martingale jumps) can be marked via `jump_times`;
unmarked breakpoints are discretisation artifacts.  Certifications such as
"no negative jumps" look only at marked times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PathDomainError

__all__ = ["CadlagPath", "constant_path", "PathBuilder", "sup_distance", "write_path_csv"]

# Bound once: _trusted builds paths with five attribute stores each, which
# keep an instance compact (about 120 bytes against 250 for a dict of its
# own) where many paths live at once; a frozen view, built per Euler cell
# and dropped at the next, takes one store of a whole dict instead.
_new, _set = object.__new__, object.__setattr__


@dataclass(frozen=True)
class CadlagPath:
    breakpoints: np.ndarray          # (m,) strictly increasing, breakpoints[0] == start
    values: np.ndarray               # (m, d); values[i] on [t_i, t_{i+1})
    end: float                       # domain right endpoint, >= breakpoints[-1]
    jump_times: tuple = ()           # marked genuine discontinuities (subset of breakpoints[1:])

    def __post_init__(self):
        bp = np.ascontiguousarray(np.asarray(self.breakpoints, dtype=float))
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if bp.ndim != 1 or bp.size == 0:
            raise ValueError("breakpoints must be a non-empty 1-d sequence")
        if vals.ndim != 2:
            raise ValueError(f"values must be 2-d, one row per segment, got {vals.ndim}-d")
        if vals.shape[0] != bp.shape[0]:
            raise ValueError(
                f"need one value per segment: {bp.shape[0]} breakpoints vs {vals.shape[0]} values"
            )
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        end = float(self.end)
        if not end >= bp[-1]:
            raise ValueError(f"end={end} must be >= the last breakpoint {bp[-1]}")
        jumps = tuple(float(t) for t in self.jump_times)
        if jumps and not set(jumps) <= set(bp[1:].tolist()):
            raise ValueError(f"jump times {jumps} must be breakpoints after the start")
        bp.setflags(write=False)
        vals.setflags(write=False)
        _set(self, "breakpoints", bp)
        _set(self, "values", vals)
        _set(self, "end", end)
        _set(self, "jump_times", jumps)
        _set(self, "_tail", float(bp[-1]))

    @classmethod
    def _trusted(cls, breakpoints, values, end) -> "CadlagPath":
        """Construct without validation.  Internal use on arrays the builder already owns."""
        p = _new(cls)
        _set(p, "breakpoints", breakpoints)
        _set(p, "values", values)
        _set(p, "end", end)
        _set(p, "jump_times", ())
        _set(p, "_tail", float(breakpoints[-1]))
        return p

    # -- basic geometry ------------------------------------------------

    @property
    def start(self) -> float:
        return float(self.breakpoints[0])

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def _check_domain(self, t: float):
        if not self.breakpoints[0] <= t <= self.end:
            raise PathDomainError(
                f"t={t} outside path domain [{self.breakpoints[0]}, {self.end}]"
            )

    # -- queries ---------------------------------------------------------
    # value_at answers a time on the last segment with one comparison pair.
    # Otherwise the hot queries search first: a segment index below 0 means t
    # lies before start, so one comparison pair guards the domain.  A NaN time
    # fails every comparison, searches past the last breakpoint and fails `t <= end`.

    def value_at(self, t: float) -> np.ndarray:
        """Value of the segment containing t (right-continuous)."""
        if self._tail <= t <= self.end:
            return self.values[-1]
        i = self.breakpoints.searchsorted(t, "right") - 1
        if i < 0 or not t <= self.end:
            self._check_domain(t)
        return self.values[i]

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """value_at at each of the increasing times ts, one row per time, in one search."""
        i = self.breakpoints.searchsorted(ts, "right") - 1
        if i.size and (i[0] < 0 or not ts[0] <= ts[-1] <= self.end):
            self._check_domain(ts[0])
            self._check_domain(ts[-1])
        return self.values[i]

    def left_limit(self, t: float) -> np.ndarray:
        """Value of the segment immediately preceding t; requires t > start."""
        i = self.breakpoints.searchsorted(t, "left") - 1
        if i < 0 or not t <= self.end:
            self._check_domain(t)
            raise PathDomainError(f"left limit undefined at or before start ({t})")
        return self.values[i]

    def window_sup(self, a: float, b: float) -> float:
        """sup of the euclidean norm |x(t)| over t in the closed window [a, b].

        For a piecewise-constant path this is the exact max over segments
        meeting the window, the value AT b included.
        """
        lo = self.breakpoints.searchsorted(a, "right") - 1
        hi = self.breakpoints.searchsorted(b, "right") - 1
        if lo < 0 or not a <= b <= self.end:
            if a > b:
                raise ValueError(f"empty window: a={a} > b={b}")
            self._check_domain(a)
            self._check_domain(b)
        chunk = self.values[lo : hi + 1]
        if chunk.shape[1] == 1:
            return float(abs(chunk).max())
        return float(np.sqrt(np.max(np.einsum("ij,ij->i", chunk, chunk))))


def constant_path(value, start: float, end: float) -> CadlagPath:
    """Path identically equal to `value` on [start, end]."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return CadlagPath(np.array([start], dtype=float), v[None, :], end)


class PathBuilder:
    """Incremental construction of a CadlagPath with cheap frozen snapshots.

    The solver appends (time, value) pairs in increasing time order and takes
    a frozen view of the history built so far once per Euler cell.  Views
    share the underlying buffers; appends only ever touch indices beyond any
    existing view, so views stay valid.
    """

    def __init__(self, seed_path: CadlagPath, end: float, capacity: int):
        """Room for exactly `capacity` appends after the seed path's segments."""
        if end < seed_path.end:
            raise ValueError("builder end must extend the seed path")
        m, d = seed_path.values.shape
        self._bp = np.empty(m + capacity, dtype=float)
        self._vals = np.empty((m + capacity, d), dtype=float)
        self._bp[:m] = seed_path.breakpoints
        self._vals[:m] = seed_path.values
        # float stores go through memoryviews, faster than numpy item stores but
        # refusing an int; a float value fills the one column, or every entry of its row
        self._times = memoryview(self._bp)
        self._floats = memoryview(self._vals[:, 0]) if d == 1 else self._vals
        self._n = m
        self._last = float(seed_path.breakpoints[-1])
        self._end = float(end)
        self._jumps = seed_path.jump_times      # a tuple, so freeze shares it without a copy

    def append(self, t: float, value: np.ndarray, *, jump: bool = False):
        if not t > self._last:      # a NaN time too
            raise ValueError(f"appends must strictly increase in time ({t})")
        (self._times if type(t) is float else self._bp)[self._n] = t
        (self._floats if type(value) is float else self._vals)[self._n] = value
        self._n += 1
        self._last = t
        if jump:
            self._jumps += (float(t),)

    def freeze(self) -> CadlagPath:
        """Frozen view of everything appended so far, on the full domain."""
        view = _new(CadlagPath)
        _set(view, "__dict__", {
            "breakpoints": self._bp[: self._n], "values": self._vals[: self._n], "end": self._end,
            "jump_times": self._jumps, "_tail": self._last,
        })
        return view

    def finish(self) -> CadlagPath:
        if self._last > self._end:
            raise ValueError(f"end={self._end} must be >= the last breakpoint {self._last}")
        p = self.freeze()
        p.breakpoints.setflags(write=False)
        p.values.setflags(write=False)
        return p


def _sorted_union(*arrays) -> np.ndarray:
    """The sorted distinct values of the 1-d arrays, bit for bit np.union1d's.

    np.sort of the concatenation and a neighbour mask, the steps np.unique
    takes, without its first call's import of numpy.ma (about 1 MiB resident).
    """
    union = np.sort(np.concatenate(arrays))
    return union[np.concatenate(([True], union[1:] != union[:-1]))]


def sup_distance(p: CadlagPath, q: CadlagPath, a: float, b: float) -> float:
    """sup over [a, b] of |p(t) - q(t)| for two piecewise-constant paths.

    Exact: evaluated on the union of breakpoints inside the window plus both
    endpoints.
    """
    if a > b:
        raise ValueError(f"empty window: a={a} > b={b}")
    pts = _sorted_union(p.breakpoints, q.breakpoints)
    pts = pts[(pts > a) & (pts <= b)]
    pts = np.concatenate(([a], pts, [b]))
    diff = p.values_at(pts) - q.values_at(pts)
    # diff @ diff per row through numpy's dot kernel: bit-identical to a loop over points
    return float(np.sqrt(np.max(diff[:, None] @ diff[:, :, None])))


def path_csv_text(path: CadlagPath, lead: str = "") -> str:
    """One CSV line per breakpoint, each ending in a newline: lead, then t,
    x_1..x_d in repr form.  The lead is taken as it is."""
    columns = [map(repr, path.breakpoints.tolist()), *(map(repr, c) for c in path.values.T.tolist())]
    return lead + ("\n" + lead).join(map(",".join, zip(*columns))) + "\n"


def write_path_csv(path: CadlagPath, fh):
    """Dump a path as CSV: one row per breakpoint, columns t, x_1..x_d."""
    fh.write("t," + ",".join(f"x_{i+1}" for i in range(path.dimension)) + "\n")
    fh.write(path_csv_text(path))
