"""Windows, point patterns, reproducible RNG streams, and shared numerics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np


class ParameterError(ValueError):
    """A parameter or argument violates an operation's contract."""


class ExistenceError(ParameterError):
    """DPP parameters admit no valid process.

    Carries ``max_beta``, the largest admissible kernel range at the
    requested intensity.
    """

    def __init__(self, message: str, max_beta: float):
        super().__init__(message)
        self.max_beta = max_beta


class InputFileError(ParameterError):
    """An input file cannot be read or parsed; the message names the file
    and, where it can, the line."""


class InsufficientPointsError(ParameterError):
    """An estimator was given fewer points than it needs."""


def check_positive(name: str, value: float) -> None:
    """Raise ParameterError naming ``name`` unless ``value`` is finite and
    > 0."""
    if not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and > 0, got {value}")


def _check_finite_fields(obj) -> None:
    """Raise ParameterError naming the first field of ``obj`` that is not
    finite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ParameterError(
                f"{type(obj).__name__} {f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        _check_finite_fields(self)
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ParameterError(
                f"degenerate rectangle: [{self.xmin}, {self.xmax}] x "
                f"[{self.ymin}, {self.ymax}]"
            )

    @property
    def side_lengths(self) -> tuple[float, float]:
        return (self.xmax - self.xmin, self.ymax - self.ymin)

    @property
    def area(self) -> float:
        lx, ly = self.side_lengths
        return lx * ly

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    @property
    def circumradius(self) -> float:
        lx, ly = self.side_lengths
        return 0.5 * math.hypot(lx, ly)

    @property
    def short_side(self) -> float:
        """The shorter side, which sets the default distance range."""
        return min(self.side_lengths)

    def grow(self, margin: float) -> "Rect":
        if margin < 0:
            raise ParameterError(f"margin must be >= 0, got {margin}")
        return Rect(self.xmin - margin, self.xmax + margin,
                    self.ymin - margin, self.ymax + margin)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return ((pts[:, 0] >= self.xmin) & (pts[:, 0] <= self.xmax)
                & (pts[:, 1] >= self.ymin) & (pts[:, 1] <= self.ymax))

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the window boundary (inside only)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.minimum(
            np.minimum(pts[:, 0] - self.xmin, self.xmax - pts[:, 0]),
            np.minimum(pts[:, 1] - self.ymin, self.ymax - pts[:, 1]),
        )

    def set_covariance(self, h: np.ndarray) -> np.ndarray:
        """Area of the window intersected with its translate by each lag
        (row) of ``h``."""
        h = np.asarray(h, dtype=float).reshape(-1, 2)
        lx, ly = self.side_lengths
        # the side gaps max(0, l - |h|), formed in place
        gx, gy = np.abs(h[:, 0]), np.abs(h[:, 1])
        np.maximum(np.subtract(lx, gx, out=gx), 0.0, out=gx)
        np.maximum(np.subtract(ly, gy, out=gy), 0.0, out=gy)
        return np.multiply(gx, gy, out=gx)

    def sample_uniform(self, n: int, gen: np.random.Generator) -> np.ndarray:
        u = gen.random((n, 2))
        lx, ly = self.side_lengths
        return np.column_stack((self.xmin + lx * u[:, 0],
                                self.ymin + ly * u[:, 1]))


@dataclass(frozen=True)
class Disc:
    """Closed disc of given center and radius."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        _check_finite_fields(self)
        if not self.radius > 0:
            raise ParameterError(f"disc radius must be > 0, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius ** 2

    @property
    def center(self) -> tuple[float, float]:
        return (self.cx, self.cy)

    @property
    def circumradius(self) -> float:
        return self.radius

    @property
    def short_side(self) -> float:
        """The diameter, the disc's counterpart of a rectangle's short side."""
        return 2.0 * self.radius

    def grow(self, margin: float) -> "Disc":
        if margin < 0:
            raise ParameterError(f"margin must be >= 0, got {margin}")
        return Disc(self.cx, self.cy, self.radius + margin)

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        dx = pts[:, 0] - self.cx
        dy = pts[:, 1] - self.cy
        # hair of slack so points sampled onto the boundary stay inside
        return dx * dx + dy * dy <= self.radius ** 2 * (1.0 + 1e-12)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        d = np.hypot(pts[:, 0] - self.cx, pts[:, 1] - self.cy)
        return self.radius - d

    def set_covariance(self, h: np.ndarray) -> np.ndarray:
        """Area of the disc intersected with its translate by each lag (row)
        of ``h``: 2R^2 acos(|h|/2R) - (|h|/2) sqrt(4R^2 - |h|^2), 0 beyond 2R
        (Baddeley, Rubak & Turner 2015, ch. 7)."""
        h = np.asarray(h, dtype=float).reshape(-1, 2)
        r = self.radius
        d = np.minimum(np.hypot(h[:, 0], h[:, 1]), 2.0 * r)
        return (2.0 * r * r * np.arccos(d / (2.0 * r))
                - 0.5 * d * np.sqrt(4.0 * r * r - d * d))

    def sample_uniform(self, n: int, gen: np.random.Generator) -> np.ndarray:
        r = self.radius * np.sqrt(gen.random(n))
        theta = gen.random(n) * (2.0 * math.pi)
        return np.column_stack((self.cx + r * np.cos(theta),
                                self.cy + r * np.sin(theta)))

    @property
    def bounding_rect(self) -> Rect:
        return Rect(self.cx - self.radius, self.cx + self.radius,
                    self.cy - self.radius, self.cy + self.radius)


Window = Union[Rect, Disc]


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented JSON with a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def csv_line(values) -> str:
    """``values`` comma-joined, each number as %.17g and each string as it
    is. %.17g round-trips float64 exactly, which keeps outputs byte-stable."""
    return ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in values)


def csv_text(header: str, rows) -> str:
    """The CSV every writer emits: ``header``, then one ``csv_line`` per row
    of values, ending with a newline."""
    return "\n".join([header, *map(csv_line, rows)]) + "\n"


def read_json(path: str | Path):
    """Parse a JSON file, raising InputFileError if it cannot be read."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: line {exc.lineno}: {exc.msg}") from None


@dataclass(frozen=True)
class PointPattern:
    """A finite point configuration observed in a window."""

    points: np.ndarray
    window: Window

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2).copy()
        if not np.all(np.isfinite(pts)):
            raise ParameterError("point coordinates must be finite")
        if pts.shape[0] and not np.all(self.window.contains(pts)):
            raise ParameterError("all points must lie inside the window")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @cached_property
    def tree(self):
        """A ``scipy.spatial.cKDTree`` of the points, built on first use and
        then shared by every estimator that queries this pattern."""
        from scipy.spatial import cKDTree
        return cKDTree(self.points)

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(csv_text("x,y", self.points))

    @classmethod
    def from_csv(cls, path: str | Path, window: Window) -> "PointPattern":
        """Read a pattern written by ``to_csv``: a header line, then x,y rows.

        Malformed rows raise ParameterError naming the 1-based line number,
        as does a first line that reads as x,y: a point, not a header.
        Points outside ``window`` raise it with their count and the line of
        the first.
        """
        rows, lines = [], []
        for num, ln in enumerate(Path(path).read_text().splitlines(), start=1):
            parts = ln.split(",")
            try:  # the one rule for a point: two comma-separated numbers
                row = tuple(map(float, parts)) if len(parts) == 2 else None
            except ValueError:
                row = None
            if num == 1 and row is not None:
                raise ParameterError(
                    f"{path}: line 1: expected a header line such as x,y, got "
                    f"a pair of numbers: {ln!r}")
            if num == 1 or (row is None and not ln.strip()):
                continue
            if row is None:
                raise ParameterError(f"{path}: line {num}: " + (
                    f"expected two columns x,y, got {len(parts)}"
                    if len(parts) != 2 else f"not a pair of numbers: {ln!r}"))
            rows.append(row)
            lines.append((num, ln))
        pts = np.array(rows, dtype=float).reshape(-1, 2)
        outside = np.flatnonzero(np.isfinite(pts).all(axis=1)
                                 & ~window.contains(pts))
        if outside.size:
            num, ln = lines[outside[0]]
            raise ParameterError(
                f"{path}: {outside.size} point"
                f"{' lies' if outside.size == 1 else 's lie'} outside the "
                f"window; first at line {num}: {ln!r}")
        return cls(pts, window)


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    z = x & _M64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


@dataclass
class RngStream:
    """A reproducible, addressable random stream.

    Streams are identified by ``(seed, stream_id)``: two instances with the
    same pair produce identical draw sequences on any platform (the generator
    is counter-based Philox). ``substream`` derives independent child streams
    deterministically, so nested Monte Carlo loops can hand each replicate
    its own stream without coordination.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, int)
                    or not 0 <= v <= _M64):
                raise ParameterError(
                    f"{name} must be an integer in [0, 2^64), got {v!r}")

    @property
    def generator(self) -> np.random.Generator:
        """The stream's stateful generator (created lazily, then reused)."""
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def substream(self, index: int) -> "RngStream":
        if not (isinstance(index, int) and index >= 0):
            raise ParameterError(f"substream index must be an integer >= 0, got {index}")
        child = _splitmix64((self.stream_id + _GOLDEN * (index + 1)) & _M64)
        return RngStream(self.seed, child)
