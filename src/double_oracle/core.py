"""Strategy points, finitely supported mixed strategies, and game definitions.

Conventions used throughout the package:

* A pure strategy is a :class:`StrategyPoint`, a tuple of float coordinates.
* Utility callables are NumPy-vectorized.  ``utility(x, y)`` receives arrays
  whose trailing axis is the coordinate dimension of the respective player,
  broadcasts over any leading axes, and returns an array of the broadcast
  shape.  Player 1 maximizes ``utility``, player 2 minimizes it.
* Mixed strategies are finitely supported over distinct atoms; only exact
  duplicates (equal ``coords``) are folded together.
* A growing finite strategy set is a :class:`PointSet`, which keeps its
  points more than :data:`MERGE_TOL` apart in max-norm: a new strategy
  that close to a held one is that one.  The double oracle subgame's two axes and
  fictitious play's histories are PointSets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, InvalidStrategyError, ParameterError, ResourceLimitError

# Max-norm distance within which a PointSet (a subgame axis, a fictitious
# play history) treats a new strategy as one it already holds.  Mixtures do
# not use it: they fold and reject exact duplicates only.
MERGE_TOL = 1e-9
# Allowed deviation of total probability mass from 1.
WEIGHT_SUM_TOL = 1e-9
# Slack used by the membership tests of strategy spaces.
MEMBERSHIP_TOL = 1e-9
# Most points one interval's grid may hold (g2 at resolution 1e-5 holds 475 001).
GRID_LIMIT = 10**6


@dataclass(frozen=True)
class StrategyPoint:
    """A pure strategy: an immutable tuple of finite float coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise DomainError("a strategy point needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise DomainError(f"non-finite coordinate in strategy point {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def point(*coords: float) -> StrategyPoint:
    """Convenience constructor: ``point(0.2)`` or ``point(0.5, 0.25, 0.25)``."""
    return StrategyPoint(tuple(coords))


class PointSet:
    """A growing strategy set: ``points`` in insertion order, more than
    :data:`MERGE_TOL` apart, and ``coords``, their ``(n, d)`` array."""

    def __init__(self, points: Iterable[StrategyPoint] = ()):
        self.points: list[StrategyPoint] = []
        self.coords = np.empty((0, 0))
        self._extend(self.lacking(list(points)))

    def __len__(self) -> int:
        return len(self.points)

    def index(self, pt: StrategyPoint) -> int | None:
        """Index of the first held point within MERGE_TOL of ``pt`` in max-norm, or None.

        A point of another dimension than the held ones raises :class:`DomainError`.
        """
        if not self.points:
            return None
        if pt.dim != self.coords.shape[1]:
            raise DomainError(f"point {pt.coords} is not {self.coords.shape[1]}-D like the set")
        near = np.flatnonzero(np.abs(self.coords - pt.array()).max(axis=1) <= MERGE_TOL)
        return int(near[0]) if near.size else None

    def add(self, pt: StrategyPoint) -> int:
        """:meth:`index` of ``pt``, appending ``pt`` first when no held point is that close."""
        k = self.index(pt)
        if k is None:
            k = len(self.points)
            self._extend([pt])
        return k

    def lacking(self, pts: Sequence[StrategyPoint]) -> list[StrategyPoint]:
        """The points of ``pts`` that :meth:`add` would append, one after the
        other: those farther than MERGE_TOL in max-norm from every held point
        and from every earlier one of the result.

        Two distance matrices serve the whole sequence.  A point of another
        dimension than the others raises :class:`DomainError`.
        """
        if not pts:
            return []
        dim = self.coords.shape[1] if self.points else pts[0].dim
        for pt in pts:
            if pt.dim != dim:
                raise DomainError(f"point {pt.coords} is not {dim}-D like the set")
        arr = np.array([pt.coords for pt in pts], dtype=float)
        if self.points:
            keep = (_max_dists(arr, self.coords) > MERGE_TOL).all(axis=1)
        else:
            keep = np.ones(len(pts), dtype=bool)
        if len(pts) > 1:
            near = _max_dists(arr, arr) <= MERGE_TOL
            if near.sum() > len(pts):  # two of the points are near each other
                for i in range(1, len(pts)):  # in order, so keep[:i] is final
                    keep[i] &= not (near[i, :i] & keep[:i]).any()
        return [pt for pt, kept in zip(pts, keep.tolist()) if kept]

    def _extend(self, pts: Sequence[StrategyPoint]) -> None:
        """Append ``pts`` without a lookup, as :meth:`index` or :meth:`lacking` chose them."""
        if pts:
            arr = np.array([pt.coords for pt in pts], dtype=float)
            self.coords = np.vstack([self.coords, arr]) if self.points else arr
            self.points.extend(pts)


def _max_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-norm distances between the rows of ``a`` and of ``b``, as an
    ``(len(a), len(b))`` array built one coordinate at a time (numpy takes
    ``max`` over a short last axis slowly)."""
    dist = np.abs(a[:, None, 0] - b[None, :, 0])
    for k in range(1, a.shape[1]):
        np.maximum(dist, np.abs(a[:, None, k] - b[None, :, k]), out=dist)
    return dist


def _axis_grid(lo: float, hi: float, resolution: float) -> np.ndarray:
    """Uniform grid over [lo, hi] with spacing <= resolution, endpoints included.

    The step count is rounded down when ``(hi - lo) / resolution`` is an
    integer up to float noise, so round resolutions yield round grids.  A
    degenerate interval (``lo == hi``) gives its one point once.  A grid of
    more than :data:`GRID_LIMIT` points raises :class:`ResourceLimitError`
    before anything is allocated.
    """
    if not (resolution > 0):  # NaN fails too
        raise ParameterError(f"grid resolution must be positive, got {resolution!r}")
    if hi == lo:
        return np.array([lo])
    span = hi - lo
    raw = span / resolution
    if raw + 1 > GRID_LIMIT:
        raise ResourceLimitError(
            f"grid over [{lo}, {hi}] at resolution {resolution} would hold about "
            f"{raw:.3g} points, over the {GRID_LIMIT} limit"
        )
    steps = int(round(raw)) if abs(raw - round(raw)) <= 1e-6 * max(1.0, raw) else int(math.ceil(raw))
    return np.linspace(lo, hi, max(steps, 1) + 1)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``prod_i [lower_i, upper_i]``."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi) or not lo:
            raise ParameterError("box bounds must be nonempty and of equal length")
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in zip(lo, hi)):
            raise ParameterError("box bounds must be finite")
        if any(a > b for a, b in zip(lo, hi)):
            raise ParameterError(f"box has lower > upper: {lo} vs {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, pt: StrategyPoint) -> bool:
        if pt.dim != self.dim:
            return False
        tol = MEMBERSHIP_TOL
        return all(a - tol <= c <= b + tol for c, a, b in zip(pt.coords, self.lower, self.upper))

    def grid_points(self, resolution: float) -> np.ndarray:
        if self.dim != 1:
            raise ParameterError("grid sampling is only defined for one-dimensional boxes")
        return _axis_grid(self.lower[0], self.upper[0], resolution)

    def sample(self, rng: np.random.Generator) -> StrategyPoint:
        coords = rng.uniform(self.lower, self.upper)
        return StrategyPoint(tuple(float(c) for c in np.atleast_1d(coords)))


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint union of closed intervals on the real line (dimension 1)."""

    pieces: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pieces = tuple((float(a), float(b)) for a, b in self.pieces)
        if not pieces:
            raise ParameterError("interval union needs at least one piece")
        for a, b in pieces:
            if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
                raise ParameterError(f"bad interval piece ({a}, {b})")
        ordered = sorted(pieces)
        for (_, b_prev), (a_next, _) in zip(ordered, ordered[1:]):
            if a_next <= b_prev:
                raise ParameterError("interval pieces must be disjoint")
        object.__setattr__(self, "pieces", tuple(ordered))

    @property
    def dim(self) -> int:
        return 1

    def contains(self, pt: StrategyPoint) -> bool:
        if pt.dim != 1:
            return False
        c = pt.coords[0]
        return any(a - MEMBERSHIP_TOL <= c <= b + MEMBERSHIP_TOL for a, b in self.pieces)

    def grid_points(self, resolution: float) -> np.ndarray:
        return np.concatenate([_axis_grid(a, b, resolution) for a, b in self.pieces])

    def sample(self, rng: np.random.Generator) -> StrategyPoint:
        lengths = np.array([b - a for a, b in self.pieces])
        k = int(rng.choice(len(self.pieces), p=lengths / lengths.sum()))
        a, b = self.pieces[k]
        return StrategyPoint((float(rng.uniform(a, b)),))


@dataclass(frozen=True)
class Simplex:
    """Probability simplex ``{x >= 0, sum x = 1}`` in ``R^dim``."""

    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ParameterError(f"simplex dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))

    def contains(self, pt: StrategyPoint) -> bool:
        if pt.dim != self.dim:
            return False
        if any(c < -MEMBERSHIP_TOL for c in pt.coords):
            return False
        return abs(math.fsum(pt.coords) - 1.0) <= MEMBERSHIP_TOL

    def sample(self, rng: np.random.Generator) -> StrategyPoint:
        return StrategyPoint(tuple(float(c) for c in rng.dirichlet(np.ones(self.dim))))


StrategySpace = Box | IntervalUnion | Simplex


@dataclass(frozen=True)
class GameDefinition:
    """A two-player zero-sum game with compact strategy spaces.

    ``utility`` is the payoff to player 1 (the maximizer); player 2 receives
    its negation.  See the module docstring for the vectorization contract.

    ``curvature``, when given, is a pair ``(M1, M2)`` of bounds on the
    second derivative of ``utility`` in each player's own coordinate:
    ``|d^2u/dx^2| <= M1`` and ``|d^2u/dy^2| <= M2`` over both spaces.  The
    grid oracle uses them to skip grid cells, so an invalid bound can change
    its answer.
    """

    space1: StrategySpace
    space2: StrategySpace
    utility: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""
    curvature: tuple[float, float] | None = None

    def __post_init__(self):
        if self.curvature is None:
            return
        bounds = tuple(float(m) for m in self.curvature)
        if len(bounds) != 2 or not all(math.isfinite(m) and m >= 0.0 for m in bounds):
            raise ParameterError(
                f"curvature must be two finite bounds >= 0, got {self.curvature!r}"
            )
        object.__setattr__(self, "curvature", bounds)


@dataclass(frozen=True)
class FiniteMixedStrategy:
    """Probability distribution with finite support over one player's space.

    Invariants enforced at construction: at least one atom, weights
    nonnegative and summing to 1 within :data:`WEIGHT_SUM_TOL`, all atoms of
    equal dimension and pairwise distinct.  Use :func:`merge_duplicates` to
    build one from raw lists.
    """

    atoms: tuple[StrategyPoint, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if not atoms:
            raise InvalidStrategyError("a mixed strategy needs at least one atom")
        if len(atoms) != len(weights):
            raise InvalidStrategyError(
                f"{len(atoms)} atoms but {len(weights)} weights"
            )
        if any(not math.isfinite(w) or w < 0.0 for w in weights):
            raise InvalidStrategyError(f"weights must be finite and >= 0, got {weights}")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidStrategyError(f"weights sum to {total!r}, expected 1")
        dims = {a.dim for a in atoms}
        if len(dims) != 1:
            raise InvalidStrategyError(f"atoms of mixed dimension: {sorted(dims)}")
        if len(set(atoms)) != len(atoms):
            raise InvalidStrategyError("duplicate atoms in a mixed strategy")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def atoms_array(self) -> np.ndarray:
        return np.asarray([a.coords for a in self.atoms], dtype=float)

    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def dirac(pt: StrategyPoint) -> FiniteMixedStrategy:
    """Point mass at ``pt``."""
    return FiniteMixedStrategy((pt,), (1.0,))


def merge_duplicates(
    atoms: Sequence[StrategyPoint], weights: Sequence[float]
) -> FiniteMixedStrategy:
    """Combine duplicate atoms and renormalize into a valid mixture.

    An atom whose ``coords`` equal an earlier atom's is folded into it,
    summing their weights; atoms that differ at all stay apart.  Atoms
    with zero weight are dropped.  Weights must be nonnegative (tiny negative
    float noise up to 1e-12 is clipped) with positive total; the result is
    renormalized to sum to 1.
    """
    atoms = list(atoms)
    w = np.asarray(list(weights), dtype=float)
    if len(atoms) != w.size:
        raise InvalidStrategyError(f"{len(atoms)} atoms but {w.size} weights")
    if len(atoms) == 0:
        raise InvalidStrategyError("a mixed strategy needs at least one atom")
    if np.any(~np.isfinite(w)) or np.any(w < -1e-12):
        raise InvalidStrategyError(f"weights must be finite and >= 0, got {w.tolist()}")
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0.0:
        raise InvalidStrategyError("total weight must be positive")

    # Points hash and compare by their coords; the first of equal keys stays.
    acc: dict[StrategyPoint, float] = {}
    for atom, wi in zip(atoms, w):
        if wi > 0.0:
            acc[atom] = acc.get(atom, 0.0) + float(wi)
    total = math.fsum(acc.values())
    return FiniteMixedStrategy(tuple(acc), tuple(a / total for a in acc.values()))


def require_in_space(space: StrategySpace, pt: StrategyPoint, label: str) -> None:
    """Raise :class:`DomainError` naming ``pt`` when it is outside ``space``."""
    if not space.contains(pt):
        raise DomainError(f"{label} strategy {pt.coords} lies outside {space}")


def expected_utility(
    p: FiniteMixedStrategy, q: FiniteMixedStrategy, game: GameDefinition
) -> float:
    """Expected payoff of the mixed profile ``(p, q)``.

    Computed as the bilinear double sum ``sum_x sum_y p(x) q(y) u(x, y)``
    in one vectorized utility call, after checking every atom against its
    player's space.
    """
    for atom in p.atoms:
        require_in_space(game.space1, atom, "player 1")
    for atom in q.atoms:
        require_in_space(game.space2, atom, "player 2")
    return _bilinear_utility(p, q, game)


def _bilinear_utility(
    p: FiniteMixedStrategy, q: FiniteMixedStrategy, game: GameDefinition
) -> float:
    """:func:`expected_utility` for atoms already known to lie in their spaces."""
    xa = p.atoms_array()
    ya = q.atoms_array()
    table = np.asarray(game.utility(xa[:, None, :], ya[None, :, :]), dtype=float)
    return float(p.weights_array() @ table @ q.weights_array())
