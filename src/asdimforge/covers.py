"""Cover calculus: multiplicity, Lebesgue numbers, disjoint witness families.

A Family is a list of nonempty vertex sets inside one MetricView; a
Cover is a Family whose union is the whole view.  WitnessFamilies holds
the layered form (n+1 families, each r-disjoint, all members D-bounded,
union covering) that certifies a dimension bound at one scale r.

Two Lebesgue formulas coexist: ``paper`` takes, for each cover member,
the largest distance from any point of the space to that member's
complement and then minimizes over members; ``standard`` maximizes over
members per point first and minimizes over points.  Certificates report
both.  Openness plays no role in a uniformly discrete space, so every
vertex set counts as open.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import PreconditionError
from .graphs import INF, MetricView, VertexMap
from .records import Record

Member = frozenset


class Family:
    """Nonempty vertex sets in one ambient view (union may be partial)."""

    def __init__(self, space: MetricView, members: Iterable[Iterable[str]]):
        self.space = space
        packed = []
        for m in members:
            mset = frozenset(m)
            if not mset:
                raise PreconditionError("empty family member")
            if not mset <= space.point_set:
                stray = sorted(mset - space.point_set)[0]
                raise PreconditionError(f"member vertex {stray!r} outside the space")
            packed.append(mset)
        self.members = tuple(packed)

    def max_diameter(self) -> int | float:
        g = self.space.graph
        return max((g.diameter(m) for m in self.members), default=0)

    @cached_property
    def complement_reach(self) -> tuple[dict[str, int | float] | None, ...]:
        """Per member m, d(x, P minus m) for each point x of m; None when
        m is the whole space."""
        return self._reach({})

    def take_nearest(self, nearest: Mapping[str, int | float]) -> None:
        """Fill ``complement_reach`` from ``nearest``, which maps points x
        of the space P to d(x, P minus x): that is the whole row of a
        single-point member {x}, so no search runs for it."""
        self.complement_reach = self._reach(nearest)

    def _reach(self, nearest: Mapping[str, int | float]) -> tuple:
        """``complement_reach``, where a point x of m that ``nearest`` does
        not answer for runs one search, which ends as soon as it settles
        a point outside m, the last one it settled; if that last point is
        not outside m, the search found none."""
        g, points = self.space.graph, self.space.point_set
        table = []
        for m in self.members:
            outside = points - m
            if not outside:
                table.append(None)
                continue
            if len(m) == 1:
                x, = m
                if x in nearest:
                    table.append({x: nearest[x]})
                    continue
            row = {}
            for x in m:
                dist = g.distances_to_set((x,), stop_at=outside)
                last = next(reversed(dist))
                row[x] = dist[last] if last in outside else INF
            table.append(row)
        return tuple(table)


class Cover(Family):
    """A Family whose members together exhaust the space."""

    def __init__(self, space: MetricView, members: Iterable[Iterable[str]]):
        super().__init__(space, members)
        covered = frozenset().union(*self.members) if self.members else frozenset()
        if covered != space.point_set:
            missing = sorted(space.point_set - covered)[0]
            raise PreconditionError(f"cover misses vertex {missing!r}")


def multiplicity(cover: Family) -> int:
    """Largest number of members sharing one point."""
    tally: dict[str, int] = {}
    best = 0
    for m in cover.members:
        for v in m:
            tally[v] = tally.get(v, 0) + 1
            if tally[v] > best:
                best = tally[v]
    return best


def lebesgue_number(cover: Cover, formula: str = "paper") -> int | float:
    """Lebesgue number under either formula; d(x, empty set) counts as +inf.

    Both formulas read only d(x, P minus m) for the points x of each
    member m (it is 0 elsewhere), which the cover's ``complement_reach``
    table holds.
    """
    if formula not in ("paper", "standard"):
        raise PreconditionError(f"unknown Lebesgue formula {formula!r}")
    reach = cover.complement_reach
    if formula == "paper":
        best = INF
        for row in reach:
            if row is None:
                continue  # complement empty: this member contributes +inf
            worst = max(row.values())
            if worst < best:
                best = worst
        return best
    here = dict.fromkeys(cover.space.points, 0)
    for m, row in zip(cover.members, reach):
        for x in m:
            d = INF if row is None else row[x]
            if d > here[x]:
                here[x] = d
    return min(here.values(), default=INF)


# -- distance questions -----------------------------------------------------

#: The exact oracle takes only views of at most this many points, and
#: the witness routines read such a view's distances off its table.
EXACT_CAP = 12


class _TableDistances:
    """Distance questions at scale r on a small view, read off the table
    (``point_rows``, ``point_shells``) that the view builds once."""

    def __init__(self, space: MetricView, r: int):
        self.space, self.r = space, r
        self.index = {v: i for i, v in enumerate(space.points)}
        self.rows = space.point_rows()
        self.close = [sum(by_d[:r]) for by_d in space.point_shells()[0]]

    def ball(self, v: str) -> dict[str, int]:
        return {u: d for u, d in zip(self.space.points, self.rows[self.index[v]]) if d < self.r}

    def row(self, v: str, targets: Iterable[str]) -> dict[str, int]:
        return {u: d for u, d in zip(self.space.points, self.rows[self.index[v]]) if d < INF}

    def near(self, members: Iterable[str]) -> set[str]:
        mask = 0
        for v in members:
            mask |= self.close[self.index[v]]
        return {u for j, u in enumerate(self.space.points) if mask >> j & 1}

    def diameter(self, members: Iterable[str]) -> int | float:
        rows, ix = self.rows, [self.index[v] for v in members]
        return max((rows[i][j] for i in ix for j in ix), default=0)


class _SearchDistances:
    """The same questions on a larger view, each one bounded search, so
    memory stays linear in the graph.  ``ball``: the view's points closer
    than r to v, with distances; ``row``: distances from v, at least to
    each reachable target; ``near``: what lies closer than r to members."""

    def __init__(self, space: MetricView, r: int):
        self.space, self.r = space, r

    def ball(self, v: str) -> dict[str, int]:
        found = self.space.graph.distances_to_set((v,), limit=self.r - 1)
        return {u: d for u, d in found.items() if u in self.space.point_set}

    def row(self, v: str, targets: Iterable[str]) -> dict[str, int]:
        return self.space.graph.distances_to_set((v,), until=targets)

    def near(self, members: Iterable[str]) -> dict[str, int]:
        return self.space.graph.distances_to_set(members, limit=self.r - 1)

    def diameter(self, members: Iterable[str]) -> int | float:
        return self.space.graph.diameter(members)


def _distances(space: MetricView, r: int) -> _TableDistances | _SearchDistances:
    """The view's distance questions at scale r: off its table when it is
    small, else searched, as the table's memory is quadratic in the view."""
    return (_TableDistances if len(space) <= EXACT_CAP else _SearchDistances)(space, r)


# -- layered witness families ---------------------------------------------


class WitnessFamilies(Record):
    """n+1 families of r-disjoint, bound-limited sets covering the space."""

    space: MetricView
    r: int
    families: tuple[tuple[Member, ...], ...]
    bound: int

    @property
    def n(self) -> int:
        return len(self.families) - 1

    @cached_property
    def _measured(self) -> tuple[tuple[bool, int | float] | None, ...]:
        """Per family, whether it is r-disjoint and its widest member's
        diameter (None for an empty family), measured once."""
        return _measure(_distances(self.space, self.r), self.families)

    def violations(self) -> list[str]:
        problems = []
        if self.r <= 0:
            problems.append("r must be positive")
        if not self.families:
            problems.append("no families")
        covered: set[str] = set()
        for j, (fam, measured) in enumerate(zip(self.families, self._measured)):
            if measured is not None:
                disjoint, dm = measured
                if not disjoint:
                    problems.append(f"family {j} is not {self.r}-disjoint")
                if dm > self.bound:
                    problems.append(f"family {j} has a member of diameter {dm} > {self.bound}")
            for m in fam:
                covered |= m
        if covered != self.space.point_set:
            problems.append(f"{len(self.space.point_set) - len(covered & self.space.point_set)} points uncovered")
        return problems

    def require_valid(self) -> "WitnessFamilies":
        problems = self.violations()
        if problems:
            raise PreconditionError("invalid witness: " + "; ".join(problems))
        return self

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "bound": self.bound,
            "families": [[sorted(m) for m in fam] for fam in self.families],
        }


def _measure(dist, families) -> tuple:
    """Per family, whether it is r-disjoint and its widest member's
    diameter, None for an empty family; raises on a member outside the
    view or on a scale below 1."""
    out = []
    for fam in families:
        if not fam:
            out.append(None)
            continue
        members = Family(dist.space, fam).members
        if dist.r <= 0:
            raise PreconditionError("need r > 0")
        # the last member holding each point: some later member comes
        # closer than r to member i iff a point near it is held after i
        owner = {v: k for k, m in enumerate(members) for v in m}
        disjoint = not any(owner.get(v, -1) > i
                           for i, near in enumerate(map(dist.near, members[:-1])) for v in near)
        out.append((disjoint, max(map(dist.diameter, members))))
    return tuple(out)


def _measured_witness(dist, families) -> WitnessFamilies:
    """The witness whose bound is its widest member's diameter; the
    measurement that gives the bound also serves its validity checks."""
    measured = _measure(dist, families)
    bound = max((dm for _, dm in filter(None, measured)), default=0)
    w = WitnessFamilies(dist.space, dist.r, families, int(bound))
    object.__setattr__(w, "_measured", measured)  # frozen: fill the cache by hand
    return w


# -- exact oracle -----------------------------------------------------------


def _cluster(points: Iterable[str], dist) -> list[frozenset[str]]:
    """Group points by the transitive closure of ambient distance < r, in no
    set order: each point joins the clusters of the points placed before it
    that lie near it, the smaller of two merged into the larger."""
    cluster_of: dict[str, set[str]] = {}
    for v in points:
        mine = cluster_of[v] = {v}
        for u in dist.near((v,)):
            other = cluster_of.get(u)
            if other is None or other is mine:
                continue
            if len(other) > len(mine):
                mine, other = other, mine
            mine |= other
            for w in other:
                cluster_of[w] = mine
    return [frozenset(c) for c in {id(c): c for c in cluster_of.values()}.values()]


def exact_min_bound(space: MetricView, r: int, n: int) -> WitnessFamilies:
    """Least D so that n+1 r-disjoint D-bounded families cover the space.

    Exhaustive over vertex colorings, the points in ``space.points``
    order each trying the colors in increasing order; each color class
    is grouped into clusters by transitive distance < r and D is the
    worst cluster diameter.  The result, as a layering measured only
    when its violations are asked for, is the first coloring in that
    order to reach the least D.  Neither cut loses it: a branch is cut
    once it reaches the best value found, and a point tries only the
    first empty color, as a coloring giving it a later one mirrors,
    under a swap, one with the same D earlier in the order.
    """
    close, far = _oracle_tables(space, r, n)
    bound, colors = _first_layering(close, far, n, INF, False)
    families = tuple(tuple(sorted((frozenset(v for j, v in enumerate(space.points) if mask >> j & 1)
                                   for mask, _ in clusters), key=sorted)) for clusters in colors)
    return WitnessFamilies(space, r, families, bound)


def exact_min_families(space: MetricView, r: int) -> int:
    """Least n with exact_min_bound(space, r, n) below r: the first n whose
    search, cut at r, completes a coloring at all.  Always terminates: with
    one family per vertex every cluster is a singleton and the bound is 0.
    An empty space raises, as ``exact_min_bound`` does.
    """
    close, far = _oracle_tables(space, r, 0)
    for n in range(len(space)):
        if _first_layering(close, far, n, r, True) is not None:
            return n
    return len(space) - 1


def _oracle_tables(space: MetricView, r: int, n: int) -> tuple[list[int], list[list[int]]]:
    """Per point a, by index in ``space.points``: ``close[a]`` masks the
    points closer than r to a, and ``far[a][d]`` the reachable points
    further than d from it, for d below the furthest one's distance."""
    if len(space) > EXACT_CAP:
        raise PreconditionError(f"oracle capped at {EXACT_CAP} vertices, got {len(space)}")
    if r <= 0 or n < 0:
        raise PreconditionError("need r > 0 and n >= 0")
    if not space.points:
        raise PreconditionError("empty space")
    shells, far = space.point_shells()
    return [sum(by_d[:r]) for by_d in shells], far


def _first_layering(close: list[int], far: list[list[int]], n: int,
                    cap: int | float, first: bool) -> tuple[int, list] | None:
    """The first coloring in the oracle's order, over n+1 colors, with the
    least worst diameter below ``cap`` (with ``first``, the first below
    it), as (bound, per color its clusters); None if there is none.

    A cluster is a bitmask of point indices and its diameter.  Placing
    point i merges the clusters of its color that meet ``close[i]``; the
    merged diameter is the largest of the parts' and their cross pairs',
    read off ``far``.  No merge lowers a diameter, so the worst is carried.
    """
    colors: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    unions = [0] * (n + 1)  # per color, the points it holds
    best: list = [cap, None]

    def walk(i: int, used: int, worst: int) -> bool:
        if i == len(close):
            best[0], best[1] = worst, list(colors)
            return first
        near, bit, far_i = close[i], 1 << i, far[i]
        for c in range(min(used + 1, n + 1)):
            clusters = colors[c]
            if unions[c] & near:
                rest, merged, diam = [], 0, 0
                for mask, cdiam in clusters:
                    if not mask & near:
                        rest.append((mask, cdiam))
                        continue
                    diam = cdiam if cdiam > diam else diam
                    todo = mask if merged else 0  # cross pairs with the earlier parts
                    while todo:
                        low = todo & -todo
                        todo ^= low
                        far_a = far[low.bit_length() - 1]
                        while diam < len(far_a) and far_a[diam] & merged:
                            diam += 1
                    merged |= mask
                while diam < len(far_i) and far_i[diam] & merged:
                    diam += 1
                rest.append((merged | bit, diam))
            else:
                diam, rest = 0, clusters + [(bit, 0)]
            reach = diam if diam > worst else worst
            if reach >= best[0]:
                continue
            colors[c], unions[c] = rest, unions[c] | bit
            if walk(i + 1, used + (c == used), reach):
                return True
            colors[c], unions[c] = clusters, unions[c] ^ bit
        return False

    walk(0, 0, 0)
    return None if best[1] is None else tuple(best)


# -- greedy search -----------------------------------------------------------


class GreedyResult(Record):
    """Outcome of the block strategy; ``ok`` False means colors ran out."""

    ok: bool
    witness: WitnessFamilies | None
    colors_needed: int
    detail: str = ""


def _block_partition(dist):
    """Greedy r-net over sorted ids, then nearest-net cells (ties: earlier net point).

    Only net points' balls are asked for, each once as it joins the net.
    Distance is symmetric, so a net point's r-1 ball holds both the
    points it keeps out of the net and their distance to it; every point
    lies within r-1 of some net point, so all its nearest ones are seen.
    """
    space = dist.space
    net: list[str] = []
    nearest: dict[str, tuple[int, int]] = {}  # point -> (distance, net index)
    for v in space.points:
        if v in nearest:
            continue
        i = len(net)
        net.append(v)
        for u, d in dist.ball(v).items():
            if u not in nearest or d < nearest[u][0]:
                nearest[u] = (d, i)
    blocks: list[set[str]] = [set() for _ in net]
    for v in space.points:
        blocks[nearest[v][1]].add(v)
    return net, [frozenset(b) for b in blocks]


def greedy_witness(space: MetricView, r: int, n: int) -> GreedyResult:
    """Block strategy: cells of a greedy r-net, first-fit colored with n+1 colors.

    Cells are colored in order of their net point's distance from the
    first net point (then net order), which keeps the first-fit frontier
    geometrically contiguous.  Same-colored cells are pairwise >= r
    apart by construction, and every unmerged cell has diameter
    <= 2(r-1).

    When first-fit runs out of colors and n >= 1, the first blocked
    cell is merged into whichever earlier-colored conflicting cell
    keeps the union's diameter smallest (ties: earliest in coloring
    order) and the coloring restarts.  Every round removes one cell,
    so the loop terminates; merged cells may exceed the 2(r-1) plain
    cell diameter, and the reported bound is whatever actually shipped.
    With a single slot (n = 0) no repair is attempted: a collision
    between net cells is reported as failure together with the color
    count first-fit wanted.
    """
    if r <= 0 or n < 0:
        raise PreconditionError("need r > 0 and n >= 0")
    if not space.points:
        raise PreconditionError("empty space")
    dist = _distances(space, r)
    net, blocks = _block_partition(dist)
    root_dist = dist.row(net[0], net)
    # working cells are keyed by their anchor net index; a merge keeps the
    # surviving cell's anchor so the coloring order stays stable
    cells: dict[int, Member] = dict(enumerate(blocks))
    # per cell, the cells closer than r: asked once per cell
    cell_of = {v: a for a, b in cells.items() for v in b}
    close = [{cell_of[v] for v in dist.near(b) if v in cell_of} - {a}
             for a, b in cells.items()]
    while True:
        order = sorted(cells, key=lambda a: (root_dist.get(net[a], INF), a))
        colors: dict[int, int] = {}
        needed = 0
        blocked = None
        for a in order:
            used = {colors[b] for b in close[a] if b in colors}
            c = 0
            while c in used:
                c += 1
            colors[a] = c
            needed = max(needed, c + 1)
            if c > n and blocked is None:
                blocked = a
        if blocked is None:
            families: list[list[Member]] = [[] for _ in range(n + 1)]
            for a, c in colors.items():
                families[c].append(cells[a])
            fams = tuple(tuple(sorted(fam, key=sorted)) for fam in families)
            witness = _measured_witness(dist, fams).require_valid()
            return GreedyResult(True, witness, needed)
        if n == 0:
            return GreedyResult(False, None, needed,
                                detail=f"first-fit needed {needed} colors for {n + 1} slots")
        pos = {a: k for k, a in enumerate(order)}
        partners = [b for b in order if pos[b] < pos[blocked] and b in close[blocked]]
        best = min(partners, key=lambda b: (dist.diameter(cells[b] | cells[blocked]), pos[b]))
        # the merged cell is closer than r to whatever either part was
        cells[best] |= cells.pop(blocked)
        for b in close[blocked] - {best}:
            close[b].discard(blocked)
            close[b].add(best)
        close[best] = (close[best] | close[blocked]) - {best, blocked}


def band_witness(space: MetricView, r: int, n: int) -> WitnessFamilies:
    """Distance-band fallback: levels from the least point, bands of width r.

    Band b (levels in [br, br+r)) goes to family b mod (n+1); each
    family's points are then regrouped into transitive <r clusters, so
    the result is always a valid witness — only the bound is at the
    mercy of the space's shape.
    """
    if r <= 0 or n < 0:
        raise PreconditionError("need r > 0 and n >= 0")
    if not space.points:
        raise PreconditionError("empty space")
    dist = _distances(space, r)
    root = space.points[0]
    level = dist.row(root, space.points)
    buckets: list[set[str]] = [set() for _ in range(n + 1)]
    for v in space.points:
        lv = level.get(v)
        if lv is None:
            raise PreconditionError(f"point {v!r} unreachable from {root!r}")
        buckets[(lv // r) % (n + 1)].add(v)
    fams = []
    for bucket in buckets:
        fams.append(tuple(sorted(_cluster(bucket, dist), key=sorted)) if bucket else ())
    return _measured_witness(dist, tuple(fams)).require_valid()


# -- witness transport ------------------------------------------------------


class TransportedWitness(Record):
    witness: WitnessFamilies
    r_out: int
    claimed_bound: Fraction


def transport_witness(w: WitnessFamilies, vm: VertexMap,
                      gamma: Fraction | int, c: Fraction | int) -> TransportedWitness:
    """Push a witness through a distortion-checked map and re-cluster.

    The output scale is floor(r/gamma - c); callers must have verified
    the map's constants first.  Images within one family are regrouped
    into transitive <r' clusters — a no-op when the map's lower bound
    already keeps them apart — and the claimed bound gamma*D + c is
    checked against the measured one.
    """
    gamma = Fraction(gamma)
    c = Fraction(c)
    if not (vm.source.graph is w.space.graph and vm.source.point_set == w.space.point_set):
        raise PreconditionError("map source must be the witness space")
    r_out_frac = Fraction(w.r) / gamma - c
    if r_out_frac < 1:
        raise PreconditionError(f"transported scale {r_out_frac} below 1; nothing to certify")
    r_out = int(r_out_frac // 1)
    image_points = vm.image(vm.source.points)
    tdist = _distances(vm.target.subview(image_points), r_out)
    fams = []
    for fam in w.families:
        pushed: set[str] = set()
        for m in fam:
            pushed |= vm.image(m)
        fams.append(tuple(sorted(_cluster(pushed, tdist), key=sorted)) if pushed else ())
    out = _measured_witness(tdist, tuple(fams))
    claimed = gamma * w.bound + c
    if out.bound > claimed:
        raise PreconditionError(
            f"transported bound {out.bound} exceeds the claimed {claimed}")
    return TransportedWitness(out.require_valid(), r_out, claimed)
