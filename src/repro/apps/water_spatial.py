"""Water-SpatialFL: SPLASH-2's spatial (linked-cell) water code
(paper configuration: 4096 molecules).

The simulation box is cut into cells; each thread owns a contiguous
band of cells and computes interactions only between molecules within
the cutoff radius. Force updates for *interior* pairs touch only the
owner's molecules -- which is why the paper measures >99% of the pages
this application diffs to be the writer's own home pages, and why its
extended-protocol overhead is dominated by home-page diffing (+20%)
rather than locks. Only *boundary* pairs (molecules in adjacent bands)
need lock-protected accumulation, giving the much smaller lock count
the paper reports (518 vs Water-Nsquared's 4105) and a much lower
release frequency.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

PAIR_FORCE_US = 12.0
UPDATE_US = 6.0
NUM_GLOBAL_LOCKS = 6
#: Seed of the initial molecule positions.
SEED = 13


class WaterSpatial(Workload):
    """Banded spatial decomposition with cutoff interactions."""

    name = "WaterSpFL"

    def __init__(self, molecules: int = 64, steps: int = 2,
                 cutoff: float = 2.5) -> None:
        self.n = molecules
        self.steps = steps
        self.cutoff = cutoff
        self.box = 10.0
        self.pos = None
        self.vel = None
        self.forces = None

    _VEC = 3 * 8

    def boundary_lock(self, band: int) -> int:
        return NUM_GLOBAL_LOCKS + band

    # -- spatial decomposition ------------------------------------------------
    # Molecules are sorted into bands by x coordinate at init time; the
    # arrays are laid out band-contiguous so bands map to page ranges.

    def _initial_state(self):
        rng = np.random.default_rng(SEED)
        pos = rng.uniform(0.0, self.box, size=(self.n, 3))
        vel = rng.standard_normal((self.n, 3)) * 0.05
        return pos, vel

    def _band_of(self, x: float, nthreads: int) -> int:
        band = int(x / self.box * nthreads)
        return min(band, nthreads - 1)

    def _band_layout(self, nthreads: int):
        """Sorted molecule order and per-band index ranges."""
        pos, vel = self._initial_state()
        bands = np.array([self._band_of(p[0], nthreads) for p in pos])
        order = np.argsort(bands, kind="stable")
        sorted_bands = bands[order]
        ranges = []
        for band in range(nthreads):
            idx = np.nonzero(sorted_bands == band)[0]
            ranges.append((int(idx[0]), int(idx[-1]) + 1) if len(idx)
                          else (0, 0))
        return order, ranges, pos[order], vel[order]

    def setup(self, runtime) -> None:
        # First-touch placement: home each page at the node of the band
        # owning (the majority of) its molecules -- bands are unevenly
        # sized, so the uniform "block" policy would systematically
        # misalign band boundaries with page boundaries and destroy the
        # owner locality that gives this code its >99% home-page-diff
        # share in the paper.
        total = runtime.config.total_threads
        nodes = runtime.config.num_nodes
        page_size = runtime.config.page_size
        _order, ranges, _pos, _vel = self._band_layout(total)

        def band_home(page_index: int) -> int:
            mid_mol = min((page_index * page_size + page_size // 2)
                          // self._VEC, self.n - 1)
            for band, (lo, hi) in enumerate(ranges):
                if lo <= mid_mol < hi:
                    return band % nodes
            return 0

        self.pos = runtime.alloc("spatial_pos", self.n * self._VEC,
                                 home=band_home)
        self.vel = runtime.alloc("spatial_vel", self.n * self._VEC,
                                 home=band_home)
        self.forces = runtime.alloc("spatial_forces", self.n * self._VEC,
                                    home=band_home)

    def init_kernel(self, ctx: AppContext):
        _order, ranges, pos, vel = self._band_layout(ctx.nthreads)
        lo, hi = ranges[ctx.tid]
        if hi > lo:
            # Band-contiguous layout: one span write per array.
            yield from ctx.svm.write_array(self.pos.addr(lo * self._VEC),
                                           pos[lo:hi])
            yield from ctx.svm.write_array(self.vel.addr(lo * self._VEC),
                                           vel[lo:hi])
            yield from ctx.svm.write_array(
                self.forces.addr(lo * self._VEC), np.zeros((hi - lo, 3)))
        return None

    @staticmethod
    def pair_force(pi, pj):
        d = pi - pj
        return d / (d @ d + 1.0)

    def _interactions(self, positions, lo, hi, next_lo, next_hi):
        """Pairs for one band: interior (i, j both in [lo, hi)) and
        boundary (i in band, j in the next band) within the cutoff."""
        dt_interior = []
        dt_boundary = []
        cut2 = self.cutoff ** 2
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                d = positions[i] - positions[j]
                if d @ d < cut2:
                    dt_interior.append((i, j))
            for j in range(next_lo, next_hi):
                d = positions[i] - positions[j]
                if d @ d < cut2:
                    dt_boundary.append((i, j))
        return dt_interior, dt_boundary

    def kernel(self, ctx: AppContext):
        _order, ranges, _p, _v = self._band_layout(ctx.nthreads)
        lo, hi = ranges[ctx.tid]
        nxt = (ctx.tid + 1) % ctx.nthreads
        next_lo, next_hi = ranges[nxt] if nxt != ctx.tid else (0, 0)
        dt = 1e-3

        for _step in ctx.range("step", self.steps):
            if ctx.pending("predict"):
                if hi > lo:
                    p = yield from ctx.svm.read_array(
                        self.pos.addr(lo * self._VEC), np.float64,
                        3 * (hi - lo))
                    v = yield from ctx.svm.read_array(
                        self.vel.addr(lo * self._VEC), np.float64,
                        3 * (hi - lo))
                    yield from ctx.svm.compute(UPDATE_US * (hi - lo))
                    yield from ctx.svm.write_array(
                        self.pos.addr(lo * self._VEC), p + v * dt)
                ctx.done("predict")
            yield from ctx.barrier(self.BARRIER_A, key=_step)

            positions = yield from ctx.svm.read_array(
                self.pos.addr(0), np.float64, 3 * self.n)
            positions = positions.reshape(self.n, 3)
            interior, boundary = self._interactions(
                positions, lo, hi, next_lo, next_hi)
            yield from ctx.svm.compute(
                PAIR_FORCE_US * (len(interior) + len(boundary)))

            # Accumulate contributions (interior + boundary) privately,
            # then add them into the shared array per *band*, under
            # that band's cell lock: a neighbour updating our boundary
            # molecules takes the same lock, so all force RMWs on a
            # band serialize (SPLASH-2's cell-lock discipline). Most of
            # the volume is interior, so almost all locked additions go
            # to our own band's (home) pages.
            contrib = np.zeros((self.n, 3))
            for i, j in interior + boundary:
                f = self.pair_force(positions[i], positions[j])
                contrib[i] += f
                contrib[j] -= f
            own_touched = [m for m in range(lo, hi)
                           if np.any(contrib[m])]
            nb_touched = [m for m in range(self.n)
                          if not lo <= m < hi and np.any(contrib[m])]

            yield from ctx.svm.acquire(self.boundary_lock(ctx.tid))
            for k in ctx.range(("own_acc", _step), len(own_touched)):
                m = own_touched[k]
                cur = yield from ctx.svm.read_array(
                    self.forces.addr(m * self._VEC), np.float64, 3)
                yield from ctx.svm.write_array(
                    self.forces.addr(m * self._VEC), cur + contrib[m])
                ctx.state[("own_acc", _step)] = k + 1  # RMW replay contract
            yield from ctx.svm.release(self.boundary_lock(ctx.tid))

            if nb_touched:
                yield from ctx.svm.acquire(self.boundary_lock(nxt))
                for k in ctx.range(("nb_acc", _step), len(nb_touched)):
                    m = nb_touched[k]
                    cur = yield from ctx.svm.read_array(
                        self.forces.addr(m * self._VEC), np.float64, 3)
                    yield from ctx.svm.write_array(
                        self.forces.addr(m * self._VEC),
                        cur + contrib[m])
                    ctx.state[("nb_acc", _step)] = k + 1
                yield from ctx.svm.release(self.boundary_lock(nxt))
            yield from ctx.barrier(self.BARRIER_B, key=_step)

            if ctx.pending("correct"):
                if hi > lo:
                    f = yield from ctx.svm.read_array(
                        self.forces.addr(lo * self._VEC), np.float64,
                        3 * (hi - lo))
                    v = yield from ctx.svm.read_array(
                        self.vel.addr(lo * self._VEC), np.float64,
                        3 * (hi - lo))
                    yield from ctx.svm.compute(UPDATE_US * (hi - lo))
                    yield from ctx.svm.write_array(
                        self.vel.addr(lo * self._VEC), v + f * dt)
                    yield from ctx.svm.write_array(
                        self.forces.addr(lo * self._VEC),
                        np.zeros((hi - lo, 3)))
                ctx.done("correct")
            yield from ctx.barrier(self.BARRIER_C, key=_step)
            ctx.reset("predict")
            ctx.reset("correct")
        return None

    # -- verification --------------------------------------------------------

    def _serial_reference(self, nthreads: int):
        _order, ranges, pos, vel = self._band_layout(nthreads)
        dt = 1e-3
        cut2 = self.cutoff ** 2
        for _step in range(self.steps):
            pos = pos + vel * dt
            forces = np.zeros((self.n, 3))
            for t in range(nthreads):
                lo, hi = ranges[t]
                nxt = (t + 1) % nthreads
                nlo, nhi = ranges[nxt] if nxt != t else (0, 0)
                for i in range(lo, hi):
                    for j in range(i + 1, hi):
                        d = pos[i] - pos[j]
                        if d @ d < cut2:
                            f = self.pair_force(pos[i], pos[j])
                            forces[i] += f
                            forces[j] -= f
                    for j in range(nlo, nhi):
                        d = pos[i] - pos[j]
                        if d @ d < cut2:
                            f = self.pair_force(pos[i], pos[j])
                            forces[i] += f
                            forces[j] -= f
            vel = vel + forces * dt
        return pos, vel

    def verify(self, runtime) -> None:
        nthreads = runtime.config.total_threads
        want_pos, want_vel = self._serial_reference(nthreads)
        got_pos = runtime.debug_read_array(
            self.pos.addr(0), np.float64, 3 * self.n).reshape(self.n, 3)
        got_vel = runtime.debug_read_array(
            self.vel.addr(0), np.float64, 3 * self.n).reshape(self.n, 3)
        if not np.allclose(got_pos, want_pos, rtol=1e-9, atol=1e-12):
            raise ApplicationError("Water-Spatial positions diverge")
        if not np.allclose(got_vel, want_vel, rtol=1e-8, atol=1e-11):
            raise ApplicationError("Water-Spatial velocities diverge")
