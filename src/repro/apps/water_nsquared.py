"""Water-Nsquared: SPLASH-2's O(n^2) molecular dynamics code
(paper configuration: 4096 molecules).

Sharing characteristics reproduced (paper section 5.3):

* one lock per molecule plus a handful of global locks (the paper's
  4105 = 4096 + 9); force accumulation acquires/releases them at high
  frequency, which is why Water-Nsquared takes by far the most
  checkpoints (10 277 at one thread/node) and shows >2x lock wait
  growth under the extended protocol;
* force pages are written by every thread (about a quarter of the
  diffed pages are the writer's own home pages); position pages are
  owner-written.

Physics, simplified but real: a deterministic pairwise force, a
leapfrog-style position/velocity update, and a lock-protected global
potential-energy reduction. As in SPLASH-2, each process accumulates
pair forces into a *private* array first and then adds it into the
shared force array under per-molecule locks -- which is also exactly
the structure the recovery replay contract wants (the private array is
recomputed deterministically on replay; the locked global additions
advance persistent state before each release).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

#: Modelled CPU cost of one pairwise force evaluation, in us.
PAIR_FORCE_US = 12.0
#: Modelled cost of one molecule's predict/correct update.
UPDATE_US = 6.0
#: Seed of the initial molecule positions.
SEED = 11

#: Global lock ids (after the per-molecule locks).
ENERGY_LOCK_OFFSET = 0
NUM_GLOBAL_LOCKS = 9


class WaterNsquared(Workload):
    """All-pairs molecular dynamics with per-molecule locks."""

    name = "WaterNsq"

    def __init__(self, molecules: int = 64, steps: int = 2) -> None:
        self.n = molecules
        self.steps = steps
        self.dt = 1e-3
        self.pos = None
        self.vel = None
        self.forces = None
        self.energy = None

    _VEC = 3 * 8  # one 3-vector of float64

    def mol_lock(self, m: int) -> int:
        return NUM_GLOBAL_LOCKS + m

    def _my_mols(self, ctx) -> range:
        per = self.n // ctx.nthreads
        lo = ctx.tid * per
        hi = self.n if ctx.tid == ctx.nthreads - 1 else lo + per
        return range(lo, hi)

    def _my_pairs(self, ctx):
        """SPLASH's decomposition: thread t computes pairs (i, j) for
        its own i against all j > i."""
        for i in self._my_mols(ctx):
            for j in range(i + 1, self.n):
                yield i, j

    def setup(self, runtime) -> None:
        self.pos = runtime.alloc("water_pos", self.n * self._VEC,
                                 home="block")
        self.vel = runtime.alloc("water_vel", self.n * self._VEC,
                                 home="block")
        self.forces = runtime.alloc("water_forces", self.n * self._VEC,
                                    home="block")
        self.energy = runtime.alloc("water_energy", 8, home=0)

    def _initial_state(self):
        rng = np.random.default_rng(SEED)
        pos = rng.uniform(0.0, 10.0, size=(self.n, 3))
        vel = rng.standard_normal((self.n, 3)) * 0.1
        return pos, vel

    def init_kernel(self, ctx: AppContext):
        pos0, vel0 = self._initial_state()
        mols = self._my_mols(ctx)
        lo, hi = mols.start, mols.stop
        # Our molecule block is contiguous in every array: three span
        # writes instead of three writes per molecule.
        yield from ctx.svm.write_array(self.pos.addr(lo * self._VEC),
                                       pos0[lo:hi])
        yield from ctx.svm.write_array(self.vel.addr(lo * self._VEC),
                                       vel0[lo:hi])
        yield from ctx.svm.write_array(self.forces.addr(lo * self._VEC),
                                       np.zeros((hi - lo, 3)))
        return None

    @staticmethod
    def pair_force(pi: np.ndarray, pj: np.ndarray) -> np.ndarray:
        d = pi - pj
        return d / (d @ d + 1.0)

    def kernel(self, ctx: AppContext):
        for _step in ctx.range("step", self.steps):
            # -- predict: integrate own positions (owner-computes) ----
            # Batched: our block is contiguous, so the whole phase is
            # two span reads, one aggregate compute charge, one span
            # write.
            if ctx.pending("predict"):
                mols = self._my_mols(ctx)
                lo, hi = mols.start, mols.stop
                p = yield from ctx.svm.read_array(
                    self.pos.addr(lo * self._VEC), np.float64,
                    3 * (hi - lo))
                v = yield from ctx.svm.read_array(
                    self.vel.addr(lo * self._VEC), np.float64,
                    3 * (hi - lo))
                yield from ctx.svm.compute(UPDATE_US * (hi - lo))
                yield from ctx.svm.write_array(
                    self.pos.addr(lo * self._VEC), p + v * self.dt)
                ctx.done("predict")
            yield from ctx.barrier(self.BARRIER_A, key=_step)

            # -- interf: private accumulation, then locked global adds.
            # The private array is recomputed deterministically on a
            # replay; positions are read-only in this phase.
            positions = yield from ctx.svm.read_array(
                self.pos.addr(0), np.float64, 3 * self.n)
            positions = positions.reshape(self.n, 3)
            local_f = np.zeros((self.n, 3))
            npairs = 0
            for i, j in self._my_pairs(ctx):
                f = self.pair_force(positions[i], positions[j])
                local_f[i] += f
                local_f[j] -= f
                npairs += 1
            yield from ctx.svm.compute(PAIR_FORCE_US * npairs)
            local_energy = float(np.sum(local_f[:, 0] ** 2))

            for m in ctx.range(("mol", _step), self.n):
                if not np.any(local_f[m]):
                    continue
                yield from ctx.svm.acquire(self.mol_lock(m))
                f = yield from ctx.svm.read_array(
                    self.forces.addr(m * self._VEC), np.float64, 3)
                yield from ctx.svm.write_array(
                    self.forces.addr(m * self._VEC), f + local_f[m])
                ctx.state[("mol", _step)] = m + 1  # RMW replay contract
                yield from ctx.svm.release(self.mol_lock(m))

            # -- global potential-energy reduction under a global lock.
            if ctx.pending("energy"):
                yield from ctx.svm.acquire(ENERGY_LOCK_OFFSET)
                e = yield from ctx.svm.read_f64(self.energy.addr(0))
                yield from ctx.svm.write_f64(self.energy.addr(0),
                                             e + local_energy)
                ctx.done("energy")  # before release: replay contract
                yield from ctx.svm.release(ENERGY_LOCK_OFFSET)
            yield from ctx.barrier(self.BARRIER_B, key=_step)

            # -- correct: velocity update + force reset (own mols) ----
            if ctx.pending("correct"):
                mols = self._my_mols(ctx)
                lo, hi = mols.start, mols.stop
                f = yield from ctx.svm.read_array(
                    self.forces.addr(lo * self._VEC), np.float64,
                    3 * (hi - lo))
                v = yield from ctx.svm.read_array(
                    self.vel.addr(lo * self._VEC), np.float64,
                    3 * (hi - lo))
                yield from ctx.svm.compute(UPDATE_US * (hi - lo))
                yield from ctx.svm.write_array(
                    self.vel.addr(lo * self._VEC), v + f * self.dt)
                yield from ctx.svm.write_array(
                    self.forces.addr(lo * self._VEC),
                    np.zeros((hi - lo, 3)))
                ctx.done("correct")
            yield from ctx.barrier(self.BARRIER_C, key=_step)
            ctx.reset("predict")
            ctx.reset("energy")
            ctx.reset("correct")
        return None

    # -- verification --------------------------------------------------------

    def _serial_reference(self):
        """The same computation, serially, in plain numpy."""
        pos, vel = self._initial_state()
        for _step in range(self.steps):
            pos = pos + vel * self.dt
            forces = np.zeros((self.n, 3))
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    f = self.pair_force(pos[i], pos[j])
                    forces[i] += f
                    forces[j] -= f
            vel = vel + forces * self.dt
        return pos, vel

    def verify(self, runtime) -> None:
        want_pos, want_vel = self._serial_reference()
        got_pos = runtime.debug_read_array(
            self.pos.addr(0), np.float64, 3 * self.n).reshape(self.n, 3)
        got_vel = runtime.debug_read_array(
            self.vel.addr(0), np.float64, 3 * self.n).reshape(self.n, 3)
        if not np.allclose(got_pos, want_pos, rtol=1e-9, atol=1e-12):
            raise ApplicationError("Water-Nsquared positions diverge "
                                   "from the serial reference")
        if not np.allclose(got_vel, want_vel, rtol=1e-8, atol=1e-11):
            raise ApplicationError("Water-Nsquared velocities diverge "
                                   "from the serial reference")
