"""Volrend: SPLASH-2's volume renderer (paper dataset: "head").

Ray-casting with *dynamic task stealing*: image tiles are tasks handed
out through a lock-protected shared counter, so load balance is
emergent rather than static. The volume itself (a synthetic density
field standing in for the head CT dataset) is read-shared by everyone;
image tiles are written wherever the grabbing thread happens to run --
scattered writes over remote home pages plus high-frequency lock
traffic on the task queue, the combination that gives Volrend its
distinctive profile in the paper's figures.

The task-grab critical section follows the replay contract: the
grabbed tile id enters the persistent state *before* the release that
publishes the counter increment, so a recovered thread re-renders
exactly its in-flight tile (pure, idempotent writes) and no tile is
ever lost or double-grabbed.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, Workload
from repro.errors import ApplicationError

#: Modelled CPU cost of casting one ray (sampling the volume), in us.
RAY_US = 40.0

TASK_LOCK = 0


class Volrend(Workload):
    """Tile-task ray casting over a shared synthetic volume."""

    name = "Volrend"

    def __init__(self, image_size: int = 16, tile: int = 4,
                 volume_size: int = 12) -> None:
        if image_size % tile:
            raise ApplicationError("image size must be a tile multiple")
        self.size = image_size
        self.tile = tile
        self.tiles_per_row = image_size // tile
        self.ntiles = self.tiles_per_row ** 2
        self.vsize = volume_size
        self.volume = None
        self.image = None
        self.counter = None

    _ITEM = 8

    def setup(self, runtime) -> None:
        self.volume = runtime.alloc(
            "vol_data", self.vsize ** 3 * self._ITEM, home="block")
        self.image = runtime.alloc(
            "vol_image", self.size * self.size * self._ITEM, home="block")
        self.counter = runtime.alloc("vol_tasks", 8, home=0)

    def _volume_data(self) -> np.ndarray:
        """Synthetic 'head': a couple of gaussian blobs."""
        v = self.vsize
        grid = np.mgrid[0:v, 0:v, 0:v].astype(np.float64) / v
        x, y, z = grid
        blob1 = np.exp(-(((x - 0.5) ** 2 + (y - 0.45) ** 2
                          + (z - 0.5) ** 2) / 0.04))
        blob2 = 0.6 * np.exp(-(((x - 0.5) ** 2 + (y - 0.7) ** 2
                                + (z - 0.5) ** 2) / 0.01))
        return blob1 + blob2

    def init_kernel(self, ctx: AppContext):
        if ctx.tid == 0:
            data = self._volume_data().reshape(-1)
            yield from ctx.svm.write_array(self.volume.addr(0), data)
            yield from ctx.svm.write_i64(self.counter.addr(0), 0)
        return None

    # -- rendering -------------------------------------------------------------

    def _render_tile(self, volume: np.ndarray, tile_id: int) -> np.ndarray:
        """Cast one ray per pixel of the tile through the volume."""
        v = self.vsize
        ty, tx = divmod(tile_id, self.tiles_per_row)
        out = np.empty((self.tile, self.tile))
        for py in range(self.tile):
            for px in range(self.tile):
                iy = ty * self.tile + py
                ix = tx * self.tile + px
                # Orthographic ray along z at (ix, iy), front-to-back
                # compositing with absorption.
                gx = min(int(ix / self.size * v), v - 1)
                gy = min(int(iy / self.size * v), v - 1)
                acc = 0.0
                transparency = 1.0
                for gz in range(v):
                    sample = volume[gx, gy, gz]
                    acc += transparency * sample
                    transparency *= max(0.0, 1.0 - 0.3 * sample)
                    if transparency < 1e-3:
                        break
                out[py, px] = acc
        return out

    def _tile_addrs(self, tile_id: int):
        ty, tx = divmod(tile_id, self.tiles_per_row)
        for py in range(self.tile):
            row = ty * self.tile + py
            yield (self.image.addr(
                (row * self.size + tx * self.tile) * self._ITEM), py)

    def kernel(self, ctx: AppContext):
        raw = yield from ctx.svm.read_array(
            self.volume.addr(0), np.float64, self.vsize ** 3)
        volume = raw.reshape(self.vsize, self.vsize, self.vsize)

        while True:
            tile_id = ctx.state.get("cur_tile")
            if tile_id is None:
                yield from ctx.svm.acquire(TASK_LOCK)
                nxt = yield from ctx.svm.read_i64(self.counter.addr(0))
                if nxt >= self.ntiles:
                    yield from ctx.svm.release(TASK_LOCK)
                    break
                yield from ctx.svm.write_i64(self.counter.addr(0), nxt + 1)
                ctx.state["cur_tile"] = nxt  # before release: contract
                yield from ctx.svm.release(TASK_LOCK)
                tile_id = nxt
            yield from ctx.svm.compute(RAY_US * self.tile * self.tile)
            rendered = self._render_tile(volume, tile_id)
            for addr, py in self._tile_addrs(tile_id):
                yield from ctx.svm.write_array(addr, rendered[py])
            ctx.state["cur_tile"] = None
        yield from ctx.barrier(self.BARRIER_A)
        return None

    def verify(self, runtime) -> None:
        volume = self._volume_data()
        want = np.empty((self.size, self.size))
        for tile_id in range(self.ntiles):
            ty, tx = divmod(tile_id, self.tiles_per_row)
            want[ty * self.tile:(ty + 1) * self.tile,
                 tx * self.tile:(tx + 1) * self.tile] = \
                self._render_tile(volume, tile_id)
        got = runtime.debug_read_array(
            self.image.addr(0), np.float64,
            self.size * self.size).reshape(self.size, self.size)
        if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
            raise ApplicationError("rendered image differs from the "
                                   "serial reference")
