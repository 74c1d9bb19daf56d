"""``workers=N``: N forked Gamma servers behind one connection pool.

:class:`ForkedServerPool` is the multi-process path of the service.  It
forks one :class:`~repro.service.server.GammaServer` per worker, each
listening on a unix socket in a private temporary directory, and routes
to them through :class:`~repro.service.pool.PooledTransport` with the
health prober off.  A worker therefore speaks the one frame protocol,
runs the one server evaluation loop, and fails the way every remote
transport fails: its connection breaks.

* **Readiness** -- a forked server signals over a pipe once it listens;
  the pool connects only then.
* **Snapshots** -- server ``i`` of ``N`` owns ``snapshot_dir/shard-i-of-N``.
  A warm restart needs the same worker count, so that every shard finds
  its own subdirectory again.
* **Crashes** -- :meth:`~ForkedServerPool.recover` re-forks a dead
  server on its own socket path (at most ``max_restarts`` times per
  server) before the pool reconnects, so the new server starts warm
  from its snapshots.  A server past that budget is a lost endpoint:
  with two or more workers its shards fail over to the survivors; with
  one worker the coordinator raises
  :class:`~repro.errors.WorkerCrashError`.
* **Shutdown** -- :meth:`~ForkedServerPool.close` closes the pool, then
  stops every server (SIGTERM: the server snapshots and exits; SIGKILL
  when ``snapshot=False``), joins it, and removes the socket directory.

This is the only module that imports :mod:`multiprocessing`; the
transport layer loads it only when a coordinator asks for workers.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import sys
import tempfile

from repro.errors import ServiceError
from repro.service.pool import PooledTransport
from repro.service.server import GammaServer

#: How long a forked server may take to come up (snapshot preload
#: included) before the pool gives up on it.
STARTUP_TIMEOUT = 60.0

#: How long a stopping server may take to snapshot and exit before it
#: is killed.
STOP_TIMEOUT = 10.0


def _stop(signum: int, frame: object) -> None:
    signal.signal(signum, signal.SIG_IGN)  # one orderly close, not two
    raise KeyboardInterrupt


def _serve(path, ready, budget_bytes, total_budget_bytes, snapshot_dir) -> None:
    """Entry point of one forked server: listen, signal, serve until SIGTERM."""
    signal.signal(signal.SIGTERM, _stop)
    try:
        server = GammaServer(
            ("unix", path),
            budget_bytes=budget_bytes,
            total_budget_bytes=total_budget_bytes,
            snapshot_dir=snapshot_dir,
            # The coordinator is the only tenant: it may keep any number
            # of batches in flight, and there is no one to be fair to.
            max_queue_depth=sys.maxsize,
        )
        ready.send(None)
        ready.close()
        server.serve_forever()  # closes (and snapshots) on the way out
    except KeyboardInterrupt:
        pass


class ForkedServerPool(PooledTransport):
    """A connection pool over ``workers`` forked servers it owns."""

    name = "multiprocess"

    def __init__(
        self,
        workers: int,
        *,
        budget_bytes: int | None = None,
        total_budget_bytes: int | None = None,
        snapshot_dir: str | None = None,
        max_restarts: int = 3,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"worker count must be >= 1, got {workers}")
        self._context = multiprocessing.get_context("fork")
        self._budgets = (budget_bytes, total_budget_bytes)
        self._snapshot_dir = snapshot_dir
        #: Private directory holding every server's unix socket.
        self.socket_dir = tempfile.mkdtemp(prefix="gamma-workers-")
        self._paths = [
            os.path.join(self.socket_dir, f"shard-{index}.sock")
            for index in range(workers)
        ]
        self._processes: list = [None] * workers
        self._respawns = [0] * workers
        try:
            for ready in [self._fork(index) for index in range(workers)]:
                self._await(ready)
            super().__init__(
                [("unix", path) for path in self._paths],
                max_restarts=max_restarts,
                probe_interval=None,
            )
        except BaseException:
            self._stop_servers(snapshot=False)
            raise

    def _fork(self, index: int):
        """Start server ``index``; returns the pipe end it signals on."""
        snapshot_dir = self._snapshot_dir
        if snapshot_dir is not None:
            snapshot_dir = os.path.join(
                snapshot_dir, f"shard-{index}-of-{len(self._paths)}"
            )
        ready, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_serve,
            args=(self._paths[index], writer, *self._budgets, snapshot_dir),
            daemon=True,
            name=f"gamma-server-{index}",
        )
        process.start()
        writer.close()
        self._processes[index] = process
        return ready

    @staticmethod
    def _await(ready) -> None:
        """Block until a forked server listens (EOF: it died first)."""
        try:
            if not ready.poll(STARTUP_TIMEOUT):
                raise ServiceError(
                    f"forked Gamma server not up after {STARTUP_TIMEOUT}s"
                )
            ready.recv()
        except EOFError as exc:
            raise ServiceError("forked Gamma server died during startup") from exc
        finally:
            ready.close()

    def recover(self, shard_id: int) -> None:
        """Re-fork the shard's server if it died, then reconnect.

        A server past its ``max_restarts`` re-forks stays dead; the
        pool's reconnect then fails and the endpoint is lost.
        """
        with self._lock:
            index = self._routing[shard_id]
            process = self._processes[index]
            transport = self._endpoints[index].transport
            if transport is not None and transport.is_dead:
                # The connection breaks as the server exits; give the
                # exit a moment to complete before checking liveness.
                process.join(timeout=0.05)
            if not process.is_alive() and self._respawns[index] < self._max_restarts:
                self._respawns[index] += 1
                self._await(self._fork(index))
        super().recover(shard_id)

    def inject_crash(self, shard_id: int) -> None:
        """SIGKILL the shard's server (crash-recovery test/ops hook)."""
        process = self._processes[self.endpoint_of(shard_id)]
        process.kill()
        process.join()

    def _stop_servers(self, *, snapshot: bool) -> None:
        for process in self._processes:
            if process is not None and process.is_alive():
                if snapshot:
                    process.terminate()
                else:
                    process.kill()
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=STOP_TIMEOUT)
            if process.is_alive():  # pragma: no cover - a hung shutdown
                process.kill()
                process.join()
        shutil.rmtree(self.socket_dir, ignore_errors=True)

    def close(self, *, snapshot: bool = True) -> None:
        if self._closed:
            return
        try:
            super().close(snapshot=snapshot)
        finally:
            self._stop_servers(snapshot=snapshot)
