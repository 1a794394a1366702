"""Dynamic particle exchange — the §VI-B motif for dynamic applications.

The paper motivates consumer-managed buffering with "dynamic applications
such as particle codes or graph computations": multiple producers send data
to a consumer and **the set of producers changes nondeterministically**, so
producer-managed target buffers are awkward.

Here a 1D periodic domain is split into per-rank cells.  Each step every
particle moves by a velocity-dependent offset; particles crossing a cell
boundary must migrate to the owning rank.  Who sends to whom — and how
much — changes every step.

Modes
-----
``mp``   each rank sends per-destination batches; because receivers cannot
         know how many messages will arrive, every step ends with an
         allreduce on the global migration count (the classic termination
         protocol), then probe/recv loops.
``na``   each rank ``put_notify``-s its batches into per-source slots and
         sends zero-byte "step done" notifications to its two potential
         neighbours; the consumer's counting request replaces the global
         allreduce — point-to-point termination, the NA advantage.

Both modes move real particle coordinates; ``verify=True`` checks every
step against a serial reference.
"""

from __future__ import annotations


import numpy as np

from repro.cluster import ClusterConfig, run_ranks
from repro.errors import ReproError

PARTICLE_MODES = ("mp", "na")

#: maximum particles one rank can host (slot sizing)
MAX_LOCAL = 4096
#: tag marking a data batch; the step parity rides in the low bit
_BATCH_TAG = 2
_DONE_TAG = 8


def _serial_reference(domain: float, positions: np.ndarray,
                      velocities: np.ndarray, steps: int,
                      dt: float) -> np.ndarray:
    pos = positions.copy()
    for _ in range(steps):
        pos = (pos + velocities * dt) % domain
    return np.sort(pos)


def _initial_particles(nranks: int, per_rank: int, seed: int):
    rng = np.random.default_rng(seed)
    domain = float(nranks)          # one unit of space per rank
    n = nranks * per_rank
    positions = rng.uniform(0, domain, n)
    velocities = rng.uniform(-0.4, 0.4, n)
    return domain, positions, velocities


def _particles_program(ctx, mode: str, per_rank: int, steps: int,
                       dt: float, seed: int, verify: bool):
    rank, size = ctx.rank, ctx.size
    domain, all_pos, all_vel = _initial_particles(size, per_rank, seed)
    mine = (all_pos >= rank) & (all_pos < rank + 1)
    pos = all_pos[mine].copy()
    vel = all_vel[mine].copy()

    left, right = (rank - 1) % size, (rank + 1) % size
    # NA window: two parity sets x two source slots (from left / right),
    # each (1 + 2*MAX_LOCAL) doubles: [count, positions..., velocities...].
    slot_doubles = 1 + 2 * MAX_LOCAL
    win = None
    step_reqs = None
    if mode == "na":
        win = yield from ctx.win_allocate(4 * slot_doubles * 8)
        # One counting request per parity: both neighbours report "done"
        # (their batch for us, possibly empty, has been delivered).
        step_reqs = []
        for parity in range(2):
            r = yield from ctx.na.notify_init(
                win, tag=_DONE_TAG + parity,
                expected_count=2 if size > 1 else 1)
            step_reqs.append(r)

    def pack(mask: np.ndarray) -> np.ndarray:
        out = np.empty(1 + 2 * int(mask.sum()))
        out[0] = float(mask.sum())
        out[1:1 + int(mask.sum())] = pos[mask]
        out[1 + int(mask.sum()):] = vel[mask]
        return out

    yield from ctx.barrier()
    t0 = ctx.now

    for step in range(steps):
        parity = step % 2
        # Move my particles; charge per-particle compute.
        yield from ctx.compute(len(pos) * 0.002)
        pos = (pos + vel * dt) % domain
        dest_cell = np.floor(pos).astype(int) % size
        stay = dest_cell == rank
        # Velocities are bounded so migration is at most one cell; with
        # size == 2 "left" and "right" are the same rank and the split
        # between the two masks is arbitrary but consistent.
        go_left = ~stay & (dest_cell == left)
        go_right = ~stay & ~go_left
        if (go_right & (dest_cell != right)).any():
            raise ReproError("particle moved more than one cell per step")
        if size == 1:
            continue

        if mode == "mp":
            # Send batches (possibly empty counts are NOT sent) ...
            nsent = 0
            for mask, dest in ((go_left, left), (go_right, right)):
                if mask.any():
                    yield from ctx.comm.send(pack(mask), dest,
                                             tag=_BATCH_TAG + parity)
                    nsent += 1
            # ... then the termination protocol: a global allreduce on the
            # number of batches each rank should expect.
            sent_to = np.zeros(size)
            if go_left.any():
                sent_to[left] += 1
            if go_right.any():
                sent_to[right] += 1
            expect = np.zeros(size)
            yield from ctx.comm.allreduce(sent_to, expect)
            pos, vel = pos[stay], vel[stay]
            for _ in range(int(expect[rank])):
                buf = np.zeros(1 + 2 * MAX_LOCAL)
                st = yield from ctx.comm.recv(
                    buf, tag=_BATCH_TAG + parity)
                cnt = int(buf[0])
                pos = np.concatenate([pos, buf[1:1 + cnt]])
                vel = np.concatenate(
                    [vel, buf[1 + cnt:1 + 2 * cnt]])
        else:  # na
            # Deposit batches into my per-source slot at each neighbour,
            # then notify "done" — even when the batch is empty (zero
            # particles still means "you will get nothing more from me").
            for mask, dest, side in ((go_left, left, 1),
                                     (go_right, right, 0)):
                # side: which source slot of the DEST this rank occupies
                # (I am its right neighbour when sending left).
                disp = (parity * 2 + side) * slot_doubles * 8
                batch = pack(mask)
                yield from ctx.na.put_notify(win, batch, dest, disp,
                                             tag=_DONE_TAG + parity)
                yield from win.flush_local(dest)
            pos, vel = pos[stay], vel[stay]
            req = step_reqs[parity]
            yield from ctx.na.start(req)
            yield from ctx.na.wait(req)
            # View only this parity's pair of slots: the other parity's
            # slots may already be receiving next-step batches.
            slots = win.local(
                np.float64, offset=parity * 2 * slot_doubles * 8,
                count=2 * slot_doubles, mode="r").reshape(2, slot_doubles)
            for side in range(2):
                row = slots[side]
                cnt = int(row[0])
                if cnt:
                    pos = np.concatenate([pos, row[1:1 + cnt]])
                    vel = np.concatenate(
                        [vel, row[1 + cnt:1 + 2 * cnt]])
        if len(pos) > MAX_LOCAL:
            raise ReproError("local particle buffer overflow")

    elapsed = ctx.now - t0
    return (elapsed, np.sort(pos) if verify else None, len(pos))


def run_particles(mode: str, nranks: int, per_rank: int = 64,
                  steps: int = 8, dt: float = 0.3, seed: int = 5,
                  verify: bool = False,
                  config: ClusterConfig | None = None) -> dict:
    """Run the dynamic particle exchange; returns timing and checks."""
    if mode not in PARTICLE_MODES:
        raise ReproError(f"unknown particles mode {mode!r}; "
                         f"choose from {PARTICLE_MODES}")
    if not 0 <= per_rank <= MAX_LOCAL:
        raise ReproError(f"per_rank={per_rank} is outside "
                         f"[0, MAX_LOCAL={MAX_LOCAL}]")
    if steps < 0:
        raise ReproError(f"steps={steps} is negative")
    if config is None:
        config = ClusterConfig(nranks=nranks)
    results, cluster = run_ranks(
        nranks,
        lambda ctx: _particles_program(ctx, mode, per_rank, steps, dt,
                                       seed, verify),
        config=config)
    elapsed = max(r[0] for r in results)
    total = sum(r[2] for r in results)
    out = {
        "mode": mode,
        "nranks": nranks,
        "steps": steps,
        "time_us": elapsed,
        "total_particles": total,
        "particles_conserved": total == nranks * per_rank,
    }
    if not out["particles_conserved"]:
        raise ReproError(
            f"lost particles: {total} of {nranks * per_rank}")
    if verify:
        domain, all_pos, all_vel = _initial_particles(nranks, per_rank,
                                                      seed)
        ref = _serial_reference(domain, all_pos, all_vel, steps, dt)
        got = np.sort(np.concatenate(
            [r[1] for r in results if r[1] is not None]))
        out["max_error"] = float(np.abs(got - ref).max())
    return out
