"""Differential validation: static race findings vs the dynamic sanitizer.

Hypothesis generates random deadlock-free rank programs (unconditional
notified puts, gets and accumulates, optional ``flush`` / ``flush_local``,
local window views before and after the waits, views of the buffer the
gets deliver into, wildcard or per-tag waits consuming a subset of the
incoming notifications), runs each one under the dynamic sanitizer, and
asserts
the soundness contract of :mod:`repro.analysis.races`: **whenever the
sanitizer raises a** :class:`~repro.errors.RaceError`, **the static
checker reports at least one** ``race.*`` **finding on the same
program**.  The static side may legitimately report more (it considers
every schedule, the sanitizer sees one), so only this direction is
asserted; the deterministic companion tests pin a known-clean program
to zero findings so the checker cannot satisfy the contract by crying
wolf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_file
from repro.cluster import ClusterConfig, run_ranks
from repro.errors import RaceError

#: window: 4 slots of 8 bytes
SLOTS = 4


@dataclass(frozen=True)
class Put:
    """One notified operation on ``slot`` of the target's window."""

    origin: int
    target: int
    slot: int
    tag: int
    flush: bool
    #: "put" | "get" | "acc": put_notify / get_notify / accumulate_notify
    #: (a get delivers into the same slot of the origin's local buffer)
    kind: str = "put"
    #: complete with ``flush_local`` instead of ``flush``
    local: bool = False


@dataclass(frozen=True)
class GenProgram:
    nranks: int
    puts: tuple[Put, ...]
    #: per rank: (origin, tag) of the incoming puts it consumes, in order
    waits: tuple[tuple[tuple[int, int], ...], ...]
    #: per rank: wildcard wait (one ANY/ANY request started N times)?
    wildcard: tuple[bool, ...]
    #: per rank: slots viewed before / after the wait phase
    pre_views: tuple[tuple[int, ...], ...]
    post_views: tuple[tuple[int, ...], ...]
    #: per rank: slots of the local get buffer read at the very end
    buf_views: tuple[tuple[int, ...], ...] = ()


def render(gen: GenProgram) -> str:
    """The generated program as source, identical for both checkers."""
    lines = [
        "import numpy as np",
        "",
        "from repro.mpi.constants import ANY_SOURCE, ANY_TAG",
        "",
        "",
        "def program(ctx):",
        f"    # analyze: nranks={gen.nranks}",
        f"    win = yield from ctx.win_allocate({SLOTS * 8})",
        f"    buf = ctx.alloc({SLOTS * 8})",
    ]
    for rank in range(gen.nranks):
        head = "if" if rank == 0 else "elif"
        lines.append(f"    {head} ctx.rank == {rank}:")
        body: list[str] = []
        for put in gen.puts:
            if put.origin != rank:
                continue
            if put.kind == "get":
                body.append(
                    f"yield from ctx.na.get_notify(win, buf, "
                    f"{put.target}, {put.slot * 8}, nbytes=8, "
                    f"tag={put.tag}, local_offset={put.slot * 8})")
            else:
                verb = {"put": "put_notify", "acc": "accumulate_notify"}
                body.append(
                    f"yield from ctx.na.{verb[put.kind]}(win, "
                    f"np.array([{float(put.tag)}]), {put.target}, "
                    f"{put.slot * 8}, tag={put.tag})")
            if put.flush:
                flush = "flush_local" if put.local else "flush"
                body.append(f"yield from win.{flush}({put.target})")
        for i, slot in enumerate(gen.pre_views[rank]):
            body.append(
                f"pre{i} = win.local(np.float64, offset={slot * 8}, "
                f"count=1, mode=\"r\")")
        if gen.wildcard[rank] and gen.waits[rank]:
            body.append("req = yield from ctx.na.notify_init(win, "
                        "source=ANY_SOURCE, tag=ANY_TAG)")
            for _ in gen.waits[rank]:
                body.append("yield from ctx.na.start(req)")
                body.append("yield from ctx.na.wait(req)")
            body.append("yield from ctx.na.request_free(req)")
        else:
            for i, (origin, tag) in enumerate(gen.waits[rank]):
                body.append(f"req{i} = yield from ctx.na.notify_init("
                            f"win, source={origin}, tag={tag})")
                body.append(f"yield from ctx.na.start(req{i})")
                body.append(f"yield from ctx.na.wait(req{i})")
                body.append(f"yield from ctx.na.request_free(req{i})")
        for i, slot in enumerate(gen.post_views[rank]):
            body.append(
                f"post{i} = win.local(np.float64, offset={slot * 8}, "
                f"count=1, mode=\"r\")")
        for i, slot in enumerate(gen.buf_views[rank]
                                 if gen.buf_views else ()):
            body.append(
                f"got{i} = buf.ndarray(np.float64, offset={slot * 8}, "
                f"count=1, mode=\"r\")")
        for line in body or ["pass"]:
            lines.append("        " + line)
    lines.append("    yield from win.free()")
    lines.append("    return None")
    return "\n".join(lines) + "\n"


@st.composite
def gen_programs(draw: st.DrawFn) -> GenProgram:
    nranks = draw(st.integers(2, 3))
    puts: list[Put] = []
    tag = 0
    for origin in range(nranks):
        for _ in range(draw(st.integers(0, 2))):
            puts.append(Put(
                origin=origin,
                target=draw(st.integers(0, nranks - 1)),
                slot=draw(st.integers(0, SLOTS - 1)),
                tag=tag,
                flush=draw(st.booleans()),
                kind=draw(st.sampled_from(("put", "get", "acc"))),
                local=draw(st.booleans())))
            tag += 1
    waits: list[tuple[tuple[int, int], ...]] = []
    for rank in range(nranks):
        incoming = [p for p in puts if p.target == rank]
        consumed = [(p.origin, p.tag) for p in incoming
                    if draw(st.booleans())]
        waits.append(tuple(consumed))
    views = st.lists(st.integers(0, SLOTS - 1), max_size=2)
    return GenProgram(
        nranks=nranks,
        puts=tuple(puts),
        waits=tuple(waits),
        wildcard=tuple(draw(st.booleans()) for _ in range(nranks)),
        pre_views=tuple(tuple(draw(views)) for _ in range(nranks)),
        post_views=tuple(tuple(draw(views)) for _ in range(nranks)),
        buf_views=tuple(tuple(draw(views)) for _ in range(nranks)))


def static_races(source: str, name: str) -> list[str]:
    findings = analyze_file(f"/tmp/{name}.py", source)
    return [f.format() for f in findings
            if f.check.startswith("race.")]


def dynamic_race(source: str, name: str, nranks: int) -> bool:
    """True when the sanitizer raises a RaceError on one real schedule."""
    namespace: dict[str, object] = {}
    exec(compile(source, f"/tmp/{name}.py", "exec"), namespace)
    config = ClusterConfig(nranks=nranks, ranks_per_node=1,
                           sanitize=True)
    try:
        run_ranks(nranks, namespace["program"], config=config)
    except RaceError:
        return True
    return False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gen=gen_programs())
def test_static_races_are_a_sound_superset(gen: GenProgram) -> None:
    source = render(gen)
    name = "generated_rank_program"
    if dynamic_race(source, name, gen.nranks):
        races = static_races(source, name)
        assert races, (
            "dynamic sanitizer raced but the static checker is silent "
            "on:\n" + source)


def test_known_racy_program_caught_by_both() -> None:
    gen = GenProgram(
        nranks=2,
        puts=(Put(origin=0, target=1, slot=0, tag=0, flush=True),),
        waits=((), ()),                 # nobody consumes the notification
        wildcard=(False, False),
        pre_views=((), ()),
        post_views=((), (0,)))          # rank 1 reads the landing slot
    source = render(gen)
    assert dynamic_race(source, "known_racy", 2)
    races = static_races(source, "known_racy")
    assert any("race.stale-view" in r for r in races), races


def test_known_clean_program_clean_in_both() -> None:
    gen = GenProgram(
        nranks=2,
        puts=(Put(origin=0, target=1, slot=0, tag=0, flush=True),),
        waits=((), (((0, 0)),)),        # rank 1 waits before reading
        wildcard=(False, False),
        pre_views=((), ()),
        post_views=((), (0,)))
    source = render(gen)
    assert not dynamic_race(source, "known_clean", 2)
    assert static_races(source, "known_clean") == []


def _one_op(**op: object) -> GenProgram:
    """Rank 0 issues one flushed op on slot 0 of rank 1, which waits for
    its notification; both then look at slot 0 (window and buffer)."""
    return GenProgram(
        nranks=2,
        puts=(Put(origin=0, target=1, slot=0, tag=0, flush=True, **op),),
        waits=((), ((0, 0),)),
        wildcard=(False, False),
        pre_views=((), ()),
        post_views=((), (0,)),
        buf_views=((0,), ()))


def test_get_delivery_needs_a_flush_of_either_kind() -> None:
    """The get's two legs: the notification carries the READ at the
    target, only a flush (local is enough) carries the delivery."""
    for local in (False, True):
        source = render(_one_op(kind="get", local=local))
        assert not dynamic_race(source, "get_flushed", 2)
        assert static_races(source, "get_flushed") == []
    source = render(replace(_one_op(), puts=(
        Put(origin=0, target=1, slot=0, tag=0, flush=False, kind="get"),)))
    assert dynamic_race(source, "get_unflushed", 2)
    races = static_races(source, "get_unflushed")
    assert any("race.stale-view" in r for r in races), races


def test_flush_local_does_not_order_a_puts_remote_commit() -> None:
    source = render(replace(_one_op(kind="put", local=True),
                            waits=((), ())))
    assert dynamic_race(source, "put_flush_local", 2)
    assert any("race.stale-view" in r
               for r in static_races(source, "put_flush_local"))


def test_concurrent_accumulates_commute_but_not_with_a_put() -> None:
    def two_writers(second: str) -> GenProgram:
        return GenProgram(
            nranks=3,
            puts=(Put(origin=1, target=0, slot=0, tag=0, flush=True,
                      kind="acc"),
                  Put(origin=2, target=0, slot=0, tag=1, flush=True,
                      kind=second)),
            waits=(((1, 0), (2, 1)), (), ()),
            wildcard=(False, False, False),
            pre_views=((), (), ()),
            post_views=((0,), (), ()))

    source = render(two_writers("acc"))
    assert not dynamic_race(source, "acc_acc", 3)
    assert static_races(source, "acc_acc") == []
    source = render(two_writers("put"))
    assert dynamic_race(source, "acc_put", 3)
    races = static_races(source, "acc_put")
    assert any("race.overlap-write" in r for r in races), races
