"""Channel-connected pipeline execution with stall accounting.

The five stages run as workers joined by bounded FIFO channels.  One channel
item is one image row, a fresh ``(3, w)`` float32 array.  The first stage
demosaics the whole mosaic (it needs a row window, not a stream) and feeds
its rows to the first channel; the median stage sorts each row's horizontal
triples once, keeps those of the last three rows, and emits the median of one
row once the row below it arrives, through the same two functions as
``denoise``; the remaining stages are pointwise and run their kernel on one
row at a time.  Arithmetic is delegated to the reference kernels, so the
output is bit-identical to the sequential pipeline in any interleaving.
``ChannelConfig.depth`` counts pixels; a channel holds ``ceil(depth / w)``
rows.

Two clocks are supported:

* ``wall`` -- the real kernels, interleaved on the calling thread: each stage
  is a generator that yields while its input FIFO is empty or its output
  FIFO is full.  Blocking times run from the first failed push/pop attempt
  to the successful transfer, so a stage's blocked time is wall time spent
  while other stages run, and its busy and blocked spans never overlap.
* ``virtual`` -- the exact timing of the same network with one item per
  pixel and ``depth`` pixels per channel, in closed form: a max-plus scan
  over blocks of ``depth`` items that stops once the chain turns periodic.
  Latencies must be integers; they are the per-pixel access counts of the
  traffic model.  Here ``busy + blocked_push + blocked_pop == wall_time``.

On both clocks ``items_processed`` counts pixels.  A worker fault ends the
run with ``StageFault`` naming the stage that raised.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .images import PlanarImage, RawBayerImage
from .kernels import STAGE_NAMES, STAGES, _median_of_sorted, _sort3, run_pipeline
# module attributes that tracers patch by name: ``denoise`` is not called here, and
# the pointwise workers look theirs up by name at call time
from .kernels import demosaic, denoise, gamut_map, tone_map, transform
from .params import PipelineParams
from .variants import VariantConfig, traffic


class StageFault(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause!r}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class ChannelConfig:
    depth: int = 64  # pixels per inter-stage queue; the wall clock holds ceil(depth / w) rows

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"channel depth must be >= 1, got {self.depth}")


@dataclass
class StageStats:
    name: str
    items_processed: int = 0
    busy_time: float = 0.0
    blocked_push_time: float = 0.0
    blocked_pop_time: float = 0.0
    wall_time: float = 0.0


@dataclass
class DataflowResult:
    image: PlanarImage | None
    stats: dict[str, StageStats]
    makespan: float
    clock: str


# ---------------------------------------------------------------------------
# Virtual clock: a block max-plus scan of a bounded-queue stage chain
# ---------------------------------------------------------------------------

def simulate_chain(
    latencies: list[float], items: int, depth: int, names: list[str] | None = None
) -> tuple[list[StageStats], float]:
    """Exact timing of a linear stage chain with bounded queues.

    Per stage and item: wait for input (except the source), compute for the
    stage latency, then wait for space in the output queue (a slot frees
    when the consumer pops).  Waiting for the very first input is warmup,
    not blocking, so a stage's accounting starts at its first pop.

    Item ``j`` of stage ``i`` pops at ``S[i][j] = max(P[i][j-1], P[i-1][j])``
    and pushes at ``P[i][j] = max(S[i][j] + L[i], S[i+1][j-D])``, so in a
    block of ``D`` items each stage's pushes are one max-plus scan
    ``j*L + maximum.accumulate(a - j*L)`` over the stage before it and the
    stage after it one block back.  Once a block equals the previous one
    plus a constant, every later block repeats it shifted, with the same
    sums, and the rest follows in closed form; a chain that never turns
    periodic is scanned to the end.  Latencies must be positive integers:
    then every sum is exact in float64 (below 2**53) in any order.
    """
    lat = np.asarray(latencies, dtype=float)
    k = len(lat)
    if k < 1 or items < 1 or depth < 1:
        raise ValueError("need at least one stage, one item and one slot per channel")
    if not np.all(np.isfinite(lat) & (lat == np.floor(lat)) & (lat > 0)):
        raise ValueError(f"latencies must be positive integers, got {latencies}")
    d = min(depth, items)
    full, rest = divmod(items, d)
    ramp = np.arange(d) * lat[:, None]  # j * L_i
    totals = np.zeros((2, k))  # blocked push, blocked pop
    last = np.zeros(k)  # each stage's last push in the previous block
    for b in range(full + (rest > 0)):
        n = d if b < full else rest
        P = np.empty((k, n))
        for i in range(k):
            a = P[i - 1] + lat[i] if i else np.full(n, -np.inf)
            if b and i < k - 1:
                a = np.maximum(a, prev[i + 1, :n])  # S of stage i+1, D items back
            a[0] = max(a[0], last[i] + lat[i])
            P[i] = ramp[i, :n] + np.maximum.accumulate(a - ramp[i, :n])
        before = np.concatenate((last[:, None], P[:, :-1]), axis=1)  # P_{j-1}
        S = np.maximum(before, np.concatenate((before[:1], P[:-1])))  # P[i-1][j], none for i=0
        terms = np.stack((P - S - lat[:, None], S - before))
        if b == 0:
            terms[1, :, 0] = 0.0  # the first pop is warmup
        totals += terms.sum(axis=2)
        last = P[:, -1]
        state = np.concatenate((S, P))
        if b and n == d and np.all(state - prev == (delta := state[0, 0] - prev[0, 0])):
            left = full - 1 - b  # full blocks after this one, then ``rest`` items
            totals += left * terms.sum(axis=2) + terms[:, :, :rest].sum(axis=2)
            last = P[:, rest - 1] + (left + 1) * delta if rest else last + left * delta
            break
        prev = state
    names = names or [f"stage{i}" for i in range(k)]
    table = np.stack((items * lat, *totals, items * lat + totals[0] + totals[1]))  # exact
    stats = [StageStats(names[i], items, *map(float, table[:, i])) for i in range(k)]
    return stats, float(last[-1])


def stage_cost_units(n_points: int) -> dict[str, float]:
    """The virtual latencies: per-pixel access counts of each stage's fused loop.

    They come from the traffic model, so the imbalance matches the counters.
    """
    fused, one_pixel = VariantConfig(fused_rewrite=True), np.zeros((3, 1), int)  # any LUT rows
    costs = {}
    for stage in STAGE_NAMES:
        c = traffic(stage, fused, 1, 1, n_points, indices=one_pixel)
        costs[stage] = float(c.global_reads + c.global_writes + c.readonly_reads)
    return costs


# ---------------------------------------------------------------------------
# Wall clock: one coroutine per stage on the calling thread, bounded FIFOs
# ---------------------------------------------------------------------------

def _run_chain(raw, stages, depth: int) -> tuple[list[StageStats], list[np.ndarray]]:
    """Run ``stages`` as generators on this thread, joined by FIFOs of ``depth`` rows.

    ``stages`` is a list of ``(name, fn)``: the first ``fn`` maps ``raw`` to
    its rows, every later one maps one upstream row to a list of rows.  A
    stage yields while its input FIFO is empty or its output FIFO is full,
    and a plain loop resumes the live stages downstream-first until all
    finish.  The last stage's rows are returned.  A fault in any stage ends
    the run with ``StageFault``.
    """
    k = len(stages)
    fifos = [deque([raw]), *(deque() for _ in range(k))]  # stage i pops fifos[i]; the last is the sink
    closed = [True] + [False] * k  # fifos[i] gets no more rows
    stats = [StageStats(name=name) for name, _ in stages]

    def worker(i, fn):
        st, src, dst = stats[i], fifos[i], fifos[i + 1]
        cap = depth if i + 1 < k else float("inf")
        t_start = time.perf_counter()
        try:
            while True:
                if not (src or closed[i]):
                    t0 = time.perf_counter()
                    while not (src or closed[i]):
                        yield
                    st.blocked_pop_time += time.perf_counter() - t0
                if not src:
                    return
                item = src.popleft()
                t0 = time.perf_counter()
                rows = fn(item)
                st.busy_time += time.perf_counter() - t0
                for row in rows:
                    if len(dst) >= cap:
                        t0 = time.perf_counter()
                        while len(dst) >= cap:
                            yield
                        st.blocked_push_time += time.perf_counter() - t0
                    dst.append(row)
                    st.items_processed += row.shape[1]  # pixels, as on the virtual clock
        finally:
            closed[i + 1] = True
            st.wall_time = time.perf_counter() - t_start

    live = [(name, worker(i, fn)) for i, (name, fn) in enumerate(stages)][::-1]
    while live:
        for name, gen in live[:]:
            try:
                next(gen)
            except StopIteration:
                live.remove((name, gen))
            except Exception as exc:
                raise StageFault(name, exc) from exc
    return stats, list(fifos[k])


def _denoise_rows(height: int):
    """Median worker: row ``y - 1`` once row ``y`` arrives, the last row at the end.

    Each arriving row is edge-padded and its horizontal triples sorted once
    (``_sort3``); the window keeps the sorted triples of the last three rows.
    A row's median merges the [prev, cur, next] triples
    (``_median_of_sorted``), with the top and bottom rows replicated, so it
    matches ``denoise`` bit for bit. Each call merges only the row it emits.
    """
    window: deque[np.ndarray] = deque(maxlen=3)  # trailing rows' (lo, mid, hi), each (3, 3, w)
    seen = 0

    def process(row):
        nonlocal seen
        w = row.shape[1]
        p = np.concatenate((row[:, :1], row, row[:, -1:]), axis=1)
        triples, scratch = np.empty((2, 3, 3, w), np.float32)
        _sort3(p[:, :w], p[:, 1:-1], p[:, 2:], *triples, scratch[0])
        window.append(triples)
        seen += 1
        emit = [(window[0], window[-2], window[-1])] if seen >= 2 else []
        if seen == height:
            emit.append((window[-2], window[-1], window[-1]))
        return [_median_of_sorted(*rows3, np.empty((3, w), np.float32), *scratch) for rows3 in emit]

    return process


def run_pipeline_dataflow(
    raw: RawBayerImage,
    params: PipelineParams,
    ch: ChannelConfig = ChannelConfig(),
    clock: str = "wall",
) -> DataflowResult:
    """Run the five-stage pipeline through bounded channels."""
    w, h = raw.width, raw.height

    if clock == "virtual":
        costs = stage_cost_units(params.gamut.n)
        latencies = [costs[s] for s in STAGE_NAMES]
        stats, makespan = simulate_chain(latencies, w * h, ch.depth, list(STAGE_NAMES))
        return DataflowResult(
            image=run_pipeline(raw, params),
            stats={s.name: s for s in stats},
            makespan=makespan,
            clock="virtual",
        )
    if clock != "wall":
        raise ValueError(f"unknown clock {clock!r}")

    def pointwise(kernel, field):
        # looked up at call time, so a patched module attribute takes effect
        arg = getattr(params, field)
        return lambda row: [globals()[kernel](PlanarImage(w, 1, row[:, None]), arg).planes[:, 0]]

    stages = [
        ("demosaic", lambda raw: list(demosaic(raw).planes.transpose(1, 0, 2))),
        ("denoise", _denoise_rows(h)),
        *((stage, pointwise(kernel, field)) for stage, kernel, field in STAGES[2:]),
    ]
    t0 = time.perf_counter()
    stats, rows = _run_chain(raw, stages, -(-ch.depth // w))  # ceil(depth / w) rows
    makespan = time.perf_counter() - t0

    if len(rows) != h:
        raise RuntimeError(f"sink collected {len(rows)} of {h} rows")
    image = PlanarImage(width=w, height=h, planes=np.stack(rows, axis=1))
    return DataflowResult(
        image=image, stats={s.name: s for s in stats}, makespan=makespan, clock="wall"
    )
