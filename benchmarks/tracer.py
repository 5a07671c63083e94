"""Outside-in tracing for the D-core benchmark.

Nothing here changes the package's files.  Spans are recorded around calls
into the public functions, by swapping module attributes where `peel`,
`anchored` and `skyline` look them up, and superstep times come from the
engine's `observer` hook.  With `counting=True` the tracer also wraps each
vertex program's hooks and the two hot kernels to count work exactly;
those wrappers cost far more than the work they count, so per-layer times
are taken from runs without them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def payload_ints(payload) -> int:
    """Number of ints carried by one message payload (nested tuples of ints)."""
    if isinstance(payload, int):
        return 1
    return sum(payload_ints(x) for x in payload)


class Tracer:
    """In-memory spans plus exact work counters for one traced run."""

    def __init__(self, counting: bool):
        self.counting = counting
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.algo = ""
        self.counts: Counter = Counter()
        self.kernel_s: Counter = Counter()
        self.superstep_s: dict[str, list[float]] = defaultdict(list)
        self._last_step_end = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def totals(self, since: int) -> dict[str, float]:
        """Summed duration per span name over spans[since:]."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans[since:]:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def observer(self, step: int, states) -> None:
        """Engine hook: called after init (step 1) and after every superstep."""
        now = perf_counter()
        if step > 1:
            self.superstep_s[self.algo].append(now - self._last_step_end)
        self._last_step_end = now

    # -- patching ----------------------------------------------------------

    def install(self, peel, anchored, skyline, engine) -> None:
        self._recipients = engine._recipients
        self._spanned(peel, "in_core_numbers", "peel.in_core")
        self._spanned(anchored, "compute_kmax", "anchored.phase1")
        self._spanned(anchored, "compute_lupp", "anchored.phase2")
        self._spanned(anchored, "refine", "anchored.phase3")
        self._spanned(skyline, "tight_init", "skyline.init")
        for module in (anchored, skyline):
            self._patch(module, "run_program", self._engine_run(module.run_program))
        if self.counting:
            self._patch(anchored, "h_index", self._kernel("h_index", anchored.h_index, sized=True))
            self._patch(
                skyline,
                "d_index_over_sets",
                self._kernel("d_index_over_sets", skyline.d_index_over_sets, sized=False),
            )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _spanned(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        self._patch(module, attr, wrapped)

    def _engine_run(self, run_program):
        def wrapped(program, g, parts, mode, **kwargs):
            with self.span("engine:" + kwargs.get("phase", "")):
                if self.counting:
                    self._count_hooks(program, g)
                return run_program(program, g, parts, mode, **kwargs)

        return wrapped

    def _kernel(self, name: str, fn, sized: bool):
        counts, seconds = self.counts, self.kernel_s
        calls_key, values_key = f"kernels.{name}.calls", f"kernels.{name}.values"

        def wrapped(*args, **kwargs):
            counts[calls_key] += 1
            if sized:
                counts[values_key] += len(args[0])
            start = perf_counter()
            result = fn(*args, **kwargs)
            seconds[name] += perf_counter() - start
            return result

        return wrapped

    def _count_hooks(self, program, g) -> None:
        """Shadow one program instance's hooks with counting wrappers."""
        fanout = [len(r) for r in self._recipients(program, g)]
        counts = self.counts
        prefix = f"engine.{self.algo}."
        updates, emitting = prefix + "updates", prefix + "emitting"
        deliveries, ints = prefix + "deliveries", prefix + "payload_ints"
        init, on_message, after_messages = program.init, program.on_message, program.after_messages

        def init_(v, g):
            state, payload = init(v, g)
            if payload is not None:
                counts[ints] += payload_ints(payload) * fanout[v]
            return state, payload

        def on_message_(state, sender, payload):
            counts[deliveries] += 1
            on_message(state, sender, payload)

        def after_messages_(state, v, g):
            counts[updates] += 1
            payload = after_messages(state, v, g)
            if payload is not None:
                counts[emitting] += 1
                counts[ints] += payload_ints(payload) * fanout[v]
            return payload

        program.init = init_
        program.on_message = on_message_
        program.after_messages = after_messages_
