"""RPR001 fixture: the two sanctioned event-name idioms (0 hits)."""


def spawn(sim, work, i):
    # Lazy: the LazyName protocol defers formatting to first read.
    ev = sim.event(name=lambda: f"grads{i}")
    # Constant names cost nothing to begin with.
    tick = sim.completed(None, name="tick")
    timer = sim.timer_handle(work, name=lambda: f"retry{i}")
    return ev, tick, timer
