"""RPR001 fixture: eager event names on the hot path (5 hits)."""


def spawn(sim, work, i):
    ev = sim.event(name=f"grads{i}")
    proc = sim.process(work, f"step{i}")
    tick = sim.completed(None, name="tick {}".format(i))
    # A flag-gated f-string is still built eagerly whenever the flag is on.
    gated = sim.event(name=f"gated{i}" if sim.verbose else "")
    timer = sim.timer_handle(work, f"retry{i}")
    return ev, proc, tick, gated, timer
