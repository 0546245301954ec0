"""RPR005 fixture: release guaranteed on every path (0 hits)."""


def hold(sim, cpu, work_us):
    granted = sim.event()
    cpu.acquire(lambda exc: granted.succeed_inline())
    yield granted
    try:
        yield sim.timeout(work_us)
    finally:
        cpu.release()


class _PrepState:
    """Ownership-transfer pattern: the class defines abort(), so its
    methods may acquire without an inline release."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.holding = False

    def start(self):
        self.cpu.acquire(self.on_grant)

    def on_grant(self, exc):
        self.holding = exc is None

    def abort(self, cause):
        if self.holding:
            self.holding = False
            self.cpu.release()
