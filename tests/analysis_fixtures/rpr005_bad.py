"""RPR005 fixture: acquires that can leak the slot (2 hits)."""


def leak_on_success(cpu, work):
    cpu.acquire(lambda exc: work())  # never released anywhere in this function


def leak_on_exception(sim, cpu, work_us):
    granted = sim.event()
    cpu.acquire(lambda exc: granted.succeed_inline())
    yield granted
    yield sim.timeout(work_us)
    cpu.release()  # happy path only: an interrupt above leaks the slot
