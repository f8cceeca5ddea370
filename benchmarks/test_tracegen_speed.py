"""Speed guards for guest-trace generation: the program builder and the VM.

Every experiment starts from a guest-VM trace, and a cold run builds the
program and runs the VM for each one.  Both guards are ratios, so the
machine's speed cancels and only the code's own scaling remains:

* **Builder labels.**  4x as many ``unique_label`` + ``label`` calls on
  one stem must take at most 7x the time.  Label allocation that probes
  ``stem_0, stem_1, ...`` from zero on every call is quadratic (it
  measured about 13x); one that resumes where it left off is linear
  (about 4x).
* **VM loop.**  ``run_program`` on the perl workload must take at most
  6x a bare Python loop making the same nine list appends per retired
  instruction (the trace columns).  An opcode chain compared against
  enum members plus a per-instruction ``instr_class`` property lookup
  measured about 11x; int dispatch over a decoded table measures 2-4x.

Timing is min-of-rounds like the other speed guards, so scheduler noise
cannot fail the build.

Runs with plain pytest:
``PYTHONPATH=src python -m pytest -q benchmarks/test_tracegen_speed.py``.
"""

import time

from repro.guest.builder import ProgramBuilder
from repro.guest.vm import run_program
from repro.workloads import build_program

ROUNDS = 9
N_LABELS = 1000
#: Largest allowed time ratio for 4x the label calls.
MAX_LABEL_RATIO = 7.0
N_INSTRUCTIONS = 30_000
#: Largest allowed VM time over the bare-append loop's.
MAX_VM_RATIO = 6.0


def _min_times(*funcs):
    """Min-of-rounds time of each function, rounds interleaved.

    Interleaving puts every function through the same spells of a noisy
    host; a first untimed round warms the allocator for all of them.
    """
    best = [float("inf")] * len(funcs)
    for round_ in range(ROUNDS + 1):
        for i, func in enumerate(funcs):
            start = time.perf_counter()
            func()
            if round_:
                best[i] = min(best[i], time.perf_counter() - start)
    return best


def _labels(n):
    b = ProgramBuilder()
    for _ in range(n):
        b.label(b.unique_label("pad_skip"))


def test_label_allocation_scales_linearly():
    small, large = _min_times(lambda: _labels(N_LABELS),
                              lambda: _labels(4 * N_LABELS))
    ratio = large / small
    print(f"\n{N_LABELS} labels {small * 1e3:.2f} ms, {4 * N_LABELS} labels "
          f"{large * 1e3:.2f} ms ({ratio:.1f}x)")
    assert ratio <= MAX_LABEL_RATIO, (
        f"4x the labels took {ratio:.1f}x the time (bar {MAX_LABEL_RATIO}x)")


def _bare_loop(n):
    columns = [[] for _ in range(9)]
    (pc, cls, kind, taken, target, src1, src2, dst, addr) = columns
    for i in range(4096, 4096 + n):
        pc.append(i)  # a fresh int object per row, as the VM's pc is
        cls.append(0)
        kind.append(0)
        taken.append(0)
        target.append(0)
        src1.append(1)
        src2.append(2)
        dst.append(3)
        addr.append(0)


def test_vm_costs_a_few_times_its_trace_appends():
    program = build_program("perl")
    assert len(run_program(program, N_INSTRUCTIONS)) == N_INSTRUCTIONS
    vm, bare = _min_times(lambda: run_program(program, N_INSTRUCTIONS),
                          lambda: _bare_loop(N_INSTRUCTIONS))
    ratio = vm / bare
    print(f"\nperl {N_INSTRUCTIONS} instructions: VM {vm * 1e3:.1f} ms, "
          f"bare appends {bare * 1e3:.1f} ms ({ratio:.1f}x)")
    assert ratio <= MAX_VM_RATIO, (
        f"run_program is {ratio:.1f}x the bare append loop "
        f"(bar {MAX_VM_RATIO}x)")
