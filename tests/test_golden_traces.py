"""Golden traces: the guest VM and program builder are pinned bit for bit.

Every experiment reads guest-VM traces, and the trace and result caches
trust a trace to be a pure function of (workload, length, seed,
lowering).  Speeding up the builder or the VM must therefore change no
bit of any trace.  These digests were recorded before the builder's
label allocation and the VM's dispatch loop were rewritten; a change
that alters any of them changes what every experiment measures.

Each workload pins two digests:

* the assembled program: every instruction, data word, label name and
  the entry point (the builder's output, labels included);
* the trace: every :class:`~repro.trace.Trace` column, dtype and bytes.

Two direct :class:`~repro.guest.vm.VM` runs pin the ``stop_pc`` path and
a resumed second ``run()``, with the final registers, memory and pc.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.guest.isa import GuestProgram
from repro.guest.vm import VM, RawTrace
from repro.trace.trace import _COLUMNS, Trace
from repro.workloads import build_program, get_trace, workload_names

LENGTH = 5_000

#: name -> (program digest, trace digest), both truncated SHA-256.
GOLDEN = {
    "compress": ("544be358aced0525", "648e616afba9018b"),
    "gcc": ("27c7c6c76b40c55f", "74a57b4496b6f853"),
    "go": ("faf9dfa1ff05ef8a", "b3dcefa3bf6001e5"),
    "ijpeg": ("1564ea959b8c6942", "7a9e87dd47ede084"),
    "m88ksim": ("d6d4feed914a4407", "42fc7e6e848608d4"),
    "perl": ("5920c49e6fa12dc0", "ad38cfe768acbd65"),
    "vortex": ("3030eb787809fda0", "867e3e4b853b648b"),
    "xlisp": ("0ca9aa03ef3f1bac", "f9b9a7d91426561b"),
    "deltablue": ("19ac28db02f8478b", "82354d248183524d"),
    "richards": ("683a13220aeee8b8", "16ce9e8a97731c82"),
    "db_like": ("c2c6edf61f98d150", "31705d5eb2130e4a"),
    "rpc_like": ("fd7e48049d59deb9", "c23c36581523d93b"),
    "webserver_like": ("af341d3d5af52d40", "1fcc3145991b8443"),
    "perl@if_tree": ("2f66414991cc6203", "31d856750a9e31f2"),
    "perl@clustered": ("91f06d3a78d7df6f", "6af9c4b68276e36c"),
}


def _program_digest(program: GuestProgram) -> str:
    digest = hashlib.sha256()
    for ins in program.code:
        digest.update(repr((int(ins.op), ins.rd, ins.rs1, ins.rs2,
                            ins.imm)).encode())
    digest.update(repr(sorted(program.data.items())).encode())
    digest.update(repr(sorted(program.labels.items())).encode())
    digest.update(repr((program.data_base, program.entry)).encode())
    return digest.hexdigest()[:16]


def _trace_digest(trace: Trace) -> str:
    digest = hashlib.sha256()
    for name, _ in _COLUMNS:
        column = getattr(trace, name)
        digest.update(f"{name}:{column.dtype.str}:{len(column)}".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()[:16]


def _vm_digest(vm: VM, raw: RawTrace) -> str:
    """Every raw column (Python values, types included) and the VM state."""
    digest = hashlib.sha256()
    for name, _ in _COLUMNS:
        digest.update(repr(getattr(raw, name)).encode())
    digest.update(repr((raw.halted, vm.pc, vm.retired)).encode())
    digest.update(repr(vm.registers).encode())
    digest.update(repr(sorted(vm.memory.items())).encode())
    digest.update(repr(vm.call_stack).encode())
    return digest.hexdigest()[:16]


NAMES = workload_names(include_oo=True, include_server=True) + [
    "perl@if_tree", "perl@clustered",
]


def test_every_registered_workload_is_pinned():
    assert sorted(GOLDEN) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_program_and_trace_are_bit_identical(name):
    program = build_program(name)
    trace = get_trace(name, n_instructions=LENGTH, use_cache=False)
    assert (_program_digest(program), _trace_digest(trace)) == GOLDEN[name]


def test_stop_pc_run_and_resumed_run_are_bit_identical():
    program = build_program("perl")
    vm = VM(program, max_instructions=40_000,
            stop_pc=program.address_of("loop"), stop_visits=300)
    first = vm.run()
    assert vm.pc == program.address_of("loop")
    assert _vm_digest(vm, first) == "1e6e4486e55ed56d"
    # A second run() resumes where the first stopped: the stop point is
    # re-armed with the same visit count, the instruction cap is shared.
    second = vm.run()
    assert _vm_digest(vm, second) == "85a1dea6dc1e8e74"


def test_capped_run_resumes_to_the_same_state_as_one_run():
    program = build_program("m88ksim")
    whole = VM(program, max_instructions=6_000)
    whole_trace = whole.run()
    split = VM(program, max_instructions=2_500)
    head = split.run()
    split.max_instructions = 6_000
    tail = split.run()
    for name, _ in _COLUMNS:
        assert getattr(head, name) + getattr(tail, name) == \
            getattr(whole_trace, name)
    assert _vm_digest(whole, whole_trace) == "36b9e9cc50088c52"
