"""The Accelerator mode's "MEX" intermediate: per-actor compiled functions.

Simulink's Accelerator mode compiles the model into an intermediate MEX
binary but still *executes it interpretively* inside the host process.
The analog here: every stateless, non-special actor is compiled — via the
same per-actor code emission the Rapid-Accelerator backend uses — into a
small specialized Python function ``f(signals)`` that reads its input
slots, computes inline, and writes its output slots.  No semantics-object
dispatch, no tuple packing, no StepResult.

Stateful actors, Merge, and boundary actors keep their generic semantics
closures (state handling stays in one place); data stores move into the
compiled module's globals, which works because only the stateless
DataStoreRead/DataStoreWrite actors touch them.

Correctness rides on the same emission layer as ``sse_rac`` plus the
cross-engine equivalence suite.
"""

from __future__ import annotations

from typing import Callable

from repro.actors.registry import get_spec
from repro.codegen.pybackend import _PyEmit, _emit_actor
from repro.dtypes import coerce_float
from repro.actors.math_ops import int_param
from repro.schedule.program import FlatProgram

_UNCOMPILED = ("Inport", "Outport", "Terminator", "Scope", "Display", "Merge")


def _is_compilable(fa) -> bool:
    spec = get_spec(fa.block_type)
    return (
        spec.executable
        and not spec.stateful
        and fa.block_type not in _UNCOMPILED
    )


def compile_mex_functions(
    prog: FlatProgram,
) -> dict[int, Callable]:
    """Compile every eligible actor; returns {flat index: f(signals)}."""
    emitter = _PyEmit(prog)
    module_lines = [
        "import math as _math",
        "from repro.actors.math_ops import (",
        "    _MATH_FNS as _MF, _ROUNDING_FNS as _RF, c_pow as _pow,",
        "    c_round as _cround, c_sqrt as _sqrt,",
        ")",
        "from repro.codegen.pybackend import (",
        "    _c32, _fdiv, _fdiv32, _fmod, make_int_helpers,",
        ")",
        "_sin = _math.sin",
        # repr() spells non-finite floats as bare names (nan, inf, -inf);
        # bind them so every repr'd parameter is a valid expression here.
        "nan = _math.nan",
        "inf = _math.inf",
        "globals().update(make_int_helpers())",
    ]
    from repro.actors.math_ops import _MATH_FNS, _ROUNDING_FNS

    for op in _MATH_FNS:
        module_lines.append(f"_math_{op} = _MF[{op!r}]")
    for op in _ROUNDING_FNS:
        module_lines.append(f"_round_{op} = _RF[{op!r}]")

    # Data stores live as module globals (only compiled actors touch them).
    for info in prog.stores.values():
        if info.dtype.is_float:
            initial = coerce_float(float(info.initial), info.dtype)
        else:
            initial = int_param(info.initial, info.dtype)
        module_lines.append(f"store_{info.name} = {initial!r}")

    prologue_len = len(module_lines)
    compiled: list[int] = []
    for fa in prog.actors:
        if not _is_compilable(fa):
            continue
        body: list[str] = []
        _emit_actor(emitter, fa, body)
        if not body:
            continue
        fn_lines = [f"def _actor_{fa.index}(signals):"]
        if fa.block_type == "DataStoreWrite":
            fn_lines.append(f"    global store_{fa.actor.params['store']}")
        for sid in dict.fromkeys(fa.input_sids):
            fn_lines.append(f"    s{sid} = signals[{sid}]")
        fn_lines.extend(f"    {line}" for line in body)
        for sid in fa.output_sids:
            fn_lines.append(f"    signals[{sid}] = s{sid}")
        module_lines.extend(fn_lines)
        compiled.append(fa.index)

    # Stateless actors may still have emitted init lines (lookup tables);
    # they become module globals ahead of the function definitions — but
    # after the prologue, whose nan/inf bindings their literals may need.
    source = "\n".join(
        module_lines[:prologue_len]
        + emitter.init_lines
        + module_lines[prologue_len:]
    )
    namespace: dict = {}
    exec(compile(source, f"<mex:{prog.model.name}>", "exec"), namespace)
    return {index: namespace[f"_actor_{index}"] for index in compiled}
