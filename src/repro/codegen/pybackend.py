"""Generated-Python backend.

Emits one Python function containing the entire model step inlined — every
signal a local variable, every actor a few expressions — compiled with
:func:`compile`.  This is the execution core of the Rapid-Accelerator
analog engine (:mod:`repro.engines.sse_rac`): code-based simulation
without instrumentation, the way the paper describes SSE_rac.

Semantics are the same as the reference engine's (the cross-engine tests
compare outputs and checksums); arithmetic inlines the same wrap formulas
:mod:`repro.dtypes.arith` uses, float work follows the same
coerce-per-operation discipline, and transcendentals call the very same
helper functions from :mod:`repro.actors.math_ops`.
"""

from __future__ import annotations

import math
import numpy as np

from repro.actors.math_ops import _MATH_FNS, _ROUNDING_FNS, int_param
from repro.actors.sources import LCG_INC, LCG_MUL, lcg_next
from repro.dtypes import DType, coerce_float
from repro.dtypes.arith import _F32_OVERFLOW_EDGE, _trunc_div, _trunc_mod, wrap
from repro.model.errors import CodegenError
from repro.schedule.program import EvalGuard, FlatProgram

_U64 = 0xFFFFFFFFFFFFFFFF


class _PyEmit:
    """Builds the generated module text for one program."""

    def __init__(self, prog: FlatProgram):
        self.prog = prog
        self.lines: list[str] = []
        self.init_lines: list[str] = []

    # -- naming ---------------------------------------------------------
    def sv(self, sid: int) -> str:
        return f"s{sid}"

    def st(self, idx: int, suffix: str = "") -> str:
        return f"st{idx}{suffix}"

    def in_v(self, fa, i: int) -> str:
        return self.sv(fa.input_sids[i])

    def out_v(self, fa, i: int = 0) -> str:
        return self.sv(fa.output_sids[i])

    def in_d(self, fa, i: int) -> DType:
        return self.prog.signals[fa.input_sids[i]].dtype

    def out_d(self, fa, i: int = 0) -> DType:
        return self.prog.signals[fa.output_sids[i]].dtype

    # -- scalar formulas --------------------------------------------------
    @staticmethod
    def wrap_expr(expr: str, dtype: DType) -> str:
        mask = (1 << dtype.bits) - 1
        if dtype.is_bool:
            return f"(1 if {expr} else 0)"
        if not dtype.is_signed:
            return f"(({expr}) & {mask})"
        half = 1 << (dtype.bits - 1)
        return f"((({expr}) + {half} & {mask}) - {half})"

    def cast_expr(self, expr: str, src: DType, dst: DType) -> str:
        """Unchecked-value cast (same result as checked_cast, no flags)."""
        if src is dst:
            return expr
        if dst.is_bool:
            return f"(1 if {expr} else 0)"
        if dst.is_float:
            if dst is DType.F32:
                return f"_c32({expr})"
            return f"float({expr})"
        if src.is_float:
            return f"_f2i_{dst.short_name}({expr})"
        return self.wrap_expr(expr, dst)

    def fexpr(self, expr: str, dtype: DType) -> str:
        """One float op in the coerce-per-operation discipline."""
        if dtype is DType.F32:
            return f"_c32({expr})"
        return f"({expr})"

    def fin(self, fa, i: int, dtype: DType) -> str:
        src = self.in_d(fa, i)
        if src is dtype:
            return self.in_v(fa, i)
        if dtype is DType.F32:
            return f"_c32({self.in_v(fa, i)})"
        return f"float({self.in_v(fa, i)})"


def _emit_actor(e: _PyEmit, fa, out: list[str]) -> None:
    bt = fa.block_type
    a = fa.actor
    if bt in ("Outport", "Terminator", "Scope", "Display"):
        return
    if bt == "Inport":
        return  # fed at the top of the step

    dtype = e.out_d(fa) if fa.output_sids else None
    o = e.out_v(fa) if fa.output_sids else None

    if bt == "Constant":
        raw = a.params["value"]
        value = (
            coerce_float(float(raw), dtype) if dtype.is_float else int_param(raw, dtype)
        )
        out.append(f"{o} = {value!r}")
    elif bt == "Ground":
        out.append(f"{o} = {0.0 if dtype.is_float else 0}")
    elif bt == "Clock":
        st = e.st(fa.index, "_n")
        e.init_lines.append(f"{st} = 0")
        expr = f"float({st}) * {e.prog.dt!r}"
        out.append(f"{o} = {e.fexpr(expr, dtype)}")
    elif bt == "Counter":
        st = e.st(fa.index, "_n")
        e.init_lines.append(f"{st} = 0")
        out.append(f"{o} = {e.wrap_expr(st, dtype)}")
    elif bt == "SineWave":
        st = e.st(fa.index, "_n")
        e.init_lines.append(f"{st} = 0")
        p = a.params
        w = 2.0 * math.pi * float(p["frequency"]) * e.prog.dt
        expr = (
            f"{float(p.get('amplitude', 1.0))!r} * _sin({w!r} * float({st}) "
            f"+ {float(p.get('phase', 0.0))!r}) + {float(p.get('bias', 0.0))!r}"
        )
        out.append(f"{o} = {e.fexpr(expr, dtype)}")
    elif bt == "RampSource":
        st = e.st(fa.index, "_n")
        e.init_lines.append(f"{st} = 0")
        k = float(a.params["slope"]) * e.prog.dt
        expr = f"{float(a.params.get('start', 0.0))!r} + {k!r} * float({st})"
        out.append(f"{o} = {e.fexpr(expr, dtype)}")
    elif bt == "StepSource":
        st = e.st(fa.index, "_n")
        e.init_lines.append(f"{st} = 0")
        before, after = a.params.get("before", 0.0), a.params.get("after", 1.0)
        if dtype.is_float:
            b, af = coerce_float(float(before), dtype), coerce_float(float(after), dtype)
        else:
            b, af = int_param(before, dtype), int_param(after, dtype)
        out.append(f"{o} = {b!r} if {st} < {a.params['at']} else {af!r}")
    elif bt == "PulseGenerator":
        st = e.st(fa.index, "_n")
        e.init_lines.append(f"{st} = 0")
        amplitude = a.params.get("amplitude", 1.0)
        if dtype.is_float:
            high, low = coerce_float(float(amplitude), dtype), 0.0
        else:
            high, low = int_param(amplitude, dtype), 0
        out.append(
            f"{o} = {high!r} if ({st} % {a.params['period']}) < "
            f"{a.params['duty']} else {low!r}"
        )
    elif bt == "RandomSource":
        st = e.st(fa.index, "_s")
        seed = a.params.get("seed", 1) & _U64
        e.init_lines.append(f"{st} = {lcg_next(seed)}")
        p = a.params
        if p.get("dist", "uniform") == "uniform":
            lo, hi = float(p.get("lo", 0)), float(p.get("hi", 1))
            expr = f"{lo!r} + (({st} >> 11) * {1.0 / 9007199254740992.0!r}) * {hi - lo!r}"
            out.append(f"{o} = {e.fexpr(expr, dtype)}")
        else:
            lo, hi = int(p.get("lo", 0)), int(p.get("hi", 1))
            out.append(
                f"{o} = {e.wrap_expr(f'{lo} + (({st} >> 33) % {hi - lo + 1})', dtype)}"
            )
    elif bt == "Sum":
        signs = a.operator
        if dtype.is_float:
            first = e.fin(fa, 0, dtype)
            expr = first if signs[0] == "+" else e.fexpr(f"-({first})", dtype)
            for i in range(1, a.n_inputs):
                expr = e.fexpr(f"{expr} {signs[i]} {e.fin(fa, i, dtype)}", dtype)
            out.append(f"{o} = {expr}")
        else:
            terms = [e.cast_expr(e.in_v(fa, i), e.in_d(fa, i), dtype) for i in range(a.n_inputs)]
            expr = " ".join(
                f"{'+' if i == 0 and signs[0] == '+' else signs[i]} {t}"
                if i else (t if signs[0] == '+' else f"- {t}")
                for i, t in enumerate(terms)
            )
            out.append(f"{o} = {e.wrap_expr(expr, dtype)}")
    elif bt == "Product":
        ops = a.operator
        if dtype.is_float:
            expr = (
                e.fexpr(f"1.0 * {e.fin(fa, 0, dtype)}", dtype)
                if ops[0] == "*"
                else f"_fdiv{'' if dtype is DType.F64 else '32'}(1.0, {e.fin(fa, 0, dtype)})"
            )
            for i in range(1, a.n_inputs):
                operand = e.fin(fa, i, dtype)
                if ops[i] == "*":
                    expr = e.fexpr(f"{expr} * {operand}", dtype)
                else:
                    fdiv = "_fdiv" if dtype is DType.F64 else "_fdiv32"
                    expr = f"{fdiv}({expr}, {operand})"
            out.append(f"{o} = {expr}")
        else:
            s = dtype.short_name
            expr = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
            if ops[0] == "/":
                expr = f"_idiv_{s}(1, {expr})"
            for i in range(1, a.n_inputs):
                operand = e.cast_expr(e.in_v(fa, i), e.in_d(fa, i), dtype)
                if ops[i] == "*":
                    expr = e.wrap_expr(f"({expr}) * ({operand})", dtype)
                else:
                    expr = f"_idiv_{s}({expr}, {operand})"
            out.append(f"{o} = {expr}")
    elif bt == "Gain":
        gain = a.params["gain"]
        if dtype.is_float:
            k = coerce_float(float(gain), dtype)
            out.append(f"{o} = {e.fexpr(f'{e.fin(fa, 0, dtype)} * {k!r}', dtype)}")
        elif isinstance(gain, float):
            out.append(f"{o} = _f2i_{dtype.short_name}(float({e.in_v(fa, 0)}) * {gain!r})")
        else:
            x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
            out.append(f"{o} = {e.wrap_expr(f'({x}) * {int_param(gain, dtype)}', dtype)}")
    elif bt == "Bias":
        bias = a.params["bias"]
        if dtype.is_float:
            b = coerce_float(float(bias), dtype)
            out.append(f"{o} = {e.fexpr(f'{e.fin(fa, 0, dtype)} + {b!r}', dtype)}")
        elif isinstance(bias, float):
            out.append(f"{o} = _f2i_{dtype.short_name}(float({e.in_v(fa, 0)}) + {bias!r})")
        else:
            x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
            out.append(f"{o} = {e.wrap_expr(f'({x}) + {int_param(bias, dtype)}', dtype)}")
    elif bt == "Abs":
        if dtype.is_float:
            out.append(f"{o} = {e.fexpr(f'abs(float({e.in_v(fa, 0)}))', dtype)}")
        else:
            x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
            out.append(f"_x = {x}")
            out.append(f"{o} = {e.wrap_expr('-_x', dtype)} if _x < 0 else _x")
    elif bt == "UnaryMinus":
        if dtype.is_float:
            out.append(f"{o} = {e.fexpr(f'-{e.fin(fa, 0, dtype)}', dtype)}")
        else:
            x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
            out.append(f"{o} = {e.wrap_expr(f'-({x})', dtype)}")
    elif bt == "Signum":
        x = e.in_v(fa, 0)
        sign = f"(({x} > 0) - ({x} < 0))"
        if dtype.is_float:
            out.append(f"{o} = {e.fexpr(f'float{sign}', dtype)}")
        else:
            out.append(f"{o} = {e.wrap_expr(sign, dtype)}")
    elif bt == "Sqrt":
        out.append(f"{o} = {e.fexpr(f'_sqrt(float({e.in_v(fa, 0)}))', dtype)}")
    elif bt == "Math":
        fn = f"_math_{a.operator}"
        out.append(f"{o} = {e.fexpr(f'{fn}(float({e.in_v(fa, 0)}))', dtype)}")
    elif bt == "MinMax":
        pick = "min" if a.operator == "min" else "max"
        if dtype.is_float:
            args = ", ".join(e.fin(fa, i, dtype) for i in range(a.n_inputs))
        else:
            args = ", ".join(
                e.cast_expr(e.in_v(fa, i), e.in_d(fa, i), dtype)
                for i in range(a.n_inputs)
            )
        out.append(f"{o} = {pick}({args})")
    elif bt == "Mod":
        if dtype.is_float:
            out.append(
                f"{o} = {e.fexpr(f'_fmod(float({e.in_v(fa, 0)}), float({e.in_v(fa, 1)}))', dtype)}"
            )
        else:
            x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
            y = e.cast_expr(e.in_v(fa, 1), e.in_d(fa, 1), dtype)
            out.append(f"{o} = {e.wrap_expr(f'_imod({x}, {y})', dtype)}")
    elif bt == "Rounding":
        fn = f"_round_{a.operator}"
        out.append(f"{o} = {e.fexpr(f'{fn}(float({e.in_v(fa, 0)}))', dtype)}")
    elif bt == "Saturation":
        lower, upper = a.params["lower"], a.params["upper"]
        if dtype.is_float:
            lo = coerce_float(float(lower), dtype)
            hi = coerce_float(float(upper), dtype)
            x = e.fin(fa, 0, dtype)
        else:
            lo, hi = int_param(lower, dtype), int_param(upper, dtype)
            x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
        out.append(f"_x = {x}")
        out.append(f"{o} = {lo!r} if _x < {lo!r} else ({hi!r} if _x > {hi!r} else _x)")
    elif bt == "DeadZone":
        start = coerce_float(float(a.params["start"]), dtype)
        end = coerce_float(float(a.params["end"]), dtype)
        out.append(f"_x = {e.fin(fa, 0, dtype)}")
        out.append(
            f"{o} = {e.fexpr(f'_x - {start!r}', dtype)} if _x < {start!r} "
            f"else ({e.fexpr(f'_x - {end!r}', dtype)} if _x > {end!r} else 0.0)"
        )
    elif bt == "Quantizer":
        q = float(a.params["interval"])
        expr = f"{q!r} * _cround(float({e.in_v(fa, 0)}) / {q!r})"
        out.append(f"{o} = {e.fexpr(expr, dtype)}")
    elif bt == "Polynomial":
        out.append(f"_x = float({e.in_v(fa, 0)})")
        out.append("_a = 0.0")
        for c in a.params["coeffs"]:
            out.append(f"_a = _a * _x + {float(c)!r}")
        out.append(f"{o} = {e.fexpr('_a', dtype)}")
    elif bt == "Power":
        expr = f"_pow(float({e.in_v(fa, 0)}), float({e.in_v(fa, 1)}))"
        out.append(f"{o} = {e.fexpr(expr, dtype)}")
    elif bt == "Bitwise":
        op = a.operator
        if op == "NOT":
            x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
            out.append(f"{o} = {e.wrap_expr(f'~({x})', dtype)}")
        else:
            py_op = {"AND": "&", "OR": "|", "XOR": "^"}[op]
            terms = [
                f"({e.cast_expr(e.in_v(fa, i), e.in_d(fa, i), dtype)})"
                for i in range(a.n_inputs)
            ]
            out.append(f"{o} = {e.wrap_expr(f' {py_op} '.join(terms), dtype)}")
    elif bt == "Shift":
        amount = a.params["amount"]
        x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
        if a.operator == ">>":
            out.append(f"{o} = {e.wrap_expr(f'({x}) >> {amount}', dtype)}")
        else:
            out.append(f"{o} = {e.wrap_expr(f'({x}) << {amount}', dtype)}")
    elif bt == "DataTypeConversion":
        out.append(f"{o} = {e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)}")
    elif bt == "RelationalOperator":
        out.append(f"{o} = 1 if {e.in_v(fa, 0)} {a.operator} {e.in_v(fa, 1)} else 0")
    elif bt == "Logic":
        truths = [f"({e.in_v(fa, i)} != 0)" for i in range(a.n_inputs)]
        op = a.operator
        if op == "NOT":
            expr = f"not {truths[0]}"
        elif op == "AND":
            expr = " and ".join(truths)
        elif op == "OR":
            expr = " or ".join(truths)
        elif op == "NAND":
            expr = f"not ({' and '.join(truths)})"
        elif op == "NOR":
            expr = f"not ({' or '.join(truths)})"
        else:
            expr = f"(({' + '.join(truths)}) % 2) == 1"
        out.append(f"{o} = 1 if {expr} else 0")
    elif bt == "CompareToConstant":
        out.append(
            f"{o} = 1 if {e.in_v(fa, 0)} {a.operator} {a.params['constant']!r} else 0"
        )
    elif bt == "CompareToZero":
        out.append(f"{o} = 1 if {e.in_v(fa, 0)} {a.operator} 0 else 0")
    elif bt == "Switch":
        threshold = a.params.get("threshold", 0)
        tv = (
            e.fin(fa, 0, dtype) if dtype.is_float
            else e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
        )
        fv = (
            e.fin(fa, 2, dtype) if dtype.is_float
            else e.cast_expr(e.in_v(fa, 2), e.in_d(fa, 2), dtype)
        )
        out.append(
            f"{o} = {tv} if {e.in_v(fa, 1)} >= {threshold!r} else {fv}"
        )
    elif bt == "MultiportSwitch":
        n = a.n_inputs - 1
        out.append(f"_i = int({e.in_v(fa, 0)})")
        out.append(f"_i = 0 if _i < 0 else ({n - 1} if _i >= {n} else _i)")
        for i in range(n):
            value = (
                e.fin(fa, 1 + i, dtype) if dtype.is_float
                else e.cast_expr(e.in_v(fa, 1 + i), e.in_d(fa, 1 + i), dtype)
            )
            out.append(f"{'if' if i == 0 else 'elif'} _i == {i}: {o} = {value}")
    elif bt == "Relay":
        st = e.st(fa.index)
        p = a.params
        e.init_lines.append(
            f"{st} = {1 if p.get('initial_on', False) else 0}"
        )
        if dtype.is_float:
            on_value = coerce_float(float(p["on_value"]), dtype)
            off_value = coerce_float(float(p["off_value"]), dtype)
        else:
            on_value = int_param(p["on_value"], dtype)
            off_value = int_param(p["off_value"], dtype)
        u = e.in_v(fa, 0)
        out.append(
            f"{st} = 1 if {u} >= {p['on_threshold']!r} else "
            f"(0 if {u} <= {p['off_threshold']!r} else {st})"
        )
        out.append(f"{o} = {on_value!r} if {st} else {off_value!r}")
    elif bt == "Merge":
        for i, gid in enumerate(fa.merge_src_guards or ()):
            value = (
                e.fin(fa, i, dtype) if dtype.is_float
                else e.cast_expr(e.in_v(fa, i), e.in_d(fa, i), dtype)
            )
            if gid is None:
                out.append(f"{o} = {value}")
            else:
                out.append(f"if g{gid}: {o} = {value}")
    elif bt in ("UnitDelay", "Memory"):
        st = e.st(fa.index)
        e.init_lines.append(f"{st} = {_py_initial(fa, dtype)!r}")
        out.append(f"{o} = {st}")
    elif bt == "Delay":
        st = e.st(fa.index)
        length = a.params["length"]
        e.init_lines.append(f"{st}_buf = [{_py_initial(fa, dtype)!r}] * {length}")
        e.init_lines.append(f"{st}_i = 0")
        out.append(f"{o} = {st}_buf[{st}_i]")
    elif bt == "Accumulator":
        st = e.st(fa.index)
        e.init_lines.append(f"{st} = {_py_initial(fa, dtype)!r}")
        if dtype.is_float:
            out.append(f"{o} = {e.fexpr(f'{st} + {e.fin(fa, 0, dtype)}', dtype)}")
        else:
            x = e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)
            out.append(f"{o} = {e.wrap_expr(f'{st} + ({x})', dtype)}")
    elif bt == "DiscreteIntegrator":
        st = e.st(fa.index)
        e.init_lines.append(f"{st} = {_py_initial(fa, dtype, 0.0)!r}")
        out.append(f"{o} = {st}")
    elif bt == "DiscreteFilter":
        st = e.st(fa.index)
        e.init_lines.append(f"{st} = {_py_initial(fa, dtype, 0.0)!r}")
        b0 = coerce_float(float(a.params["b0"]), dtype)
        a1 = coerce_float(float(a.params["a1"]), dtype)
        t1 = e.fexpr(f"{b0!r} * {e.fin(fa, 0, dtype)}", dtype)
        t2 = e.fexpr(f"{a1!r} * {st}", dtype)
        out.append(f"{o} = {e.fexpr(f'{t1} + {t2}', dtype)}")
    elif bt == "DiscreteDerivative":
        st = e.st(fa.index)
        e.init_lines.append(f"{st} = {_py_initial(fa, dtype, 0.0)!r}")
        inv_dt = coerce_float(1.0 / e.prog.dt, dtype)
        diff = e.fexpr(f"{e.fin(fa, 0, dtype)} - {st}", dtype)
        out.append(f"{o} = {e.fexpr(f'{diff} * {inv_dt!r}', dtype)}")
    elif bt == "RateLimiter":
        st = e.st(fa.index)
        e.init_lines.append(f"{st} = {_py_initial(fa, dtype, 0.0)!r}")
        rising = coerce_float(float(a.params["rising"]), dtype)
        falling = coerce_float(float(a.params["falling"]), dtype)
        out.append(f"_u = {e.fin(fa, 0, dtype)}")
        out.append(f"_up = {e.fexpr(f'{st} + {rising!r}', dtype)}")
        out.append(f"_lo = {e.fexpr(f'{st} - {falling!r}', dtype)}")
        out.append(f"{o} = _lo if _u < _lo else (_up if _u > _up else _u)")
    elif bt == "ContinuousIntegrator":
        st = e.st(fa.index)
        e.init_lines.append(f"{st}_y = {_py_initial(fa, dtype, 0.0)!r}")
        e.init_lines.append(f"{st}_f1 = 0.0")
        e.init_lines.append(f"{st}_f2 = 0.0")
        e.init_lines.append(f"{st}_n = 0")
        out.append(f"{o} = {st}_y")
    elif bt == "ZeroOrderHold":
        if dtype.is_float:
            out.append(f"{o} = {e.fin(fa, 0, dtype)}")
        else:
            out.append(f"{o} = {e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)}")
    elif bt == "DataStoreRead":
        out.append(f"{o} = store_{a.params['store']}")
    elif bt == "DataStoreWrite":
        store = a.params["store"]
        info = e.prog.stores[store]
        out.append(
            f"store_{store} = "
            f"{e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), info.dtype)}"
        )
    elif bt == "Lookup1D":
        st = e.st(fa.index)
        bp = [float(b) for b in a.params["breakpoints"]]
        tb = [float(t) for t in a.params["table"]]
        e.init_lines.append(f"{st}_bp = {bp!r}")
        e.init_lines.append(f"{st}_tb = {tb!r}")
        n = len(bp)
        out.append(f"_x = float({e.in_v(fa, 0)})")
        out.append(f"if _x <= {bp[0]!r}: _y = {tb[0]!r}")
        out.append(f"elif _x >= {bp[-1]!r}: _y = {tb[-1]!r}")
        out.append("else:")
        out.append("    _i = 0")
        out.append(f"    while _x > {st}_bp[_i + 1]: _i += 1")
        out.append(
            f"    _f = (_x - {st}_bp[_i]) / ({st}_bp[_i + 1] - {st}_bp[_i])"
        )
        out.append(
            f"    _y = {st}_tb[_i] + ({st}_tb[_i + 1] - {st}_tb[_i]) * _f"
        )
        out.append(f"{o} = {e.fexpr('_y', dtype)}")
    elif bt == "DirectLookup":
        st = e.st(fa.index)
        raw = a.params["table"]
        if dtype.is_float:
            table = [coerce_float(float(v), dtype) for v in raw]
        else:
            table = [int_param(v, dtype) for v in raw]
        e.init_lines.append(f"{st}_tb = {table!r}")
        n = len(table)
        out.append(f"_i = int({e.in_v(fa, 0)})")
        out.append(f"{o} = {st}_tb[0 if _i < 0 else ({n - 1} if _i >= {n} else _i)]")
    else:
        raise CodegenError(f"no Python template for block type {bt!r}")


def _emit_update(e: _PyEmit, fa, out: list[str]) -> None:
    bt = fa.block_type
    a = fa.actor
    dtype = e.out_d(fa) if fa.output_sids else None
    if bt in ("UnitDelay", "Memory"):
        st = e.st(fa.index)
        out.append(f"{st} = {e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)}")
    elif bt == "Delay":
        st = e.st(fa.index)
        length = a.params["length"]
        out.append(
            f"{st}_buf[{st}_i] = {e.cast_expr(e.in_v(fa, 0), e.in_d(fa, 0), dtype)}"
        )
        out.append(f"{st}_i = 0 if {st}_i + 1 == {length} else {st}_i + 1")
    elif bt in ("Accumulator", "DiscreteFilter", "RateLimiter"):
        out.append(f"{e.st(fa.index)} = {e.out_v(fa)}")
    elif bt == "DiscreteIntegrator":
        st = e.st(fa.index)
        gain = float(a.params.get("gain", 1.0))
        k = coerce_float(gain * e.prog.dt, dtype)
        ku = e.fexpr(f"{k!r} * {e.fin(fa, 0, dtype)}", dtype)
        out.append(f"{st} = {e.fexpr(f'{st} + {ku}', dtype)}")
    elif bt == "DiscreteDerivative":
        out.append(f"{e.st(fa.index)} = {e.fin(fa, 0, dtype)}")
    elif bt == "ContinuousIntegrator":
        from repro.actors.continuous import AB2_C0, AB2_C1, AB3_C0, AB3_C1, AB3_C2

        st = e.st(fa.index)
        solver = a.params.get("solver", "ab2")
        dt_v = coerce_float(e.prog.dt, dtype)

        def lit(value):
            return repr(coerce_float(value, dtype))

        ab2 = e.fexpr(
            f"{e.fexpr(f'{lit(AB2_C0)} * _u', dtype)} - "
            f"{e.fexpr(f'{lit(AB2_C1)} * {st}_f1', dtype)}", dtype
        )
        ab3_inner = e.fexpr(
            f"{e.fexpr(f'{lit(AB3_C0)} * _u', dtype)} - "
            f"{e.fexpr(f'{lit(AB3_C1)} * {st}_f1', dtype)}", dtype
        )
        ab3 = e.fexpr(
            f"{ab3_inner} + {e.fexpr(f'{lit(AB3_C2)} * {st}_f2', dtype)}", dtype
        )
        out.append(f"_u = {e.fin(fa, 0, dtype)}")
        if solver == "euler":
            out.append("_slope = _u")
        elif solver == "ab2":
            out.append(f"_slope = _u if {st}_n == 0 else {ab2}")
        else:
            out.append(
                f"_slope = _u if {st}_n == 0 else "
                f"({ab2} if {st}_n == 1 else {ab3})"
            )
        step_expr = e.fexpr(f"{lit(dt_v)} * _slope", dtype)
        out.append(f"{st}_y = {e.fexpr(f'{st}_y + {step_expr}', dtype)}")
        out.append(f"{st}_f2 = {st}_f1")
        out.append(f"{st}_f1 = _u")
        out.append(f"{st}_n += 1")
    elif bt == "Counter":
        st = e.st(fa.index, "_n")
        out.append(f"{st} = ({st} + 1) % {a.params['limit']}")
    elif bt in ("Clock", "SineWave", "RampSource", "StepSource", "PulseGenerator"):
        out.append(f"{e.st(fa.index, '_n')} += 1")
    elif bt == "RandomSource":
        st = e.st(fa.index, "_s")
        out.append(f"{st} = ({st} * {LCG_MUL} + {LCG_INC}) & {_U64}")


def _py_initial(fa, dtype: DType, default=0):
    raw = fa.actor.params.get("initial", default)
    if dtype.is_float:
        return coerce_float(float(raw), dtype)
    return int_param(raw, dtype)


def generate_py_step(prog: FlatProgram, *, sync_batch: int = 64) -> str:
    """Generate the module text whose ``run`` executes the whole model.

    ``run(steps, feeds, sync, deadline)`` returns ``(steps_run, outputs)``:
    ``feeds`` is a list of per-inport callables yielding conformed values,
    ``sync`` receives the buffered outport tuples every ``sync_batch``
    steps (the Rapid-Accelerator host data transfer), ``deadline`` is an
    optional ``time.perf_counter`` cutoff.
    """
    e = _PyEmit(prog)
    body: list[str] = []
    for node in prog.order:
        if isinstance(node, EvalGuard):
            guard = prog.guards[node.gid]
            parent = f"g{guard.parent} and " if guard.parent is not None else ""
            body.append(f"g{node.gid} = {parent}({e.sv(guard.signal)} > 0)")
            continue
        fa = prog.actors[node.actor_index]
        lines: list[str] = []
        _emit_actor(e, fa, lines)
        if not lines:
            continue
        if fa.guard is not None:
            body.append(f"if g{fa.guard}:")
            body.extend(f"    {line}" for line in lines)
        else:
            body.extend(lines)

    updates: list[str] = []
    for node in prog.order:
        if isinstance(node, EvalGuard):
            continue
        fa = prog.actors[node.actor_index]
        lines = []
        _emit_update(e, fa, lines)
        if not lines:
            continue
        if fa.guard is not None:
            updates.append(f"if g{fa.guard}:")
            updates.extend(f"    {line}" for line in lines)
        else:
            updates.extend(lines)

    signal_inits = [
        f"{e.sv(s.sid)} = {0.0 if s.dtype.is_float else 0}" for s in prog.signals
    ]
    guard_inits = [f"g{g.gid} = False" for g in prog.guards]
    store_inits = []
    for info in prog.stores.values():
        if info.dtype.is_float:
            init = coerce_float(float(info.initial), info.dtype)
        else:
            init = int_param(info.initial, info.dtype)
        store_inits.append(f"store_{info.name} = {init!r}")

    feed_lines = [
        f"{e.sv(b.sid)} = _feed{i}()" for i, b in enumerate(prog.inports)
    ]
    out_tuple = ", ".join(e.sv(b.sid) for b in prog.outports)
    if prog.outports:
        out_tuple += ","

    module = [
        "# Generated Python simulation module (Rapid-Accelerator backend).",
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
    ]
    for op in _MATH_FNS:
        module.append(f"_math_{op} = _MF[{op!r}]")
    for op in _ROUNDING_FNS:
        module.append(f"_round_{op} = _RF[{op!r}]")
    module.append("globals().update(make_int_helpers())")
    module.append("")
    module.append("def run(steps, feeds, sync, deadline=None):")
    module.append("    import time as _time")
    for i in range(len(prog.inports)):
        module.append(f"    _feed{i} = feeds[{i}]")
    module.extend(f"    {line}" for line in signal_inits)
    module.extend(f"    {line}" for line in guard_inits)
    module.extend(f"    {line}" for line in store_inits)
    module.extend(f"    {line}" for line in e.init_lines)
    module.append("    _buf = []")
    module.append("    _append = _buf.append")
    module.append("    _steps_run = 0")
    module.append("    for step in range(steps):")
    module.append("        if deadline is not None and (step & 511) == 0:")
    module.append("            if _time.perf_counter() >= deadline: break")
    module.extend(f"        {line}" for line in feed_lines)
    module.extend(f"        {line}" for line in body)
    module.extend(f"        {line}" for line in updates)
    if prog.outports:
        module.append(f"        _append(({out_tuple}))")
        module.append(f"        if (step & {sync_batch - 1}) == {sync_batch - 1}:")
        module.append("            sync(_buf)")
        module.append("            del _buf[:]")
    module.append("        _steps_run = step + 1")
    module.append("    if _buf: sync(_buf)")
    if prog.outports:
        module.append(
            "    _final = dict(zip(["
            + ", ".join(repr(b.name) for b in prog.outports)
            + f"], ({out_tuple})))"
        )
    else:
        module.append("    _final = {}")
    module.append("    return _steps_run, _final")
    return "\n".join(module) + "\n"


# ----------------------------------------------------------------------
# runtime helpers imported by the generated module
# ----------------------------------------------------------------------
def _fdiv(a: float, b: float) -> float:
    """checked_div (f64 path) without flags."""
    if b == 0:
        return math.nan if a == 0 else math.inf if a > 0 else -math.inf
    return a / b


def _c32(x: float) -> float:
    """Narrow to IEEE single precision.  Beyond single range the value
    overflows to inf silently, as C's narrowing conversion does (the
    same discipline as :func:`repro.dtypes.coerce_float`)."""
    if -_F32_OVERFLOW_EDGE < x < _F32_OVERFLOW_EDGE:
        return float(np.float32(x))
    with np.errstate(over="ignore"):
        return float(np.float32(x))


def _fdiv32(a: float, b: float) -> float:
    """checked_div (f32 path) without flags."""
    return _c32(_fdiv(a, b))


def _fmod(a: float, b: float) -> float:
    if b == 0:
        return math.nan
    return math.fmod(a, b)


def make_int_helpers() -> dict:
    """Specialized division helpers per integer dtype, plus float→int casts."""
    from repro.dtypes.dtype import INTEGER_DTYPES

    helpers: dict = {}
    for dt in INTEGER_DTYPES:
        def idiv(a, b, _dt=dt):
            if b == 0:
                return 0
            return wrap(_trunc_div(a, b), _dt)

        def f2i(v, _dt=dt):
            if math.isnan(v) or math.isinf(v):
                return 0
            return wrap(int(v), _dt)

        helpers[f"_idiv_{dt.short_name}"] = idiv
        helpers[f"_f2i_{dt.short_name}"] = f2i
    helpers["_imod"] = lambda a, b: 0 if b == 0 else _trunc_mod(a, b)
    return helpers
