"""Interprocedural dimension inference and consistency checking.

The engine runs in three phases over the shared
:class:`~repro.analysis.program.Program` model:

1. **Constant pass** — module-level assignments are abstractly evaluated
   so ``EPSILON_SIO2 = 3.9 * EPSILON_0`` picks up F/m from the
   :mod:`repro.units` seed table; a module is evaluated again whenever a
   module whose constants it read changed, on the shared worklist solver
   (:mod:`repro.analysis.fixpoint`), so chains of imports of any depth
   resolve.
2. **Fixpoint pass** — every function body is abstractly evaluated;
   call sites bind argument dimensions into unpinned callee parameters
   and return expressions join into the callee's return fact. Facts only
   climb the lattice (UNKNOWN -> POLY -> concrete -> ANY); the shared
   worklist solver (:mod:`repro.analysis.fixpoint`) re-evaluates a
   function whenever one of its parameters or a return summary it read
   moved.
3. **Check pass** — target modules are evaluated once more with frozen
   facts, emitting findings with the inference chain that produced each
   conflicting dimension:

   * ``DIM001`` incompatible addition/subtraction/comparison/min/max,
   * ``DIM002`` return or ``dim[...]``-annotation mismatch,
   * ``DIM003`` a unit suffix contradicted by the inferred dimension,
   * ``DIM004`` dimension mismatch at a call boundary (a dimensioned
     quantity where dimensionless is expected, a wrong-dimension
     argument for a pinned parameter, a dimensioned exponent).

Calls resolve through :meth:`repro.analysis.program.Program.resolve`,
the resolver every whole-program pass shares, and ``dim[...]`` pins come
from the statements the one directive binder attached them to.

Everything the inference cannot prove stays silent: only concrete-vs-
concrete disagreements are reported.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis import fixpoint
from repro.analysis.dimensional.dim import (
    ANY,
    DIMENSIONLESS,
    Dim,
    DimValue,
    POLY,
    UNKNOWN,
    compatible,
    div,
    format_dim,
    inverse,
    join,
    mul,
    power,
    sqrt,
)
from repro.analysis.dimensional.seeds import CONSTANT_DIMS, suffix_dim
from repro.analysis.finding import Finding
from repro.analysis.program import (
    Class,
    Function,
    Module,
    ParamSlot,
    Program,
)

#: Math functions that demand a dimensionless argument and return one.
_MATH_DIMENSIONLESS = frozenset({
    "exp", "expm1", "log", "log1p", "log2", "log10",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
    "erf", "erfc", "degrees", "radians",
})

#: Math functions that preserve their first argument's dimension.
_MATH_PASSTHROUGH = frozenset({
    "fabs", "floor", "ceil", "trunc", "copysign", "fmod", "remainder",
})

_BIN_OP_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
}

_COMPARE_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}


class _SelfRef:
    """Marker for a method's bound receiver."""

    __slots__ = ("cls",)

    def __init__(self, cls: Class | None) -> None:
        self.cls = cls


class _Seq:
    """Marker for a comprehension/generator: carries the element dim."""

    __slots__ = ("elem", "why")

    def __init__(self, elem: DimValue, why: str | None) -> None:
        self.elem = elem
        self.why = why

    def __eq__(self, other: object) -> bool:
        # The constant pass compares a module's constants across visits.
        return isinstance(other, _Seq) and other.elem == self.elem

    __hash__ = None


_Abstract = DimValue | _SelfRef | _Seq


def _as_dim(value: _Abstract) -> DimValue:
    """Collapse non-dimension markers at operator boundaries."""
    if isinstance(value, (_SelfRef, _Seq)):
        return UNKNOWN
    return value


class _Evaluator:
    """Abstract interpreter for one function body or module top level.

    In *summary* mode it updates the project facts (parameter and return
    joins), records which facts moved and which return summaries it
    read, and reports nothing. In *check* mode facts are frozen and
    conflicts become findings with inference-chain messages.
    """

    def __init__(
        self,
        program: Program,
        module: Module,
        function: Function | None,
        check: bool,
        findings: list[Finding] | None = None,
    ) -> None:
        self.program = program
        self.module = module
        self.function = function
        self.check = check
        self.findings = findings if findings is not None else []
        #: functions whose parameter facts this evaluation moved
        self.moved: list[Function] = []
        self.return_moved = False
        #: functions whose return summary this evaluation read
        self.summaries_read: list[Function] = []
        #: modules whose constants this evaluation looked up
        self.constants_read: set[str] = set()
        self.env: dict[str, _Abstract] = {}
        #: the statement being evaluated: its ``dim[...]`` pins apply
        self.current: ast.stmt | None = None
        if function is not None:
            if function.self_name is not None:
                self.env[function.self_name] = _SelfRef(function.owner)
            for slot in function.bindable:
                self.env[slot.name] = slot.dim

    # -- reporting --------------------------------------------------------

    def _report(
        self, node: ast.AST, rule: str, message: str
    ) -> None:
        if not self.check:
            return
        self.findings.append(Finding(
            self.module.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            rule,
            message,
        ))

    @staticmethod
    def _chain(why: str | None, fallback: str = "expression") -> str:
        if why is None:
            return fallback
        if len(why) > 160:
            why = why[:157] + "..."
        return why

    # -- fact updates -----------------------------------------------------

    def _join_param(
        self, fn: Function, slot: ParamSlot, value: DimValue,
    ) -> None:
        if self.check or slot.pin is not None:
            return
        new = join(slot.value, value)
        if new != slot.value:
            slot.value = new
            self.moved.append(fn)

    def _join_return(self, fn: Function, value: DimValue) -> None:
        if self.check or fn.return_pin is not None:
            return
        new = join(fn.return_value, value)
        if new != fn.return_value:
            fn.return_value = new
            self.return_moved = True

    def _summary(self, fn: Function) -> DimValue:
        """``fn``'s return dimension, noted as an input of this body."""
        if not self.check:
            self.summaries_read.append(fn)
        return fn.return_dim

    # -- statements -------------------------------------------------------

    def run_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        self.current = stmt
        if isinstance(stmt, ast.Assign):
            self._assign_stmt(stmt, stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_stmt(stmt, [stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self.run_body(stmt.body)
            self.run_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_value = self._eval(stmt.iter)[0]
            elem = iter_value.elem if isinstance(iter_value, _Seq) else UNKNOWN
            self._bind_target(stmt, stmt.target, elem, None)
            self.run_body(stmt.body)
            self.run_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self.run_body(stmt.body)
            self.run_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(stmt, item.optional_vars, UNKNOWN, None)
            self.run_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run_body(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = UNKNOWN
                self.run_body(handler.body)
            self.run_body(stmt.orelse)
            self.run_body(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        # Defs/classes are collected separately; imports, pass, del,
        # globals and control-flow keywords carry no dimension facts.

    def _assign_stmt(
        self, stmt: ast.stmt, targets: list[ast.expr], value: ast.expr
    ) -> None:
        # Elementwise tuple assignment keeps per-element dims (and avoids
        # evaluating the value twice, which would duplicate findings).
        if (
            len(targets) == 1
            and isinstance(targets[0], (ast.Tuple, ast.List))
            and isinstance(value, ast.Tuple)
            and len(targets[0].elts) == len(value.elts)
        ):
            for target_elt, value_elt in zip(targets[0].elts, value.elts):
                elt_value, elt_why = self._eval(value_elt)
                self._bind_target(stmt, target_elt, elt_value, elt_why)
            return
        inferred, why = self._eval(value)
        for target in targets:
            self._bind_target(stmt, target, inferred, why)

    def _bind_target(
        self,
        stmt: ast.stmt,
        target: ast.expr,
        value: _Abstract,
        why: str | None,
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind_name(stmt, target, target.id, value, why)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(stmt, elt, UNKNOWN, None)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value)
            pin = self._self_field_pin(target)
            dim_value = _as_dim(value)
            if (
                pin is not None
                and isinstance(dim_value, Dim)
                and dim_value != pin
            ):
                self._report(
                    stmt, "DIM003",
                    f"attribute {target.attr!r} pins "
                    f"'{format_dim(pin)}' but is assigned "
                    f"'{format_dim(dim_value)}': "
                    f"{self._chain(why)}",
                )
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)
            self._eval(target.slice)

    def _self_field_pin(self, target: ast.Attribute) -> Dim | None:
        if not (
            isinstance(target.value, ast.Name)
            and isinstance(self.env.get(target.value.id), _SelfRef)
        ):
            return None
        ref = self.env[target.value.id]
        assert isinstance(ref, _SelfRef)
        if ref.cls is not None and target.attr in ref.cls.fields:
            return ref.cls.fields[target.attr]
        return suffix_dim(target.attr)

    def _bind_name(
        self,
        stmt: ast.stmt,
        node: ast.AST,
        name: str,
        value: _Abstract,
        why: str | None,
    ) -> None:
        pin = self.module.pins.get(stmt, {}).get(name)
        rule = "DIM002"  # explicit annotation contradicted
        if pin is None:
            pin = suffix_dim(name)
            rule = "DIM003"  # suffix contradicted
        dim_value = _as_dim(value)
        if pin is not None:
            if isinstance(dim_value, Dim) and dim_value != pin:
                kind = (
                    "is annotated" if rule == "DIM002"
                    else "has a unit suffix pinning"
                )
                self._report(
                    node, rule,
                    f"name {name!r} {kind} '{format_dim(pin)}' but the "
                    f"assigned expression infers "
                    f"'{format_dim(dim_value)}': {self._chain(why)}",
                )
            self.env[name] = pin
        else:
            self.env[name] = value

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        value, why = self._eval(stmt.value)
        if not isinstance(stmt.target, ast.Name):
            if isinstance(stmt.target, ast.Attribute):
                self._eval(stmt.target.value)
            return
        name = stmt.target.id
        current = _as_dim(self.env.get(name, suffix_dim(name) or UNKNOWN))
        dim_value = _as_dim(value)
        op = stmt.op
        if isinstance(op, (ast.Add, ast.Sub)):
            if not compatible(current, dim_value):
                self._report(
                    stmt, "DIM001",
                    f"incompatible dimensions for "
                    f"'{_BIN_OP_SYMBOLS[type(op)]}=': {name!r} is "
                    f"'{format_dim(current)}' but the operand is "
                    f"'{format_dim(dim_value)}' ({self._chain(why)})",
                )
                result: DimValue = ANY
            else:
                result = join(current, dim_value)
        elif isinstance(op, ast.Mult):
            result = mul(current, dim_value)
        elif isinstance(op, (ast.Div, ast.FloorDiv)):
            result = div(current, dim_value)
        else:
            result = UNKNOWN
        self._bind_name(stmt, stmt, name, result, why)

    def _return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            return
        value, why = self._eval(stmt.value)
        dim_value = _as_dim(value)
        fn = self.function
        if fn is None:
            return
        if fn.return_pin is not None:
            if isinstance(dim_value, Dim) and dim_value != fn.return_pin:
                self._report(
                    stmt, "DIM002",
                    f"function {fn.node.name!r} pins its return "
                    f"dimension to '{format_dim(fn.return_pin)}' but "
                    f"this return infers "
                    f"'{format_dim(dim_value)}': {self._chain(why)}",
                )
        else:
            self._join_return(fn, dim_value)

    # -- expressions ------------------------------------------------------

    def _eval(self, node: ast.expr) -> tuple[_Abstract, str | None]:
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Containers, subscripts, f-strings and the rest: evaluate the
        # children for their checks; the value's dimension is unknown.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
        return UNKNOWN, None

    def _dim_why(self, value: _Abstract, label: str) -> str | None:
        if not self.check:
            return None
        dim_value = _as_dim(value)
        if isinstance(dim_value, Dim):
            return f"{label}:{format_dim(dim_value)}"
        return label

    def _eval_Constant(self, node: ast.Constant) -> tuple[_Abstract, str | None]:
        if isinstance(node.value, (int, float, complex)) and not isinstance(
            node.value, bool
        ):
            return POLY, (repr(node.value) if self.check else None)
        if isinstance(node.value, bool):
            return POLY, None
        return UNKNOWN, None

    def _eval_Name(self, node: ast.Name) -> tuple[_Abstract, str | None]:
        name = node.id
        if name in self.env:
            value = self.env[name]
            return value, self._dim_why(value, name)
        constant = self._constant(self.module.qualname, name)
        if constant is not None:
            return constant, self._dim_why(constant, name)
        imported = self.module.imports.get(name)
        if imported is not None and imported[0] == "symbol":
            module_qual, _, symbol = imported[1].rpartition(".")
            constant = self._constant(module_qual, symbol)
            if constant is not None:
                return constant, self._dim_why(constant, name)
            if self.program.symbol(imported[1]) is not None:
                return UNKNOWN, None  # class/function object as a value
        pinned = suffix_dim(name)
        if pinned is not None:
            return pinned, self._dim_why(pinned, name)
        return UNKNOWN, None

    def _constant(self, module_qual: str, name: str) -> DimValue | None:
        """Dim of ``module_qual.name`` if it is a known module constant."""
        self.constants_read.add(module_qual)
        if module_qual == "repro.units" and name in CONSTANT_DIMS:
            return CONSTANT_DIMS[name]
        info = self.program.by_qual.get(module_qual)
        if info is not None and name in info.constants:
            return info.constants[name]
        return None

    def _eval_Attribute(self, node: ast.Attribute) -> tuple[_Abstract, str | None]:
        module_qual = self.program.module_ref(self.module, node.value)
        if module_qual is not None:
            if module_qual == "math":
                return POLY, None  # math.pi, math.e, math.inf, ...
            constant = self._constant(module_qual, node.attr)
            if constant is not None:
                return constant, self._dim_why(constant, node.attr)
            return UNKNOWN, None
        value, _ = self._eval(node.value)
        if isinstance(value, _SelfRef) and value.cls is not None:
            cls = value.cls
            if node.attr in cls.fields:
                pin = cls.fields[node.attr]
                if pin is not None:
                    return pin, self._dim_why(pin, f"self.{node.attr}")
                return UNKNOWN, None
            method = cls.methods.get(node.attr)
            if method is not None:
                if method.is_property:
                    result = self._summary(method)
                    return result, self._dim_why(result, f"self.{node.attr}")
                return UNKNOWN, None  # bound method object
        pinned = suffix_dim(node.attr)
        if pinned is not None:
            return pinned, self._dim_why(pinned, node.attr)
        duck = self._duck_attr(node.attr)
        return duck, self._dim_why(duck, node.attr)

    def _duck_attr(self, attr: str) -> DimValue:
        """Join every project-wide field/property of this name.

        A concrete agreement across all definitions is trusted; any
        disagreement or gap collapses to UNKNOWN.
        """
        joined: DimValue = UNKNOWN
        for pin in self.program.attr_fields.get(attr, ()):
            if pin is None:
                return UNKNOWN
            joined = join(joined, pin)
        for fn in self.program.attr_funcs.get(attr, ()):
            if not fn.is_property:
                continue
            joined = join(joined, self._summary(fn))
        if isinstance(joined, Dim):
            return joined
        return UNKNOWN

    def _eval_BinOp(self, node: ast.BinOp) -> tuple[_Abstract, str | None]:
        left, left_why = self._eval(node.left)
        right, right_why = self._eval(node.right)
        left_dim, right_dim = _as_dim(left), _as_dim(right)
        symbol = _BIN_OP_SYMBOLS.get(type(node.op))
        why = None
        if self.check and symbol is not None and (
            left_why is not None or right_why is not None
        ):
            parts = []
            for part in (left_why or "?", right_why or "?"):
                if symbol not in ("+", "-") and (
                    " + " in part or " - " in part
                ):
                    part = f"({part})"
                parts.append(part)
            why = f"{parts[0]} {symbol} {parts[1]}"
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if not compatible(left_dim, right_dim):
                self._report(
                    node, "DIM001",
                    f"incompatible dimensions for '{symbol}': left is "
                    f"'{format_dim(left_dim)}' "
                    f"({self._chain(left_why, 'left operand')}), right is "
                    f"'{format_dim(right_dim)}' "
                    f"({self._chain(right_why, 'right operand')})",
                )
                return ANY, why
            return join(left_dim, right_dim), why
        if isinstance(node.op, ast.Mult):
            return mul(left_dim, right_dim), why
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return div(left_dim, right_dim), why
        if isinstance(node.op, ast.Mod):
            if compatible(left_dim, right_dim) and isinstance(left_dim, Dim):
                return join(left_dim, right_dim), why
            return UNKNOWN, None
        if isinstance(node.op, ast.Pow):
            return self._pow(node, left_dim, node.right, right_dim), why
        return UNKNOWN, None

    def _pow(
        self,
        node: ast.expr,
        base: DimValue,
        exponent_node: ast.expr,
        exponent: DimValue,
    ) -> DimValue:
        if isinstance(exponent, Dim) and not exponent.is_dimensionless:
            self._report(
                node, "DIM004",
                f"exponent of '**' must be dimensionless, got "
                f"'{format_dim(exponent)}'",
            )
            return UNKNOWN
        literal = None
        if isinstance(exponent_node, ast.Constant) and isinstance(
            exponent_node.value, (int, float)
        ):
            literal = exponent_node.value
        elif (
            isinstance(exponent_node, ast.UnaryOp)
            and isinstance(exponent_node.op, ast.USub)
            and isinstance(exponent_node.operand, ast.Constant)
            and isinstance(exponent_node.operand.value, (int, float))
        ):
            literal = -exponent_node.operand.value
        if literal is not None:
            if float(literal).is_integer():
                return power(base, int(literal))
            doubled = float(literal) * 2.0
            if doubled.is_integer() and abs(int(doubled)) == 1:
                root = sqrt(base)
                return root if literal > 0 else inverse(root)
        if base is POLY or (isinstance(base, Dim) and base.is_dimensionless):
            return base
        return UNKNOWN

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> tuple[_Abstract, str | None]:
        value, why = self._eval(node.operand)
        if isinstance(node.op, ast.Not):
            return POLY, None
        return value, why

    def _eval_BoolOp(self, node: ast.BoolOp) -> tuple[_Abstract, str | None]:
        joined: DimValue = UNKNOWN
        for value_node in node.values:
            value, _ = self._eval(value_node)
            joined = join(joined, _as_dim(value))
        if isinstance(joined, Dim):
            return joined, None
        return UNKNOWN, None

    def _eval_Compare(self, node: ast.Compare) -> tuple[_Abstract, str | None]:
        left, left_why = self._eval(node.left)
        left_dim = _as_dim(left)
        for op, comparator in zip(node.ops, node.comparators):
            right, right_why = self._eval(comparator)
            right_dim = _as_dim(right)
            symbol = _COMPARE_SYMBOLS.get(type(op))
            if symbol is not None and not compatible(left_dim, right_dim):
                self._report(
                    node, "DIM001",
                    f"incompatible dimensions for '{symbol}': left is "
                    f"'{format_dim(left_dim)}' "
                    f"({self._chain(left_why, 'left operand')}), right is "
                    f"'{format_dim(right_dim)}' "
                    f"({self._chain(right_why, 'right operand')})",
                )
            left_dim, left_why = right_dim, right_why
        return POLY, None

    def _eval_IfExp(self, node: ast.IfExp) -> tuple[_Abstract, str | None]:
        self._eval(node.test)
        body, body_why = self._eval(node.body)
        orelse, _ = self._eval(node.orelse)
        return join(_as_dim(body), _as_dim(orelse)), body_why

    def _eval_NamedExpr(self, node: ast.NamedExpr) -> tuple[_Abstract, str | None]:
        value, why = self._eval(node.value)
        if isinstance(node.target, ast.Name):
            self._bind_name(self.current, node, node.target.id, value, why)
        return value, why

    def _eval_Lambda(self, node: ast.Lambda) -> tuple[_Abstract, str | None]:
        saved = dict(self.env)
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self.env[arg.arg] = suffix_dim(arg.arg) or UNKNOWN
        self._eval(node.body)
        self.env = saved
        return UNKNOWN, None

    def _comprehension(self, node) -> tuple[_Abstract, str | None]:
        saved = dict(self.env)
        for gen in node.generators:
            self._eval(gen.iter)
            self._bind_target(self.current, gen.target, UNKNOWN, None)
            for condition in gen.ifs:
                self._eval(condition)
        result: tuple[_Abstract, str | None] = (UNKNOWN, None)
        if isinstance(node, ast.DictComp):
            self._eval(node.key)
            self._eval(node.value)
        else:
            elem, why = self._eval(node.elt)
            result = (_Seq(_as_dim(elem), why), why)
        self.env = saved
        return result

    _eval_GeneratorExp = _comprehension
    _eval_ListComp = _comprehension
    _eval_SetComp = _comprehension
    _eval_DictComp = _comprehension

    # -- calls ------------------------------------------------------------

    def _eval_Call(self, node: ast.Call) -> tuple[_Abstract, str | None]:
        handler = self._call_special(node)
        if handler is not None:
            return handler
        targets = self._targets(node.func)
        arg_values = [self._eval(arg) for arg in node.args]
        kw_values = {
            kw.arg: self._eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs: evaluated, not bound
                self._eval(kw.value)
        if len(targets) == 1:
            target = targets[0]
            self._bind_call(node, target, arg_values, kw_values)
            if isinstance(target, Class):
                return UNKNOWN, None
            result = self._summary(target)
            label = f"{target.node.name}(...)"
            return result, self._dim_why(result, label)
        if targets:  # ambiguous duck candidates
            joined: DimValue = UNKNOWN
            for candidate in targets:
                joined = join(joined, self._summary(candidate))
            if isinstance(joined, Dim):
                name = getattr(node.func, "attr", "call")
                return joined, self._dim_why(joined, f"{name}(...)")
            return UNKNOWN, None
        return UNKNOWN, None

    def _bind_call(
        self,
        node: ast.Call,
        target: Function | Class,
        arg_values: list[tuple[_Abstract, str | None]],
        kw_values: dict[str, tuple[_Abstract, str | None]],
    ) -> None:
        """Bind arguments to a def's parameters or a class's fields: a
        pinned one checks its argument, an unpinned parameter joins it."""
        if isinstance(target, Class):
            kind, name = "field", target.name
            slots = [
                ParamSlot(field_name, pin, UNKNOWN)
                for field_name, pin in target.fields.items()
            ]
        else:
            kind, name = "parameter", target.node.name
            slots = target.bindable
        by_name = {slot.name: slot for slot in slots}
        bindings: list[tuple[ParamSlot, tuple[_Abstract, str | None]]] = []
        if not any(isinstance(arg, ast.Starred) for arg in node.args):
            bindings += zip(slots, arg_values)
        bindings += [
            (by_name[key], value) for key, value in kw_values.items()
            if key in by_name
        ]
        for slot, (value, why) in bindings:
            dim_value = _as_dim(value)
            if slot.pin is None:
                if kind == "parameter":
                    self._join_param(target, slot, dim_value)
            elif isinstance(dim_value, Dim) and dim_value != slot.pin:
                self._report(
                    node, "DIM004",
                    f"{kind} {slot.name!r} of {name!r} expects "
                    f"'{format_dim(slot.pin)}' but the argument infers "
                    f"'{format_dim(dim_value)}': {self._chain(why)}",
                )

    def _call_special(self, node: ast.Call) -> tuple[_Abstract, str | None] | None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if self.program.module_ref(self.module, func.value) == "math":
                return self._math_call(node, func.attr)
            return None
        if not isinstance(func, ast.Name) or func.id in self.env:
            return None
        name = func.id
        if self._targets(func):
            return None  # a project symbol shadows the builtin name
        if name in ("min", "max"):
            return self._min_max(node)
        if name == "sum":
            return self._sum(node)
        if name in ("abs", "round", "float", "int"):
            if len(node.args) >= 1:
                value, why = self._eval(node.args[0])
                for extra in node.args[1:]:
                    self._eval(extra)
                return value, why
            return UNKNOWN, None
        if name in ("sorted", "list", "tuple", "set", "reversed"):
            if len(node.args) >= 1:
                value, why = self._eval(node.args[0])
                for kw in node.keywords:
                    self._eval(kw.value)
                return value, why
            return UNKNOWN, None
        if name in ("len", "bool", "any", "all", "isinstance", "hash"):
            for arg in node.args:
                self._eval(arg)
            return POLY, None
        return None

    def _math_call(self, node: ast.Call, attr: str) -> tuple[_Abstract, str | None]:
        values = [self._eval(arg) for arg in node.args]
        dims = [_as_dim(v) for v, _ in values]
        whys = [w for _, w in values]
        if attr == "sqrt" and dims:
            root = sqrt(dims[0])
            why = f"sqrt({whys[0]})" if self.check and whys[0] else None
            return root, why
        if attr == "pow" and len(node.args) == 2:
            return self._pow(node, dims[0], node.args[1], dims[1]), None
        if attr in _MATH_DIMENSIONLESS:
            for (value, why), dim_value in zip(values, dims):
                if isinstance(dim_value, Dim) and not dim_value.is_dimensionless:
                    self._report(
                        node, "DIM004",
                        f"math.{attr} expects a dimensionless argument "
                        f"but got '{format_dim(dim_value)}' "
                        f"({self._chain(why)})",
                    )
            return DIMENSIONLESS, None
        if attr in _MATH_PASSTHROUGH and values:
            return values[0]
        if attr == "isclose" and len(dims) >= 2:
            if not compatible(dims[0], dims[1]):
                self._report(
                    node, "DIM001",
                    f"incompatible dimensions in math.isclose: "
                    f"'{format_dim(dims[0])}' "
                    f"({self._chain(whys[0], 'left')}) vs "
                    f"'{format_dim(dims[1])}' "
                    f"({self._chain(whys[1], 'right')})",
                )
            return POLY, None
        if attr in ("hypot", "fsum", "dist"):
            joined: DimValue = UNKNOWN
            for dim_value in dims:
                joined = join(joined, dim_value)
            return (joined if isinstance(joined, Dim) else UNKNOWN), None
        return POLY, None  # predicates, factorial, comb, ...

    def _min_max(self, node: ast.Call) -> tuple[_Abstract, str | None]:
        for kw in node.keywords:  # key=/default= never checked
            self._eval(kw.value)
        values = [self._eval(arg) for arg in node.args]
        if len(values) == 1:
            only = values[0][0]
            if isinstance(only, _Seq):
                return only.elem, only.why
            return _as_dim(only), values[0][1]
        result: DimValue = UNKNOWN
        result_why = None
        previous: tuple[DimValue, str | None] | None = None
        for value, why in values:
            dim_value = _as_dim(value)
            if previous is not None and not compatible(previous[0], dim_value):
                name = node.func.id if isinstance(node.func, ast.Name) else "?"
                self._report(
                    node, "DIM001",
                    f"incompatible dimensions across {name} arguments: "
                    f"'{format_dim(previous[0])}' "
                    f"({self._chain(previous[1], 'earlier argument')}) vs "
                    f"'{format_dim(dim_value)}' ({self._chain(why)})",
                )
            if isinstance(dim_value, Dim):
                previous = (dim_value, why)
            result = join(result, dim_value)
            if result_why is None and why is not None:
                result_why = why
        return result, result_why

    def _sum(self, node: ast.Call) -> tuple[_Abstract, str | None]:
        if not node.args:
            return UNKNOWN, None
        first, first_why = self._eval(node.args[0])
        if isinstance(first, _Seq):
            result, why = first.elem, first.why
        else:
            result, why = _as_dim(first), first_why
        for extra in node.args[1:]:
            extra_value, _ = self._eval(extra)
            result = join(result, _as_dim(extra_value))
        return result, why

    # -- call resolution --------------------------------------------------

    def _targets(self, func: ast.expr) -> list[Function | Class]:
        """The defs or class a call reaches, through the shared resolver.

        A name the body bound is a local value, never a project symbol,
        and a called property returns a value rather than running; the
        receiver of an attribute call is evaluated for its own checks.
        """
        if isinstance(func, ast.Attribute):
            if self.program.module_ref(self.module, func.value) is None:
                self._eval(func.value)
        elif not isinstance(func, ast.Name):
            self._eval(func)
        elif func.id in self.env:
            return []
        return [
            target for target in self.program.resolve(
                self.function, self.module, func,
            )
            if isinstance(target, Class) or (
                isinstance(target, Function) and not target.is_lambda
                and not target.is_property
            )
        ]


# -- project passes --------------------------------------------------------


def _constant_pass(program: Program) -> None:
    """Infer module-level constant dims.

    A module is evaluated again when a module whose constants it read
    (itself included, for forward references) changed.
    """
    readers: dict[str, dict[int, Module]] = {}

    def step(module: Module) -> list[Module]:
        evaluator = _Evaluator(program, module, None, check=False)
        evaluator.env = module.constants  # assignments land here
        before = dict(module.constants)
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                evaluator._stmt(stmt)
        for qual in evaluator.constants_read:
            readers.setdefault(qual, {})[id(module)] = module
        if module.constants == before:
            return []
        return list(readers.get(module.qualname, {}).values())

    fixpoint.solve(list(program.modules.values()), step)


def solve_fixpoint(program: Program) -> int:
    """Solve parameter/return summaries; returns the solver's rounds.

    A function is re-evaluated when a call site moved one of its
    parameters or when a return summary it read (a call, a ``self``
    property, a duck-typed property) moved.
    """
    _constant_pass(program)
    readers: dict[int, dict[int, Function]] = {}

    def step(fn: Function) -> list[Function]:
        evaluator = _Evaluator(program, fn.module, fn, check=False)
        evaluator.run_body(fn.node.body)
        for summary in evaluator.summaries_read:
            readers.setdefault(id(summary), {})[id(fn)] = fn
        if evaluator.return_moved:
            return evaluator.moved + list(readers.get(id(fn), {}).values())
        return evaluator.moved

    return fixpoint.solve(list(program.functions.values()), step)


def check_module(program: Program, path: str) -> list[Finding]:
    """Re-evaluate one module with frozen facts, collecting findings."""
    module = program.modules[path]
    findings: list[Finding] = []
    for line, message in module.dim_notes:
        findings.append(Finding(path, line, 0, "DIMNOTE", message))
    top = _Evaluator(program, module, None, check=True, findings=findings)
    top.env = dict(module.constants)
    for stmt in module.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            top._stmt(stmt)
    for fn in program.functions.values():
        if fn.module is not module:
            continue
        evaluator = _Evaluator(program, module, fn, check=True,
                               findings=findings)
        evaluator.run_body(fn.node.body)
    return findings
