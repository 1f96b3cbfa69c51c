"""The per-file AST rules: RL001, RL002, RL003, RL006.

Each rule is a small, deliberately syntactic check.  Static analysis
cannot prove dataflow facts ("this seed ultimately came from
``stable_seed``"), so the rules whitelist the *shapes* the repository
treats as safe and flag everything else; a deliberate exception gets a
justified inline suppression, which is itself a reviewable artifact.
"""

from __future__ import annotations

import ast

from tools.reprolint.engine import (
    Diagnostic,
    FileContext,
    FileRule,
    register_file_rule,
)

#: Attributes of the ``time`` module that read the wall clock (the
#: ``_ns`` twins included).  ``sleep`` is listed too: a sleeping
#: simulation is a timing dependency by another name.
_WALLCLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
)

#: ``datetime``-family constructors that capture "now".
_WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Module-level ``random.*`` functions (the shared global RNG).
_MODULE_RNG_FNS = frozenset(
    {
        "random",
        "seed",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "randbytes",
    }
)


def _call_name(node: ast.Call) -> str:
    """The trailing identifier of a call's function expression."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_stable_seed_call(node: ast.AST) -> bool:
    """Whether ``node`` is a call to (anything named) ``stable_seed``."""
    return isinstance(node, ast.Call) and _call_name(node) == "stable_seed"


def _is_int_literal(node: ast.AST) -> bool:
    """Whether ``node`` is an integer literal (unary minus included)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and type(node.value) is int  # bool is an int subclass; reject it
    )


@register_file_rule
class NoRawHashSeeding(FileRule):
    """RL001: builtin ``hash()`` must never feed a seed/RNG path.

    String hashing is salted per interpreter run (``PYTHONHASHSEED``),
    so ``hash()`` output is the canonical source of
    works-on-my-run nondeterminism.  A ``hash(...)`` call is flagged
    when it is (transitively) an argument to a call whose name
    mentions ``random``/``Random``/``seed``, the value of a
    ``seed=``-ish keyword, or assigned to a name mentioning ``seed``
    or ``rng``.  The sanctioned digest is
    :func:`repro.core.canonical.stable_seed`.
    """

    code = "RL001"
    name = "no-raw-hash-seeding"
    summary = "builtin hash() must not feed seed/RNG paths"

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        findings = []
        parents = ctx.parents()
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                continue
            reason = self._seeding_context(node, parents)
            if reason:
                findings.append(
                    Diagnostic(
                        rule=self.code,
                        path=ctx.rel_path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"builtin hash() {reason}; hash() is "
                            "PYTHONHASHSEED-salted -- derive seeds with "
                            "repro.core.canonical.stable_seed instead"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _seeding_context(
        call: ast.Call, parents: dict[int, ast.AST]
    ) -> str | None:
        """Why this ``hash()`` call looks like seeding, or ``None``."""
        node: ast.AST = call
        for _ in range(32):  # bounded walk up the expression tree
            parent = parents.get(id(node))
            if parent is None:
                return None
            if isinstance(parent, ast.Call) and node is not parent.func:
                name = _call_name(parent).lower()
                if "random" in name or "seed" in name:
                    return f"feeds {_call_name(parent)}(...)"
            if isinstance(parent, ast.keyword) and parent.arg:
                if "seed" in parent.arg.lower():
                    return f"feeds keyword {parent.arg}="
            if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    parent.targets
                    if isinstance(parent, ast.Assign)
                    else [parent.target]
                )
                for target in targets:
                    text = ast.dump(target).lower()
                    if "seed" in text or "rng" in text:
                        return "is assigned to a seed/rng name"
                return None
            if isinstance(parent, ast.stmt):
                return None
            node = parent
        return None


@register_file_rule
class NoWallclockInSim(FileRule):
    """RL002: no wall-clock reads under ``src/repro/`` or ``tests/oracles/``.

    Simulated executions advance by rounds and ticks, never by host
    time; a wall-clock read in the package (or in the frozen oracles
    the kernel is pinned against) is either a determinism bug or a
    diagnostic that must be visibly declared (suppression with
    justification).  Benchmarks are exempt by scope.
    """

    code = "RL002"
    name = "no-wallclock-in-sim"
    summary = "wall-clock reads are banned under src/repro/, tests/oracles/"

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith(("src/repro/", "tests/oracles/"))

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        findings = []
        time_aliases, banned_names = self._imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            hit: str | None = None
            if isinstance(node, ast.Attribute):
                base = node.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in time_aliases
                    and node.attr in _WALLCLOCK_TIME_ATTRS
                ):
                    hit = f"{base.id}.{node.attr}"
                elif node.attr in _WALLCLOCK_DATETIME_ATTRS and (
                    self._is_datetime_ref(base)
                ):
                    hit = f"datetime.{node.attr}"
            elif isinstance(node, ast.Name) and node.id in banned_names:
                hit = node.id
            if hit is not None:
                findings.append(
                    Diagnostic(
                        rule=self.code,
                        path=ctx.rel_path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"wall-clock read {hit}() in simulation code; "
                            "simulated time advances by rounds/ticks -- if "
                            "this is a diagnostic, suppress with a "
                            "justification"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _imports(tree: ast.AST) -> tuple[set[str], set[str]]:
        """Names bound to the ``time`` module / wall-clock functions."""
        time_aliases: set[str] = set()
        banned_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALLCLOCK_TIME_ATTRS:
                        banned_names.add(alias.asname or alias.name)
        return time_aliases, banned_names

    @staticmethod
    def _is_datetime_ref(node: ast.AST) -> bool:
        """Whether ``node`` is a plausible ``datetime``/``date`` ref."""
        if isinstance(node, ast.Name):
            return node.id in {"datetime", "date"}
        return (
            isinstance(node, ast.Attribute)
            and node.attr in {"datetime", "date"}
            and isinstance(node.value, ast.Name)
            and node.value.id == "datetime"
        )


@register_file_rule
class NoUnseededRng(FileRule):
    """RL003: RNG construction must be explicitly, traceably seeded.

    Flags, under ``src/repro/``, ``tests/oracles/`` and ``benchmarks/``:

    * ``random.Random()`` with no argument (falls back to OS entropy);
    * module-level ``random.random()``/``random.choice()``/... calls
      (the shared global RNG -- evaluation-order-dependent state);
    * ``random.SystemRandom`` (unseedable by design);
    * ``random.Random(expr)`` where ``expr`` is not an integer literal
      or a ``stable_seed(...)`` call.  ``Random(obj)`` falls back to
      ``hash(obj)`` for anything that is not int/str/bytes, which is
      PYTHONHASHSEED-salted; requiring the literal/``stable_seed``
      shape keeps the provenance checkable.  Pinned legacy streams
      (int-typed battery seeds) carry justified suppressions instead.
    """

    code = "RL003"
    name = "no-unseeded-rng"
    summary = "RNGs must be seeded via stable_seed (or an int literal)"

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith(
            ("src/repro/", "tests/oracles/", "benchmarks/")
        )

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        findings = []
        random_aliases, from_imports = self._imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = self._classify(node, random_aliases, from_imports)
            if kind is None:
                continue
            message = self._message(node, kind)
            if message is None:
                continue
            findings.append(
                Diagnostic(
                    rule=self.code,
                    path=ctx.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )
            )
        return findings

    @staticmethod
    def _imports(tree: ast.AST) -> tuple[set[str], dict[str, str]]:
        """Aliases of the ``random`` module / its from-imports."""
        aliases: set[str] = set()
        from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    from_imports[alias.asname or alias.name] = alias.name
        return aliases, from_imports

    @staticmethod
    def _classify(
        call: ast.Call, aliases: set[str], from_imports: dict[str, str]
    ) -> str | None:
        """``"Random"``, ``"SystemRandom"``, a module fn name, or None."""
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in aliases:
                if func.attr in ("Random", "SystemRandom"):
                    return func.attr
                if func.attr in _MODULE_RNG_FNS:
                    return func.attr
        elif isinstance(func, ast.Name):
            original = from_imports.get(func.id)
            if original in ("Random", "SystemRandom"):
                return original
            if original in _MODULE_RNG_FNS:
                return original
        return None

    @staticmethod
    def _message(call: ast.Call, kind: str) -> str | None:
        if kind == "SystemRandom":
            return (
                "random.SystemRandom is OS entropy -- unreproducible by "
                "construction; use random.Random(stable_seed(...))"
            )
        if kind != "Random":
            return (
                f"module-level random.{kind}() uses the shared global RNG "
                "(unseeded, evaluation-order-dependent); construct "
                "random.Random(stable_seed(...)) instead"
            )
        if not call.args:
            return (
                "random.Random() without a seed falls back to OS entropy; "
                "pass stable_seed(...)"
            )
        seed = call.args[0]
        if _is_stable_seed_call(seed) or _is_int_literal(seed):
            return None
        return (
            "random.Random(...) seed is not traceable to stable_seed "
            "(or an int literal); non-int seeds degrade to the salted "
            "builtin hash() -- derive the seed with "
            "repro.core.canonical.stable_seed, or suppress with a "
            "justification for a deliberately pinned stream"
        )


@register_file_rule
class CanonicalIterationOrder(FileRule):
    """RL006: never iterate an unordered expression directly.

    Set iteration order follows hash-table layout, which is salted per
    run for strings -- anything it feeds (traces, JSONL streams,
    canonical keys, rendered reports) silently loses byte-stability.
    Flagged: ``for``-loop and comprehension iterables, and arguments
    to ``tuple``/``list``/``enumerate``/``map``/``join``, when the
    expression is *syntactically* set-typed (a set literal or
    comprehension, a ``set()``/``frozenset()`` call, a
    ``union``/``intersection``/``difference`` method call, a set
    algebra ``|&-^`` expression over those, or ``vars()``).  Wrap the
    expression in ``sorted(...)``.

    Order-insensitive sinks stay clean: a comprehension that feeds
    ``sorted``/``set``/``sum``/``min``/``max``/``any``/``all``/``len``
    directly, or a set comprehension (whose result is unordered
    anyway), is not flagged.
    """

    code = "RL006"
    name = "canonical-iteration-order"
    summary = "iteration over unordered expressions must be sorted"

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith(("src/repro/", "tests/oracles/", "tools/"))

    _SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference"}
    )
    _CONSUMERS = frozenset({"tuple", "list", "enumerate", "map", "iter"})
    _ORDER_INSENSITIVE = frozenset(
        {"sorted", "set", "frozenset", "sum", "min", "max", "any", "all",
         "len", "Counter"}
    )

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        findings = []
        for node in ast.walk(ctx.tree):
            if self._order_insensitive_sink(node, ctx):
                continue
            for iterable in self._iterables(node):
                if self._is_unordered(iterable):
                    findings.append(
                        Diagnostic(
                            rule=self.code,
                            path=ctx.rel_path,
                            line=iterable.lineno,
                            col=iterable.col_offset,
                            message=(
                                "iteration over a set/unordered expression "
                                "follows salted hash order; wrap it in "
                                "sorted(...) before it can reach traces, "
                                "streams, or canonical keys"
                            ),
                        )
                    )
        return findings

    def _order_insensitive_sink(self, node: ast.AST, ctx: FileContext) -> bool:
        """Whether ``node`` is a comprehension whose order cannot leak."""
        if isinstance(node, ast.SetComp):
            return True
        if not isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return False
        parent = ctx.parents().get(id(node))
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in self._ORDER_INSENSITIVE
        )

    def _iterables(self, node: ast.AST) -> list[ast.expr]:
        """Expressions ``node`` iterates (loops, comprehensions, consumers)."""
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return [node.iter]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            return [gen.iter for gen in node.generators]
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in self._CONSUMERS:
                # map(f, iterable): the iterable is the second argument.
                args = node.args[1:] if func.id == "map" else node.args[:1]
                return list(args)
            if isinstance(func, ast.Attribute) and func.attr == "join":
                return list(node.args[:1])
        return []

    def _is_unordered(self, node: ast.expr) -> bool:
        """Whether ``node`` is syntactically a set-typed/unordered expr."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                "set",
                "frozenset",
                "vars",
            ):
                return True
            if isinstance(func, ast.Attribute) and (
                func.attr in self._SET_METHODS
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_unordered(node.left) or self._is_unordered(
                node.right
            )
        return False
