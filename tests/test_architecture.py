"""The platform's structural contracts, checked over ``src/repro``.

Each rule is a small :mod:`ast` visitor whose docstring is its reason.
A visitor knows the exact class and function it is in, as a qualified
name (``Mesh2D._add_link``, ``Tracer.counters.<lambda>``), so a nested
function, a lambda and a method of a second class are each their own
scope. Every rule must hold over the source tree, and every rule must
flag its own snippets: exactly the lines marked ``# flagged``, so a
rule that decays to matching nothing fails.

One rule, :class:`HasACaller`, spans the whole tree: a definition in
``src/repro`` must be named by code in one of its ``callers``
directories, so it first reads every identifier there (in a snippet,
the snippet's own).

:func:`violations` runs the rules over any checkout, for example a
``git worktree`` of an older commit::

    python -c "from tests.test_architecture import violations; \\
    print(*violations('/path/to/checkout'), sep='\\n')"
"""

import ast
import re
import textwrap
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "repro")


def _name(node: ast.AST) -> str:
    """The last identifier of ``x`` or ``a.b.x``; "" for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class Rule(ast.NodeVisitor):
    """Walk one module of ``src/repro``, knowing the exact scope.

    ``files`` are glob patterns over paths relative to ``src/repro``.
    ``allowed`` holds the ``path::qualname`` scopes where the flagged
    construct is the contract's one site. ``snippets`` map a path to
    a module the rule must flag on its ``# flagged`` lines only.
    """

    files: Tuple[str, ...] = ("*.py",)
    allowed: Tuple[str, ...] = ()
    snippets: Dict[str, str] = {}
    callers: Tuple[str, ...] = ()

    def __init__(self, path: str) -> None:
        self.path = path
        self.scope: List[str] = []
        self.hits: List[Tuple[int, str]] = []

    @property
    def where(self) -> str:
        return f"{self.path}::{'.'.join(self.scope)}"

    def flag(self, node: ast.AST) -> None:
        if self.where not in self.allowed:
            self.hits.append((node.lineno, ".".join(self.scope) or "<module>"))

    def _enter(self, node: ast.AST, name: str, body: list) -> None:
        """Visit ``body`` in scope ``name``; the decorators, bases,
        defaults and annotations run in the enclosing scope."""
        inner = {id(child) for child in body}
        for child in ast.iter_child_nodes(node):
            if id(child) not in inner:
                self.visit(child)
        self.scope.append(name)
        for child in body:
            self.visit(child)
        self.scope.pop()

    def visit_ClassDef(self, node) -> None:
        self._enter(node, node.name, node.body)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter(node, "<lambda>", [node.body])

    def finish(self, names: Counter, attributes: Counter) -> None:
        """Called after the module, with the identifiers named under
        the ``callers`` directories of the repo: in any form, and as an
        attribute or a string only (see :func:`identifiers`)."""


class CallRule(Rule):
    """A rule over calls: :meth:`calls` gets the callee's last
    identifier and, for ``a.b.f(...)``, the receiver's (``b``)."""

    def calls(self, callee: str, receiver: str) -> bool:
        raise NotImplementedError

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        receiver = _name(func.value) if isinstance(func, ast.Attribute) else ""
        if self.calls(_name(func), receiver):
            self.flag(node)
        self.generic_visit(node)


class WordRule(Rule):
    """A rule over every identifier, import and string that contains
    ``word``."""

    word = ""

    def visit(self, node: ast.AST) -> None:
        texts = [getattr(node, field, None) for field in (
            "id", "attr", "arg", "name", "asname", "module")]
        if isinstance(node, ast.Constant):
            texts.append(node.value)
        if any(isinstance(text, str) and self.word in text for text in texts):
            self.flag(node)
        super().visit(node)


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------

INSTRUMENTED = ("runtime/*.py", "serve/*.py", "control/*.py")


class ServeReadsNoMetrics(WordRule):
    """The serve layer reads no metrics at all: its ``serve_*``
    families are scrape-time views of the server's request records
    (``register_server_collectors``)."""

    files = ("serve/*.py",)
    word = "metrics"
    snippets = {"serve/server.py": """
        from ..metrics import Counter  # flagged

        class InferenceServer:
            def _settle(self, request):
                self.completions.append(request)
                registry = self.env.metrics  # flagged
                return "serve_metrics"  # flagged
        """}


class OnlyExecuteRunsTheLoop(CallRule):
    """The runtime has one run path (``_drive``): only the blocking
    ``execute`` drives the event loop."""

    files = ("runtime/*.py",)
    allowed = ("runtime/executor.py::DataflowExecutor.execute",)
    snippets = {"runtime/executor.py": """
        class DataflowExecutor:
            def execute(self, dataflow, frames):
                return self.soc.env.run(until=self._drive(dataflow, frames))

            def run_process(self, dataflow, frames):
                self.soc.env.run()  # flagged
        """}

    def calls(self, callee: str, receiver: str) -> bool:
        return callee == "run" and receiver.endswith("env")


class ControlDerivesNoStallThreshold(WordRule):
    """The control plane reads its stall threshold from
    ``repro.metrics.health.stall_threshold`` and never derives one."""

    files = ("control/*.py",)
    word = "latency_cycles"
    snippets = {"control/controller.py": """
        class ControlPlane:
            def _stalled(self, device, quiet):
                return quiet > 2 * device.latency_cycles  # flagged
        """}


class OneCountingSite(Rule):
    """The runtime counts through one helper: the executor's ``_count``
    holds the layer's one ``metrics is not None`` guard."""

    files = INSTRUMENTED
    allowed = ("runtime/executor.py::DataflowExecutor._count",)
    snippets = {"runtime/executor.py": """
        class DataflowExecutor:
            def _count(self, plan, outcome):
                metrics = self.soc.env.metrics
                if metrics is not None:
                    getattr(metrics, outcome).inc()

            def _retry(self, plan):
                if self.soc.env.metrics is not None:  # flagged
                    self.soc.env.metrics.retries.inc()
        """}

    def visit_Compare(self, node: ast.Compare) -> None:
        if (_name(node.left).endswith("metrics")
                and isinstance(node.ops[0], ast.IsNot)
                and _is_none(node.comparators[0])):
            self.flag(node)
        self.generic_visit(node)


class OneTracerGuard(Rule):
    """The runtime and serve layers open spans through their helpers
    alone (the executor's ``_step``, the server's ``_span``), so a
    ``None if tracer is None else`` guard belongs only there. Plain
    ``if tracer is not None:`` guards around instants and complete
    records are not checked."""

    files = INSTRUMENTED
    allowed = ("runtime/executor.py::DataflowExecutor._step",
               "serve/server.py::InferenceServer._span")
    snippets = {"serve/server.py": """
        class InferenceServer:
            def _span(self, tenant, name, body):
                tracer = self.env.tracer
                return None if tracer is None else tracer.drive(body)

            def _dispatch(self, batch):
                tracer = self.env.tracer
                sid = None if tracer is None else tracer.begin()  # flagged
        """}

    def visit_IfExp(self, node: ast.IfExp) -> None:
        test = node.test
        if (_is_none(node.body) and isinstance(test, ast.Compare)
                and _name(test.left).endswith("tracer")
                and isinstance(test.ops[0], ast.Is)
                and _is_none(test.comparators[0])):
            self.flag(node)
        self.generic_visit(node)


class OneSpanSite(CallRule):
    """Spans open in the layer helpers (``_step``, ``_span``); the
    request span that ``submit`` opens at admission is the one begin
    allowed outside them."""

    files = INSTRUMENTED
    allowed = OneTracerGuard.allowed + (
        "serve/server.py::InferenceServer.submit",)
    snippets = {"serve/server.py": """
        class InferenceServer:
            def submit(self, tenant, frames):
                self.sid = self.env.tracer.begin("serve", tenant, "request")

            def _admit(self, request):
                self.env.tracer.begin("serve", "queue", "admit")  # flagged
        """}

    def calls(self, callee: str, receiver: str) -> bool:
        return callee == "begin" and receiver.endswith("tracer")


class RecordsBuiltWhenRead(CallRule):
    """The tracer records flat tuples and builds its record objects
    only when they are read: no ``Span``, ``Instant`` or
    ``CounterSample`` in its record methods, nor anywhere else in the
    package."""

    RECORD_METHODS = tuple(f"trace/tracer.py::Tracer.{method}" for method in (
        "begin", "end", "complete", "instant", "counter", "drive"))
    snippets = {
        "trace/tracer.py": """
            class Tracer:
                def instant(self, pid, tid, name, cat, ts):
                    self._instants.append(Instant(pid, tid, ts))  # flagged

                def end(self, sid, ts):
                    self._last = lambda: Span(sid, ts)  # flagged

                @property
                def counters(self):
                    return RecordView(self._counters,
                                      lambda record: CounterSample(*record))
            """,
        "trace/export.py": """
            def clamp(span, now):
                return Span(span.sid, span.pid, span.tid, end=now)  # flagged
            """}

    def calls(self, callee: str, receiver: str) -> bool:
        """A lambda or nested function inside a record method counts as
        the method."""
        return (callee in ("Span", "Instant", "CounterSample")
                and (self.path != "trace/tracer.py"
                     or any(self.where == method
                            or self.where.startswith(method + ".")
                            for method in self.RECORD_METHODS)))


class PacketsAreEvents(CallRule):
    """Packets are events, not processes: ``Mesh2D.send`` returns the
    packet's delivery event and transmits through callbacks."""

    files = ("noc/*.py",)
    snippets = {"noc/mesh.py": """
        class Mesh2D:
            def send(self, packet):
                return self.env.process(self._transmit(packet))  # flagged

            def _spawn(self, packet):
                return Process(self.env, self._transmit(packet))  # flagged
        """}

    def calls(self, callee: str, receiver: str) -> bool:
        return ((callee == "process" and receiver.endswith("env"))
                or callee == "Process")


class CoherenceOverRanges(CallRule):
    """Coherence resolves ranges: the DMA engine, the directory and the
    memory tile probe, install and access a burst's lines through the
    range methods (``probe``, ``install_grant``, ``access_lines``),
    never one line at a time."""

    files = ("soc/*.py",)
    snippets = {"soc/dma.py": """
        class DmaEngine:
            def _fc_load(self, base, lines):
                for line in lines:
                    tile = self.soc.memory_map.owner(line)  # flagged
                    home = self._line_tile(line)  # flagged
                    self.cache.touch(line)  # flagged
                    self.cache.install(line, "E")  # flagged
                    self.llc.access_line(line)  # flagged
                    self.caches[tile].install(line, "E")  # flagged
                    self.cache_at(tile).touch(line)  # flagged
                self.cache.install_grant(base, lines)
        """}

    def calls(self, callee: str, receiver: str) -> bool:
        return ((callee == "owner" and receiver.endswith("memory_map"))
                or callee.endswith("_line_tile"))

    def visit_Call(self, node: ast.Call) -> None:
        """Any ``.touch(``, ``.install(`` or ``.access_line(`` call,
        whatever the receiver: a subscript or a call result too."""
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("touch", "install", "access_line")):
            self.flag(node)
        super().visit_Call(node)


class MeshBuiltOnFirstUse(CallRule):
    """The mesh builds only what traffic reaches: a link is created on
    its route's first resolution and an ejection queue on its first
    use, each by one helper (``_add_link``, ``_add_inbox``)."""

    files = ("noc/mesh.py",)
    allowed = ("noc/mesh.py::Mesh2D._add_link",
               "noc/mesh.py::Mesh2D._add_inbox")
    snippets = {"noc/mesh.py": """
        class Mesh2D:
            def __init__(self, env, keys):
                self.links = {key: Link(env, *key) for key in keys}  # flagged

            def _add_link(self, key):
                link = self.links[key] = Link(self.env, *key)
                return link

            def _add_inbox(self, coord, plane):
                return Fifo(self.env, name=f"inbox{coord}@{plane}")
        """}

    def calls(self, callee: str, receiver: str) -> bool:
        return callee in ("Link", "Fifo")


class OneStackBuilder(CallRule):
    """Every serving stack is a ``StackSpec`` built by ``build_stack``,
    in one fixed assembly order: only it, and the serve layer itself,
    construct an ``InferenceServer``."""

    allowed = ("eval/stack.py::build_stack",)
    snippets = {
        "eval/stack.py": """
            def build_stack(spec):
                server = InferenceServer(EspRuntime(build_soc1()))

            def build_fleet(spec, n):
                return [InferenceServer(runtime) for runtime in n]  # flagged
            """,
        "__main__.py": """
            server = InferenceServer(runtime, ServerConfig())  # flagged
            """,
        "serve/__init__.py": """
            def serve(runtime):
                return InferenceServer(runtime)
            """}

    def calls(self, callee: str, receiver: str) -> bool:
        return callee == "InferenceServer" and not self.path.startswith(
            "serve/")


class OneScrapeSite(CallRule):
    """A scrape runs the collectors in one of three places: an
    explicit ``collect``, a health-monitor evaluation (which is what a
    sampler tick runs) and a dashboard frame, whose parts read what it
    scraped. A sampler tick is one scrape."""

    allowed = ("metrics/registry.py::MetricsRegistry.collect",
               "metrics/health.py::HealthMonitor.evaluate",
               "metrics/dashboard.py::render_dashboard")
    snippets = {
        "metrics/health.py": """
            class HealthMonitor:
                def evaluate(self):
                    self.registry.run_collectors()

            class MetricsSampler:
                def _loop(self):
                    while True:
                        yield self.env.timeout(self.interval)
                        self.monitor.registry.run_collectors()  # flagged
                        self.monitor.evaluate()
            """,
        "metrics/dashboard.py": """
            def render_tenant_table(registry):
                registry.run_collectors()  # flagged

            def render_dashboard(soc, registry, monitor=None):
                registry.run_collectors()
            """}

    def calls(self, callee: str, receiver: str) -> bool:
        return callee == "run_collectors"


class OneNocSpanSite(CallRule):
    """A packet is one span record: ``_Transit._inject`` opens it and
    ``Mesh2D._retire`` closes it. Its hops are ``(grant cycle, sid)``
    pairs the record carries and the tracer reads back as ``noc.link``
    spans, so no hop opens or closes a span of its own."""

    files = ("noc/*.py",)
    SITES = {"begin": "noc/mesh.py::_Transit._inject",
             "end": "noc/mesh.py::Mesh2D._retire",
             "complete": None}
    snippets = {"noc/mesh.py": """
        class _Transit(Event):
            def _inject(self):
                self.sid = self.tracer.begin("noc", plane, kind, "noc.packet")

            def _on_step(self, event):
                self.held.append(self.tracer.begin("noc", track))  # flagged

            def _eject(self):
                for sid in self.held:
                    self.tracer.end(sid)  # flagged

        class Mesh2D:
            def _retire(self, packet, outcome, tracer, sid):
                tracer.end(sid, outcome=outcome)
                tracer.complete("noc", track, kind, "link", 0, 9)  # flagged
        """}

    def calls(self, callee: str, receiver: str) -> bool:
        return (callee in self.SITES and receiver.endswith("tracer")
                and self.where != self.SITES[callee])


class OneEventPerTransit(CallRule):
    """A packet allocates per packet, not per hop: a transit builds one
    step event in ``_Transit.__init__`` and re-arms it for every grant
    and timeout (``Environment._schedule`` enqueues the delayed ones)."""

    files = ("noc/mesh.py",)
    snippets = {"noc/mesh.py": """
        class _Transit(Event):
            def __init__(self, mesh, packet):
                self.step = Event(mesh.env)

            def _on_step(self, event):
                hold = Timeout(self.env, self.packet.size_flits)  # flagged
                grant = Event(self.env)  # flagged
        """}

    def calls(self, callee: str, receiver: str) -> bool:
        return callee == "Timeout" or (
            callee == "Event"
            and self.where != "noc/mesh.py::_Transit.__init__")


class RegisterStoresAreEvents(Rule):
    """Register programming is an event, not a generator: the driver's
    posted stores go out through ``RegisterStores``, whose step event
    carries the ``REG_WRITE_CYCLES`` gap, so only the chain calls
    ``write_reg`` and no ``REG_WRITE_CYCLES`` timeout is built for a
    thread to yield."""

    allowed = ("runtime/executor.py::RegisterStores._advance",)
    snippets = {
        "runtime/executor.py": """
            class RegisterStores(Event):
                def _advance(self, event):
                    delivery = self.cpu.write_reg(self.coord, reg, value)
                    self.env._schedule(self.step, REG_WRITE_CYCLES)
                    gap = Timeout(self.env, REG_WRITE_CYCLES)  # flagged

            class DataflowExecutor:
                def _write_regs(self, env, cpu, writes):
                    for reg, value in writes:
                        yield env.timeout(REG_WRITE_CYCLES)  # flagged
                        yield from cpu.write_reg(reg, value)  # flagged

                def _invoke_guarded(self, env):
                    yield env.timeout(IOCTL_CYCLES)
            """,
        "serve/server.py": """
            class InferenceServer:
                def repair_tile(self, cpu, tile):
                    yield cpu.write_reg(tile.coord, CMD_REG, 2)  # flagged
            """}

    def visit_Call(self, node: ast.Call) -> None:
        callee = _name(node.func)
        if callee == "write_reg":
            self.flag(node)
        elif (callee in ("timeout", "Timeout")
              and any(_name(arg) == "REG_WRITE_CYCLES" for arg in node.args)):
            # Not even the chain builds one.
            self.hits.append((node.lineno, ".".join(self.scope)))
        self.generic_visit(node)


class OneMemoOwner(Rule):
    """A run's kernel memo has one owner: only ``run_memo`` installs it
    on the tiles and clears it, so the decision which run is the
    outermost, and so owns the memo, is made in one place."""

    allowed = ("soc/accelerator.py::run_memo",)
    snippets = {
        "soc/accelerator.py": """
            @contextmanager
            def run_memo(tiles):
                for tile in tiles:
                    tile.memo = {}
                yield
                for tile in tiles:
                    tile.memo = None

            class AcceleratorTile:
                memo = None

                def host_reset(self):
                    self.memo = None  # flagged
            """,
        "fleet/cluster.py": """
            class Fleet:
                def run(self, memo):
                    for tile in self.tiles:
                        tile.memo, seen = memo, True  # flagged
                        setattr(tile, "memo", memo)  # flagged
                    return tile.memo.get(None)
            """}

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "memo" and not isinstance(node.ctx, ast.Load):
            self.flag(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (_name(node.func) == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "memo"):
            self.flag(node)
        self.generic_visit(node)


def identifiers(tree: ast.AST, bare: bool = True) -> Counter:
    """How often ``tree`` names each identifier: as an ``Attribute``, an
    identifier string constant or, if ``bare``, a ``Name``, but not as
    an ``__all__`` entry. A definition or an import binds its name
    without naming it."""
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and "__all__" in map(_name, node.targets)):
            exported.update(id(entry) for entry in ast.walk(node.value))
    return Counter(
        node.value if isinstance(node, ast.Constant) else _name(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or (bare and isinstance(node, ast.Name))
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier() and id(node) not in exported))


FLOW_API = "the paper's user-facing flow API"
INVARIANT = "an invariant that the seeded stress checker evaluates"
DOCUMENTED = "a read-only view that docs/observability.md documents"

#: The definitions no caller names yet that stay, each with its reason.
KEPT: Dict[str, str] = {
    "hls4ml_flow/importers.py::from_onnx_graph": FLOW_API,
    "hls4ml_flow/importers.py::from_torch_state": FLOW_API,
    "runtime/api.py::EspRuntime.esp_alloc": FLOW_API,
    "soc/coherence.py::mesi_violations": INVARIANT,
    "trace/tracer.py::Tracer.bindings": DOCUMENTED,
}


class HasACaller(Rule):
    """``src/repro`` holds only what the system runs: every top-level
    function and class, and every method that is not a dunder, is named
    by code outside ``tests/`` (the ``callers``). A function or class
    counts as named as a ``Name``, an ``Attribute`` or an identifier
    string; a method only as an ``Attribute``, a string, or a ``Name``
    in its own class body (a dispatch table), so a local variable that
    shares its name does not call it. A test oracle lives in
    ``tests/``; a definition nothing runs is deleted. ``KEPT`` holds
    the exceptions, each with its reason. A name shared with another
    definition can only let a definition through, never flag one."""

    callers = ("src", "benchmarks", "ledger", "examples", "tools")
    allowed = tuple(KEPT)
    snippets = {"soc/cache.py": """
        def line_of(address, words):
            return address // words

        def lines_of(burst):  # flagged
            return [line_of(a, 4) for a in burst]

        class PrivateCache:
            def __init__(self):
                self.lines = {}

            def touch(self, line):
                self.lines[line] = "E"
                self.evict_all()

            def evict_all(self):
                self.lines.clear()

            def occupancy(self):  # flagged
                return len(self.lines)

        cache = PrivateCache()
        cache.touch(line_of(0, 4))
        """, "sim/channels.py": """
        class Fifo:
            def __init__(self):
                self.queue = []

            def waiters(self):  # flagged
                return tuple(self.queue)

            def depth(self):
                waiters = len(self.queue)
                return waiters

            def _push(self, item):
                self.queue.append(item)

            OPS = {"push": _push}

        Fifo().depth()
        """}

    def __init__(self, path: str) -> None:
        super().__init__(path)
        #: (definition, qualified name, the class of a method or None)
        self.defined: List[Tuple[ast.AST, str, Optional[ast.ClassDef]]] = []

    def _define(self, node: ast.AST, scope: List[str],
                owner: Optional[ast.ClassDef] = None) -> None:
        if not (node.name.startswith("__") and node.name.endswith("__")):
            self.defined.append((node, ".".join(scope + [node.name]), owner))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.scope:
            self._define(node, [])
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._define(child, self.scope + [node.name], node)
        super().visit_ClassDef(node)

    def visit_FunctionDef(self, node) -> None:
        if not self.scope:
            self._define(node, [])
        super().visit_FunctionDef(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def finish(self, names: Counter, attributes: Counter) -> None:
        """A name counts only outside its own definition."""
        for node, qualname, owner in self.defined:
            if owner is None:
                uses = names[node.name] - identifiers(node)[node.name]
            else:
                uses = (attributes[node.name]
                        - identifiers(node, bare=False)[node.name]
                        + sum(isinstance(name, ast.Name)
                              and name.id == node.name
                              for statement in owner.body
                              if not isinstance(statement, (
                                  ast.FunctionDef, ast.AsyncFunctionDef))
                              for name in ast.walk(statement)))
            if uses <= 0 and f"{self.path}::{qualname}" not in self.allowed:
                self.hits.append((node.lineno, qualname))


RULES = (ServeReadsNoMetrics, OnlyExecuteRunsTheLoop,
         ControlDerivesNoStallThreshold, OneCountingSite, OneTracerGuard,
         OneSpanSite, RecordsBuiltWhenRead, PacketsAreEvents,
         CoherenceOverRanges, MeshBuiltOnFirstUse, OneStackBuilder,
         OneScrapeSite, OneNocSpanSite, OneEventPerTransit,
         RegisterStoresAreEvents, OneMemoOwner, HasACaller)


def check(rule, path: str, source: str,
          named: Optional[Tuple[Counter, Counter]] = None
          ) -> List[Tuple[int, str]]:
    """The ``(line, scope)`` pairs ``rule`` flags in the module at
    ``src/repro/<path>``, one per line, in line order. ``named`` are
    the identifiers the rule's callers name, as :func:`called` counts
    them; by default the module's own."""
    visitor = rule(path)
    module = ast.parse(source)
    visitor.visit(module)
    visitor.finish(*(named or (identifiers(module),
                               identifiers(module, bare=False))))
    return sorted(dict(reversed(visitor.hits)).items())


def called(root, rules: Sequence) -> Tuple[Counter, Counter]:
    """How often the code under ``rules``' caller directories names
    each identifier: in any form, and as an attribute or a string."""
    names, attributes = Counter(), Counter()
    for directory in sorted({d for rule in rules for d in rule.callers}):
        for file in (Path(root) / directory).rglob("*.py"):
            tree = ast.parse(file.read_text())
            names.update(identifiers(tree))
            attributes.update(identifiers(tree, bare=False))
    return names, attributes


def violations(root=REPO, rules: Sequence = RULES) -> List[str]:
    """Every line of ``<root>/src/repro`` that ``rules`` flag, as
    ``path:line: rule in scope: source``."""
    package = Path(root) / PACKAGE
    if not package.is_dir():
        raise FileNotFoundError(f"no {PACKAGE.as_posix()} under {root}")
    named = called(root, rules)
    found = []
    for file in sorted(package.rglob("*.py")):
        path = file.relative_to(package).as_posix()
        applicable = [rule for rule in rules
                      if any(fnmatch(path, pattern) for pattern in rule.files)]
        if not applicable:
            continue
        source = file.read_text()
        lines = source.splitlines()
        hits = sorted((line, rule.__name__, scope) for rule in applicable
                      for line, scope in check(rule, path, source, named))
        found += [f"{PACKAGE.as_posix()}/{path}:{line}: {name} in {scope}: "
                  f"{lines[line - 1].strip()}" for line, name, scope in hits]
    return found


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def rule_ids(rule) -> str:
    return rule.__name__


@pytest.mark.parametrize("rule", RULES, ids=rule_ids)
def test_rule_holds(rule):
    assert violations(REPO, [rule]) == []


@pytest.mark.parametrize("rule", RULES, ids=rule_ids)
def test_rule_flags_its_snippets(rule):
    flagged = 0
    for path, snippet in rule.snippets.items():
        source = textwrap.dedent(snippet)
        marked = [number for number, line in enumerate(source.splitlines(), 1)
                  if line.endswith("# flagged")]
        assert [line for line, _ in check(rule, path, source)] == marked, path
        flagged += len(marked)
    assert flagged


def test_every_kept_definition_has_a_reason_and_no_caller():
    class Unkept(HasACaller):
        allowed = ()

    flagged = {"{}::{}".format(*re.match(
        rf"{PACKAGE.as_posix()}/(\S+):\d+: Unkept in (\S+):", line).groups())
        for line in violations(REPO, [Unkept])}
    assert flagged == set(KEPT)
    assert set(KEPT.values()) <= {FLOW_API, INVARIANT, DOCUMENTED}


SCOPES = textwrap.dedent("""
    class Mesh2D:
        def _add_link(self, key):
            def channel():
                return Link(self.env, *key)
            link = self.links[key] = Link(self.env, *key, channel())
            self.rebuild = lambda: Link(self.env, *key)
            return link

    class Torus:
        def _add_link(self, key):
            return Link(self.env, *key)
    """)


def test_violations_reports_file_line_rule_scope_and_source(tmp_path):
    """A nested function, a lambda and a method of a second class are
    each attributed to their own scope. A regex on the preceding
    ``def`` flagged the helper's own link on line 6 as ``channel``'s,
    put the lambda's link in ``channel`` too, and passed
    ``Torus._add_link`` as the allowed helper."""
    mesh = tmp_path / PACKAGE / "noc" / "mesh.py"
    mesh.parent.mkdir(parents=True)
    mesh.write_text(SCOPES)
    assert violations(tmp_path, [MeshBuiltOnFirstUse]) == [
        "src/repro/noc/mesh.py:5: MeshBuiltOnFirstUse in "
        "Mesh2D._add_link.channel: return Link(self.env, *key)",
        "src/repro/noc/mesh.py:7: MeshBuiltOnFirstUse in "
        "Mesh2D._add_link.<lambda>: "
        "self.rebuild = lambda: Link(self.env, *key)",
        "src/repro/noc/mesh.py:12: MeshBuiltOnFirstUse in "
        "Torus._add_link: return Link(self.env, *key)",
    ]
