"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces each public function or method named in ``TARGETS`` by a
timing wrapper, at run time and only for the traced run.  A function is
patched in every ``prime_scope`` module namespace that holds it (so
``from .primes import primes_above`` in another module is covered too), and a
method in every attribute of its class that holds it (so ``__rmul__ =
__mul__`` is covered).  ``uninstall`` puts every original back.

Each wrapped call is a span with a name, a start, an end and a parent (the
innermost enclosing wrapped call).  Spans are folded into per-name totals as
they close, so memory stays bounded however many calls run:

* ``calls``  -- number of spans;
* ``self_s`` -- span duration minus the time covered by child spans;
* ``incl_s`` -- span duration, counted once for recursive calls;
* per (parent, name) edge: calls and inclusive time.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, module, attribute path) of every wrapped layer boundary
TARGETS = [
    ("qpoly.QPoly.mul", "qpoly", "QPoly.__mul__"),
    ("qpoly.QPoly.divmod", "qpoly", "QPoly.__divmod__"),
    ("qpoly.QPoly.resultant", "qpoly", "QPoly.resultant"),
    ("qpoly.QPoly.isolate_real_roots", "qpoly", "QPoly.isolate_real_roots"),
    ("ffield.poly_factor_mod_p", "ffield", "poly_factor_mod_p"),
    ("localdata.lift_block_factorization", "localdata", "lift_block_factorization"),
    ("localdata.dedekind_applies", "localdata", "dedekind_applies"),
    ("localdata.ff_poly_roots", "localdata", "ff_poly_roots"),
    ("numberfield.NumberField.init", "numberfield", "NumberField.__init__"),
    ("numberfield.FieldElement.mul", "numberfield", "FieldElement.__mul__"),
    ("numberfield.FieldElement.inverse", "numberfield", "FieldElement.inverse"),
    ("numberfield.KPoly.call", "numberfield", "KPoly.__call__"),
    ("numberfield.KPoly.count_roots_in_ordering", "numberfield", "KPoly.count_roots_in_ordering"),
    ("numberfield.Ordering.sign", "numberfield", "Ordering.sign"),
    ("numberfield.elements_by_height", "numberfield", "elements_by_height"),
    ("primes.primes_above", "primes", "primes_above"),
    ("primes.PValuation.valuation", "primes", "PValuation.valuation"),
    ("primes.PValuation.block", "primes", "PValuation.block"),
    ("primes.PValuation.residue", "primes", "PValuation.residue"),
    ("primes.PValuation.lift_residue", "primes", "PValuation.lift_residue"),
    ("closure.has_root_in_closure", "closure", "has_root_in_closure"),
    ("closure.padic_root", "closure", "padic_root"),
    ("dense.d_witness", "dense", "d_witness"),
    ("dense.ud_witness", "dense", "ud_witness"),
    ("dense.simultaneous_ball", "dense", "simultaneous_ball"),
    ("dense.weak_approx_value", "dense", "weak_approx_value"),
    ("dense.zgroup_witness", "dense", "zgroup_witness"),
    ("formulas.MPoly.call", "formulas", "MPoly.__call__"),
    ("formulas.eval_qf", "formulas", "eval_qf"),
    ("formulas.build_phi_n", "formulas", "build_phi_n"),
    ("squares.four_squares", "squares", "four_squares"),
    ("squares.kochen", "squares", "kochen"),
    ("squares.no_short_representation_check", "squares", "no_short_representation_check"),
]

GENERATORS = {"numberfield.elements_by_height"}
VALUATION = "primes.PValuation.valuation"
DECISION = "closure.has_root_in_closure"
BLOCK = "primes.PValuation.block"
NO_SHORT = "squares.no_short_representation_check"
# PValuation.block(N) above this N is a precision escalation past the
# precision primes_above lifts to
BASE_PRECISION = 16


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0


class Tracer:
    """Span bookkeeping plus the patch/unpatch of the wrapped layers."""

    def __init__(self):
        self.stats = {name: Stat() for name, _, _ in TARGETS}
        self.edges: dict[tuple[str, str], list] = {}
        self.extra = {
            "block_escalations": 0,
            "valuations_in_decisions": 0,
            "no_short_candidates": 0,
            "elements_yielded": 0,
        }
        # open spans: [name, child time]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span called ``name``."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        stat.active += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            stat.active -= 1
            stat.calls += 1
            stat.self_s += dt - frame[1]
            if not stat.active:
                stat.incl_s += dt
            if stack:
                stack[-1][1] += dt
            edge = self.edges.get((parent, name))
            if edge is None:
                edge = self.edges[(parent, name)] = [0, 0.0]
            edge[0] += 1
            edge[1] += dt
        return result

    def _wrap(self, name: str, fn):
        tracer = self
        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                inner = tracer.span(name, fn, *args, **kwargs)

                def step():
                    return next(inner)

                while True:
                    try:
                        item = tracer.span(name + ".next", step)
                    except StopIteration:
                        return
                    tracer.extra["elements_yielded"] += 1
                    yield item

            return gen_wrapper

        if name == VALUATION:
            decision = self.stats[DECISION]

            def wrapper(*args, **kwargs):
                if decision.active:
                    tracer.extra["valuations_in_decisions"] += 1
                return tracer.span(name, fn, *args, **kwargs)
        elif name == BLOCK:
            def wrapper(self_, N, *args, **kwargs):
                if N > BASE_PRECISION:
                    tracer.extra["block_escalations"] += 1
                return tracer.span(name, fn, self_, N, *args, **kwargs)
        elif name == NO_SHORT:
            def wrapper(*args, **kwargs):
                result = tracer.span(name, fn, *args, **kwargs)
                tracer.extra["no_short_candidates"] += result.searched
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- install / uninstall -----------------------------------------------
    def install(self):
        """Patch every target in its class or in every package namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "prime_scope" or key.startswith("prime_scope."))
        ]
        for name, module, path in TARGETS:
            home = sys.modules[f"prime_scope.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                owners = [(cls, key) for key, val in cls.__dict__.items() if val is original]
            else:
                original = getattr(home, path)
                owners = [
                    (m, key) for m in modules for key, val in vars(m).items() if val is original
                ]
            wrapper = self._wrap(name, original)
            for owner, key in owners:
                setattr(owner, key, wrapper)
                self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # --- results -----------------------------------------------------------
    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in TARGETS:
            st = self.stats[name]
            if name in GENERATORS:
                nxt = self.stats.get(name + ".next", Stat())
                out[f"{name}.calls"] = (st.calls, "count")
                out[f"{name}.items"] = (self.extra["elements_yielded"], "count")
                out[f"{name}.self_s"] = (st.self_s + nxt.self_s, "s")
                continue
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_s, "s")
        out[f"{BLOCK}.escalations"] = (self.extra["block_escalations"], "count")
        decisions = self.stats[DECISION].calls
        out["closure.valuations_per_decision"] = (
            self.extra["valuations_in_decisions"] / decisions if decisions else 0.0,
            "count/decision",
        )
        cand = self.extra["no_short_candidates"]
        busy = self.stats[NO_SHORT].incl_s
        out["squares.no_short.candidates"] = (cand, "count")
        out["squares.no_short.candidates_per_s"] = (cand / busy if busy else 0.0, "1/s")
        return out

    def inclusive(self) -> list[tuple[str, int, float]]:
        """(name, calls, inclusive seconds), largest first."""
        rows = [(n, st.calls, st.incl_s) for n, st in self.stats.items() if st.calls]
        return sorted(rows, key=lambda r: -r[2])

    def edge_table(self) -> list[tuple[str, str, int, float]]:
        rows = [(p or "-", n, c, t) for (p, n), (c, t) in self.edges.items()]
        return sorted(rows, key=lambda r: -r[3])
