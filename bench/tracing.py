"""Span recorder for the traced benchmark run.

The program is not edited.  Instead the tracer replaces public functions
in the module namespaces where the program looks them up, so every call
made through such a name records a span: its name, start, end, parent
span and the id of the benchmark operation it belongs to.  Spans are kept
in flat in-memory columns and written out once, when the run ends.

Span names start with the module (layer) that does the work:
``expr``, ``homeomorphism``, ``function_space``, ``operators``,
``solver``, ``certificates`` and ``cli``.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import collections
import json
import statistics
import time
from array import array
from pathlib import Path

import numpy as np
import scipy.optimize

LAYERS = ("cli", "expr", "homeomorphism", "function_space", "operators",
          "solver", "certificates")

SETUP = -1  # pass key of the traced set-up


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self, api):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self.op_id = -1
        self.counts: collections.Counter[str] = collections.Counter()
        self._phis: list[tuple] = []
        self._patches = self._plan(api)

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, size=None):
        """``fn`` wrapped to record a span per call; ``size(args, out)``
        gives the work size stored with the span."""
        nid = self._id(name)
        names, parents, ops, starts, ends, sizes = (
            self.name, self.parent, self.op, self.start, self.end, self.size)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            sizes.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if size is not None:
                sizes[i] = size(args, out)
            return out

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take_counts(self) -> dict[str, int]:
        out = dict(self.counts)
        self.counts.clear()
        return out

    # ------------------------------------------------------------- patching

    def _plan(self, api) -> list[tuple]:
        """(owner, attribute, original, replacement) for every traced name."""
        expr, fs, ops, solver, certs, cli = (
            api.expr, api.function_space, api.operators, api.solver,
            api.certificates, api.cli)
        plain = self.span("expr.eval_many", expr.eval_many,
                          size=lambda a, out: out.size)
        strict_or_lenient = {
            False: plain,
            True: self.span("expr.eval_many.lenient", expr.eval_many,
                            size=lambda a, out: out.size),
        }

        def eval_many(e, t, u, v, lenient=False):
            return (strict_or_lenient[lenient])(e, t, u, v, lenient=lenient)

        parse = self.span("expr.parse_expr", expr.parse_expr)
        q_phi = self.span("operators.q_phi", ops.q_phi,
                          size=lambda a, out: out.iterations)
        integral = self.counted("function_space.integral.calls", fs.integral)
        grid_fn = fs.GridFunction
        homeo = api.homeomorphism.Homeomorphism
        build = self.span("homeomorphism.build", homeo.__post_init__)

        def build_and_adopt(phi):
            build(phi)
            self._adopt(phi)

        patches = [(m, "eval_many", eval_many)
                   for m in (solver, ops, certs, cli)]
        patches += [
            (expr, "parse_expr", parse), (cli, "parse_expr", parse),
            (solver, "apply_fixed_point_map",
             self.span("operators.map", solver.apply_fixed_point_map)),
            (ops, "q_phi", q_phi), (cli, "q_phi", q_phi),
            (certs, "planar_map",
             self.span("certificates.planar_map", certs.planar_map)),
            (scipy.optimize, "newton_krylov",
             self.span("solver.newton", scipy.optimize.newton_krylov)),
            (scipy.optimize, "brentq",
             self.span("solver.brentq", scipy.optimize.brentq)),
            (grid_fn, "__post_init__",
             self.span("function_space.gridfunction", grid_fn.__post_init__)),
            (fs, "integral", integral), (ops, "integral", integral),
            (certs, "integral", integral),
            (homeo, "__post_init__", build_and_adopt),
            # entry points the CLI reaches through its own namespace
            (cli, "solve", self.span("solver.solve", cli.solve)),
            (cli, "check_growth",
             self.span("certificates.growth", cli.check_growth)),
            (cli, "check_signs",
             self.span("certificates.signs", cli.check_signs)),
            (cli, "brouwer_degree",
             self.span("certificates.winding", cli.brouwer_degree)),
        ]
        return [(owner, attr, getattr(owner, attr), new)
                for owner, attr, new in patches]

    def _adopt(self, phi) -> None:
        """Give a Homeomorphism timed forward/inverse callables.

        The frozen instance is updated in place rather than rebuilt with
        ``dataclasses.replace``, which would run the 1000-probe validation a
        second time and inflate ``homeomorphism.build``.
        """
        samples = lambda a, out: int(np.size(a[0]))
        raw = (phi.forward, phi.inverse)
        timed = (self.span("homeomorphism.forward", raw[0], size=samples),
                 self.span("homeomorphism.inverse", raw[1], size=samples))
        self._phis.append((phi, raw, timed))
        object.__setattr__(phi, "forward", timed[0])
        object.__setattr__(phi, "inverse", timed[1])

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        for phi, _, timed in self._phis:
            object.__setattr__(phi, "forward", timed[0])
            object.__setattr__(phi, "inverse", timed[1])

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)
        for phi, raw, _ in self._phis:
            object.__setattr__(phi, "forward", raw[0])
            object.__setattr__(phi, "inverse", raw[1])

    # -------------------------------------------------------------- output

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def write(self, path: Path, op_table: list[tuple[int, str]]) -> None:
        """Spans as .npz columns plus the name and operation tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.columns(),
                 names=np.array(json.dumps(self.names)),
                 ops=np.array(json.dumps(op_table)))


def _within(start: np.ndarray, end: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Mask of spans that start inside one of the ``roots`` spans.

    Spans are stored in start order and never overlap except by nesting
    (one thread), so a root's descendants are the contiguous run of spans
    that start before it ends.
    """
    mask = np.zeros(start.shape[0], dtype=bool)
    for i in roots:
        j = int(np.searchsorted(start, end[i], side="right"))
        mask[i + 1:j] = True
    return mask


def pass_metrics(tracer: Tracer, pass_of_op: np.ndarray,
                 key: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (or of the set-up, key SETUP)."""
    c = tracer.columns()
    n = c["name"].shape[0]
    dur = c["end"] - c["start"]
    child = np.zeros(n)
    has_parent = c["parent"] >= 0
    np.add.at(child, c["parent"][has_parent], dur[has_parent])
    self_t = dur - child
    in_pass = (pass_of_op[c["op"]] == key) if n else np.zeros(0, dtype=bool)

    def sel(*names: str) -> np.ndarray:
        ids = [tracer.ids[x] for x in names if x in tracer.ids]
        return in_pass & np.isin(c["name"], ids)

    def calls(*names):
        return int(sel(*names).sum())

    def self_s(*names):
        return float(self_t[sel(*names)].sum())

    def samples(*names, mask=None):
        m = sel(*names) if mask is None else sel(*names) & mask
        return int(c["size"][m].sum())

    def roots(name):
        return np.flatnonzero(sel(name))

    in_newton = _within(c["start"], c["end"], roots("solver.newton"))
    in_growth = _within(c["start"], c["end"], roots("certificates.growth"))
    in_winding = _within(c["start"], c["end"], roots("certificates.winding"))
    maps = sel("operators.map")
    em = ("expr.eval_many", "expr.eval_many.lenient")
    out = {
        "solver.picard.map_calls": int((maps & ~in_newton).sum()),
        "solver.newton.handoffs": calls("solver.newton"),
        "solver.newton.residual_evals": int((maps & in_newton).sum()),
        "solver.newton.self_s": self_s("solver.newton"),
        "solver.oracle.self_s": self_s("solver.oracle", "solver.brentq"),
        "solver.oracle.brentq_calls": calls("solver.brentq"),
        "expr.eval_many.calls": calls(*em),
        "expr.eval_many.samples": samples(*em),
        "expr.eval_many.self_s": self_s(*em),
        "expr.eval_many.lenient_calls": calls("expr.eval_many.lenient"),
        "expr.parse_expr.self_s": self_s("expr.parse_expr"),
        "operators.map.self_s": self_s("operators.map"),
        "operators.q_phi.calls": calls("operators.q_phi"),
        "operators.q_phi.bisect_iters": samples("operators.q_phi"),
        "operators.q_phi.self_s": self_s("operators.q_phi"),
        "operators.q_phi.total_s": float(dur[sel("operators.q_phi")].sum()),
        "homeomorphism.inverse.samples": samples("homeomorphism.inverse"),
        "homeomorphism.inverse.self_s": self_s("homeomorphism.inverse"),
        "homeomorphism.build.self_s": self_s("homeomorphism.build"),
        "function_space.gridfunction.count":
            calls("function_space.gridfunction"),
        "function_space.gridfunction.self_s":
            self_s("function_space.gridfunction"),
        "certificates.growth.samples": samples(*em, mask=in_growth),
        "certificates.growth.self_s": self_s("certificates.growth"),
        "certificates.signs.self_s": self_s("certificates.signs"),
        "certificates.winding.boundary_samples":
            int((sel("certificates.planar_map") & in_winding).sum()),
        "certificates.planar_map.calls": calls("certificates.planar_map"),
        "certificates.newton_sign_sum.self_s":
            self_s("certificates.newton_sign_sum"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for layer in LAYERS:
        ids = [i for i, x in enumerate(tracer.names)
               if x.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = float(
            self_t[in_pass & np.isin(c["name"], ids)].sum())
    top = in_pass & (c["parent"] < 0)
    out["_root_s"] = float(dur[top].sum())
    return out


def combine(setup: dict[str, float], passes: list[dict[str, float]],
            units: dict[str, str]) -> tuple[dict[str, float], list[str]]:
    """Set-up plus one pass: counts must repeat exactly across passes and
    are added as they are; times take the median pass.  Returns the values
    and the names of counts that differed between passes."""
    values, unsteady = {}, []
    for name in passes[0]:
        per_pass = [p[name] for p in passes]
        if units.get(name) == "count":
            if len(set(per_pass)) > 1:
                unsteady.append(name)
            values[name] = setup.get(name, 0) + per_pass[0]
        else:
            values[name] = setup.get(name, 0.0) + statistics.median(per_pass)
    return values, unsteady
