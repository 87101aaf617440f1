"""Span recorder that traces multistat from outside the package.

For the duration of a ``with Tracer(...)`` block, selected public functions
are replaced on their modules (and two methods on ``DeformedSystem``) by
wrappers that record one span per call: name, start, end, parent span and
operation id.  The package calls these functions through module attributes,
so calls between its own modules pass through the wrappers as well.  The
originals are restored when the block exits.

Spans stay in memory; :func:`layer_metrics` derives counts and self times
(a span's duration minus the time covered by its child spans).
"""

import gzip
import json
import sys
import time

from multistat import cayley, decoration, messi, points, ratlin, witness


def _feasible(args, kwargs, result):
    return result is not None


def _decoration_info(args, kwargs, result):
    best = result.best
    return (len(result.decorated), len(result.families),
            len(best.simplices) if best is not None else 0)


def _mixed_simplices(args, kwargs, result):
    first_only = kwargs.get("first_only", args[1] if len(args) > 1 else False)
    return 0 if first_only else len(result)


def _schedule_info(args, kwargs, result):
    return (len(result.log), len(result.roots))


def _unresolved(args, kwargs, result):
    return len(result[1])


# (owner, attribute, span name, function deriving span info from the result)
TARGETS = [
    (messi, "steady_state_parametrization", "messi.parametrize", None),
    (messi, "assemble_region_system", "messi.assemble", None),
    (messi, "rescale_back", "messi.rescale", None),
    (points, "enumerate_simplices", "points.enumerate_simplices", None),
    (points, "cone_normals", "points.cone_normals", None),
    (points, "joint_cone", "points.joint_cone", None),
    (ratlin, "strict_feasible", "ratlin.lp_exact", _feasible),
    (ratlin, "strict_feasible_fast", "ratlin.lp_float", _feasible),
    (decoration, "find_decorated", "decoration.find", _decoration_info),
    (cayley, "enumerate_mixed_simplices", "cayley.enumerate", _mixed_simplices),
    (witness, "witness_search", "witness.search", _schedule_info),
    (witness, "count_positive_roots", "witness.count_roots", None),
    (witness, "newton_solve", "witness.newton", _feasible),
    (witness, "mixed_decoration", "witness.mixed_decoration", None),
    (witness, "mixed_witness_search", "witness.mixed_search", _schedule_info),
    (witness, "validate_root_set", "witness.exclusion", _unresolved),
    (witness.DeformedSystem, "residual_jacobian", "witness.jacobian", None),
    (witness.DeformedSystem, "residual", "witness.residual", None),
]

# span record layout: [name, start, end, parent index, op id, info, error]
NAME, START, END, PARENT, OP, INFO, ERROR = range(7)


class Tracer:
    """Records spans while active; ``op`` marks the root span of one
    benchmark operation so that every span carries its operation id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._saved = []
        self._targets = []
        for target in TARGETS:
            if target[1] in target[0].__dict__:
                self._targets.append(target)
            else:
                # a function the package no longer has: its metrics read 0
                print("# not traced: %s.%s" % (target[0].__name__, target[1]),
                      file=sys.stderr)

    def __enter__(self):
        for owner, attr, name, info in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, info):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, None, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[END] = clock()
                rec[ERROR] = type(e).__name__
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return traced

    def op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as the root span of operation ``op_id``."""
        self._op = op_id
        rec = ["op", 0.0, 0.0, None, op_id, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args)
        except BaseException as e:
            rec[ERROR] = type(e).__name__
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def write(self, path, ops):
        """Write the spans of the given operation ids as gzipped JSONL."""
        ops = set(ops)
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                if s[OP] in ops:
                    fh.write(json.dumps({
                        "id": i, "name": s[NAME], "start": s[START],
                        "end": s[END], "parent": s[PARENT], "op": s[OP],
                        "info": s[INFO], "error": s[ERROR],
                    }) + "\n")


def layer_metrics(spans, ops):
    """Per-layer counts and self times over the spans of operations ``ops``."""
    ops = set(ops)
    child_time = {}
    for s in spans:
        if s[OP] in ops and s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
    calls = {}
    self_s = {}
    m = {
        "ratlin.lp_feasible": 0,
        "decoration.decorated": 0, "decoration.families": 0,
        "decoration.best_size": 0, "cayley.mixed_simplices": 0,
        "witness.newton_ok": 0, "witness.newton_s": 0.0,
        "witness.schedule_steps": 0, "witness.roots_certified": 0,
        "witness.unresolved_boxes": 0,
    }
    for i, s in enumerate(spans):
        if s[OP] not in ops:
            continue
        name = s[NAME]
        dur = s[END] - s[START]
        if name == "ratlin.lp_exact" and spans[s[PARENT]][NAME] == "ratlin.lp_float":
            # an exact LP run by a float LP is that float LP's fallback
            name = "ratlin.lp_fallback"
        elif name in ("ratlin.lp_exact", "ratlin.lp_float"):
            m["ratlin.lp_feasible"] += bool(s[INFO])
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(i, 0.0)
        info = s[INFO]
        if name == "decoration.find" and info is not None:
            m["decoration.decorated"] += info[0]
            m["decoration.families"] += info[1]
            m["decoration.best_size"] += info[2]
        elif name == "cayley.enumerate":
            m["cayley.mixed_simplices"] += info or 0
        elif name == "witness.newton":
            m["witness.newton_ok"] += bool(info)
            # Newton's time includes the system evaluations it drives
            m["witness.newton_s"] += dur
        elif name in ("witness.search", "witness.mixed_search") and info is not None:
            m["witness.schedule_steps"] += info[0]
            m["witness.roots_certified"] += info[1]
        elif name == "witness.exclusion" and info is not None:
            m["witness.unresolved_boxes"] += info
    lp_calls = calls.get("ratlin.lp_exact", 0) + calls.get("ratlin.lp_float", 0)
    lp_feasible = m.pop("ratlin.lp_feasible")
    newton = calls.get("witness.newton", 0)
    m.update({
        "ratlin.lp_exact_calls": calls.get("ratlin.lp_exact", 0),
        "ratlin.lp_exact_s": self_s.get("ratlin.lp_exact", 0.0),
        "ratlin.lp_float_calls": calls.get("ratlin.lp_float", 0),
        "ratlin.lp_float_s": self_s.get("ratlin.lp_float", 0.0) + self_s.get("ratlin.lp_fallback", 0.0),
        "ratlin.lp_fallback_calls": calls.get("ratlin.lp_fallback", 0),
        "ratlin.lp_feasible_frac": lp_feasible / lp_calls if lp_calls else 0.0,
        "points.enumerate_simplices_s": self_s.get("points.enumerate_simplices", 0.0),
        "points.joint_cone_calls": calls.get("points.joint_cone", 0),
        "points.joint_cone_s": self_s.get("points.joint_cone", 0.0),
        "points.cone_normals_calls": calls.get("points.cone_normals", 0),
        "points.cone_normals_s": self_s.get("points.cone_normals", 0.0),
        "decoration.find_self_s": self_s.get("decoration.find", 0.0),
        "cayley.enumerate_s": self_s.get("cayley.enumerate", 0.0),
        "witness.mixed_decoration_self_s": self_s.get("witness.mixed_decoration", 0.0),
        "witness.newton_calls": newton,
        "witness.newton_yield": m["witness.newton_ok"] / newton if newton else 0.0,
        "witness.jacobian_evals": calls.get("witness.jacobian", 0),
        "witness.residual_evals": calls.get("witness.residual", 0),
        "witness.eval_s": self_s.get("witness.jacobian", 0.0) + self_s.get("witness.residual", 0.0),
        "witness.search_self_s": self_s.get("witness.search", 0.0) + self_s.get("witness.count_roots", 0.0),
        "witness.mixed_search_self_s": self_s.get("witness.mixed_search", 0.0),
        "witness.exclusion_s": self_s.get("witness.exclusion", 0.0),
        "messi.parametrize_calls": calls.get("messi.parametrize", 0),
        "messi.parametrize_s": self_s.get("messi.parametrize", 0.0),
        "messi.assemble_calls": calls.get("messi.assemble", 0),
        "messi.assemble_s": self_s.get("messi.assemble", 0.0),
        "messi.rescale_calls": calls.get("messi.rescale", 0),
        "messi.rescale_s": self_s.get("messi.rescale", 0.0),
        "op.other_s": self_s.get("op", 0.0),
        "trace.wall_s": sum(s[END] - s[START] for s in spans if s[OP] in ops and s[NAME] == "op"),
        "trace.spans": sum(1 for s in spans if s[OP] in ops),
    })
    return m


def unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", "_yield")):
        return "frac"
    return "count"
