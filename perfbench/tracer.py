"""Outside-in tracer for ar1lab: spans around public functions, no edits in src.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the wrapper
everywhere the original is bound in a loaded ``ar1lab`` module (a function
imported by name into three modules is rebound in all three), and wraps each
entry of ``identities.ALL_CHECKS`` in a span named after its check.  Spans
live in memory as ``[name, start, end, parent, attrs]`` lists, ``parent``
being the index of the enclosing span of the same thread or -1.  Counts read
from arguments and returned values go into ``attrs``; they are computed after
the command finished, so reading them costs no span any time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time


def _frac_bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _pushforward_attrs(bound, result) -> dict:
    pieces = result.pieces
    return {
        "pieces": len(pieces),
        "degree": max(p.degree for p in pieces),
        "coeff_bits": max((_frac_bits(c) for p in pieces for c in p.coeffs), default=0),
    }


def _scalar_attrs(bound, result) -> dict:
    return {"index": bound.arguments["n"], "bits": _frac_bits(result)}


def _table_attrs(bound, result) -> dict:
    return {"theta": str(result.theta)}


def _estimate_attrs(bound, result) -> dict:
    args = bound.arguments
    return {"path_steps": args["trials"] * args["n"], "workers": args.get("workers", 1)}


def _volume_attrs(bound, result) -> dict:
    return {"points": bound.arguments["trials"]}


# span name -> (module, attribute path, attrs reader or None)
TARGETS = {
    "cli.main": ("ar1lab.cli", "main", None),
    "exact.piecewise_pushforward": ("ar1lab.exact.piecewise", "piecewise_pushforward", _pushforward_attrs),
    "exact.mass": ("ar1lab.exact.piecewise", "PiecewisePoly.mass", None),
    "persistence.oracle_masses": ("ar1lab.persistence", "oracle_masses", None),
    "persistence.persistence_closed_form": ("ar1lab.persistence", "persistence_closed_form", None),
    "persistence.classify": ("ar1lab.persistence", "classify", None),
    "families.scalar_families": ("ar1lab.families", "scalar_families", _table_attrs),
    "families.scalar.j": ("ar1lab.families", "ScalarFamilies.j", _scalar_attrs),
    "families.scalar.j_tilde": ("ar1lab.families", "ScalarFamilies.j_tilde", _scalar_attrs),
    "families.scalar.j_hat": ("ar1lab.families", "ScalarFamilies.j_hat", _scalar_attrs),
    "families.poly.mallows_riordan": ("ar1lab.families", "mallows_riordan", None),
    "families.poly.j_tilde": ("ar1lab.families", "j_tilde", None),
    "families.poly.j_hat": ("ar1lab.families", "j_hat", None),
    "families.poly.c_polynomial": ("ar1lab.families", "c_polynomial", None),
    "families.poly.tutte_complete": ("ar1lab.families", "tutte_complete", None),
    "families.poly.nested_volume": ("ar1lab.families", "nested_volume", None),
    "families.poly.boundary_derivatives": ("ar1lab.families", "boundary_derivatives", None),
    "asymptotics.deformed_exp": ("ar1lab.asymptotics", "deformed_exp", None),
    "asymptotics.first_negative_root": ("ar1lab.asymptotics", "first_negative_root", None),
    "asymptotics.positive_roots": ("ar1lab.asymptotics", "positive_roots", None),
    "asymptotics.ell_mp": ("ar1lab.asymptotics", "ell_mp", None),
    "asymptotics.ell_with_tail": ("ar1lab.asymptotics", "ell_with_tail", None),
    "asymptotics.rate_bundle": ("ar1lab.asymptotics", "rate_bundle", None),
    "montecarlo.estimate_persistence": ("ar1lab.montecarlo", "estimate_persistence", _estimate_attrs),
    "montecarlo.exact_persistence_target": ("ar1lab.montecarlo", "exact_persistence_target", None),
    "montecarlo.polytope_volume_mc": ("ar1lab.montecarlo", "polytope_volume_mc", _volume_attrs),
}


class Tracer:
    """Records spans of the wrapped ar1lab functions in this process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._pending: list[tuple] = []  # (span index, reader, signature, args, kwargs, result)

    def _wrap(self, name: str, fn, reader):
        spans, local, pending = self.spans, self._local, self._pending
        sig = inspect.signature(fn) if reader is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if reader is not None:
                pending.append((index, reader, sig, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it in every loaded ar1lab module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ar1lab" or n.startswith("ar1lab.")]
        for name, (module, path, reader) in TARGETS.items():
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, reader)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        checks = sys.modules["ar1lab.identities"].ALL_CHECKS
        checks[:] = [(check, self._wrap(f"identities.check.{check}", run, None)) for check, run in checks]

    def finish(self) -> None:
        """Read the counts from the arguments and results the spans kept."""
        for index, reader, sig, args, kwargs, result in self._pending:
            self.spans[index][4] = reader(sig.bind(*args, **kwargs), result)
        self._pending.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


CHECK_NAMES = (
    "printed-tables", "specializations", "route-agreement", "gessel-ratio", "kreweras-recurrence",
    "zigzag-alternation", "family-structure", "nested-volume", "tutte-diagonal", "oracle-vs-closed-form",
    "fibonacci-window", "sparre-andersen", "duality-alternating", "duality-positive", "phase-transition",
    "hitting-law", "asymmetric-uniform", "coefficient-stability", "monotonicity", "super-sub-additivity",
    "log-convexity", "bounded-mass",
)
LAYERS = ("exact", "persistence", "families", "asymptotics", "montecarlo", "identities")
SCALAR = ("families.scalar.j", "families.scalar.j_tilde", "families.scalar.j_hat")
POLY = tuple(name for name in TARGETS if name.startswith("families.poly."))
ROOT_SCAN = ("asymptotics.first_negative_root", "asymptotics.positive_roots")


class _Command:
    """The spans of one command, with the queries the layer metrics need."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self_s = self_times(spans)

    def select(self, names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def busy(self, names) -> float:
        """Time inside spans of ``names``, counting nested ones of the group once."""
        covered = [False] * len(self.spans)  # the span or one of its ancestors is in the group
        total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            above = parent >= 0 and covered[parent]
            covered[i] = above or name in names
            if name in names and not above:
                total += end - start
        return total

    def attrs(self, names) -> list[dict]:
        return [self.spans[i][4] for i in self.select(names)]

    def last_steps(self) -> float:
        """Per oracle chain, the duration of its last pushforward step."""
        last = {}
        for name, start, end, parent, _ in self.spans:
            if name == "exact.piecewise_pushforward" and parent >= 0 and self.spans[parent][0] == "persistence.oracle_masses":
                last[parent] = end - start
        return sum(last.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(commands: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload, from each command's spans."""
    cmds = [_Command(spans) for spans in commands]

    def calls(*names):
        return sum(len(c.select(names)) for c in cmds)

    def busy(*names):
        return sum(c.busy(names) for c in cmds)

    def attrs(*names):
        return [a for c in cmds for a in c.attrs(names)]

    def self_s(prefix):
        return sum(t for c in cmds for s, t in zip(c.spans, c.self_s) if s[0].startswith(prefix))

    push = attrs("exact.piecewise_pushforward")
    scalar = attrs(*SCALAR)
    estimates = attrs("montecarlo.estimate_persistence")
    m = {
        "exact.pushforward_calls": calls("exact.piecewise_pushforward"),
        "exact.pushforward_s": busy("exact.piecewise_pushforward"),
        "exact.pieces_out_total": sum(a["pieces"] for a in push),
        "exact.pieces_max": max((a["pieces"] for a in push), default=0),
        "exact.degree_max": max((a["degree"] for a in push), default=0),
        "exact.coeff_bits_max": max((a["coeff_bits"] for a in push), default=0),
        "exact.last_step_s": sum(c.last_steps() for c in cmds),
        "exact.mass_calls": calls("exact.mass"),
        "exact.mass_s": busy("exact.mass"),
        "persistence.oracle_chain_calls": calls("persistence.oracle_masses"),
        "persistence.oracle_chain_s": busy("persistence.oracle_masses"),
        "persistence.closed_form_calls": calls("persistence.persistence_closed_form"),
        "persistence.closed_form_s": busy("persistence.persistence_closed_form"),
        "persistence.classify_calls": calls("persistence.classify"),
        "persistence.classify_s": busy("persistence.classify"),
        "families.scalar_calls": calls(*SCALAR),
        "families.scalar_s": busy(*SCALAR),
        "families.scalar_max_index": max((a["index"] for a in scalar), default=0),
        "families.scalar_max_bits": max((a["bits"] for a in scalar), default=0),
        # the tables are cached per process, and each command is a fresh process
        "families.scalar_tables": sum(len({a["theta"] for a in c.attrs(("families.scalar_families",))}) for c in cmds),
        "families.poly_calls": calls(*POLY),
        "families.poly_s": busy(*POLY),
        "asymptotics.deformed_exp_calls": calls("asymptotics.deformed_exp"),
        "asymptotics.deformed_exp_s": busy("asymptotics.deformed_exp"),
        "asymptotics.root_scan_calls": calls(*ROOT_SCAN),
        "asymptotics.root_scan_s": busy(*ROOT_SCAN),
        "asymptotics.ell_mp_s": busy("asymptotics.ell_mp"),
        "asymptotics.ell_with_tail_s": busy("asymptotics.ell_with_tail"),
        "asymptotics.rate_bundle_s": busy("asymptotics.rate_bundle"),
        "montecarlo.estimate_calls": calls("montecarlo.estimate_persistence"),
        "montecarlo.estimate_s": busy("montecarlo.estimate_persistence"),
        "montecarlo.path_steps_per_s": _ratio(
            sum(a["path_steps"] for a in estimates), busy("montecarlo.estimate_persistence")
        ),
        "montecarlo.target_s": busy("montecarlo.exact_persistence_target"),
        "montecarlo.volume_points_per_s": _ratio(
            sum(a["points"] for a in attrs("montecarlo.polytope_volume_mc")), busy("montecarlo.polytope_volume_mc")
        ),
        "montecarlo.scaling_w2": _scaling_w2(cmds),
        "cli.self_s": self_s("cli."),
    }
    m["exact.pushforward_s_per_piece"] = _ratio(m["exact.pushforward_s"], m["exact.pieces_out_total"])
    for check in CHECK_NAMES:
        m[f"identities.check.{check}_s"] = busy(f"identities.check.{check}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(layer + ".")
    return m


def _scaling_w2(cmds: list[_Command]) -> float:
    """Estimate time at 1 worker over that at 2, on commands of equal path-steps."""
    by_workers: dict[tuple[int, int], float] = {}
    for c in cmds:
        for i in c.select(("montecarlo.estimate_persistence",)):
            name, start, end, _, a = c.spans[i]
            key = (a["path_steps"], a["workers"])
            by_workers[key] = by_workers.get(key, 0.0) + end - start
    steps = {p for p, w in by_workers if w == 2 and (p, 1) in by_workers}
    return _ratio(sum(by_workers[(p, 1)] for p in steps), sum(by_workers[(p, 2)] for p in steps))


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s_per_piece"):
        return "s/piece"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("coeff_bits_max", "scalar_max_bits")):
        return "bit"
    if name.endswith("scaling_w2"):
        return "1"
    return "count"
