"""Pinned reference outputs and the checker behind ``fail_ratio``.

An output is split into its floating-point tokens and the rest (the
"skeleton": text, integers, exact ``num/den`` rationals, Monte Carlo success
counts).  The skeleton must match the reference exactly; floats must match
within ``RTOL`` or ``ATOL``.  ``RTOL`` is far below one count in 10^6 trials,
so a Monte Carlo estimate or volume that moved by one hit fails; ``ATOL``
admits the rounding-level residuals (about 1e-17) of the root polish.
Long skeletons are stored as a SHA-256 digest so ``refs.json`` stays small.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

RTOL = 1e-9
ATOL = 1e-12
SKELETON_INLINE_MAX = 2000
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

FLOAT = re.compile(r"(?<![\w./])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan)(?![\w./])")


def split(text: str) -> tuple[str, list[float]]:
    """The output with each float replaced by ``#``, and the floats in order."""
    return FLOAT.sub("#", text), [float(m.group(0)) for m in FLOAT.finditer(text)]


def _digest(skeleton: str) -> str:
    return hashlib.sha256(skeleton.encode()).hexdigest()


def make_reference(text: str) -> dict:
    skeleton, floats = split(text)
    ref = {"floats": floats}
    if len(skeleton) <= SKELETON_INLINE_MAX:
        ref["skeleton"] = skeleton
    else:
        ref["skeleton_sha256"] = _digest(skeleton)
    return ref


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def compare(ref: dict, text: str) -> str | None:
    """None when ``text`` matches the reference, else what differs."""
    skeleton, floats = split(text)
    if "skeleton" in ref:
        if skeleton != ref["skeleton"]:
            got, want = skeleton.splitlines(), ref["skeleton"].splitlines()
            for i, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    return f"exact text differs on line {i + 1}: {g[:120]!r} != {w[:120]!r}"
            return f"exact text has {len(got)} lines, reference {len(want)}"
    elif _digest(skeleton) != ref["skeleton_sha256"]:
        return "exact text differs from the pinned digest"
    if len(floats) != len(ref["floats"]):
        return f"{len(floats)} floats, reference {len(ref['floats'])}"
    for i, (got, want) in enumerate(zip(floats, ref["floats"])):
        if not _same_float(got, want):
            return f"float #{i} is {got!r}, reference {want!r}"
    return None


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)
