"""Harness-side correctness gate: every certificate of a workload is
evaluated here, so an exception counts as a failed certificate instead of
aborting the run, and each record keeps its defect and its margin against
the threshold."""

import math
import re
import traceback

SLUG_MAX = 64


def slug(name):
    """Metric name of a certificate: `defect.` plus its lower-case words."""
    words = re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")
    return ("defect." + words)[:SLUG_MAX]


def margin(value, threshold, compare):
    """defect/threshold for `<=` checks, threshold/value for `>=` checks."""
    if compare == "le":
        return value / threshold
    return threshold / value if value > 0 else math.inf


class Gate:
    """Ordered certificate records of one run.

    compare is "le" (defect must not exceed the threshold), "ge" (value must
    reach it), "exact" (a yes/no identity checked in exact arithmetic) or
    "record" (a defect recorded without a threshold; it fails only by
    raising).
    """

    def __init__(self):
        self.records = []
        self.problems = []   # harness-level mismatches, such as a pass vector

    def add(self, name, value, threshold, passed, compare, error=None):
        self.records.append({
            "name": name, "value": value, "threshold": threshold,
            "compare": compare, "passed": bool(passed), "error": error,
            "margin": (margin(value, threshold, compare)
                       if compare in ("le", "ge") and error is None else None),
        })

    def fail(self, name, compare, exc, threshold=None):
        err = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.add(name, math.nan, threshold, False, compare, error=err)

    def check(self, name, fn, threshold, compare="le"):
        """Evaluate a thresholded certificate; returns its value or None."""
        try:
            value = float(fn())
        except Exception as exc:  # a raising certificate is a failed one
            self.fail(name, compare, exc, threshold)
            return None
        passed = value <= threshold if compare == "le" else value >= threshold
        self.add(name, value, threshold, passed, compare)
        return value

    def exact(self, name, fn):
        """Evaluate an exact yes/no certificate (defect 0 when it holds)."""
        try:
            ok = bool(fn())
        except Exception as exc:
            self.fail(name, "exact", exc)
            return False
        self.add(name, 0.0 if ok else 1.0, None, ok, "exact")
        return ok

    def record(self, name, fn):
        """Record a defect that has no threshold."""
        try:
            value = float(fn())
        except Exception as exc:
            self.fail(name, "record", exc)
            return None
        self.add(name, value, None, True, "record")
        return value

    def produce(self, fn, dependents):
        """Compute an input shared by several certificates; when it raises,
        every (name, compare) in `dependents` is recorded as failed."""
        try:
            return fn()
        except Exception as exc:
            for name, compare in dependents:
                self.fail(name, compare, exc)
            return None

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r["passed"])

    def worst_margin(self):
        margins = [r["margin"] for r in self.records if r["margin"] is not None]
        return max(margins) if margins else 0.0

    def defects(self):
        """Worst value per certificate slug: the largest defect, or the
        smallest value of a `>=` check."""
        out = {}
        for r in self.records:
            if r["error"] is not None:
                continue
            key = slug(r["name"])
            pick = min if r["compare"] == "ge" else max
            out[key] = pick(out[key], r["value"]) if key in out else r["value"]
        return out
