"""Per-op correctness checks, run after the timed pass.

Every reference here is independent of the code path under test: table
cells are compared with the printed values read straight from the golden
data file, matching sums with a hafnian written below over the public
``sigma2``, and the correction term with its closed forms (R = 0 when
the transform supports sum to at most 1, R = 1/5040 for four copies of
``naive:v=1/3``).  An op that raised, exited non-zero or left any check
unmet has failed.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from momentbounds.testfunc import from_spec_string, sigma2

# Relative tolerance of matching sums, recomputed bounds and scale
# invariance.  R enters a moment next to its matching sum, so R identities
# are held to REL times the matching sum.
REL = 1e-10
EXACT = 1e-12  # quantities the record derives from its own fields
NAIVE_THIRD = "naive:v=1/3"
R_4_NAIVE_THIRD = 1.0 / 5040.0  # R of four copies of NAIVE_THIRD


def hafnian(a: list[list[float]]) -> float:
    """Sum over perfect matchings of products of a[i][j], by a subset recursion."""
    n = len(a)
    memo = {0: 1.0}

    def rec(mask: int) -> float:
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        total = 0.0
        scan = rest
        while scan:
            j = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            total += a[i][j] * rec(rest & ~(1 << j))
        memo[mask] = total
        return total

    return rec((1 << n) - 1) if n % 2 == 0 else 0.0


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


class _Functions:
    """Test functions by spec, one object per slot, and sigma2 between them."""

    def __init__(self):
        self._tf = {}
        self._s2 = {}

    def get(self, spec: str):
        if spec not in self._tf:
            self._tf[spec] = from_spec_string(spec)
        return self._tf[spec]

    def sigma2(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        if key not in self._s2:
            self._s2[key] = sigma2(self.get(a), self.get(b))
        return self._s2[key]

    def gaussian_moment(self, specs: list[str]) -> float:
        if len(set(specs)) == 1:
            n = len(specs)
            return double_factorial(n - 1) * self.sigma2(specs[0], specs[0]) ** (n // 2)
        return hafnian([[self.sigma2(a, b) for b in specs] for a in specs])

    def support_sum(self, specs: list[str]) -> float:
        return sum(self.get(s).support_bound for s in specs)


def _options(argv: list[str]) -> dict:
    """Flag values of one command line; repeated flags collect into lists."""
    out: dict = {"command": argv[0]}
    i = 1
    while i < len(argv):
        if argv[i].startswith("--"):
            key = argv[i][2:].replace("-", "_")
            value = argv[i + 1]
            if key in ("testfn", "basis"):
                out.setdefault(key, []).append(value)
            else:
                out[key] = value
            i += 2
        else:
            out.setdefault("positional", []).append(argv[i])
            i += 1
    return out


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _reference_tables(src: Path) -> dict:
    return json.loads((src / "momentbounds" / "data" / "reference_tables.json").read_text())


def _print_tolerance(printed: str) -> float:
    """max(1e-4, 1.5 units in the last printed digit / value)."""
    value = abs(float(printed))
    digits = len(re.sub(r"[^0-9]", "", printed.lower().split("e")[0]).lstrip("0"))
    ulp = 10.0 ** (math.floor(math.log10(value)) - digits + 1)
    return max(1e-4, 1.5 * ulp / value)


def _check_table(opts, records, ctx, problems):
    table = opts["positional"][0]
    rows = ctx["tables"]["tables"][table]["rows"]
    expected = sum(len(cols) for cols in rows.values())
    if len(records) != expected:
        problems.append(f"{len(records)} cells, expected {expected}")
    for rec in records:
        printed = rows[str(rec["rank"])][rec["column"]]
        dev = abs(rec["computed"] - float(printed)) / abs(float(printed))
        if not dev <= _print_tolerance(printed):
            problems.append(f"{rec['column']} r={rec['rank']}: rel dev {dev:.3g} vs {printed}")


def _check_bound(opts, records, ctx, problems):
    fns: _Functions = ctx["fns"]
    ranks = [int(r) for r in (opts.get("ranks") or opts["rank"]).split(",")]
    if [rec["rank"] for rec in records] != ranks:
        problems.append(f"records for ranks {[rec['rank'] for rec in records]}, expected {ranks}")
        return
    method = opts.get("method", "moment4")
    specs = opts.get("testfn", [])
    family = opts["family"]
    for rec in records:
        r, ub = rec["rank"], rec["upper_bound"]
        if not (math.isfinite(ub) and ub >= 0):
            problems.append(f"r={r}: bound {ub!r} is not a non-negative number")
        if method == "level1":
            # naive v <= 1: E1 = phihat(0)/phi(0) + 1/2 in both split families
            v = fns.get(specs[0]).support_bound
            if v <= 1 and not _close(ub * r, 1.0 / v + 0.5, REL):
                problems.append(f"r={r}: level1 expectation {ub * r!r} != 1/v + 1/2")
        elif method == "level2":
            e2 = ub * rec["denominator"]
            first = records[0]["upper_bound"] * records[0]["denominator"]
            if not (e2 >= 0 and _close(e2, first, EXACT)):
                problems.append(f"r={r}: level2 expectation {e2!r} not constant across ranks")
        else:
            m = 2 if method == "moment4" else int(method.split(":")[1])
            slots = specs * m if len(specs) == 1 else specs
            margin2 = 1.0
            for spec in slots:
                tf = fns.get(spec)
                margin2 *= (r * tf.phi0 - (tf.phihat0 + 0.5 * tf.phi0)) ** 2
            moment = rec["moment_value"]
            if not _close(rec["denominator"], margin2, REL):
                problems.append(f"r={r}: denominator {rec['denominator']!r} != {margin2!r}")
            if not _close(ub, moment / rec["denominator"], EXACT):
                problems.append(f"r={r}: bound != moment / denominator")
            if not moment >= 0:
                problems.append(f"r={r}: negative moment {moment!r}")
            doubled = [s for s in slots for _ in range(2)]
            regime = opts.get("regime", "auto")
            if regime == "mock_gaussian" or fns.support_sum(doubled) <= 1.0:
                want = fns.gaussian_moment(doubled)
                if not _close(moment, want, REL):
                    problems.append(f"r={r}: moment {moment!r} != matching sum {want!r} (R = 0)")
            elif doubled == [NAIVE_THIRD] * 4:
                want = 1.0 / 3.0 + (1 if family == "so-even" else -1) * R_4_NAIVE_THIRD
                if not _close(moment, want, REL):
                    problems.append(f"r={r}: moment {moment!r} != 1/3 +- 1/5040")


def _check_moment(opts, records, ctx, problems):
    fns: _Functions = ctx["fns"]
    specs = opts["testfn"]
    (rec,) = records
    n = len(specs)
    if rec["n"] != n:
        problems.append(f"n={rec['n']}, expected {n}")
    if not _close(rec["value"], rec["matching_sum"] + rec["sign_applied"] * rec["r_term"], EXACT):
        problems.append("value != matching_sum + sign * r_term")
    if n % 2 == 0:
        if not rec["value"] >= 0:
            problems.append(f"negative even moment {rec['value']!r}")
        want = fns.gaussian_moment(specs)
        if not _close(rec["matching_sum"], want, REL):
            problems.append(f"matching sum {rec['matching_sum']!r} != hafnian {want!r}")
    if rec["regime"] == "with_R":
        if fns.support_sum(specs) <= 1.0:
            if not abs(rec["r_term"]) <= REL * abs(rec["matching_sum"]):
                problems.append(f"R = {rec['r_term']!r}, but the supports sum to <= 1")
        elif specs == [NAIVE_THIRD] * 4:
            if not abs(rec["r_term"] - R_4_NAIVE_THIRD) <= REL * abs(rec["matching_sum"]):
                problems.append(f"R = {rec['r_term']!r} != 1/5040")
    elif rec["r_term"] != 0.0:
        problems.append("mock_gaussian moment carries an R term")


def _check_optimize(opts, records, ctx, problems):
    fns: _Functions = ctx["fns"]
    result = records[-1]
    restarts = [rec for rec in records if rec.get("kind") == "restart"]
    if result.get("kind") != "result" or len(restarts) != int(opts["restarts"]):
        problems.append("expected one record per restart and a result record")
        return
    bound = result["bound"]
    if not (math.isfinite(bound) and bound > 0):
        problems.append(f"bound {bound!r} is not positive")
        return
    if bound > min(rec["final_value"] for rec in restarts):
        problems.append("reported bound exceeds a restart's final value")
    # Rebuild the slots from the reported coefficients and recompute the bound.
    slots = []
    for basis, coeffs in zip(opts["basis"], result["coefficients"]):
        if basis.startswith("fixed:"):
            slots.append(basis[6:])
        else:
            kind, half = basis.split(":")[0], basis.split("half=")[1].split(":")[0]
            slots.append(f"gen:{kind}:{','.join(repr(c) for c in coeffs)}:half={half}")
    r = int(opts["rank"])
    margin2 = 1.0
    for spec in slots:
        tf = fns.get(spec)
        margin2 *= (r * tf.phi0 - (tf.phihat0 + 0.5 * tf.phi0)) ** 2
    want = fns.gaussian_moment([s for s in slots for _ in range(2)]) / margin2
    if not _close(bound, want, REL):
        problems.append(f"bound {bound!r} != recomputed {want!r} at the reported coefficients")


def _check_rmt(opts, records, ctx, problems):
    fns: _Functions = ctx["fns"]
    spec = opts["testfn"][0]
    orders = [int(o) for o in opts["orders"].split(",")]
    if [rec["order"] for rec in records] != orders:
        problems.append("one record per order expected")
        return
    group = opts["group"]
    s2 = fns.sigma2(spec, spec)
    support = fns.get(spec).support_bound
    for rec in records:
        k = rec["order"]
        if not rec["passed"]:
            problems.append(f"order {k}: empirical {rec['empirical']!r} outside the band "
                            f"around {rec['predicted']!r}")
        if rec["samples"] != int(opts["samples"]):
            problems.append(f"order {k}: {rec['samples']} samples recorded")
        if group == "u" or k * support <= 1.0:
            variance = s2 / 2 if group == "u" else s2
            want = double_factorial(k - 1) * variance ** (k // 2) if k % 2 == 0 else 0.0
            if not (abs(rec["predicted"] - want) <= REL * max(abs(want), variance ** (k / 2))):
                problems.append(f"order {k}: predicted {rec['predicted']!r} != {want!r}")
        elif k == 4 and spec == NAIVE_THIRD:
            want = 1.0 / 3.0 + (1 if group == "so-even" else -1) * R_4_NAIVE_THIRD
            if not _close(rec["predicted"], want, REL):
                problems.append(f"order 4: predicted {rec['predicted']!r} != 1/3 +- 1/5040")


_CHECKS = {
    "table": _check_table,
    "bound": _check_bound,
    "moment": _check_moment,
    "optimize": _check_optimize,
    "rmt-verify": _check_rmt,
}


def check_ops(ops: list[dict], outputs: list[dict], src: Path) -> list[list[str]]:
    """Problems found in each op's output; an empty list means the op passed."""
    ctx = {"fns": _Functions(), "tables": _reference_tables(src)}
    found = []
    parsed = {}
    for op, out in zip(ops, outputs):
        problems: list[str] = []
        try:
            if out["rc"] != 0:
                problems.append(f"exit code {out['rc']}: {out['stderr'].strip()[-300:]}")
            else:
                records = _records(out["stdout"])
                parsed[op["label"]] = records
                opts = _options(op["argv"])
                _CHECKS[opts["command"]](opts, records, ctx, problems)
        except Exception as exc:  # noqa: BLE001 - a malformed record is a failed op
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        found.append(problems)
    # Scale invariance: a bound must not move when g -> c g.
    for op, problems in zip(ops, found):
        ref = op.get("scale_ref")
        if ref is None or op["label"] not in parsed or ref not in parsed:
            continue
        for rec, base in zip(parsed[op["label"]], parsed[ref]):
            if not _close(rec["upper_bound"], base["upper_bound"], REL):
                problems.append(
                    f"r={rec['rank']}: bound {rec['upper_bound']!r} differs from "
                    f"{base['upper_bound']!r} at amplitude 1"
                )
    return found
