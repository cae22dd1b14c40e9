"""Independent re-computation of every answer the benchmark asks spherectl for.

Nothing here imports spherectl.  The expected values come from integers and
fractions.Fraction alone, from closed forms rather than from the program's
algorithms:

  * mu(k) = (k^2 - 1)/224 mod 1 for |n| = 1 (negated for the reversed
    orientation), folded to min(q, -q) when orientation is ignored;
  * p1^2[W] = 4k^2/n, and p1^2[X] = 4(k0^2 - k1^2)/n for a glued pair;
  * census counts from residue counting: k and k + 112n always share a class,
    so each residue r mod 112n contributes floor arithmetic, never a walk
    over the window;
  * decider answers from a rule table (obstruction, complete invariant,
    sufficient congruence, Unknown).

Each check returns None when the output agrees and a one-line description of
the first disagreement otherwise.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction

CURVATURE = ["sec>=0", "Ric>0", "scal>0"]
DISTINCT = "DistinctComponents"
INCONCLUSIVE = "Inconclusive"


@contextmanager
def unlimited_int_digits():
    """Lift CPython's int<->str digit guard while the oracle formats big values.

    The program under test runs with the interpreter default; only the
    oracle's own conversions are exempted, and the old limit is restored.
    """
    getter = getattr(sys, "get_int_max_str_digits", None)
    if getter is None:  # Python 3.10 has no guard
        yield
        return
    old = getter()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def mod1(q: Fraction) -> Fraction:
    return q - (q.numerator // q.denominator)


def mu(k: int, sign: int = 1) -> Fraction:
    return mod1(Fraction(sign * (k * k - 1), 224))


def fold(q: Fraction) -> Fraction:
    return min(q, mod1(-q))


def p1sq_x(n: int, k0: int, k1: int) -> Fraction:
    return Fraction(4 * (k0 * k0 - k1 * k1), n)


# -- deciders -------------------------------------------------------------

def homeomorphic(n1: int, k1: int, n2: int, k2: int) -> tuple[str, str]:
    a1, a2 = abs(n1), abs(n2)
    if a1 != a2:
        return "No", "CohomologyObstruction"
    if a1 == 1:
        return "Yes", "TopologicalSphere"
    if (k1 - k2) % (2 * a1) == 0:
        return "Yes", "CongruenceMod2n"
    return "Unknown", "OutsideKnownCriteria"


def oriented(n1: int, k1: int, n2: int, k2: int) -> tuple[str, str]:
    a1, a2 = abs(n1), abs(n2)
    if a1 != a2:
        return "No", "CohomologyObstruction"
    if a1 == 1:
        # mu(k1) == mu(k2) in Q/Z exactly when 224 divides k1^2 - k2^2
        if (k1 * k1 - k2 * k2) % 224 == 0:
            return "Yes", "MuInvariantEqual"
        return "No", "MuInvariantDiffer"
    if n1 == n2 and (k1 - k2) % (112 * a1) == 0:
        return "Yes", "CongruenceMod112n"
    return "Unknown", "OutsideKnownCriteria"


def unoriented(n1: int, k1: int, n2: int, k2: int) -> tuple[str, str]:
    a1, a2 = abs(n1), abs(n2)
    if a1 != a2:
        return "No", "CohomologyObstruction"
    if a1 == 1:
        if fold(mu(k1)) == fold(mu(k2)):
            return "Yes", "MuInvariantEqual"
        return "No", "MuInvariantDiffer"
    if (k1 - k2) % (112 * a1) == 0:
        return "Yes", "CongruenceMod112n"
    return "Unknown", "OutsideKnownCriteria"


DECIDERS = {"homeomorphic": homeomorphic, "oriented": oriented, "unoriented": unoriented}


# -- expected payloads ----------------------------------------------------

def dossier(n: int, k: int, sign: int) -> dict:
    m = abs(n)
    return {
        "euler": n,
        "k": k,
        "orientation": sign,
        "cohomology": ["Z", "0", "0", "0", "0" if m == 1 else f"Z/{m}Z", "0", "0", "Z"],
        "is_homotopy_sphere": m == 1,
        "sign_W": sign,
        "p1sq_W": frac_str(Fraction(sign * 4 * k * k, m)),
        "mu": frac_str(mu(k, sign)) if m == 1 else None,
    }


def family(n: int, k: int, count: int) -> list[dict]:
    return [{"euler": n, "k": k + 112 * n * j} for j in range(count)]


def theta7(a: int, b: int) -> dict:
    r = (a + b) % 28
    return {"value": r, "mu": frac_str(Fraction(r, 28))}


def census_classes(n: int, lo: int, hi: int, unoriented_: bool) -> list[tuple[int, int, str | None]]:
    """(representative, members_count, mu) per class, ordered by representative."""
    m = 112 * n
    groups: dict[object, list[int]] = {}  # key -> [representative, count]
    for r in range(n % 2, m, 2):
        first = lo + (r - lo) % m
        if first > hi:
            continue
        count = (hi - first) // m + 1
        if n == 1:
            q = mu(first)
            key: object = fold(q) if unoriented_ else q
        else:
            key = r
        g = groups.setdefault(key, [first, 0])
        g[0] = min(g[0], first)
        g[1] += count
    rows = []
    for key, (rep, count) in groups.items():
        rows.append((rep, count, frac_str(key) if n == 1 else None))
    rows.sort()
    return rows


def census(n: int, lo: int, hi: int, unoriented_: bool) -> dict:
    rows = census_classes(n, lo, hi, unoriented_)
    valid = sum(c for _, c, _ in rows)
    if n == 1:
        unknown = 0
    else:
        unknown = valid * (valid - 1) // 2 - sum(c * (c - 1) // 2 for _, c, _ in rows)
    return {
        "n": n,
        "range": [lo, hi],
        "unoriented": unoriented_,
        "skipped": (hi - lo + 1) - valid,
        "classes": [{"representative": r, "members_count": c, "mu": q} for r, c, q in rows],
        "unknown_pairs_count": unknown,
    }


def census_tsv(n: int, lo: int, hi: int, unoriented_: bool) -> str:
    lines = ["representative\tmembers_count\tmu"]
    for rep, count, q in census_classes(n, lo, hi, unoriented_):
        lines.append(f"{rep}\t{count}\t{q if q is not None else '-'}")
    return "\n".join(lines) + "\n"


# -- checks ---------------------------------------------------------------

def check_certificate(cert: dict, n: int, k0: int, k1: int, provenance: bool = False) -> str | None:
    """Check one separation certificate payload (scal>0 tag on)."""
    value = p1sq_x(n, k0, k1)
    expected = {
        "n": n,
        "k0": k0,
        "k1": k1,
        "metric_labels": [f"GZ({k0})", f"GZ({k1})"],
        "sign_X": 0,
        "p1sq_X": frac_str(value),
        "ahat": "forced-zero",
        "verdict": DISTINCT if value != 0 else INCONCLUSIVE,
        "curvature_classes": CURVATURE,
    }
    for key, want in expected.items():
        if cert.get(key) != want:
            return f"certificate ({n},{k0},{k1}) {key}: got {_short(cert.get(key))}, want {_short(want)}"
    # general-n certificates carry a derivation note; unit-Euler ones do not
    if ("derivation_note" in cert) != (n != 1) or not isinstance(cert.get("derivation_note", ""), str):
        return f"certificate ({n},{k0},{k1}) derivation_note presence wrong"
    if ("provenance" in cert) != provenance:
        return f"certificate ({n},{k0},{k1}) provenance presence wrong"
    if provenance and not (cert["provenance"] and all(isinstance(s, str) for s in cert["provenance"])):
        return "provenance is not a list of proof steps"
    return None


def check_components(rc: int, out: str, n: int, l: int, pairs: int) -> str | None:
    payload = json.loads(out)
    ks = [l + 112 * n * i for i in range(pairs + 1)]
    for key, want in (("n", n), ("l", l), ("pairs", pairs), ("family", ks), ("curvature_classes", CURVATURE)):
        if payload.get(key) != want:
            return f"components {key}: got {_short(payload.get(key))}, want {_short(want)}"
    certs = payload["certificates"]
    if len(certs) != pairs * (pairs + 1) // 2:
        return f"components: {len(certs)} certificates, want {pairs * (pairs + 1) // 2}"
    it = iter(certs)
    separated = True
    for i, k0 in enumerate(ks):
        for k1 in ks[i + 1:]:
            cert = next(it)
            problem = check_certificate(cert, n, k0, k1)
            if problem:
                return problem
            separated = separated and cert["verdict"] == DISTINCT
    certified = None if pairs == 0 else separated
    if payload.get("certified") != certified:
        return f"components certified: got {payload.get('certified')}, want {certified}"
    if (payload.get("banner") is not None) != bool(certified):
        return "components banner present exactly when certified"
    if not isinstance(payload.get("note"), str):
        return "components note missing"
    want_rc = 0 if certified else 3
    return None if rc == want_rc else f"components exit {rc}, want {want_rc}"


def check_census(rc: int, out: str, n: int, lo: int, hi: int, unoriented_: bool, fmt: str) -> str | None:
    if rc != 0:
        return f"census exit {rc}, want 0"
    if fmt == "tsv":
        want = census_tsv(n, lo, hi, unoriented_)
        return None if out == want else f"census tsv differs: got {_short(out)}, want {_short(want)}"
    got, want = json.loads(out), census(n, lo, hi, unoriented_)
    return None if got == want else f"census json differs: got {_short(got)}, want {_short(want)}"


def check_api(spec: tuple, got: object) -> str | None:
    """Check the plain value of one public-API call (see workloads.run_api)."""
    kind = spec[0]
    if kind == "dossier":
        want: object = dossier(*spec[1:])
    elif kind in DECIDERS:
        answer, reason = DECIDERS[kind](*spec[1:])
        want = {"answer": answer, "reason": reason}
    elif kind == "certify":
        _, n, k0, k1 = spec
        return check_certificate(got, n, k0, k1)
    elif kind == "family":
        want = family(*spec[1:])
    elif kind == "theta7":
        want = theta7(*spec[1:])
    else:
        raise ValueError(f"unknown api op {kind!r}")
    return None if got == want else f"{kind}{spec[1:]}: got {_short(got)}, want {_short(want)}"


def check_cli(spec: tuple, rc: int, out: str) -> str | None:
    """Check one CLI query (same specs as the API ops, rendered as JSON)."""
    kind = spec[0]
    if kind == "dossier":
        return _expect(rc, 0, json.loads(out), dossier(*spec[1:]), spec)
    if kind in DECIDERS:
        _, n1, k1, n2, k2 = spec
        answer, reason = DECIDERS[kind](n1, k1, n2, k2)
        want = {
            "b1": {"euler": n1, "k": k1},
            "b2": {"euler": n2, "k": k2},
            "unoriented": kind == "unoriented",
            "answer": answer,
            "reason": reason,
        }
        return _expect(rc, {"Yes": 0, "No": 1}.get(answer, 3), json.loads(out), want, spec)
    if kind in ("certify", "certify_quoted"):
        _, n, k0, k1 = spec
        problem = check_certificate(json.loads(out), n, k0, k1, provenance=kind == "certify_quoted")
        if problem:
            return problem
        want_rc = 0 if p1sq_x(n, k0, k1) != 0 else 3
        return None if rc == want_rc else f"certify exit {rc}, want {want_rc}"
    if kind == "family":
        _, n, k, count = spec
        want = {"n": n, "l": k, "step": 112 * n, "members": family(n, k, count)}
        return _expect(rc, 0, json.loads(out), want, spec)
    raise ValueError(f"unknown cli op {kind!r}")


def same_manifold(n: int, k0: int, k1: int) -> bool:
    """Is the oriented-diffeomorphism verdict for (M_k0, M_k1) a Yes?"""
    return oriented(n, k0, n, k1)[0] == "Yes"


def _expect(rc: int, want_rc: int, got: object, want: object, spec: tuple) -> str | None:
    if got != want:
        return f"{spec[0]}: got {_short(got)}, want {_short(want)}"
    return None if rc == want_rc else f"{spec[0]} exit {rc}, want {want_rc}"


def _short(value: object, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."
