"""Separation certificates for path components of moduli spaces of metrics.

Given two bundles with the same Euler coefficient, glue the two disk bundles
along a metric cylinder over their common boundary sphere bundle to form a
closed spin 8-manifold X.  If the two nonnegatively curved metrics sat in the
same path component of the moduli space, X would carry a metric of nonnegative
scalar curvature that is positive somewhere, so the Dirac operator would be
invertible and the A-hat genus of X would vanish; the signature vanishes
unconditionally by additivity.  Both dimension-8 index forms vanishing forces
<p1(X)^2, [X]> = 0, so a nonzero computed value of

    p1^2[W_k0] - p1^2[W_k1] = 4*(k0^2 - k1^2)/n

certifies that the two metric classes lie in distinct path components.  The
certificate records exactly this contradiction.  No geometry is ever
computed: metrics enter only as the opaque labels GZ(k).
"""

from __future__ import annotations

from collections.abc import Iterator

from .bundle import BundleClass, _family_ks
from .exactnum import Rational, _Value, _decimal

__all__ = [
    "ComponentsReport", "GluedManifoldInvariants", "SeparationCertificate", "deduce_p1sq_zero",
    "index_forms_dim8", "infinite_components_report", "separation_certificate",
]

FORCED_ZERO = "ForcedZero"
UNCONSTRAINED = "Unconstrained"

DISTINCT_COMPONENTS = "DistinctComponents"
INCONCLUSIVE = "Inconclusive"
_SEPARATION_VERDICTS = (INCONCLUSIVE, DISTINCT_COMPONENTS)  # a pair's verdict, indexed by p1^2[X] != 0

CURVATURE_SEC = "sec>=0"
CURVATURE_RIC = "Ric>0"
CURVATURE_SCAL = "scal>0"

BANNER = "infinitely many path components certified"

# The analytic steps of the separation argument carry no finite data; they are
# recorded verbatim so a certificate doubles as a proof transcript.
PROVENANCE_STEPS = (
    "path lift: a path joining the two metric classes in the moduli space lifts to "
    "the space of nonnegatively curved metrics (Ebin slice theorem), with endpoints "
    "isometric to the two Grove-Ziller metrics by orientation-preserving diffeomorphisms",
    "curvature improvement: under Ricci flow the lifted path evolves instantly to "
    "positive Ricci curvature (Bohm-Wilking); concatenating with the endpoint "
    "trajectories gives a path of positive-scalar-curvature metrics, constant near "
    "its endpoints",
    "cylinder stretching: rescaling the path parameter over M x [0,a], a >> 0, "
    "produces a metric of positive scalar curvature on the cylinder (Gromov-Lawson)",
    "gluing: capping the cylinder with the two nonnegatively curved disk bundles "
    "yields a closed spin 8-manifold X with scal >= 0 everywhere and scal > 0 "
    "somewhere; by Lichnerowicz the Dirac operator of X is invertible and its index, "
    "the A-hat genus, vanishes",
    "signature additivity: sign(X) = sign(W_k0) - sign(W_k1) = 1 - 1 = 0, "
    "independent of the gluing map",
    "index forms: A-hat(X) = 0 and sign(X) = 0 force <p1(X)^2, [X]> = 0",
    "contradiction: <p1(X)^2, [X]> = p1^2[W_k0] - p1^2[W_k1] is nonzero, so no such "
    "path exists and the two classes lie in distinct path components",
)

# Finitely many certificates stand in for the infinitude claim; the note says how.
# Members i < j of k = l + 112n*j have k_i^2 = k_j^2 exactly when k_i = -k_j, that
# is when 56n | l, l < 0 and i + j = -l/(56n); which note is true depends on l.
INFINITUDE_NOTE = (
    "The family k = l + 112n*j consists of pairwise distinct positive parameters, so "
    "k0^2 != k1^2 and every pair of members separates, not only the pairs sampled "
    "here; the enumerator is unbounded, so the certified components are infinite in "
    "number."
)
INFINITUDE_NOTE_NONPOSITIVE = (
    "The family k = l + 112n*j has pairwise distinct squares, since k0^2 = k1^2 "
    "would need k0 = -k1, that is l < 0 and 56n | l; so every pair of members "
    "separates, not only the pairs sampled here; the enumerator is unbounded, so the "
    "certified components are infinite in number."
)
INFINITUDE_NOTE_OPPOSITE = (
    "In the family k = l + 112n*j, members i < j have k_i^2 = k_j^2 exactly when "
    "i + j = -l/(56n), so finitely many pairs fail to separate; every other pair "
    "separates, not only the pairs sampled here. The members with j > -l/(112n) have "
    "pairwise distinct positive parameters and the enumerator is unbounded, so the "
    "certified components are infinite in number."
)

# For n > 1 the p1^2 difference has no classical closed form on record; every
# such certificate carries this flag.
GENERAL_N_DERIVATION = (
    "p1sq_X uses the Thom-lift formula 4*(k0^2 - k1^2)/n; the unit-Euler "
    "specialization (2*k0)^2 - (2*k1)^2 is the classical value"
)


def index_forms_dim8(p1sq: Rational, p2: Rational) -> tuple[Rational, Rational]:
    """Evaluate the two dimension-8 characteristic-number forms exactly.

    A-hat = (7*p1^2 - 4*p2)/5760 and sign = (7*p2 - p1^2)/45.  On the
    quaternionic projective plane, (p1^2, p2) = (4, 7) gives (0, 1).
    """
    ahat = (Rational(7) * p1sq - Rational(4) * p2) / Rational(5760)
    sign = (Rational(7) * p2 - p1sq) / Rational(45)
    return ahat, sign


def deduce_p1sq_zero(ahat: Rational, sign: Rational) -> tuple[Rational, Rational]:
    """Recover (p1^2, p2) from (A-hat, sign) by inverting the index forms.

    The linear system {7*p2 - p1^2 = 45*sign, 7*p1^2 - 4*p2 = 5760*ahat} has
    determinant -45 != 0, so its solution is unique: p1^2 = 896*ahat + 4*sign
    and p2 = 128*ahat + 7*sign.  In particular (0, 0) forces (p1^2, p2) = (0, 0).
    """
    # ahat = a/den and sign = s/den over a common denominator
    den = ahat.den * sign.den
    a, s = ahat.num * sign.den, sign.num * ahat.den
    return Rational(896 * a + 4 * s, den), Rational(128 * a + 7 * s, den)


# The curvature tags of a certificate, indexed by include_scal and shared, never rebuilt.
_CURVATURE_CLASSES = ((CURVATURE_SEC, CURVATURE_RIC), (CURVATURE_SEC, CURVATURE_RIC, CURVATURE_SCAL))


class GluedManifoldInvariants(_Value):
    """Index data of the closed 8-manifold glued from two disk bundles."""

    __slots__ = ("sign_X", "p1sq_X", "ahat_constraint")

    def __init__(self, sign_X: int, p1sq_X: Rational, ahat_constraint: str) -> None:
        if ahat_constraint not in (FORCED_ZERO, UNCONSTRAINED):
            raise ValueError("ahat_constraint must be ForcedZero or Unconstrained")
        self._set_sign_X(self, sign_X)
        self._set_p1sq_X(self, p1sq_X)
        self._set_ahat_constraint(self, ahat_constraint)


class SeparationCertificate(_Value):
    """Record of the gluing argument for one pair of bundles.

    verdict is DistinctComponents exactly when sign(X) = 0, the A-hat genus is
    forced to vanish, and the computed p1^2 number contradicts the forced zero.
    """

    __slots__ = (
        "pair", "metric_labels", "glued", "verdict", "contradiction_value", "curvature_classes",
        "derivation_note",
    )

    def __init__(
        self,
        pair: tuple[BundleClass, BundleClass],
        metric_labels: tuple[str, str],
        glued: GluedManifoldInvariants,
        verdict: str,
        contradiction_value: Rational,
        curvature_classes: tuple[str, ...],
        derivation_note: str | None = None,
    ) -> None:
        self._set_pair(self, pair)
        self._set_metric_labels(self, metric_labels)
        self._set_glued(self, glued)
        self._set_verdict(self, verdict)
        self._set_contradiction_value(self, contradiction_value)
        self._set_curvature_classes(self, curvature_classes)
        self._set_derivation_note(self, derivation_note)

    def to_dict(self, quote_provenance: bool = False) -> dict:
        b0, b1 = self.pair
        payload = {
            "n": b0.euler,
            "k0": b0.pont,
            "k1": b1.pont,
            "metric_labels": list(self.metric_labels),
            "sign_X": self.glued.sign_X,
            "p1sq_X": str(self.glued.p1sq_X),
            "ahat": "forced-zero" if self.glued.ahat_constraint == FORCED_ZERO else "unconstrained",
            "verdict": self.verdict,
            "curvature_classes": list(self.curvature_classes),
        }
        if self.derivation_note is not None:
            payload["derivation_note"] = self.derivation_note
        if quote_provenance:
            payload["provenance"] = list(PROVENANCE_STEPS)
        return payload


def separation_certificate(
    b0: BundleClass, b1: BundleClass, include_scal: bool = True
) -> SeparationCertificate:
    """Run the gluing argument for (b0, b1) and record the outcome.

    Both disk bundles have signature +1 in the fixed convention, so
    sign(X) = 0 always; the A-hat genus is forced to zero under the
    same-component hypothesis rather than computed.  The verdict follows from
    comparing the computed p1^2 difference with the value the vanishing index
    forms would force.

    The argument needs M_k0 and M_k1 to be one manifold, and this does not check
    it yet: (n, k0, k1) = (1, 1, 3), `certify --n 1 --k0 1 --k1 3`, gets
    DistinctComponents on two different manifolds.  The check is ROADMAP item 1,
    which waits on perfbench/oracle.py.
    """
    if b0.euler != b1.euler:
        raise ValueError("gluing requires equal Euler coefficients")
    if b0.euler <= 0:
        raise ValueError("separation requires euler > 0")
    n = b0.euler
    # p1^2[W_k0] - p1^2[W_k1] = 4*k0^2/n - 4*k1^2/n, canonicalized once
    p1sq_x = Rational(4 * (b0.pont * b0.pont - b1.pont * b1.pont), n)
    return SeparationCertificate(
        (b0, b1),
        (f"GZ({_decimal(b0.pont)})", f"GZ({_decimal(b1.pont)})"),
        # sign(X) = sign(W_k0) - sign(W_k1) = 1 - 1: both disk bundles have signature +1
        GluedManifoldInvariants(0, p1sq_x, FORCED_ZERO),
        # A-hat(X) = sign(X) = 0 force p1^2[X] = 0 (deduce_p1sq_zero): a nonzero value separates
        _SEPARATION_VERDICTS[p1sq_x.num != 0],
        p1sq_x,
        _CURVATURE_CLASSES[bool(include_scal)],
        None if n == 1 else GENERAL_N_DERIVATION,
    )


class ComponentsReport(_Value):
    """Pairwise certificates over an initial segment of an arithmetic family."""

    __slots__ = ("base", "pairs", "family", "certificates", "certified", "banner", "curvature_classes", "note")

    def __init__(
        self,
        base: BundleClass,
        pairs: int,
        family: tuple[BundleClass, ...],
        certificates: tuple[SeparationCertificate, ...],
        certified: bool | None,
        banner: str | None,
        curvature_classes: tuple[str, ...],
        note: str,
    ) -> None:
        self._set_base(self, base)
        self._set_pairs(self, pairs)
        self._set_family(self, family)
        self._set_certificates(self, certificates)
        self._set_certified(self, certified)
        self._set_banner(self, banner)
        self._set_curvature_classes(self, curvature_classes)
        self._set_note(self, note)

    def to_dict(self, quote_provenance: bool = False) -> dict:
        return {
            "n": self.base.euler,
            "l": self.base.pont,
            "pairs": self.pairs,
            "family": [b.pont for b in self.family],
            "certificates": [c.to_dict(quote_provenance) for c in self.certificates],
            "certified": self.certified,
            "banner": self.banner,
            "curvature_classes": list(self.curvature_classes),
            "note": self.note,
        }


def infinite_components_report(
    b: BundleClass, pairs: int, include_scal: bool = True
) -> ComponentsReport:
    """Certify pairwise separation across the first pairs+1 family members.

    Certificates are emitted for every pair in lexicographic (k0, k1) order.
    The verdict "certified" requires every pair to separate; with pairs = 0
    there is nothing to check and the verdict is withheld.

    Cost model: the head of _components_head in O(pairs), then one
    separation_certificate per pair, pairs*(pairs+1)/2 objects.
    """
    head = _components_head(b, pairs, include_scal)
    family = tuple(BundleClass(b.euler, k) for k in head["family"])
    certificates = tuple(separation_certificate(family[i], family[j], include_scal)
                         for i in range(pairs) for j in range(i + 1, pairs + 1))
    return ComponentsReport(b, pairs, family, certificates, head["certified"], head["banner"],
                            _CURVATURE_CLASSES[bool(include_scal)], head["note"])


def _opposite_sum(b: BundleClass) -> int:
    """-l/(56n) when 56n | l, else 0.  Members i < j of the family of b have opposite
    parameters k_i = -k_j exactly when this sum is positive and i + j equals it."""
    n, l = b.euler, b.pont
    return -l // (56 * n) if l % (56 * n) == 0 else 0


def _components_head(b: BundleClass, pairs: int, include_scal: bool = True) -> dict:
    """The head of the family of b, built as _census_rows builds the census head: ComponentsReport.to_dict, the
    one owner of the report's keys, of a report with no members or certificates, then family the members' k (no
    BundleClass per member); certified, banner and note in O(1) (README "Components"): with pairs >= 1 some
    pair fails exactly when l < 0, 56n | l and 1 <= -l/(56n) <= 2*pairs - 1."""
    if pairs < 0:
        raise ValueError("pairs must be nonnegative")
    family, z = list(_family_ks(b, pairs + 1)), _opposite_sum(b)
    certified = None if pairs == 0 else not 0 < z <= 2 * pairs - 1
    note = INFINITUDE_NOTE if b.pont > 0 else INFINITUDE_NOTE_OPPOSITE if z > 0 else INFINITUDE_NOTE_NONPOSITIVE
    return {**ComponentsReport(b, pairs, (), (), certified, BANNER if certified else None,
                               _CURVATURE_CLASSES[bool(include_scal)], note).to_dict(), "family": family}


def _components_rows(
    b: BundleClass, pairs: int, include_scal: bool = True
) -> tuple[dict, Iterator[tuple[int, list[str], int | None]]]:
    """_components_head(b, pairs, include_scal), and the certificates as rows (i, ps, zero), one per
    member i < pairs: ps the text of p1^2[X] = q[i] - q[j] for j = i+1..pairs, one f-string each, and
    zero the index of the one pair that can have p1^2[X] = 0, or None (README "Components")."""
    head = _components_head(b, pairs, include_scal)
    n, l, z = b.euler, b.pont, _opposite_sum(b)

    def rows() -> Iterator[tuple[int, list[str], int | None]]:
        q = [896 * l * j + 50176 * n * j * j for j in range(pairs + 1)]
        for i in range(pairs):
            qi, zero = q[i], z - 2 * i - 1  # the index of j = z - i in the row, < 0 with z <= 0
            yield i, [f"{qi - qj}" for qj in q[i + 1:]], zero if 0 <= zero < pairs - i else None

    return head, rows()
