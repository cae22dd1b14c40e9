"""The public API of spherectl: the names it exports and where each is defined."""

from __future__ import annotations

import importlib
import inspect
from itertools import combinations

import spherectl

# Each exported name, under the module that defines it.
PUBLIC_API = {
    "bundle": (
        "BundleClass", "InvalidBundleError", "NEGATIVE", "Orientation", "POSITIVE",
        "from_milnor_params", "make_bundle", "reverse_bundle_orientation",
    ),
    "classify": (
        "CensusClass", "CensusReport", "DiffeoVerdict", "Theta7Element", "census", "gz_family", "homeomorphic",
        "oriented_diffeomorphic", "theta7_add", "theta7_neg", "unoriented_diffeomorphic",
    ),
    "exactnum": ("QmodZ", "Rational", "Residue", "qmodz_add", "qmodz_neg"),
    "moduli": (
        "ComponentsReport", "GluedManifoldInvariants", "SeparationCertificate", "deduce_p1sq_zero",
        "index_forms_dim8", "infinite_components_report", "separation_certificate",
    ),
    "space": (
        "CohomologyTable", "SpaceDossier", "cohomology", "dossier", "fold_orientation", "is_homotopy_sphere",
        "mu_invariant", "p1_squared_W", "realized_mu_set", "realized_mu_set_unoriented",
    ),
}
NAMES = {name for names in PUBLIC_API.values() for name in names}


def star_import(module: str) -> set[str]:
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    return set(namespace) - {"__builtins__"}


class TestPublicApi:
    def test_exports_are_the_pinned_names(self):
        assert len(NAMES) == 41
        assert set(spherectl.__all__) == NAMES
        assert star_import("spherectl") == NAMES

    def test_each_export_is_the_object_its_module_defines(self):
        for module, names in PUBLIC_API.items():
            home = importlib.import_module(f"spherectl.{module}")
            for name in names:
                obj = getattr(spherectl, name)
                assert obj is getattr(home, name)
                assert obj.__module__ == home.__name__

    def test_module_all_lists_partition_the_exports(self):
        modules = {m: importlib.import_module(f"spherectl.{m}") for m in PUBLIC_API}
        for module, names in PUBLIC_API.items():
            assert sorted(modules[module].__all__) == sorted(names)
            assert star_import(f"spherectl.{module}") == set(names)
        for a, b in combinations(modules.values(), 2):
            assert not set(a.__all__) & set(b.__all__)


def signature(obj: object) -> str | None:
    """str(inspect.signature(obj)), or None for an export that has none (an instance,
    or an exception class whose signature is the builtin one)."""
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return None


# str(inspect.signature(...)) of every export, keywords and defaults included: a caller
# may pass any parameter by name, so no faster body may rename, reorder or drop one.
SIGNATURES = {
    "BundleClass": "(euler: 'int', pont: 'int') -> 'None'",
    "CensusClass": "(representative: 'int', member_ranges: 'tuple[range, ...]', mu: 'QmodZ | None') -> 'None'",
    "CensusReport": "(n: 'int', k_from: 'int', k_to: 'int', unoriented: 'bool', skipped: 'int', "
                    "classes: 'tuple[CensusClass, ...]', unknown_pairs_count: 'int') -> 'None'",
    "CohomologyTable": "(groups: 'tuple[str, ...]') -> 'None'",
    "ComponentsReport": "(base: 'BundleClass', pairs: 'int', family: 'tuple[BundleClass, ...]', "
                        "certificates: 'tuple[SeparationCertificate, ...]', certified: 'bool | None', "
                        "banner: 'str | None', curvature_classes: 'tuple[str, ...]', note: 'str') -> 'None'",
    "DiffeoVerdict": "(answer: 'str', reason: 'str') -> 'None'",
    "GluedManifoldInvariants": "(sign_X: 'int', p1sq_X: 'Rational', ahat_constraint: 'str') -> 'None'",
    "InvalidBundleError": None,
    "NEGATIVE": None,
    "Orientation": "(sign: 'int' = 1) -> 'None'",
    "POSITIVE": None,
    "QmodZ": "(num: 'int', den: 'int' = 1) -> 'None'",
    "Rational": "(num: 'int', den: 'int' = 1) -> 'None'",
    "Residue": "(value: 'int', modulus: 'int') -> 'None'",
    "SeparationCertificate": "(pair: 'tuple[BundleClass, BundleClass]', metric_labels: 'tuple[str, str]', "
                             "glued: 'GluedManifoldInvariants', verdict: 'str', contradiction_value: 'Rational', "
                             "curvature_classes: 'tuple[str, ...]', derivation_note: 'str | None' = None) -> 'None'",
    "SpaceDossier": "(bundle: 'BundleClass', orientation: 'Orientation', cohomology: 'CohomologyTable', "
                    "is_homotopy_sphere: 'bool', sign_W: 'int', p1sq_W: 'Rational', mu: 'QmodZ | None') -> 'None'",
    "Theta7Element": "(value: 'Residue') -> 'None'",
    "census": "(n: 'int', k_from: 'int', k_to: 'int', unoriented: 'bool' = False) -> 'CensusReport'",
    "cohomology": "(b: 'BundleClass') -> 'CohomologyTable'",
    "deduce_p1sq_zero": "(ahat: 'Rational', sign: 'Rational') -> 'tuple[Rational, Rational]'",
    "dossier": "(b: 'BundleClass', o: 'Orientation' = Orientation(sign=1)) -> 'SpaceDossier'",
    "fold_orientation": "(q: 'QmodZ') -> 'QmodZ'",
    "from_milnor_params": "(m: 'int', n: 'int') -> 'BundleClass'",
    "gz_family": "(b: 'BundleClass', count: 'int') -> 'list[BundleClass]'",
    "homeomorphic": "(b1: 'BundleClass', b2: 'BundleClass') -> 'DiffeoVerdict'",
    "index_forms_dim8": "(p1sq: 'Rational', p2: 'Rational') -> 'tuple[Rational, Rational]'",
    "infinite_components_report": "(b: 'BundleClass', pairs: 'int', include_scal: 'bool' = True) -> 'ComponentsReport'",
    "is_homotopy_sphere": "(b: 'BundleClass') -> 'bool'",
    "make_bundle": "(n: 'int', k: 'int') -> 'BundleClass'",
    "mu_invariant": "(b: 'BundleClass', o: 'Orientation' = Orientation(sign=1)) -> 'QmodZ'",
    "oriented_diffeomorphic": "(b1: 'BundleClass', b2: 'BundleClass') -> 'DiffeoVerdict'",
    "p1_squared_W": "(b: 'BundleClass') -> 'Rational'",
    "qmodz_add": "(a: 'QmodZ', b: 'QmodZ') -> 'QmodZ'",
    "qmodz_neg": "(a: 'QmodZ') -> 'QmodZ'",
    "realized_mu_set": "(h_limit: 'int' = 56) -> 'frozenset[QmodZ]'",
    "realized_mu_set_unoriented": "() -> 'frozenset[QmodZ]'",
    "reverse_bundle_orientation": "(b: 'BundleClass') -> 'BundleClass'",
    "separation_certificate": "(b0: 'BundleClass', b1: 'BundleClass', include_scal: 'bool' = True) "
                              "-> 'SeparationCertificate'",
    "theta7_add": "(a: 'Theta7Element', b: 'Theta7Element') -> 'Theta7Element'",
    "theta7_neg": "(a: 'Theta7Element') -> 'Theta7Element'",
    "unoriented_diffeomorphic": "(b1: 'BundleClass', b2: 'BundleClass') -> 'DiffeoVerdict'",
}


def test_signatures_are_pinned():
    assert set(SIGNATURES) == NAMES
    assert {name: signature(getattr(spherectl, name)) for name in NAMES} == SIGNATURES
