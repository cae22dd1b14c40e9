"""The public API of spherectl: the names it exports and where each is defined."""

from __future__ import annotations

import importlib
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
