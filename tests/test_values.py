"""Value semantics of the package's immutable value types.

Every value type compares and hashes by its field tuple, never equals an
instance of another class, refuses attribute assignment and deletion, prints
as Name(field=value, ...), survives copy and pickle, and supports structural
pattern matching over its constructor arguments.
"""

from __future__ import annotations

import ast
import copy
import json
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import spherectl
from spherectl import (
    NEGATIVE,
    POSITIVE,
    BundleClass,
    CensusClass,
    CensusReport,
    CohomologyTable,
    ComponentsReport,
    DiffeoVerdict,
    GluedManifoldInvariants,
    Orientation,
    QmodZ,
    Rational,
    Residue,
    SeparationCertificate,
    SpaceDossier,
    Theta7Element,
    census,
    cohomology,
    dossier,
    homeomorphic,
    gz_family,
    infinite_components_report,
    make_bundle,
    oriented_diffeomorphic,
    separation_certificate,
    theta7_neg,
)
from helpers import fresh_interpreter, int_str_digits

B = BundleClass

# class -> (field names in declaration order, match args, two unequal instances)
VALUE_TYPES = {
    Rational: (("num", "den"), ("num", "den"), lambda: (Rational(6, 4), Rational(-5))),
    QmodZ: (("num", "den"), ("num", "den"), lambda: (QmodZ(-1, 28), QmodZ(3))),
    Residue: (("value", "modulus"), ("value", "modulus"), lambda: (Residue(30, 28), Residue(-1, 5))),
    BundleClass: (("euler", "pont"), ("euler", "pont"), lambda: (B(1, 3), B(euler=3, pont=-5))),
    Orientation: (("sign",), ("sign",), lambda: (Orientation(), Orientation(-1))),
    DiffeoVerdict: (
        ("answer", "reason"),
        ("answer", "reason"),
        lambda: (oriented_diffeomorphic(B(1, 3), B(1, 115)), homeomorphic(B(5, 1), B(5, 3))),
    ),
    Theta7Element: (("value",), ("value",), lambda: (Theta7Element.of(30), theta7_neg(Theta7Element.of(1)))),
    CensusClass: (
        ("representative", "member_ranges", "mu", "members_count"),
        ("representative", "member_ranges", "mu"),
        lambda: (census(1, 1, 223).classes[1], census(3, 1, 1000).classes[0]),
    ),
    CensusReport: (
        ("n", "k_from", "k_to", "unoriented", "skipped", "classes", "unknown_pairs_count"),
        ("n", "k_from", "k_to", "unoriented", "skipped", "classes", "unknown_pairs_count"),
        lambda: (census(1, 1, 223), census(3, 1, 6, unoriented=True)),
    ),
    CohomologyTable: (("groups",), ("groups",), lambda: (cohomology(B(5, 1)), cohomology(B(1, 3)))),
    SpaceDossier: (
        ("bundle", "orientation", "cohomology", "is_homotopy_sphere", "sign_W", "p1sq_W", "mu"),
        ("bundle", "orientation", "cohomology", "is_homotopy_sphere", "sign_W", "p1sq_W", "mu"),
        lambda: (dossier(B(1, 3)), dossier(B(5, 1), NEGATIVE)),
    ),
    GluedManifoldInvariants: (
        ("sign_X", "p1sq_X", "ahat_constraint"),
        ("sign_X", "p1sq_X", "ahat_constraint"),
        lambda: (
            separation_certificate(B(1, 1), B(1, 113)).glued,
            GluedManifoldInvariants(0, Rational(0), "Unconstrained"),
        ),
    ),
    SeparationCertificate: (
        ("pair", "metric_labels", "glued", "verdict", "contradiction_value", "curvature_classes",
         "derivation_note"),
        ("pair", "metric_labels", "glued", "verdict", "contradiction_value", "curvature_classes",
         "derivation_note"),
        lambda: (
            separation_certificate(B(1, 1), B(1, 113)),
            separation_certificate(B(3, 1), B(3, 337), include_scal=False),
        ),
    ),
    ComponentsReport: (
        ("base", "pairs", "family", "certificates", "certified", "banner", "curvature_classes", "note"),
        ("base", "pairs", "family", "certificates", "certified", "banner", "curvature_classes", "note"),
        lambda: (infinite_components_report(B(1, 3), 2), infinite_components_report(B(2, -112), 2)),
    ),
}

CASES = [pytest.param(cls, *spec, id=cls.__name__) for cls, spec in VALUE_TYPES.items()]


def field_tuple(obj, fields):
    return tuple(getattr(obj, f) for f in fields)


def expected_repr(obj, fields):
    return f"{type(obj).__qualname__}({', '.join(f'{f}={getattr(obj, f)!r}' for f in fields)})"


def test_every_value_type_is_covered():
    exported = {getattr(spherectl, name) for name in spherectl.__all__}
    assert set(VALUE_TYPES) <= exported
    assert len(VALUE_TYPES) == 14


@pytest.mark.parametrize("cls, fields, match_args, make", CASES)
class TestValueSemantics:
    def test_eq_and_hash_follow_field_tuple(self, cls, fields, match_args, make):
        a, b = make()
        a2, _ = make()
        assert type(a) is type(b) is cls
        assert a is not a2
        assert a == a2 and not a != a2
        assert hash(a) == hash(a2) == hash(field_tuple(a, fields))
        assert hash(b) == hash(field_tuple(b, fields))
        assert field_tuple(a, fields) != field_tuple(b, fields)
        assert a != b and not a == b
        assert len({a, a2, b}) == 2

    def test_never_equal_across_classes(self, cls, fields, match_args, make):
        a, _ = make()
        assert a != field_tuple(a, fields)
        assert a.__eq__(field_tuple(a, fields)) is NotImplemented
        for other_cls, (_, _, other_make) in VALUE_TYPES.items():
            if other_cls is not cls:
                assert all(a != other for other in other_make())

    def test_fields_are_read_only(self, cls, fields, match_args, make):
        a, _ = make()
        before = field_tuple(a, fields)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(a, f, getattr(a, f))
            with pytest.raises(AttributeError):
                delattr(a, f)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert field_tuple(a, fields) == before

    def test_repr_names_every_field(self, cls, fields, match_args, make):
        for obj in make():
            assert repr(obj) == expected_repr(obj, fields)

    def test_copy_and_pickle_round_trip(self, cls, fields, match_args, make):
        for obj in make():
            for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert type(clone) is cls
                assert clone == obj
                assert hash(clone) == hash(obj)
                assert field_tuple(clone, fields) == field_tuple(obj, fields)

    def test_match_args(self, cls, fields, match_args, make):
        assert cls.__match_args__ == match_args
        a, _ = make()
        match a:
            case cls(first):
                assert first == getattr(a, match_args[0])
            case _:
                pytest.fail("class pattern did not match")


def test_repr_prints_tuples_and_ranges_as_the_builtin_does():
    # a range of step 1 prints no step, a 1-tuple a trailing comma, and an empty tuple ()
    for obj in (CensusClass(1, (range(1, 5), range(-7, 9, 2)), None), CensusClass(5, (range(5, 6, 3),), QmodZ(1, 28)),
                census(2, 3, 3), census(3, -5, 20)):
        assert repr(obj) == expected_repr(obj, type(obj).__slots__)
    assert repr(CensusClass(1, (range(1, 5),), None)) == (
        "CensusClass(representative=1, member_ranges=(range(1, 5),), mu=None, members_count=4)")


def test_repr_goldens():
    assert repr(Rational(6, 4)) == "Rational(num=3, den=2)"
    assert repr(QmodZ(-1, 28)) == "QmodZ(num=27, den=28)"
    assert repr(Theta7Element.of(30)) == "Theta7Element(value=Residue(value=2, modulus=28))"
    assert repr(cohomology(B(5, 1))) == "CohomologyTable(groups=('Z', '0', '0', '0', 'Z/5Z', '0', '0', 'Z'))"
    assert repr(census(1, 1, 223).classes[1]) == (
        "CensusClass(representative=3, member_ranges=(range(3, 224, 112), range(45, 224, 112), "
        "range(67, 224, 112), range(109, 224, 112)), mu=QmodZ(num=1, den=28), members_count=8)"
    )
    assert repr(dossier(B(5, 1), NEGATIVE)) == (
        "SpaceDossier(bundle=BundleClass(euler=5, pont=1), orientation=Orientation(sign=-1), "
        "cohomology=CohomologyTable(groups=('Z', '0', '0', '0', 'Z/5Z', '0', '0', 'Z')), "
        "is_homotopy_sphere=False, sign_W=-1, p1sq_W=Rational(num=-4, den=5), mu=None)"
    )
    assert repr(separation_certificate(B(1, 3), B(1, 115))) == (
        "SeparationCertificate(pair=(BundleClass(euler=1, pont=3), BundleClass(euler=1, pont=115)), "
        "metric_labels=('GZ(3)', 'GZ(115)'), glued=GluedManifoldInvariants(sign_X=0, "
        "p1sq_X=Rational(num=-52864, den=1), ahat_constraint='ForcedZero'), "
        "verdict='DistinctComponents', contradiction_value=Rational(num=-52864, den=1), "
        "curvature_classes=('sec>=0', 'Ric>0', 'scal>0'), derivation_note=None)"
    )


def test_cross_class_examples():
    assert Rational(1) != QmodZ(1)
    assert QmodZ(1) != Rational(1)
    # same field tuple (1, 2), different classes
    assert Rational(1, 2) != QmodZ(1, 2) and QmodZ(1, 2) != Rational(1, 2)
    assert hash(Rational(1, 2)) == hash(QmodZ(1, 2))
    assert len({Rational(1, 2), QmodZ(1, 2)}) == 2
    assert Rational(1) != 1 and 1 != Rational(1)
    assert Residue(1, 28) != Theta7Element.of(1)


def test_full_positional_patterns():
    match Rational(6, 4):
        case Rational(num, den):
            assert (num, den) == (3, 2)
    match separation_certificate(B(1, 3), B(1, 115)):
        case SeparationCertificate((b0, b1), labels, GluedManifoldInvariants(0, p1sq, _), verdict):
            assert (b0.pont, b1.pont, labels, p1sq, verdict) == (
                3, 115, ("GZ(3)", "GZ(115)"), Rational(-52864), "DistinctComponents")
        case _:
            pytest.fail("certificate pattern did not match")
    match census(1, 1, 223).classes[1]:
        case CensusClass(rep, ranges, mu):
            assert (rep, len(ranges), mu) == (3, 4, QmodZ(1, 28))


def test_census_class_count_is_derived():
    c = CensusClass(5, (range(5, 20, 2), range(7, 7, 2)), None)
    assert c.members_count == 8
    assert c == CensusClass(representative=5, member_ranges=(range(5, 20, 2), range(7, 7, 2)), mu=None)
    with pytest.raises(TypeError):
        CensusClass(5, (), None, 0)


def test_fields_are_written_only_through_value_slot_setters():
    """_Value owns how a field is written: every __init__ sets its fields through the
    slot setters cls._set_<field> that _Value derives, so no module of the package
    calls object.__setattr__, which would bypass them."""
    package = Path(spherectl.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert calls == []
    for cls, (fields, _, _) in VALUE_TYPES.items():
        assert all(getattr(cls, f"_set_{f}") == cls.__dict__[f].__set__ for f in fields)


def check_value(obj, fields):
    clone = pickle.loads(pickle.dumps(obj))
    assert clone == obj and copy.deepcopy(obj) == obj
    assert hash(clone) == hash(obj) == hash(field_tuple(obj, fields))
    assert repr(obj) == expected_repr(obj, fields)


nonzero = st.integers(min_value=-10**30, max_value=10**30).filter(bool)


@given(st.integers(min_value=-10**30, max_value=10**30), nonzero, nonzero)
def test_rational_value_property(num, den, scale):
    r = Rational(num, den)
    check_value(r, ("num", "den"))
    assert r == Rational(num * scale, den * scale)
    assert r.den > 0 and (r.num != 0 or r.den == 1)
    assert (r == Rational(num + 1, den)) is False


@given(st.integers(min_value=-10**30, max_value=10**30), nonzero, st.integers(-10**6, 10**6))
def test_qmodz_value_property(num, den, shift):
    q = QmodZ(num, den)
    check_value(q, ("num", "den"))
    assert q == QmodZ(num + shift * den, den)
    assert 0 <= q.num < q.den
    assert q != Rational(q.num, q.den)


@given(nonzero, st.integers(min_value=-10**30, max_value=10**30))
def test_bundle_class_value_property(n, k):
    k += (k - n) % 2
    b = BundleClass(n, k)
    check_value(b, ("euler", "pont"))
    assert b == BundleClass(euler=n, pont=k) and b != BundleClass(n, k + 2)
    with pytest.raises(AttributeError):
        b.pont = k + 2


def stdout_of(script: str, *argv: str) -> str:
    """The stdout of script run with argv in a fresh interpreter, which must exit 0."""
    code, out, err = fresh_interpreter(*argv, script=script)
    assert code == 0, err
    return out


def test_import_loads_no_code_generation_modules():
    """A cold `import spherectl.cli` must not load dataclasses or the modules
    it drags in; pytest itself loads them, so this runs in a fresh interpreter."""
    code = (
        "import sys, spherectl.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules))))"
    )
    assert stdout_of(code).strip() == ""


def test_well_formed_query_loads_no_argparse():
    """main builds the argparse parser only for --help and argv that its option table does
    not recognize, so a canonical census in a fresh interpreter loads neither argparse nor gettext."""
    code = (
        "import contextlib, io, sys; from spherectl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['census', '--n', '1', '--from', '1', '--to', '300']) == 0\n"
        "print(' '.join(sorted({'argparse', 'gettext'} & set(sys.modules))))"
    )
    assert stdout_of(code).strip() == ""


# a cold query of each command and the library modules it loads (README "Cold start")
COLD_QUERIES = {
    "invariants": (["invariants", "--n", "1", "--k", "3"], {"exactnum", "bundle", "space"}),
    "realized-mu": (["realized-mu"], {"exactnum", "bundle", "space"}),
    "classify": (["classify", "--n1", "1", "--k1", "3", "--n2", "1", "--k2", "115"],
                 {"exactnum", "bundle", "space", "classify"}),
    "census": (["census", "--n", "1", "--from", "1", "--to", "300"], {"exactnum", "bundle", "space", "classify"}),
    "certify": (["certify", "--n", "1", "--k0", "1", "--k1", "113"], {"exactnum", "bundle", "moduli"}),
    "components": (["components", "--n", "1", "--l", "3", "--pairs", "3"], {"exactnum", "bundle", "moduli"}),
    "family": (["family", "--n", "1", "--l", "1", "--count", "3"], {"exactnum", "bundle"}),
}


@pytest.mark.parametrize("argv, modules", COLD_QUERIES.values(), ids=COLD_QUERIES)
def test_a_cold_query_loads_only_the_modules_its_command_runs(argv, modules):
    """Run as `python -m spherectl.cli` runs it, a query imports the package, which loads no module by
    itself, and the library modules its command runs, no other: cli runs as __main__ and is never
    imported under its own name, and spherectl loads no heapq that the interpreter had not."""
    code = (
        "import contextlib, io, runpy, sys\n"
        "heapq_before = 'heapq' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('spherectl.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code == 0, exit.code\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('spherectl'))))\n"
        "print(heapq_before or 'heapq' not in sys.modules)"
    )
    loaded, no_heapq = stdout_of(code, *argv).split("\n")[:2]
    assert "spherectl.cli" not in loaded.split()
    assert set(loaded.split()) == {"spherectl"} | {f"spherectl.{m}" for m in modules}
    assert no_heapq == "True"


def test_the_package_loads_its_modules_on_the_first_read_of_a_name():
    """import spherectl alone loads no submodule; the first read of one public name, or a star import,
    loads all five and binds the 41 names of __all__, each the object its module defines."""
    code = (
        "import json, sys, spherectl\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('spherectl.'))\n"
        "before = loaded()\n"
        "if sys.argv[1] == 'name':\n"
        "    spherectl.census\n"
        "else:\n"
        "    exec('from spherectl import *', star := {})\n"
        "    assert sorted(star.keys() - {'__builtins__'}) == sorted(spherectl.__all__)\n"
        "modules = [sys.modules[f'spherectl.{m}'] for m in ('bundle', 'classify', 'exactnum', 'moduli', 'space')]\n"
        "assert spherectl.__all__ == [name for m in modules for name in m.__all__]\n"
        "assert all(vars(spherectl)[name] is getattr(m, name) for m in modules for name in m.__all__)\n"
        "print(json.dumps([before, loaded(), spherectl.__all__]))"
    )
    for first_read in ("name", "star"):
        before, after, names = json.loads(stdout_of(code, first_read))
        assert before == []
        assert after == [f"spherectl.{m}" for m in ("bundle", "classify", "exactnum", "moduli", "space")]
        assert len(names) == len(set(names)) == 41


def library_values(k: int) -> list:
    """An instance of every public value type, holding k, an odd int, or an int of its size where it holds an int."""
    b, c = make_bundle(1, k), make_bundle(1, k + 112)
    certificate, sphere_census = separation_certificate(b, c), census(1, -k - 12, -k, True)
    return [
        Rational(k, k + 2), QmodZ(k, 2 * k + 1), Residue(k, k * k), b, NEGATIVE, oriented_diffeomorphic(b, c),
        Theta7Element.of(k), sphere_census.classes[0], sphere_census, census(3, k, k + 12),
        cohomology(make_bundle(k, k + 2)), dossier(b), certificate.glued, certificate, infinite_components_report(b, 2),
    ]


def library_texts(k: int) -> list:
    """Every public to_dict(), __str__, to_tsv() and repr() that prints k, an odd int, or an int of its size."""
    b, c, wide = make_bundle(1, k), make_bundle(1, k + 112), make_bundle(k, k + 2)
    return [
        str(Rational(k, k + 2)), str(QmodZ(k, 2 * k + 1)), str(Residue(k, k * k)),
        *(dossier(x, o).to_dict() for x in (b, wide) for o in (POSITIVE, NEGATIVE)), cohomology(wide).to_list(),
        oriented_diffeomorphic(b, c).to_dict(), homeomorphic(b, wide).to_dict(), [x.to_dict() for x in gz_family(b, 2)],
        separation_certificate(b, c).to_dict(True), infinite_components_report(b, 2).to_dict(True),
        *(r.to_dict() for r in (census(1, k, k + 300), census(1, -k - 300, -k, True))),
        *(r.to_tsv() for r in (census(1, k, k + 300), census(1, -k - 300, -k, True))),
        *map(repr, library_values(k)),
    ]


def test_library_values_hold_every_value_type():
    assert {type(value) for value in library_values(3)} == set(VALUE_TYPES)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str digit limit")
@settings(max_examples=5, deadline=None)
@given(st.integers(4301, 20000).flatmap(lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1)))
@example(10**4300 + 1)
def test_library_prints_ints_past_the_digit_limit(k):
    """Under CPython's default 4300-digit limit, which only the CLI lifts, the library prints the text that it
    prints with no limit: the text of every int, not a ValueError."""
    with int_str_digits(4300):
        got = library_texts(k | 1)
    with int_str_digits(0):
        assert got == library_texts(k | 1)

