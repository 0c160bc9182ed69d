"""The value-record contract: repr, equality within one class, hash, frozen
fields, and copy, deepcopy and pickle, for every record class."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from noncrossing import errors
from noncrossing import (
    CumulantSequence,
    IdentityCheck,
    Letter,
    MultiplicativityReport,
    NCLPartition,
    NCPartition,
    Scenario,
    VanishingReport,
    Word,
)
from noncrossing.verify import ReportEntry

# per class: a factory, its fields, its repr, whether it hashes and whether
# it deep-copies and pickles (a mappingproxy does neither)
RECORDS = {
    NCPartition: (lambda: NCPartition(2, ((1, 2),)), ("n", "blocks"),
                  "NCPartition(n=2, blocks=((1, 2),))", True, True),
    NCLPartition: (lambda: NCLPartition(3, ((1, 2), (2, 3))), ("n", "blocks"),
                   "NCLPartition(n=3, blocks=((1, 2), (2, 3)))", True, True),
    Letter: (lambda: Letter("X", F(-1, 3)), ("algebra", "scale"),
             "Letter(algebra='X', scale=Fraction(-1, 3))", True, True),
    Word: (lambda: Word((Letter("X"), Letter("Y", 2))), ("letters",),
           "Word(letters=(Letter(algebra='X', scale=Fraction(1, 1)), "
           "Letter(algebra='Y', scale=Fraction(2, 1))))", True, True),
    Scenario: (lambda: Scenario({"X": CumulantSequence((1, 2))}), ("algebras",),
               "Scenario(algebras=mappingproxy({'X': CumulantSequence(values=("
               "Fraction(1, 1), Fraction(2, 1)))}))", False, False),
    VanishingReport: (lambda: VanishingReport(8, ()), ("words_checked", "failures"),
                      "VanishingReport(words_checked=8, failures=())", True, True),
    IdentityCheck: (lambda: IdentityCheck("t", {"n": 1}, {"lhs": "1", "rhs": "2"}),
                    ("identity", "parameters", "witness"),
                    "IdentityCheck(identity='t', parameters={'n': 1}, "
                    "witness={'lhs': '1', 'rhs': '2'})", False, True),
    MultiplicativityReport: (lambda: MultiplicativityReport(2), ("order", "checks"),
                             "MultiplicativityReport(order=2, checks=())", True, True),
    ReportEntry: (lambda: ReportEntry("t", {"n": 1}, suite="s"),
                  ("identity", "parameters", "witness", "suite"),
                  "ReportEntry(identity='t', parameters={'n': 1}, witness=None, suite='s')",
                  False, True),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    make, fields, text, hashable, deep = RECORDS[cls]
    value, twin = make(), make()
    assert type(value) is cls and repr(value) == text
    assert value == twin and not value != twin
    for other_cls, (other_make, *_) in RECORDS.items():
        if other_cls is not cls:
            assert value != other_make() and value.__eq__(other_make()) is NotImplemented
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)
    for name in (*fields, "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert repr(value) == text
    copies = [copy.copy(value)]
    if deep:
        copies += [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    else:
        with pytest.raises(TypeError):
            copy.deepcopy(value)
        with pytest.raises(TypeError):
            pickle.dumps(value)
    for c in copies:
        assert type(c) is cls and c == value and repr(c) == text


def test_equal_fields_in_two_classes_differ():
    assert NCPartition(2, ((1, 2),)) != NCLPartition(2, ((1, 2),))
    check = IdentityCheck("t", {"n": 1})
    entry = ReportEntry("t", {"n": 1}, suite="s")
    assert check != entry and entry != check
    assert check.__eq__(entry) is NotImplemented and entry.__eq__(check) is NotImplemented


def test_record_constructors_normalise():
    assert Letter("X").scale == 1 and type(Letter("X").scale) is F
    assert type(Letter("X", 2).scale) is F and Letter("X", 2) == Letter("X", F(2))
    assert Word([Letter("X")]).letters == (Letter("X"),)
    with pytest.raises(ValueError):
        Word(())
    algebras = {"X": CumulantSequence((1,))}
    scenario = Scenario(algebras)
    algebras["Y"] = CumulantSequence((2,))
    assert type(scenario.algebras) is MappingProxyType and list(scenario.algebras) == ["X"]
    assert MultiplicativityReport(3).checks == ()
    with pytest.raises(TypeError):
        ReportEntry("t", {}, None, "s")  # the suite is keyword-only
    with pytest.raises(TypeError):
        ReportEntry("t", {})


ERRORS = {cls.__name__: cls for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, errors.NonCrossingError)}
CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda value: pickle.loads(pickle.dumps(value))}


@pytest.mark.parametrize("clone", CLONES)
@pytest.mark.parametrize("name", ERRORS)
def test_errors_keep_type_message_and_attributes_through_copies(name, clone):
    # an exception is rebuilt from its args, so those must be its
    # constructor's arguments
    cls = ERRORS[name]
    exc = cls((1, 2, 3, 4)) if cls is errors.Crossing else cls("need moment of index 3")
    got = CLONES[clone](exc)
    assert type(got) is cls and str(got) == str(exc)
    assert got.args == exc.args and vars(got) == vars(exc)
