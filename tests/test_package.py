"""The package surface and the value records' contract.

Public names load on first use, so these tests check that every name still
resolves to its defining submodule's object, and that the hand-written value
records keep the equality, hash, repr and immutability their callers use.
"""

import subprocess
import sys
from fractions import Fraction
from types import FunctionType

import pytest

import chainweight
from chainweight import (
    Antichain,
    ChainCountResult,
    CustomPairwise,
    ErdosWindow,
    FamilyMask,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    level_conflicts,
)


def loaded_after(code):
    """The chainweight modules a fresh interpreter holds after running code."""
    script = f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if m.startswith('chainweight')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_submodule_until_a_name_is_used():
    assert loaded_after("import chainweight") == {"chainweight"}
    loaded = loaded_after("import chainweight\nchainweight.KatonaGap")
    assert "chainweight.conditions" in loaded
    assert not loaded & {"chainweight.chaincount", "chainweight.families", "chainweight.levelbounds"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["bound", "--n", "6", "--condition", "antichain"], {"chaincount", "families"}),
        (["chains", "--n", "21", "--condition", "katona:k=5", "--ell", "2"], {"families"}),
        (["verify", "--n", "7", "--condition", "antichain"], {"chaincount"}),
        (["verify", "--n", "6", "--condition", "katona:k=3", "--family", "1668688168818116",
          "--ell", "2"], {"chaincount"}),
    ],
    ids=["bound", "chains", "verify", "verify-family"],
)
def test_cli_commands_load_only_the_modules_they_run(argv, unused):
    loaded = loaded_after(f"from chainweight.cli import main\nassert main({argv!r}) == 0")
    assert {"chainweight.cli", "chainweight.conditions", "chainweight.levelbounds"} <= loaded
    assert not loaded & {f"chainweight.{name}" for name in unused}


def test_every_public_name_resolves_to_its_submodule_object():
    for name in chainweight.__all__:
        value = getattr(chainweight, name)
        home = sys.modules[f"chainweight.{chainweight._SUBMODULE_OF[name]}"]
        assert getattr(home, name) is value, name
        if isinstance(value, (type, FunctionType)):
            assert value.__module__ == home.__name__, name
    assert chainweight.SearchBudgetExceeded is chainweight.chaincount.SearchBudgetExceeded
    assert chainweight.__all__ == sorted(chainweight.__all__)
    assert len(chainweight.__all__) == 35
    assert chainweight.__version__ == "0.1.0"


def test_dir_and_star_import_list_every_public_name():
    assert set(chainweight.__all__) <= set(dir(chainweight))
    namespace = {}
    exec("from chainweight import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(chainweight.__all__)
    for name in chainweight.__all__:
        assert namespace[name] is getattr(chainweight, name)


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "normalize_levels"):
        with pytest.raises(AttributeError, match=name):
            getattr(chainweight, name)
    assert not hasattr(chainweight, "DEFAULT_NODE_BUDGET")


def test_submodules_resolve_as_attributes():
    # `import chainweight` once bound its submodules; they still resolve.
    assert chainweight.levelbounds.size_bound is chainweight.size_bound
    assert chainweight.families.FamilyMask is FamilyMask


# Pinned from the dataclass versions of these types.
REPRS = [
    (Antichain(), "Antichain()"),
    (ErdosWindow(2), "ErdosWindow(k=2)"),
    (KatonaGap(3), "KatonaGap(k=3)"),
    (RatioLambda(Fraction(3, 2)), "RatioLambda(ratio=Fraction(3, 2))"),
    (RatioLambda(2), "RatioLambda(ratio=Fraction(2, 1))"),
    (IntegerRatio(2), "IntegerRatio(c=2)"),
    (CustomPairwise(4, frozenset({(0, 2), (1, 3)})), "CustomPairwise(n=4, forbidden=frozenset({(0, 2), (1, 3)}))"),
    (CustomPairwise(3, [(0, 1)]), "CustomPairwise(n=3, forbidden=frozenset({(0, 1)}))"),
    (ChainCountResult(41, (0, 3, 6), 2), "ChainCountResult(count=41, levels=(0, 3, 6), ell=2)"),
    (FamilyMask(3, 0x28), "FamilyMask(n=3, bits=0x28)"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[text.partition("(")[0] for _, text in REPRS])
def test_value_reprs_are_pinned(value, text):
    assert repr(value) == text


def test_equality_and_hash_are_by_type_and_fields():
    # A second constructor call gives an equal value with an equal hash.
    for value, _ in REPRS:
        twin = eval(repr(value))
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
    for a, b in [
        (KatonaGap(3), ErdosWindow(3)),
        (IntegerRatio(2), RatioLambda(2)),
        (KatonaGap(3), KatonaGap(4)),
        (FamilyMask(2, 1), FamilyMask(3, 1)),
        (ChainCountResult(1, (0,), 1), ChainCountResult(1, (0,), 2)),
        (Antichain(), KatonaGap(1)),
    ]:
        assert a != b and not a == b
    assert KatonaGap(3) != 3 and KatonaGap(3) != (3,)
    assert Antichain() == Antichain()
    # The cached ratio is not a field.
    cached = IntegerRatio(3)
    assert cached.ratio == 3
    assert cached == IntegerRatio(3) and hash(cached) == hash(IntegerRatio(3))


def test_conditions_of_different_types_get_their_own_conflict_tables():
    level_conflicts.cache_clear()
    gap, window = level_conflicts(KatonaGap(3), 6), level_conflicts(ErdosWindow(3), 6)
    assert level_conflicts.cache_info().currsize == 2
    assert gap != window
    assert gap[0] == 0b110 and window[0] == 0b1110000
    assert level_conflicts(KatonaGap(3), 6) is gap
    assert level_conflicts.cache_info().hits == 1


def test_values_are_immutable():
    for value, _ in REPRS:
        for name in ("k", "n", "bits", "count", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        with pytest.raises(AttributeError):
            del value.n
    assert KatonaGap(3).k == 3
