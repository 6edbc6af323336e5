"""The verification pipeline builds each shared structure once per call."""

import dataclasses
import json
import subprocess
import sys

import pytest

from hopfmonad import antipode, hopfstruct, presentation, qtrib, verify, zoo
from hopfmonad.antipode import AntipodeData
from hopfmonad.cli import main
from hopfmonad.exactla import ChainOverflow, FieldSpec
from hopfmonad.verify import SUITES, verify_model

BUILDERS = [
    qtrib.drinfeld_element,
    qtrib.drinfeld_inverse,
    qtrib.star_inverse_of_r,
    antipode.square_of_antipode,
    antipode.is_involutory,
    hopfstruct.gamma_family,
    hopfstruct.solve_cointegrals,
]


def count_calls(monkeypatch, fn, counts):
    """Wrap `fn` in every loaded hopfmonad module that bound it by name.

    square_of_antipode builds S² from the left antipode and S⁻² from the
    right one, so its calls are counted per structure: by the side's label."""
    by_side = fn is antipode.square_of_antipode

    def counted(*args, **kwargs):
        key = f"{fn.__name__}[{args[1].label}]" if by_side else fn.__name__
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "hopfmonad" or name.startswith("hopfmonad."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)


@pytest.mark.parametrize("fixture", ["dz2", "ks3"])
def test_each_structure_built_once(fixture, request, monkeypatch):
    m = request.getfixturevalue(fixture)
    counts = {fn.__name__: 0 for fn in BUILDERS}
    for fn in BUILDERS:
        count_calls(monkeypatch, fn, counts)
    rep = verify_model(m, checks=SUITES, samples=1)
    assert rep.passed, [x.line() for x in rep.failures()]
    assert all(n <= 1 for n in counts.values()), counts
    # each structure was needed by some suite, so the counters did see calls
    assert counts["square_of_antipode[left antipode]"] == counts["gamma_family"] == 1
    assert counts["square_of_antipode[right antipode]"] == 1
    assert counts["drinfeld_element"] == (m.rmatrix is not None)


def test_drinfeld_command_builds_u_once(monkeypatch, capsys):
    # the command prints the u that verify_model built for its checks
    counts = {"drinfeld_element": 0}
    count_calls(monkeypatch, qtrib.drinfeld_element, counts)
    assert main(["drinfeld", "double_z2", "--json"]) == 0
    assert counts["drinfeld_element"] == 1
    assert len(json.loads(capsys.readouterr().out)["info"]["drinfeld_element"]) == 4


def test_overflow_in_drinfeld_inverse_is_an_internal_error(dz2, monkeypatch, capsys):
    # only an R⁻¹ that fails its checks becomes a report line on u⁻¹;
    # a chain that overflows while u⁻¹ is built ends the run (exit 3)
    def overflow(*args):
        raise ChainOverflow("intermediate too large")

    monkeypatch.setattr(verify, "drinfeld_inverse", overflow)
    with pytest.raises(ChainOverflow):
        verify_model(dz2, checks=("quasitriangular",))
    assert main(["verify", "double_z2", "--checks", "quasitriangular"]) == 3
    assert "intermediate too large" in capsys.readouterr().err


# the checks a one-sided kz2 cannot run, by the side it keeps
ONE_SIDED_SKIPS = {
    "sl": ["rmatrix.right_dual_law", "twist.from_inverse",
           "twist.from_inverse_self_dual_iff"],
    "sr": ["rmatrix.star_inverse_left", "rmatrix.left_dual_law",
           "drinfeld.comultiplicativity", "drinfeld.counit", "drinfeld.inverse",
           "drinfeld.square_of_antipode", "drinfeld.classical_match", "twist.central", "twist.inverse",
           "twist.compatibility", "twist.self_dual", "sovereign.grouplike",
           "sovereign.conjugation", "sovereign.self_duality_equiv",
           "twist.square_law", "twist.from_inverse",
           "twist.from_inverse_self_dual_iff"],
}
# without a left antipode there is no inverse of R, and check_rmatrix and
# check_braiding leave out these checks that read it
LEFT_OUT = {"sl": [], "sr": ["rmatrix.star_inverse_right", "braiding.mirror_is_inverse"]}


@pytest.mark.parametrize("side", ["sl", "sr"])
def test_one_sided_antipode_ends_in_report(kz2, side):
    # only the Python API builds a one-sided antipode; the checks that need
    # the missing side are skipped with a note under their own names, in
    # the order of the two-sided report, and the others still run and pass
    full = verify_model(kz2, checks=("quasitriangular",))
    one_sided = AntipodeData(kz2.t, **{side: getattr(kz2.antipode, side).comps})
    m = dataclasses.replace(kz2, antipode=one_sided)
    rep = verify_model(m, checks=("quasitriangular",))
    assert [x.check for x in rep.results] == [x.check for x in full.results
                                              if x.check not in LEFT_OUT[side]]
    assert [x.check for x in rep.results if x.status == "skip"] == ONE_SIDED_SKIPS[side]
    assert all(x.status == "pass" for x in rep.results
               if x.check not in ONE_SIDED_SKIPS[side])


# the derived and modules checks a one-sided kz2 cannot run, by the side it keeps
BOTH_SIDES = ["antipode.inverse_rl", "antipode.inverse_lr", "morphism.product",
              "morphism.unit", "morphism.coproduct", "morphism.counit", "square.inverse",
              "elements.antipode_unit", "elements.antipode_inverse_map",
              "elements.antipode_anti_hom", "elements.square_consistency"]
ONE_SIDED_DERIVED_SKIPS = {
    "sl": ["derived.right_anti_mult", "derived.right_anti_unit",
           "derived.right_anti_comult", "derived.right_anti_counit", *BOTH_SIDES,
           "dual.right_valid", "dual.right_ev_linear", "dual.right_coev_linear"],
    "sr": ["derived.left_anti_mult", "derived.left_anti_unit",
           "derived.left_anti_comult", "derived.left_anti_counit", *BOTH_SIDES,
           "grouplike.inverse_0", "grouplike.inverse_1",
           "dual.left_valid", "dual.left_ev_linear", "dual.left_coev_linear"],
}


@pytest.mark.parametrize("side", ["sl", "sr"])
def test_one_sided_antipode_derived_and_modules(kz2, side):
    # same contract as the quasitriangular suite: every check of the
    # two-sided report, in its order, skipped when it reads the missing side
    checks = ("derived", "modules")
    full = verify_model(kz2, checks=checks)
    one_sided = AntipodeData(kz2.t, **{side: getattr(kz2.antipode, side).comps})
    rep = verify_model(dataclasses.replace(kz2, antipode=one_sided), checks=checks)
    assert [x.check for x in rep.results] == [x.check for x in full.results]
    assert [x.check for x in rep.results if x.status == "skip"] == \
        ONE_SIDED_DERIVED_SKIPS[side]
    assert all(x.status == "pass" for x in rep.results
               if x.check not in ONE_SIDED_DERIVED_SKIPS[side])
    assert "involutory" not in rep.info


@pytest.mark.parametrize("side", ["sl", "sr"])
def test_one_sided_antipode_hopfmodules_and_maschke(kz2, side):
    # the hopfmodules suite and the Maschke sections read the right
    # antipode: without it the suite is one skip and each section check is
    # skipped by name; with only the right side both run as usual
    checks = ("hopfmodules", "maschke")
    full = verify_model(kz2, checks=checks)
    one_sided = AntipodeData(kz2.t, **{side: getattr(kz2.antipode, side).comps})
    rep = verify_model(dataclasses.replace(kz2, antipode=one_sided), checks=checks)
    if side == "sr":
        assert [(x.check, x.status) for x in rep.results] == \
            [(x.check, x.status) for x in full.results]
        return
    sections = ["separable.bimodule", "separable.splitting", "maschke.sections"]
    assert [x.check for x in full.results][-3:] == sections
    assert [(x.check, x.status, x.note) for x in rep.results] == \
        [(check, "skip", "needs the right antipode") for check in ["hopfmodules", *sections]]
    assert rep.info["semisimple"] == full.info["semisimple"]


def test_failed_axioms_skip_the_dual_module_checks(pair_groupoid):
    # the dual modules of a structure that fails the axioms fail only as a
    # consequence: one skip stands for their checks; the conservativity
    # probe reads no axiom and stays
    pres = zoo.build_group_algebra(zoo.symmetric3_table(), FieldSpec.rationals(), "kS3_bad")
    pres["mul"][1][1][0] = "1"
    for m in (pair_groupoid, presentation.load(pres)):
        rep = verify_model(m, checks=("axioms", "modules"))
        assert not rep.passed
        assert not any(x.check.startswith("dual.") for x in rep.results)
        assert [(x.check, x.status, x.note) for x in rep.results][-1] == \
            ("dual", "skip", verify.AXIOMS_FAILED)
        assert rep.results[-2].check == "modules.conservativity"
        # run without the axioms, the modules suite still checks the duals
        alone = verify_model(m, checks=("modules",))
        assert [x.check for x in alone.results if x.check.startswith("dual.")]


# the builtins of the perfbench gallery workload
GALLERY = ("trivial", "kz2", "ks3", "ks3_f3", "sweedler", "taft3", "double_z2",
           "double_z2_f3", "disconnected_groupoid", "pair_groupoid")

IMPORTS_CHILD = """\
import json, sys
from hopfmonad import presentation, zoo
from hopfmonad.cli import EXAMPLES
from hopfmonad.exactla import FieldSpec
from hopfmonad.verify import verify_model
name = {name!r}
if name == "double_z5_f11":
    pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(5), FieldSpec.prime(11), name)
    checks = ("quasitriangular",)
else:
    pres, checks = EXAMPLES[name](), None
model = presentation.load(pres)
before = set(sys.modules)
verify_model(model) if checks is None else verify_model(model, checks=checks)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("name", GALLERY + ("double_z5_f11",))
def test_verification_imports_nothing(name):
    # a module imported on first use (numpy.ma by np.unique, for one) costs
    # every CLI call its import; in a fresh interpreter, verify_model on a
    # loaded model leaves sys.modules as it found it
    out = subprocess.run([sys.executable, "-c", IMPORTS_CHILD.format(name=name)],
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
