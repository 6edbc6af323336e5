"""The verification pipeline builds each shared structure once per call."""

import json
import sys

import pytest

from hopfmonad import antipode, hopfstruct, qtrib
from hopfmonad.cli import main
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
    """Wrap `fn` in every loaded hopfmonad module that bound it by name."""
    def counted(*args, **kwargs):
        counts[fn.__name__] += 1
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
    assert counts["square_of_antipode"] == counts["gamma_family"] == 1
    assert counts["drinfeld_element"] == (m.rmatrix is not None)


def test_drinfeld_command_builds_u_once(monkeypatch, capsys):
    # the command prints the u that verify_model built for its checks
    counts = {"drinfeld_element": 0}
    count_calls(monkeypatch, qtrib.drinfeld_element, counts)
    assert main(["drinfeld", "double_z2", "--json"]) == 0
    assert counts["drinfeld_element"] == 1
    assert len(json.loads(capsys.readouterr().out)["info"]["drinfeld_element"]) == 4
