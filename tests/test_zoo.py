"""Builders and the presentation schema."""

import copy
import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from classical import Classical
from hopfmonad import presentation, zoo
from hopfmonad.cli import EXAMPLES, main
from hopfmonad.exactla import ExactError, FieldSpec, inverse
from hopfmonad.monad import check_bimonad
from hopfmonad.presentation import SchemaError, load
from hopfmonad.verify import verify_model

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)
F7 = FieldSpec.prime(7)


class TestBuilders:
    def test_presentations_are_json_serializable(self):
        for pres in [zoo.build_trivial(Q),
                     zoo.build_group_algebra(zoo.cyclic_group_table(3), F7, "kz3"),
                     zoo.build_sweedler(Q),
                     zoo.build_taft(2, 3),
                     zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), Q),
                     zoo.build_pair_groupoid(Q)]:
            text = json.dumps(pres, sort_keys=True)
            assert load(json.loads(text)).name == pres["name"]

    def test_group_algebra_needs_neutral_first(self):
        with pytest.raises(ExactError):
            zoo.build_group_algebra([[1, 0], [0, 1]], Q)

    def test_taft_needs_root_of_unity(self):
        with pytest.raises(ExactError):
            zoo.build_taft(3, 5)  # 3 does not divide 4

    def test_sweedler_rejects_char_two(self):
        with pytest.raises(ExactError):
            zoo.build_sweedler(FieldSpec.prime(2))

    def test_taft_two_matches_sweedler(self):
        # basis alignment: taft orders g^a x^b as a*2+b, the four-dimensional
        # builder as a+2b; both give the same structure constants over GF(3)
        taft = presentation.load(zoo.build_taft(2, 3))
        sw = presentation.load(zoo.build_sweedler(F3))
        taft_c = Classical(zoo.build_taft(2, 3))
        sw_c = Classical(zoo.build_sweedler(F3))
        perm = [0, 2, 1, 3]  # taft index of the sweedler basis element
        assert np.array_equal(taft_c.mul[np.ix_(perm, perm, perm)], sw_c.mul)
        t2_t = taft.t.t2[((0, 0), (0, 0))].block(0, 0)
        t2_s = sw.t.t2[((0, 0), (0, 0))].block(0, 0)
        for a in range(4):
            for p in range(4):
                for q in range(4):
                    assert t2_t[perm[p] * 4 + perm[q], perm[a]] == t2_s[p * 4 + q, a]
        for a in range(4):
            assert taft.t.t0.block(0, 0)[0, perm[a]] == sw.t.t0.block(0, 0)[0, a]
        assert np.array_equal(taft_c.s[np.ix_(perm, perm)], sw_c.s)

    def test_one_object_groupoid_matches_group_algebra(self, one_object_z2, kz2):
        a, b = one_object_z2.t, kz2.t
        assert a.m.block(0, 0).tolist() == b.m.block(0, 0).tolist()
        assert a.u.block(0, 0).tolist() == b.u.block(0, 0).tolist()
        assert a.t0.block(0, 0).tolist() == b.t0.block(0, 0).tolist()
        key = ((0, 0), (0, 0))
        assert a.t2[key].block(0, 0).tolist() == b.t2[key].block(0, 0).tolist()
        assert one_object_z2.antipode.sl[(0, 0)].block(0, 0).tolist() == \
            kz2.antipode.sl[(0, 0)].block(0, 0).tolist()

    def test_double_s3_loads(self):
        m = presentation.load(
            zoo.build_drinfeld_double_group(zoo.symmetric3_table(), F7, "ds3"))
        assert m.t.carrier_dim == 36
        assert m.stock_modules and m.stock_modules[0].carrier.total_dim() == 6

    def test_groupoid_ambiguity_detected(self):
        with pytest.raises(ExactError):
            zoo.build_groupoid_algebra(["1"], [("g", 0, 0), ("h", 0, 0)], Q)


# sha256 of json.dumps(build_taft(n, p), sort_keys=True), taken when the
# tables were still multiplied out from Δ(g), Δ(x), S(g) and S(x)
TAFT_DIGESTS = {
    (2, 3): "8ee8311f90d7862266aa3470ff51764dbb678226aeb90c6b60d40b8ddf34da67",
    (2, 5): "929a4e5d25f2c887d34089b172e39ae51f9eac8c1370b441c50876d367df0395",
    (2, 7): "17ef759014bc6e84a524a3bec73f8b19db867ceb91addac3aa62314f96d6c267",
    (3, 7): "b6ab217a55ca493d62b26c7ab30bdd01ae9f3435012787c48bdc3a15d633d0b8",
    (3, 13): "9dbafce01a393d65ba0b7cc48388acdc5ce465e0581ddae49b8b052e443ea461",
    (4, 5): "d0800d69c913a19ee9a3eb480bb105d04c97df84b61440f60ba7ef5a2b8af8b9",
    (4, 13): "4c0483ac5ce15a4b8afc5c9e51cba3f63c04aa8052597c39a361f1b4952c56bb",
    (5, 11): "5e287fd4e95b102fcb237311bf9a67d3dbf4da4abb9de5053fa8271803a460ae",
    (6, 7): "0cd075b3c7901cee4cc0390e3fa09692d6bf2398c7a492d97e52e2543bc59d6b",
}


class TestTaft:
    @pytest.mark.parametrize("n,p", list(TAFT_DIGESTS))
    def test_presentation_is_pinned(self, n, p):
        text = json.dumps(zoo.build_taft(n, p), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == TAFT_DIGESTS[n, p]

    @pytest.mark.parametrize("n,p", [(4, 5), (5, 11)])
    def test_axioms_and_derived_pass_past_the_gallery(self, n, p):
        pres = zoo.build_taft(n, p)
        assert Classical(pres).passes()
        rep = verify_model(load(pres), checks=("axioms", "derived"), samples=1)
        assert rep.passed, [r.line() for r in rep.failures()]
        assert rep.find(f"grouplike.inverse_{n - 1}").status == "pass"


class TestTwistInverse:
    @pytest.mark.parametrize("name", [n for n in EXAMPLES if "twist" in EXAMPLES[n]()])
    def test_loader_inverts_the_twist_element(self, name):
        pres = EXAMPLES[name]()
        bare = copy.deepcopy(pres)
        del bare["twist"]["element_inverse"]
        got, want = (load(p) for p in (bare, pres))
        assert got.base.field.equal(*(m.twist[1].comps[(0, 0)].block(0, 0)
                                      for m in (got, want)))


# where a bad scalar goes in the tables of the double of Z2, by the name the
# loader's error gives
PUT = {
    "mul[1][2]": lambda p, x: p["mul"][1][2].__setitem__(3, x),
    "unit": lambda p, x: p["unit"].__setitem__(1, x),
    "coproduct[3]": lambda p, x: p["t2"]["element_coproduct"][3][1].__setitem__(2, x),
    "t0": lambda p, x: p["t0"].__setitem__(2, x),
    "antipode": lambda p, x: p["antipode"]["element"][2].__setitem__(1, x),
    "antipode inverse": lambda p, x: p["antipode"]["element_inverse"][0].__setitem__(3, x),
    "rmatrix": lambda p, x: p["rmatrix"]["element"][1].__setitem__(1, x),
    "twist": lambda p, x: p["twist"]["element"].__setitem__(0, x),
    "twist inverse": lambda p, x: p["twist"]["element_inverse"].__setitem__(3, x),
    "grouplike[0]": lambda p, x: p["grouplikes"][0].__setitem__(1, x),
    "stock_modules[0]": lambda p, x: p["stock_modules"][0]["action"][1].__setitem__(5, x),
    "meta.classical_drinfeld[2]":
        lambda p, x: p["meta"]["classical_drinfeld"].__setitem__(2, x),
}


class TestSchema:
    def test_missing_keys(self):
        with pytest.raises(SchemaError):
            load({"schema": 1, "name": "x", "field": "Q"})

    def test_bad_schema_version(self):
        with pytest.raises(SchemaError):
            load({"schema": 2, "name": "x", "field": "Q", "labels": ["*"]})

    def test_bad_field(self):
        with pytest.raises(SchemaError):
            load({"schema": 1, "name": "x", "field": {"Fp": 6}, "labels": ["*"]})

    def test_shape_mismatch(self):
        pres = zoo.build_sweedler(Q)
        pres["unit"] = ["1", "0"]
        with pytest.raises(SchemaError):
            load(pres)

    def test_scalar_parse_round_trip(self):
        pres = zoo.build_sweedler(Q)
        m = load(pres)
        assert m.t.base.field.is_rationals
        # scalars serialize as plain strings such as -7/2
        from fractions import Fraction
        assert Q.show(Fraction(-7, 2)) == "-7/2"
        assert Q.coerce("-7/2") == Fraction(-7, 2)

    def test_multilabel_without_groupoid_rejected(self):
        with pytest.raises(SchemaError):
            load({"schema": 1, "name": "x", "field": "Q", "labels": ["a", "b"]})

    @pytest.mark.parametrize("where", list(PUT))
    @pytest.mark.parametrize("field,bad,why", [
        (Q, "x", "Invalid literal"), (Q, "1/0", "zero denominator"),
        (F3, "x", "Invalid literal"), (F3, "1/0", "zero denominator"),
        (F3, "2/6", "vanishes mod 3"), (Q, 1.5, "cannot coerce"),
        (F3, [1], "not a scalar"), (Q, {"a": 1}, "not a scalar")])
    def test_bad_scalar_names_its_table(self, where, field, bad, why):
        pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), field)
        PUT[where](pres, bad)
        with pytest.raises(SchemaError) as err:
            load(pres)
        assert str(err.value).startswith(where), str(err.value)
        assert why in str(err.value)

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p["stock_modules"][0].__setitem__("dim", "x"),
         "stock_modules[0].dim: not an integer: 'x'"),
        (lambda p: p["stock_modules"][0].__setitem__("dim", -1),
         "stock_modules[0].dim: must be at least 0, got -1"),
        (lambda p: p["stock_modules"][0].pop("action"),
         "stock_modules[0]: missing key 'action'"),
        (lambda p: p.__setitem__("carrier", [["x"]]), "carrier: not an integer: 'x'"),
        (lambda p: p.__setitem__("carrier", [4]),
         "carrier[0]: expected 1 entries, got int"),
        (lambda p: p["meta"].__setitem__("classical_drinfeld", "1001"),
         "meta.classical_drinfeld: expected a list, got str"),
    ], ids=["dim-token", "dim-negative", "no-action", "carrier-token", "carrier-shape",
            "classical-drinfeld-shape"])
    def test_bad_structural_field_names_it(self, tmp_path, capsys, edit, message):
        pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), Q)
        edit(pres)
        with pytest.raises(SchemaError) as err:
            load(pres)
        assert str(err.value) == message
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(pres))
        with pytest.raises(SystemExit) as exited:
            main(["verify", str(path)])
        assert exited.value.code == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def _map_tokens(table, fn):
    if isinstance(table, list):
        return [_map_tokens(x, fn) for x in table]
    return fn(table)


class TestScalarMemo:
    def test_each_distinct_token_is_coerced_once_per_load(self, monkeypatch):
        pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(5),
                                               FieldSpec.prime(11))
        seen = []
        coerce = FieldSpec.coerce

        def counting(spec, x):
            seen.append(x)
            return coerce(spec, x)

        monkeypatch.setattr(FieldSpec, "coerce", counting)
        load(pres)
        assert sorted(seen) == ["0", "1"]
        seen.clear()
        load(pres)  # the memo lives for one load
        assert sorted(seen) == ["0", "1"]

    @pytest.mark.parametrize("field", [Q, F3])
    def test_token_types_keep_their_verdicts(self, field):
        pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), field)
        ones = itertools.cycle([1, "1", True])
        mixed = _map_tokens(pres["mul"], lambda x: next(ones) if x == "1" else x)
        assert {type(x) for row in mixed for v in row for x in v} == {str, int, bool}
        got = load(dict(pres, mul=mixed))
        want = load(pres)
        assert field.equal(got.t.m.block(0, 0), want.t.m.block(0, 0))
        # 1.0 equals 1 and hashes like it, but a float is still no scalar
        mixed[1][1][0] = 1.0
        with pytest.raises(SchemaError, match=r"^mul\[1\]\[1\]: cannot coerce 1\.0"):
            load(dict(pres, mul=mixed))

    @pytest.mark.parametrize("where", list(PUT))
    @pytest.mark.parametrize("bad", ["1/3", "2/6", "-5/3"])
    def test_vanishing_denominator_is_rejected_at_every_occurrence(self, where, bad):
        pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(2), F3)
        # tokens equal to 1 but spelled otherwise are coerced on their own
        pres["mul"] = _map_tokens(pres["mul"], lambda x: "3/3" if x == "1" else x)
        load(pres)
        PUT[where](pres, bad)
        with pytest.raises(SchemaError,
                           match=rf"^{re.escape(where)}: denominator of .* vanishes mod 3"):
            load(pres)

    @pytest.mark.parametrize("name", [n for n in EXAMPLES if "groupoid" not in n]
                             + ["double_z5_f11"])
    def test_blocks_equal_the_entrywise_construction(self, name):
        if name == "double_z5_f11":
            pres = zoo.build_drinfeld_double_group(zoo.cyclic_group_table(5),
                                                   FieldSpec.prime(11), name)
        else:
            pres = EXAMPLES[name]()
        pres = json.loads(json.dumps(pres))
        model = load(pres)
        f = model.base.field
        got, want = _loaded_blocks(model), _entrywise_blocks(pres)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].shape == want[key].shape, key
            assert got[key].dtype == want[key].dtype, key
            assert f.equal(got[key], want[key]), key


def _entrywise_lists(pres: dict) -> dict:
    f = presentation._parse_field(pres["field"])

    def rows(m):
        return [[f.coerce(x) for x in r] for r in m]

    out = {"mul": [rows(r) for r in pres["mul"]],
           "unit": [f.coerce(x) for x in pres["unit"]],
           "s": rows(pres["antipode"]["element"])}
    if "element_inverse" in pres["antipode"]:
        out["s_inv"] = rows(pres["antipode"]["element_inverse"])
    else:
        out["s_inv"] = [list(r) for r in inverse(f, f.asarray(out["s"]))]
    if "rmatrix" in pres:
        out["r"] = rows(pres["rmatrix"]["element"])
    return out


def _entrywise_blocks(pres: dict) -> dict:
    """The blocks of a vector-backend presentation, made entry by entry from
    coerced nested lists, the way the loader made them before it worked
    on arrays."""
    f = presentation._parse_field(pres["field"])
    n = pres["carrier"][0][0]
    lists = _entrywise_lists(pres)
    mul, s, s_inv = lists["mul"], lists["s"], lists["s_inv"]
    ds = [[[f.coerce(x) for x in r] for r in m] for m in pres["t2"]["element_coproduct"]]

    def antipode(s):
        return f.asarray([[s[j][h] for h in range(n) for j in range(n)]])

    def column(v):
        return f.asarray([[f.coerce(x)] for x in v])

    out = {"m": f.asarray([[mul[a][b][c] for a in range(n) for b in range(n)]
                           for c in range(n)]),
           "u": column(pres["unit"]),
           "t2": f.asarray([[ds[a][p][q] for a in range(n)]
                            for p in range(n) for q in range(n)]),
           "t0": f.asarray([[f.coerce(x) for x in pres["t0"]]]),
           "sl": antipode(s), "sr": antipode(s_inv)}
    if "rmatrix" in pres:
        r = lists["r"]
        out["R"] = f.asarray([[r[q][p]] for p in range(n) for q in range(n)])
    if "twist" in pres:
        out["theta"] = column(pres["twist"]["element"])
        out["theta_inv"] = column(pres["twist"]["element_inverse"])
    for k, g in enumerate(pres.get("grouplikes", [])):
        out[f"g{k}"] = column(g)
    for k, spec in enumerate(pres.get("stock_modules", [])):
        out[f"V{k}"] = f.asarray([[f.coerce(x) for x in r] for r in spec["action"]])
    return out


def _loaded_blocks(model) -> dict:
    t, key = model.t, ((0, 0), (0, 0))
    out = {"m": t.m.block(0, 0), "u": t.u.block(0, 0), "t2": t.t2[key].block(0, 0),
           "t0": t.t0.block(0, 0), "sl": model.antipode.sl[(0, 0)].block(0, 0),
           "sr": model.antipode.sr[(0, 0)].block(0, 0)}
    if model.rmatrix is not None:
        out["R"] = model.rmatrix.comps[key].block(0, 0)
    if model.twist is not None:
        out["theta"], out["theta_inv"] = (e.comps[(0, 0)].block(0, 0) for e in model.twist)
    for k, g in enumerate(model.grouplikes):
        out[f"g{k}"] = g.comps[(0, 0)].block(0, 0)
    for k, mod in enumerate(model.stock_modules):
        out[f"V{k}"] = mod.action.block(0, 0)
    return out


class TestRegression:
    @pytest.mark.parametrize("name", ["trivial", "kz2", "ks3", "sweedler"])
    def test_builders_pass_axioms(self, name, request):
        fixture = {"trivial": "trivial", "kz2": "kz2", "ks3": "ks3",
                   "sweedler": "sweedler"}[name]
        m = request.getfixturevalue(fixture)
        assert check_bimonad(m.t).passed
