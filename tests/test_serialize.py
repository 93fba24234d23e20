"""JSON and CSV round-trips for maps, measures, and schedules."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itmlib.approx import Relation
from itmlib.catalog import half_collapse, halving_map, two_shift_example
from itmlib.circle import arcset
from itmlib.conjugacy import induce_iem
from itmlib.itm import Side
from itmlib.measure import Measure, attractor_measure
from itmlib.piecewise import visit_frequency
from itmlib.serialize import (
    MAX_DECIMAL_EXPONENT,
    _ratio,
    arcset_from_json,
    arcset_to_json,
    cdf_csv,
    conjugacy_csv,
    itm_from_json,
    itm_to_json,
    measure_from_json,
    measure_to_json,
    parse_rational,
    piecewise_from_json,
    piecewise_to_json,
    rat,
    relation_from_json,
    relation_to_json,
    visit_frequency_csv,
)

F = Fraction


class TestRationals:
    def test_lowest_terms(self):
        assert rat(F(2, 4)) == "1/2"
        assert rat(2) == "2"
        assert rat(F(0)) == "0"

    @given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
    def test_ratio_of_integers_is_the_fractions_text(self, n, d):
        assert _ratio(n, d) == str(F(n, d))

    def test_ratio_of_small_integers(self):
        cases = [(0, 7), (-6, 4), (6, 3), (-6, 3), (5, 1), (-1, 10**20), (10**20 + 1, 10**20)]
        assert [_ratio(n, d) for n, d in cases] == [str(F(n, d)) for n, d in cases]

    def test_parse_accepts_fractions_integers_and_decimals(self):
        assert parse_rational("1/3") == F(1, 3)
        assert parse_rational(5) == 5
        assert parse_rational("0.25") == F(1, 4)

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_rational(True)
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational(None)

    def test_parse_accepts_exponents_up_to_the_bound(self):
        assert parse_rational("2.5e-3") == F(1, 400)
        bound = MAX_DECIMAL_EXPONENT
        assert parse_rational(f"1e{bound}") == 10**bound
        assert parse_rational(f"-1E-{bound}") == -F(1, 10**bound)

    @pytest.mark.parametrize(
        "text",
        [
            f"1e{MAX_DECIMAL_EXPONENT + 1}",
            f"1E-{MAX_DECIMAL_EXPONENT + 1}",
            "1e999999999",
            "1e1_000_000",
            "1e" + "9" * 5000,
        ],
    )
    def test_parse_rejects_exponents_past_the_bound_naming_the_field(self, text):
        with pytest.raises(ValueError, match="^shift: decimal exponent"):
            parse_rational(text, "shift")


class TestMapRoundTrips:
    def test_itm(self):
        s = two_shift_example()
        d = itm_to_json(s)
        assert d == {"breakpoints": ["0", "1/2"], "shifts": ["1/3", "1/4"]}
        assert itm_from_json(d) == s

    def test_itm_missing_fields(self):
        with pytest.raises(ValueError):
            itm_from_json({"breakpoints": ["0"]})

    def test_arcset_with_wrap(self):
        a = arcset(("3/4", "1/2"))
        d = arcset_to_json(a)
        assert d == {"arcs": [{"start": "3/4", "length": "1/2"}]}
        assert arcset_from_json(d) == a

    def test_measure(self):
        mu = Measure(
            ((F(0), F(1, 2), F(3, 2)),),
            ((F(1, 4), F(1, 8)), (F(3, 4), F(1, 8))),
        )
        d = measure_to_json(mu)
        assert d["density"] == [
            {"arc": {"start": "0", "length": "1/2"}, "weight": "3/2"}
        ]
        assert measure_from_json(d) == mu

    def test_piecewise(self):
        t = halving_map()
        d = piecewise_to_json(t)
        assert d["domain"] == "segment"
        assert d["pieces"] == [
            {"interval": ["0", "1"], "affine": {"a": "1/2", "b": "0"}}
        ]
        assert d["boundaryValues"] == {"0": "1"}
        assert d["discontinuities"] == ["0"]
        assert piecewise_from_json(d) == t

    def test_piecewise_empty_discontinuity_list_is_explicit(self):
        t = halving_map()
        d = piecewise_to_json(t)
        d["discontinuities"] = []
        assert piecewise_from_json(d).discontinuities == ()


class TestRelations:
    def test_declared_round_trip(self):
        rel = Relation(i=1, j=0, l=(0, 1), w=1)
        assert relation_to_json(rel) == {"i": 1, "j": 0, "l": [0, 1], "w": 1}
        assert relation_from_json({"i": 1, "j": 0, "l": [0, 1], "w": 1}) == rel

    def test_witnessed_relation_exports_its_witness(self):
        rel = Relation(
            i=0, j=0, l=(2,), w=1, side=Side.RIGHT, itinerary=(0, 0)
        )
        d = relation_to_json(rel)
        assert d["side"] == "right"
        assert d["itinerary"] == [0, 0]

    def test_bad_relation_entry(self):
        with pytest.raises(ValueError):
            relation_from_json({"i": 0, "j": 0})

    def test_integer_strings_are_read(self):
        # the integer rule the command line applies to its flags
        rel = relation_from_json({"i": "1", "j": 0, "l": [0, "1"], "w": "1"})
        assert rel == Relation(i=1, j=0, l=(0, 1), w=1)


GOOD_PIECE = {"interval": ["0", "1"], "affine": {"a": "1/2", "b": "0"}}
MALFORMED_JSON = [
    # parser, JSON value, the message it must raise
    (relation_from_json, {"i": 0, "j": 0, "l": "10", "w": "2"}, "'l' must be a list"),
    (relation_from_json, {"i": 0.7, "j": 0, "l": [0], "w": 0}, "'i' must be an integer: 0.7"),
    (relation_from_json, {"i": True, "j": 0, "l": [0], "w": 0}, "'i' must be an integer: True"),
    (relation_from_json, {"i": 0, "j": "x", "l": [0], "w": 0}, "'j' must be an integer: 'x'"),
    (relation_from_json, {"i": 0, "j": 0, "l": [1.9, 0], "w": 0}, "'l' must be an integer: 1.9"),
    (relation_from_json, {"i": 0, "j": 0, "l": [0], "w": 2.0}, "'w' must be an integer: 2.0"),
    (relation_from_json, [0, 0, [0], 0], "must be a JSON object"),
    (itm_from_json, {"breakpoints": "0", "shifts": "7"}, "'breakpoints' must be a list"),
    (itm_from_json, {"breakpoints": ["0"], "shifts": "7"}, "'shifts' must be a list"),
    (itm_from_json, "0", "must be a JSON object"),
    (arcset_from_json, {"arcs": {"start": "0"}}, "'arcs' must be a list"),
    (arcset_from_json, {"arcs": [["0", "1/2"]]}, "'arcs' must list JSON objects"),
    (measure_from_json, {"density": "x"}, "'density' must be a list"),
    (measure_from_json, {"density": [["0", "1", "1"]]}, "'density' must list JSON objects"),
    (
        measure_from_json,
        {"density": [{"arc": ["0", "1"], "weight": "1"}]},
        "'arc' must be a JSON object",
    ),
    (measure_from_json, {"atoms": {"point": "0", "mass": "1"}}, "'atoms' must be a list"),
    (measure_from_json, {"atoms": ["0"]}, "'atoms' must list JSON objects"),
    (measure_from_json, [], "must be a JSON object"),
    (
        piecewise_from_json,
        {"domain": "segment", "pieces": [["0", "1"]]},
        "'pieces' must list JSON objects",
    ),
    (piecewise_from_json, {"domain": "segment", "pieces": "x"}, "'pieces' must be a list"),
    (
        piecewise_from_json,
        {"domain": "segment", "pieces": [{"interval": "01", "affine": {"a": 0, "b": 0}}]},
        "'interval' must be a list",
    ),
    (
        piecewise_from_json,
        {"domain": "segment", "pieces": [{"interval": ["0"], "affine": {"a": 0, "b": 0}}]},
        "'interval' must list two values",
    ),
    (
        piecewise_from_json,
        {"domain": "segment", "pieces": [{"interval": ["0", "1"], "affine": ["1/2", "0"]}]},
        "'affine' must be a JSON object",
    ),
    (
        piecewise_from_json,
        {"domain": "segment", "pieces": [GOOD_PIECE], "boundaryValues": [["0", "1"]]},
        "'boundaryValues' must be a JSON object",
    ),
    (
        piecewise_from_json,
        {"domain": "segment", "pieces": [GOOD_PIECE], "discontinuities": "0"},
        "'discontinuities' must be a list",
    ),
    (piecewise_from_json, {"domain": "torus", "pieces": [GOOD_PIECE]}, "'domain' must be"),
]


class TestMalformedJson:
    @pytest.mark.parametrize(
        "parse, value, message",
        MALFORMED_JSON,
        ids=[f"{p.__name__}-{i}" for i, (p, _, _) in enumerate(MALFORMED_JSON)],
    )
    def test_refused_naming_the_key(self, parse, value, message):
        with pytest.raises(ValueError) as exc:
            parse(value)
        assert message in str(exc.value)


class TestCsv:
    def test_cdf_csv_at_breaklist(self):
        mu = Measure(((F(0), F(1, 2), F(2)),))
        assert cdf_csv(mu) == "x,F(x)\n0,0\n1/2,1\n1,1\n"

    @pytest.mark.parametrize(
        "mu, text",
        [
            # atoms at 0, on the density cut 1/2 and at 1
            (
                Measure(
                    ((F(0), F(1, 2), F(1)),),
                    ((F(0), F(1, 8)), (F(1, 2), F(1, 4)), (F(1), F(1, 8))),
                ),
                "x,F(x)\n0,1/8\n1/2,7/8\n1,1\n",
            ),
            # an atom inside a density run cuts it
            (
                Measure(((F(1, 4), F(3, 4), F(1)),), ((F(1, 2), F(1, 2)),)),
                "x,F(x)\n0,0\n1/4,0\n1/2,3/4\n3/4,1\n1,1\n",
            ),
            (Measure.point_mass(F(1, 3)), "x,F(x)\n0,0\n1/3,1\n1,1\n"),
        ],
    )
    def test_cdf_csv_rows_are_the_cdf_at_each_cut(self, mu, text):
        cdf = mu.cdf()
        rows = "".join(f"{rat(x)},{rat(cdf.at(x))}\n" for x in cdf.cuts)
        assert cdf_csv(mu) == "x,F(x)\n" + rows == text

    def test_visit_frequency_csv(self):
        table = visit_frequency(
            halving_map(), F(1), 4, epsilons=(F(1, 4),)
        )
        assert visit_frequency_csv(table) == "m,eps,f\n4,1/4,1/2\n"

    def test_conjugacy_csv_shape(self):
        s = half_collapse()
        data = induce_iem(s, attractor_measure(s), samples=4)
        lines = conjugacy_csv(data).strip().split("\n")
        assert lines[0] == "x,h(x)"
        assert len(lines) == 5
        x, hx = lines[1].split(",")
        assert parse_rational(hx) == data.h.at(parse_rational(x))
