import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from nesthilb import toric
from nesthilb.charalg import Weight
from nesthilb.cli import main
from nesthilb.errors import NonConstantSum, WrongCoefficientCount
from nesthilb.toric import (
    EquivariantLineBundle,
    _check_edges,
    canonical_bundle,
    intersect,
    line_bundle,
    surface_from_json,
    surface_hirzebruch,
    surface_p1xp1,
    surface_p2,
    trivial_bundle,
)
from nesthilb.verify import case2_check, theorem7_check


class TestBuiltinSurfaces:
    def test_plane_has_three_fixed_points(self):
        assert surface_p2().euler_number == 3

    def test_quadric_has_four_fixed_points(self):
        assert surface_p1xp1().euler_number == 4

    def test_hirzebruch_zero_matches_quadric_charts(self):
        f0 = surface_hirzebruch(0)
        q = surface_p1xp1()
        assert f0.charts == q.charts

    def test_negative_hirzebruch_parameter_rejected(self):
        with pytest.raises(ValueError, match="^Hirzebruch parameter must be nonnegative$"):
            surface_hirzebruch(-1)

    def test_plane_charts_cover_the_fan(self):
        # dual bases of adjacent cones; the chart weights pairwise
        # generate the character lattice
        for c in surface_p2().charts:
            assert abs(c.w1.a * c.w2.b - c.w1.b * c.w2.a) == 1


class TestLineBundles:
    def test_trivial_divisor(self):
        S = surface_p2()
        L = line_bundle(S, [0, 0, 0])
        assert all(w == Weight(0, 0) for w in L.weights)

    def test_hyperplane_weights_form_lattice_triangle(self):
        S = surface_p2()
        L = line_bundle(S, [0, 0, 1])
        assert sorted(L.weights) == [Weight(-1, 0), Weight(0, -1), Weight(0, 0)]

    def test_canonical_weight_is_minus_chart_sum(self):
        for S in (surface_p2(), surface_p1xp1(), surface_hirzebruch(2)):
            K = canonical_bundle(S)
            for chart, w in zip(S.charts, K.weights):
                assert w == -(chart.w1 + chart.w2)

    def test_canonical_bundle_built_once_per_surface(self, monkeypatch):
        # K is made, and checked, once per surface; equal surfaces share it
        S = surface_hirzebruch(2)
        M = line_bundle(S, [0, 0, 1, 0])
        K = canonical_bundle(S)
        runs = []
        check_edges = toric._check_edges
        monkeypatch.setattr(toric, "_check_edges", lambda *a: runs.append(a) or check_edges(*a))
        assert canonical_bundle(surface_hirzebruch(2)) is K
        theorem7_check(S, M, 1)
        case2_check(S, M, 1)
        assert runs == []

    def test_canonical_agrees_with_divisor_recipe(self):
        S = surface_p2()
        assert canonical_bundle(S).weights == line_bundle(S, [-1, -1, -1]).weights

    def test_wrong_weight_count_rejected(self):
        S = surface_p2()
        message = "^bundle 'L' has 2 weights, but surface 'p2' has 3 fixed points$"
        with pytest.raises(ValueError, match=message):
            EquivariantLineBundle("L", (Weight(0, 0), Weight(0, 0)), S)

    def test_wrong_coefficient_count(self):
        with pytest.raises(WrongCoefficientCount):
            line_bundle(surface_p2(), [1, 2])

    @pytest.mark.parametrize(
        "coeffs,index", [([0.0, 0, 1], 0), ([0, Fraction(1, 2), 1], 1), ([0, 0, True], 2)]
    )
    def test_non_integer_coefficient_rejected(self, coeffs, index):
        got = re.escape(repr(coeffs[index]))
        match = rf"divisor coefficient {index}: expected an integer, got {got}"
        with pytest.raises(ValueError, match=match):
            line_bundle(surface_p2(), coeffs)


class TestIntersect:
    def test_trivial_pairs_to_zero(self):
        S = surface_p2()
        assert intersect(S, trivial_bundle(S), canonical_bundle(S)) == 0

    def test_plane_degree(self):
        S = surface_p2()
        H = line_bundle(S, [0, 0, 1])
        assert intersect(S, H, H) == 1

    def test_plane_canonical_square(self):
        S = surface_p2()
        K = canonical_bundle(S)
        assert intersect(S, K, K) == 9

    def test_quadric_canonical_square(self):
        S = surface_p1xp1()
        K = canonical_bundle(S)
        assert intersect(S, K, K) == 8

    def test_quadric_rulings(self):
        S = surface_p1xp1()
        A = line_bundle(S, [0, 0, 1, 0])
        B = line_bundle(S, [0, 0, 0, 1])
        assert intersect(S, A, B) == 1
        assert intersect(S, A, A) == 0
        assert intersect(S, B, B) == 0

    def test_hirzebruch_canonical_square(self):
        # K^2 = 8 on every Hirzebruch surface
        for a in (0, 1, 2, 3):
            S = surface_hirzebruch(a)
            K = canonical_bundle(S)
            assert intersect(S, K, K) == 8

    def test_symmetric_and_bilinear(self):
        S = surface_p1xp1()
        grid = [
            line_bundle(S, coeffs)
            for coeffs in ([0, 0, 1, 0], [0, 0, 0, 1], [1, 0, -1, 2], [0, 1, 1, 1])
        ]
        for L in grid:
            for Lp in grid:
                assert intersect(S, L, Lp) == intersect(S, Lp, L)
        # bilinearity over divisor coefficients
        a = line_bundle(S, [1, 0, 2, 0])
        b = line_bundle(S, [0, 1, 0, 1])
        c = line_bundle(S, [1, 1, 2, 1])
        H = grid[0]
        assert intersect(S, c, H) == intersect(S, a, H) + intersect(S, b, H)

    @pytest.mark.parametrize(
        "S,M",
        [
            (surface_p1xp1(), line_bundle(surface_p2(), [0, 0, 1])),
            (surface_p2(), line_bundle(surface_p1xp1(), [0, 0, 1, 0])),
        ],
        ids=["p2-bundle-on-p1xp1", "p1xp1-bundle-on-p2"],
    )
    def test_bundle_from_another_surface_rejected(self, S, M):
        match = re.escape(f"bundle {M.label!r} was made on surface {M.surface.name!r}, "
                          f"but is used on surface {S.name!r}")
        with pytest.raises(ValueError, match=match):
            intersect(S, M, trivial_bundle(S))

    def test_constancy_across_seeds(self):
        S = surface_p2()
        K = canonical_bundle(S)
        assert intersect(S, K, K, seed=1) == intersect(S, K, K, seed=99)

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_bundle_off_the_edges_is_not_constant(self, seed):
        # weights that fail the GKM check, made past it: the localization
        # sum is x/y, which moves with the point, so no pairing is returned
        S = surface_p2()
        bad = object.__new__(EquivariantLineBundle)
        bad.label, bad.weights, bad.surface = "bad", (Weight(1, 0), Weight(0, 0), Weight(0, 0)), S
        with pytest.raises(ValueError):
            EquivariantLineBundle("bad", bad.weights, S)
        with pytest.raises(NonConstantSum, match=r"^localization sum not constant on p2 pairing "
                                                 r"<bad, bad>: "):
            intersect(S, bad, bad, seed=seed)


DESCRIPTOR = {
    "name": "custom-plane",
    "fixed_points": [
        {"w1": [1, 0], "w2": [0, 1], "bundles": {"L": [0, 0]}},
        {"w1": [-1, 1], "w2": [-1, 0], "bundles": {"L": [-1, 0]}},
        {"w1": [0, -1], "w2": [1, -1], "bundles": {"L": [0, -1]}},
    ],
}



def _edited(edit) -> str:
    """The JSON text of a copy of DESCRIPTOR with ``edit`` applied."""
    doc = json.loads(json.dumps(DESCRIPTOR))
    edit(doc)
    return json.dumps(doc)


# descriptor texts and their whole refusal message
MALFORMED = {
    "nested-too-deeply": ("[" * 5000, "surface descriptor nests too deeply"),
    "not-an-object": ("[1, 2, 3]", "surface descriptor must be a JSON object"),
    "name-not-a-string": (
        _edited(lambda d: d.update(name=7)), "surface descriptor needs a string 'name'"
    ),
    "bundles-not-an-object": (
        _edited(lambda d: d["fixed_points"][1].update(bundles=[[-1, 0]])),
        "fixed_points[1].bundles must be an object",
    ),
    "bundle-labels-differ": (
        _edited(lambda d: d["fixed_points"][2]["bundles"].update(M=[0, -1])),
        "fixed_points[2]: bundle labels differ between fixed points",
    ),
    "weight-not-a-pair": (
        _edited(lambda d: d["fixed_points"][0].update(w2=[0, 1, 0])),
        "fixed_points[0].w2: expected a pair [a, b], got [0, 1, 0]",
    ),
    "unknown-key": (
        _edited(lambda d: d.update(fan=[[1, 0], [0, 1], [-1, -1]])),
        "surface descriptor key 'fan' is not supported",
    ),
    "bundle-for-bundles": (
        _edited(lambda d: [p.update(bundle=p.pop("bundles")) for p in d["fixed_points"]]),
        "fixed_points[0]: key 'bundle' is not supported",
    ),
    "unknown-point-key": (
        _edited(lambda d: d["fixed_points"][2].update(w3=[1, 1])),
        "fixed_points[2]: key 'w3' is not supported",
    ),
}


class TestJsonDescriptor:
    @pytest.mark.parametrize("text,message", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_descriptor_rejected(self, text, message, tmp_path, capsys):
        # through the API a ValueError; through the CLI a usage error (exit 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            surface_from_json(text)
        path = tmp_path / "surface.json"
        path.write_text(text)
        assert main(["--surface", f"file:{path}", "--check", "theorem7", "--nmax", "0"]) == 2
        assert capsys.readouterr().err == f"error: cannot load surface file: {message}\n"

    def test_misspelt_bundles_key_refused_before_any_bundle_lookup(self, tmp_path, capsys):
        # "bundle" for "bundles" once loaded a surface with no labels, and
        # --bundle L then said only that no bundle is named 'L'
        path = tmp_path / "surface.json"
        path.write_text(MALFORMED["bundle-for-bundles"][0])
        assert main(["--surface", f"file:{path}", "--bundle", "L", "--check", "theorem7"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot load surface file: fixed_points[0]: key 'bundle' is not supported\n"
        )

    def test_roundtrip(self):
        S = surface_from_json(json.dumps(DESCRIPTOR))
        assert S.name == "custom-plane"
        assert S.euler_number == 3
        L = S.bundle("L")
        # same equivariant data as O(1) on the plane built from the fan
        ref = line_bundle(surface_p2(), [0, 0, 1])
        assert intersect(S, L, L) == 1
        assert sorted(L.weights) == sorted(ref.weights)

    def test_canonical_available_on_custom_surfaces(self):
        S = surface_from_json(json.dumps(DESCRIPTOR))
        assert intersect(S, S.bundle("K"), S.bundle("K")) == 9

    def test_floats_rejected(self):
        bad = json.loads(json.dumps(DESCRIPTOR))
        bad["fixed_points"][0]["w1"] = [1.0, 0]
        with pytest.raises(ValueError):
            surface_from_json(json.dumps(bad))

    def test_too_few_points_rejected(self):
        bad = {"name": "x", "fixed_points": DESCRIPTOR["fixed_points"][:2]}
        with pytest.raises(ValueError):
            surface_from_json(json.dumps(bad))

    def test_intersections_table_rejected(self, tmp_path, capsys):
        # pairings come from localization only; an override table that
        # stopped applying silently would be worse than refusing it
        doc = dict(DESCRIPTOR)
        doc["intersections"] = {"L": {"L": 7}}
        with pytest.raises(ValueError, match="intersections"):
            surface_from_json(json.dumps(doc))
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        assert main(["--surface", f"file:{path}", "--bundle", "L", "--check", "theorem7"]) == 2
        assert "intersections" in capsys.readouterr().err

    def test_descriptors_in_use_load(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        for text in (
            (root / "perfbench" / "data" / "custom-plane.json").read_text(encoding="utf-8"),
            readme.split("```json\n", 1)[1].split("```", 1)[0],
        ):
            assert surface_from_json(text).bundle("L").weights == tuple(
                Weight(*pt["bundles"]["L"]) for pt in DESCRIPTOR["fixed_points"]
            )

    def test_fan_surfaces_meet_the_edge_conditions(self):
        for S in (surface_p2(), surface_p1xp1(), surface_hirzebruch(2), surface_hirzebruch(3)):
            M = line_bundle(S, list(range(1, len(S.rays) + 1)))
            bundles = {"M": list(M.weights), "K": list(canonical_bundle(S).weights)}
            _check_edges(list(S.charts), bundles)

    def test_bundle_off_the_edge_rejected(self, tmp_path, capsys):
        # L at fixed_points[1] moved by [0, 1]: not a multiple of the edge
        # weight [1, 0] to fixed_points[0]; the sums would not be constant
        bad = json.loads(json.dumps(DESCRIPTOR))
        bad["fixed_points"][1]["bundles"]["L"] = [-1, 1]
        message = r"fixed_points\[0\]: bundle 'L' .* fixed_points\[1\] differ by \[1, -1\]"
        with pytest.raises(ValueError, match=message):
            surface_from_json(json.dumps(bad))
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(bad))
        assert main(["--surface", f"file:{path}", "--bundle", "L", "--check", "theorem7"]) == 2
        assert "fixed_points[0]: bundle 'L'" in capsys.readouterr().err

    def test_canonical_bundle_off_the_edge_rejected(self):
        # every chart weight has an opposite, but no fixed point carries
        # [0, -1] next to [1, 0] - m * [0, 1], so the edge from fixed_points[0]
        # along [0, 1] has no end; K = -w1 - w2 there and at fixed_points[2]
        # differs by [-2, -3], no multiple of [0, 1]
        bad = {"name": "bad-K", "fixed_points": [
            {"w1": [1, 0], "w2": [0, 1]},
            {"w1": [-1, 0], "w2": [1, 1]},
            {"w1": [-1, -1], "w2": [0, -1]},
        ]}
        message = ("fixed_points[0]: the edge along [0, 1] needs one end with chart weights "
                   "[0, -1] and [1, 0] - m * [0, 1], m an integer; found none")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            surface_from_json(json.dumps(bad))

    def test_bundle_off_by_half_an_edge_rejected(self):
        # the plane with s1 doubled loads; L then moved by half the edge
        # weight [2, 0] is parallel to it but not an integer multiple
        doubled = json.loads(json.dumps(DESCRIPTOR))
        for pt in doubled["fixed_points"]:
            for w in (pt["w1"], pt["w2"], pt["bundles"]["L"]):
                w[0] *= 2
        surface_from_json(json.dumps(doubled))
        doubled["fixed_points"][1]["bundles"]["L"] = [-1, 0]
        message = r"fixed_points\[0\]: .* by \[1, 0\], not a multiple of the chart weight \[2, 0\]"
        with pytest.raises(ValueError, match=message):
            surface_from_json(json.dumps(doubled))

    def test_chart_weight_without_opposite_rejected(self):
        bad = json.loads(json.dumps(DESCRIPTOR))
        bad["fixed_points"][2]["w2"] = [2, -1]
        with pytest.raises(ValueError, match=r"fixed_points\[1\]: chart weight \[-1, 1\]"):
            surface_from_json(json.dumps(bad))

    @pytest.mark.parametrize("label", ["O", "K"])
    def test_reserved_bundle_label_rejected(self, label, tmp_path, capsys):
        # S.bundle returns the built-in trivial and canonical bundles before
        # the descriptor's own, which would be silently ignored
        doc = json.loads(json.dumps(DESCRIPTOR))
        for pt in doc["fixed_points"]:
            pt["bundles"][label] = pt["bundles"].pop("L")
        message = rf"fixed_points\[0\]\.bundles: label '{label}' is reserved"
        with pytest.raises(ValueError, match=message):
            surface_from_json(json.dumps(doc))
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        assert main(["--surface", f"file:{path}", "--bundle", label, "--check", "theorem7"]) == 2
        assert f"label '{label}' is reserved" in capsys.readouterr().err

    def test_unknown_bundle_label(self):
        S = surface_from_json(json.dumps(DESCRIPTOR))
        with pytest.raises(KeyError):
            S.bundle("missing")


FANS = {  # complete smooth fans, rays counterclockwise
    "p2": [(1, 0), (0, 1), (-1, -1)],
    "p1xp1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "f1": [(1, 0), (0, 1), (-1, 1), (0, -1)],
    "f2": [(1, 0), (0, 1), (-1, 2), (0, -1)],
    "f3": [(1, 0), (0, 1), (-1, 3), (0, -1)],
    "dp7": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
    "dp6": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "blowup": [(1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)],
}


def _self_intersections(rays):
    # D_i^2 = -det(v_{i-1}, v_{i+1}) on a smooth complete fan
    n = len(rays)
    return [u[1] * v[0] - u[0] * v[1] for u, v in ((rays[i - 1], rays[(i + 1) % n]) for i in range(n))]


class TestGkmGraph:
    """The edge rule on chart weights against the fan it came from."""

    @pytest.mark.parametrize("name", FANS)
    def test_edges_are_the_fan_curves(self, name):
        # chart i is the cone of rays i, i+1: its w1 edge runs along D_{i+1}
        # to chart i+1, its w2 edge along D_i to chart i-1
        rays = FANS[name]
        n = len(rays)
        S = toric._from_fan(name, rays)
        D2 = _self_intersections(rays)
        expected = sorted(
            (k, w, j, D2[d % n])
            for k, c in enumerate(S.charts)
            for w, j, d in ((c.w1, (k + 1) % n, k + 1), (c.w2, (k - 1) % n, k))
        )
        edges = toric._edges(S.charts)
        assert sorted(edges) == expected
        assert sorted(m for *_, m in edges) == sorted(D2 * 2)

    @pytest.mark.parametrize("name", FANS)
    def test_fano_is_the_fan_rule(self, name):
        S = toric._from_fan(name, FANS[name])
        assert S.fano is all(d >= -1 for d in _self_intersections(FANS[name]))

    def test_fans_cover_both_answers(self):
        fano = {name: toric._from_fan(name, rays).fano for name, rays in FANS.items()}
        assert [name for name, f in fano.items() if not f] == ["f2", "f3", "blowup"]

    def test_descriptors_are_fano(self):
        root = Path(__file__).resolve().parents[1]
        for path in (root / "perfbench" / "data" / "custom-plane.json",
                     root / "tests" / "data" / "scaled-plane.json"):
            S = surface_from_json(path.read_text(encoding="utf-8"))
            assert [m for *_, m in toric._edges(S.charts)] == [1] * 6
            assert S.fano

    def test_constructor_accepts_exactly_the_bundles(self):
        # p1xp1 has two fixed points carrying each opposite weight, so the
        # end of an edge is fixed by the other weight; weights that fit some
        # other end are no bundle, and their pairings are not constant
        S = surface_p1xp1()
        box = [Weight(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        genuine = set()
        for coeffs in itertools.product(range(-2, 3), repeat=4):
            ws = line_bundle(S, list(coeffs)).weights
            shifted = tuple(w - ws[0] for w in ws)
            if all(w in box for w in shifted):
                genuine.add(shifted)
        accepted = set()
        for rest in itertools.product(box, repeat=3):
            weights = (Weight(0, 0), *rest)
            try:
                EquivariantLineBundle("L", weights, S)
            except ValueError:
                continue
            accepted.add(weights)
        assert len(genuine) == 25
        assert accepted == genuine


def _pairing(w, v):
    return w.a * v[0] + w.b * v[1]


class TestFanCharts:
    """Charts and O(D) weights against the pairings with the rays they came
    from; each fan is also read clockwise, where every cone has det -1."""

    @pytest.mark.parametrize("name", FANS)
    @pytest.mark.parametrize("order", [1, -1], ids=["ccw", "cw"])
    def test_charts_are_the_dual_bases(self, name, order):
        rays = FANS[name][::order]
        S = toric._from_fan(name, rays)
        cones = zip(rays, rays[1:] + rays[:1])
        pairings = [
            (_pairing(c.w1, vi), _pairing(c.w1, vj), _pairing(c.w2, vi), _pairing(c.w2, vj))
            for c, (vi, vj) in zip(S.charts, cones)
        ]
        assert pairings == [(1, 0, 0, 1)] * len(rays)

    @pytest.mark.parametrize("name", FANS)
    @pytest.mark.parametrize("order", [1, -1], ids=["ccw", "cw"])
    def test_bundle_weights_meet_both_rays(self, name, order):
        # chart i is the cone of rays i, i+1: O(D)'s weight there pairs to
        # a_i with v_i and to a_{i+1} with v_{i+1}
        rays = FANS[name][::order]
        n = len(rays)
        S = toric._from_fan(name, rays)
        for a in itertools.product((-1, 0, 1), repeat=n):
            weights = line_bundle(S, list(a)).weights
            got = [(_pairing(w, rays[i]), _pairing(w, rays[(i + 1) % n])) for i, w in enumerate(weights)]
            assert got == [(a[i], a[(i + 1) % n]) for i in range(n)]

    # the weighted plane P(1,1,2) has a det-2 cone; unchecked, its charts
    # are integral but no dual basis.  A repeated ray makes a det-0 cone
    @pytest.mark.parametrize(
        "rays,cone",
        [
            ([(1, 0), (0, 1), (-1, -2)], "(-1, -2), (1, 0) is not smooth (det 2)"),
            ([(1, 0), (0, 1), (0, 1), (-1, -1)], "(0, 1), (0, 1) is not smooth (det 0)"),
        ],
        ids=["det-2-cone", "repeated-ray"],
    )
    def test_non_smooth_cone_refused(self, rays, cone):
        with pytest.raises(ValueError, match=re.escape(f"surface 'bad': the cone of rays {cone}")):
            toric._from_fan("bad", rays)
