"""Command-line interface: parsing, payload shapes, exit codes."""

import json
import re
import runpy
import time
from pathlib import Path

import pytest

from cpstrata import ballmodels, chambers, cli, verify
from cpstrata.cli import RunConfig, canonical_json, main, parse_weights
from cpstrata.dga import cohomology_ranks, complete_through_cap
from cpstrata.gradedalg import PresentedAlgebra
from cpstrata.kriz import KrizParams, kriz_model
from cpstrata.verify import IEMB_ROWS

# stdout of each command, frozen before the monomial kernel replaced the
# per-product polynomial path
PAYLOADS = json.loads((Path(__file__).parent / "data" / "cli_payloads.json").read_text())
# stdout of chamber classify in JSON and text form per capacity list, frozen
# while admissibility and wall signs were still evaluated in Fractions
CLASSIFY = json.loads((Path(__file__).parent / "data" / "classify_payloads.json").read_text())
# stdout of conf stratify in JSON and text form per point list, frozen
# while points were still computed in Fractions
CONF = json.loads((Path(__file__).parent / "data" / "conf_payloads.json").read_text())
# stdout of every demo, the stratify demo's among them
DEMO_STDOUT = json.loads((Path(__file__).parent / "data" / "demo_stdout.json").read_text())
# the verify all payload without timings, as the benchmark checks it
VERIFY_ALL = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
)["verify_all_payload"]


def run(capsys, *argv):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestParsing:
    def test_weights_single_pair(self):
        assert parse_weights("1,1") == [(1, 1)]

    def test_weights_many_pairs(self):
        assert parse_weights("1,0;2,-1;3,5") == [(1, 0), (2, -1), (3, 5)]

    def test_weights_whitespace_tolerated(self):
        assert parse_weights(" 1,2 ") == [(1, 2)]

    def test_weights_empty_means_none(self):
        assert parse_weights("") == []

    def test_weights_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            parse_weights("1;2")

    def test_weights_non_integer_rejected(self):
        with pytest.raises(ValueError, match=r"got '1,x'$"):
            parse_weights("1,x")

    def test_weights_signs_and_spaces_tolerated(self):
        assert parse_weights("+1, -2 ;\t3 ,4") == [(1, -2), (3, 4)]

    @pytest.mark.parametrize(
        "text,chunk",
        [
            ("1_0,1;2,1", "1_0,1"),  # int() would read 10
            ("\u0663,1", "\u0663,1"),  # int() would read the Arabic-Indic 3
            ("2,\uff11", "2,\uff11"),  # a fullwidth 1
            ("1,2;3,+-4", "3,+-4"),
            ("1.0,2", "1.0,2"),
            ("1,2,3", "1,2,3"),
            ("1,", "1,"),
        ],
    )
    def test_weights_only_ascii_integers(self, text, chunk):
        with pytest.raises(ValueError, match=re.escape(f"got {chunk!r}") + "$"):
            parse_weights(text)

    @pytest.mark.parametrize("weights", ["1_0,1;2,1", "\u0663,1"])
    def test_non_ascii_integer_weights_exit_two(self, capsys, weights):
        code, out, err = run(
            capsys, "model", "build", "--n", "4", "--chamber", "C_2", "--weights", weights
        )
        assert code == 2
        assert out == ""
        assert f"got {weights.split(';')[0]!r}" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["kriz", "--m", "1_0", "--k", "2"], "--m must be an integer, got '1_0'"),
            (["kriz", "--m", "2", "--k", "\u0663"], "--k must be an integer, got '\u0663'"),
            (["chamber", "enumerate", "--n", "\u0663"], "--n must be an integer, got '\u0663'"),
            (["kriz", "--m", "2", "--k", "3", "--cap", "1_2"], "--cap must be an integer, got '1_2'"),
            (["chamber", "classify", "--capacities", "1_0/30,1/4"],
             "capacity '1_0/30' has an underscore or a non-ASCII character"),
            (["conf", "stratify", "--points", "1_0:1:0,0:1:0,0:0:1"],
             "coordinate '1_0' of point '1_0:1:0' has an underscore or a non-ASCII character"),
        ],
        ids=["m", "k", "n", "cap", "capacities", "points"],
    )
    def test_loose_numbers_exit_two(self, capsys, argv, message):
        # int() and Fraction() would read 10, 3 and 12 here
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_canonical_json_sorted_and_terminated(self):
        blob = canonical_json({"b": 1, "a": [2]})
        assert blob.endswith("\n")
        assert blob.index('"a"') < blob.index('"b"')


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.boundary_convention == "strict"
        assert cfg.format == "json"
        assert cfg.degree_cap is None

    def test_small_cap_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(degree_cap=1)

    def test_bad_boundary_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(boundary_convention="open")

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(format="xml")

    def test_load_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"degree_cap": 8, "format": "text"}')
        cfg = RunConfig.load(str(p))
        assert cfg.degree_cap == 8
        assert cfg.format == "text"

    def test_flags_win_over_config(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        out = tmp_path / "from-config.json"
        p.write_text(json.dumps({"degree_cap": 8, "weights": "2,3", "output": str(out)}))
        base = ["model", "build", "--n", "3", "--chamber", "small", "--json", "--config", str(p)]
        model = run_json(capsys, *base)["model"]
        assert model["degree_cap"] == 8 and "19*T3^2" in model["differential"]["beta"]
        assert json.loads(out.read_text())["model"] == model
        out.unlink()
        flagged = tmp_path / "from-flag.json"
        model = run_json(capsys, *base, "--cap", "5", "--weights", "1,1", "--out", str(flagged))["model"]
        assert model["degree_cap"] == 5 and "3*T3^2" in model["differential"]["beta"]
        assert flagged.exists() and not out.exists()

    def test_load_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"degre_cap": 8}')
        with pytest.raises(ValueError):
            RunConfig.load(str(p))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("5", "must hold a JSON object, got 5"),
            ('["degree_cap"]', "must hold a JSON object"),
            ('{"weights": 5}', "weights must be a string, got 5"),
            ('{"output": 7}', "output must be a string, got 7"),
            ('{"degree_cap": 2.5}', "degree_cap must be an integer of at least 2, got 2.5"),
            ('{"degree_cap": true}', "degree_cap must be an integer of at least 2, got True"),
            ('{"degree_cap": "8"}', "degree_cap must be an integer of at least 2, got '8'"),
        ],
    )
    def test_bad_config_is_a_clean_error(self, tmp_path, capsys, text, message):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        code, out, err = run(capsys, "kriz", "--m", "1", "--k", "2", "--config", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


class TestChamberClassify:
    def test_admissible_vector(self, capsys):
        payload = run_json(
            capsys, "chamber", "classify", "--capacities", "1/2,1/4,1/4,1/4"
        )
        assert payload["admissible"] is True
        assert payload["label"] == "C_1"
        assert payload["bits"] == "TFFFF"
        assert payload["capacities"] == ["1/2", "1/4", "1/4", "1/4"]

    def test_inadmissible_vector_names_violator(self, capsys):
        payload = run_json(capsys, "chamber", "classify", "--capacities", "1/2,1/2,1/2")
        assert payload["admissible"] is False
        assert payload["violator"] == "L - E2 - E3"
        assert "label" not in payload

    def test_volume_violator(self, capsys):
        payload = run_json(capsys, "chamber", "classify", "--capacities", "11/10")
        assert payload["admissible"] is False
        assert payload["violator"] == "volume"

    def test_five_balls_has_bits_but_no_label(self, capsys):
        payload = run_json(
            capsys, "chamber", "classify", "--capacities", "1/4,1/4,1/4,1/4,1/4"
        )
        assert payload["admissible"] is True
        assert "bits" in payload
        assert "label" not in payload

    def test_six_balls_still_classified(self, capsys):
        payload = run_json(capsys, "chamber", "classify", "--capacities", ",".join(["1/4"] * 6))
        assert payload["admissible"] is True
        assert len(payload["bits"]) > 0

    def test_malformed_capacities_exit_two(self, capsys):
        code, out, err = run(capsys, "chamber", "classify", "--capacities", "1/2,oops")
        assert code == 2
        assert out == ""
        assert err == "error: capacity 'oops' is not a rational\n"

    @pytest.mark.parametrize("text,bad", [("1/0", "'1/0'"), ("1/2,3/0", "'3/0'")])
    def test_zero_denominator_exit_two(self, capsys, text, bad):
        code, out, err = run(capsys, "chamber", "classify", "--capacities", text)
        assert code == 2
        assert out == ""
        assert err == f"error: capacity {bad} has a zero denominator\n"


    def test_exponent_notation_exit_two(self, capsys):
        # at once: Fraction alone would take seconds to expand the exponent
        code, out, err = run(capsys, "chamber", "classify", "--capacities", "1e-30000000,1/2")
        assert code == 2
        assert out == ""
        assert err == "error: capacity '1e-30000000' is in exponent notation\n"


class TestClassifyPayloads:
    def test_cases_cover_every_kind(self):
        payloads = [json.loads(entry["json"]) for entry in CLASSIFY.values()]
        assert {p["n"] for p in payloads} == set(range(1, 9))
        assert {p.get("label") for p in payloads if p["n"] == 4} == {f"C_{i}" for i in range(6)} | {None}
        assert {p["violator"] for p in payloads if not p["admissible"]} >= {
            "volume", "L - E1 - E2", "2L - E1 - E2 - E3 - E4 - E5", "3L - 2E1 - E2 - E3 - E4 - E5 - E6 - E7"
        }
        assert all("label" not in p for p in payloads if p["n"] >= 5)
        assert any(p["n"] >= 5 and p["admissible"] for p in payloads)
        # Sigma c = 1 exactly at n=3 lies on the wall: big
        assert json.loads(CLASSIFY["1/4,1/2,1/4"]["json"])["label"] == "big"

    def test_one_admissibility_pass_per_query(self, capsys, monkeypatch):
        # admissible, inadmissible on a class, inadmissible on the volume:
        # one certificate pass per query, and the scan over every class
        # only for the two inadmissible ones
        passes, scans = [], []
        real_certified, real_violator = chambers._certified, chambers._violator

        def certified(m, ks, certificate):
            passes.append(ks)
            return real_certified(m, ks, certificate)

        def violator(m, ks):
            scans.append(ks)
            return real_violator(m, ks)

        monkeypatch.setattr(chambers, "_certified", certified)
        monkeypatch.setattr(chambers, "_violator", violator)
        verdicts = [
            run_json(capsys, "chamber", "classify", "--capacities", capacities, "--json")["admissible"]
            for capacities in ("1/3,1/3,1/3,1/3", "1/2,1/2,1/2", "11/10")
        ]
        assert verdicts == [True, False, False]
        assert len(passes) == 3
        assert scans == [(1, 1, 1), (11,)]

    @pytest.mark.parametrize("capacities", sorted(CLASSIFY))
    def test_stdout_byte_identical(self, capsys, tmp_path, capacities):
        config = tmp_path / "text.json"
        config.write_text('{"format": "text"}')
        for key, extra in (("json", ["--json"]), ("text", ["--config", str(config)])):
            code, out, err = run(capsys, "chamber", "classify", "--capacities", capacities, *extra)
            assert code == 0, err
            assert out == CLASSIFY[capacities][key]


class TestChamberEnumerate:
    def test_counts_at_three(self, capsys):
        payload = run_json(capsys, "chamber", "enumerate", "--n", "3")
        assert payload["count"] == 2
        assert payload["boundary"] == "strict"
        labels = {c["label"] for c in payload["chambers"]}
        assert labels == {"big", "small"}

    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    def test_text_output_at_three(self, capsys, tmp_path, boundary):
        config = tmp_path / "text.json"
        config.write_text('{"format": "text"}')
        code, out, err = run(
            capsys, "chamber", "enumerate", "--n", "3", "--boundary", boundary, "--config", str(config)
        )
        assert code == 0, err
        assert out == (
            f"2 chambers at n=3 ({boundary} boundary)\n"
            "  T  small  witness 1/4,1/4,1/4\n"
            "  F  big  witness 1/3,1/3,1/3\n"
        )
        payload = run_json(capsys, "chamber", "enumerate", "--n", "3", "--boundary", boundary)
        assert [(c["bits"], c["label"]) for c in payload["chambers"]] == [("T", "small"), ("F", "big")]

    def test_six_balls_fail_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "chamber", "enumerate", "--n", "6")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "1..5" in err

    def test_inclusive_boundary_flag(self, capsys):
        payload = run_json(
            capsys, "chamber", "enumerate", "--n", "4", "--boundary", "inclusive"
        )
        assert payload["count"] == 6
        assert payload["boundary"] == "inclusive"

    def test_config_file_sets_boundary(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"boundary_convention": "inclusive"}')
        payload = run_json(
            capsys, "chamber", "enumerate", "--n", "3", "--config", str(p)
        )
        assert payload["boundary"] == "inclusive"

    def test_flag_overrides_config(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"boundary_convention": "inclusive"}')
        payload = run_json(
            capsys,
            "chamber", "enumerate", "--n", "3",
            "--boundary", "strict", "--config", str(p),
        )
        assert payload["boundary"] == "strict"


class TestModel:
    def test_build_payload_shape(self, capsys):
        payload = run_json(capsys, "model", "build", "--n", "3", "--chamber", "big")
        model = payload["model"]
        names = [g["name"] for g in model["algebra"]["generators"]]
        assert names == ["T1", "T2", "beta", "gamma"]
        assert model["differential"]["beta"] == "T1^2 + T1*T2 + T2^2"
        assert model["degree_cap"] == 12

    def test_build_respects_weights_and_cap(self, capsys):
        payload = run_json(
            capsys,
            "model", "build", "--n", "3", "--chamber", "small",
            "--weights", "2,3", "--cap", "9",
        )
        model = payload["model"]
        assert model["degree_cap"] == 9
        assert "19*T3^2" in model["differential"]["beta"]
        assert "30*T3^3" in model["differential"]["gamma"]

    def test_four_small_balls_take_the_cap(self, capsys):
        # C_5 is the configuration model kriz(2, 4): --cap must reach it, and
        # without --cap it keeps its own default cap 14
        payload = run_json(
            capsys, "model", "cohomology", "--n", "4", "--chamber", "C_5", "--cap", "8"
        )
        assert payload["cohomology"]["degree_cap"] == 8
        assert payload["rank_list"] == verify.CONF4_ROW[:9]
        default = run_json(capsys, "model", "cohomology", "--n", "4", "--chamber", "C_5")
        assert default["cohomology"]["degree_cap"] == 14
        assert default["rank_list"] == verify.CONF4_ROW

    def test_cohomology_rank_list(self, capsys):
        payload = run_json(
            capsys, "model", "cohomology", "--n", "4", "--chamber", "C_3"
        )
        assert payload["rank_list"][:10] == [1, 0, 3, 0, 2, 1, 0, 3, 0, 2]
        assert payload["cohomology"]["d_squared_ok"] is True

    def test_cohomology_csv_projection(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"format": "csv"}')
        code, out, _ = run(
            capsys,
            "model", "cohomology", "--n", "1", "--chamber", "unique",
            "--cap", "6", "--config", str(p),
        )
        assert code == 0
        assert out.splitlines() == [
            "degree,rank",
            "0,1", "1,0", "2,1", "3,0", "4,1", "5,0", "6,0",
        ]

    @pytest.mark.parametrize("cap", ["0", "1", "-3"])
    def test_cap_below_two_rejected(self, capsys, cap):
        code, out, err = run(
            capsys, "model", "cohomology", "--n", "1", "--chamber", "C_unique", "--cap", cap
        )
        assert code == 2
        assert out == ""
        assert "--cap" in err

    def test_bad_chamber_exit_two(self, capsys):
        code, _, err = run(capsys, "model", "build", "--n", "4", "--chamber", "C_9")
        assert code == 2
        assert "error:" in err

    def test_weight_count_mismatch_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            "model", "build", "--n", "4", "--chamber", "C_2", "--weights", "1,1",
        )
        assert code == 2


class TestKriz:
    def test_three_points_in_the_plane(self, capsys):
        payload = run_json(capsys, "kriz", "--m", "2", "--k", "3")
        assert payload["ranks"] == [1, 0, 3, 0, 3, 0, 1, 1, 0, 1, 0]
        # the default cap 10 cuts off degree 12, so chi is not claimed
        assert payload["complete"] is False
        assert payload["euler_characteristic"] is None
        payload = run_json(capsys, "kriz", "--m", "2", "--k", "3", "--cap", "12")
        assert payload["complete"] is True
        assert payload["euler_characteristic"] == 6

    @pytest.mark.parametrize(
        "m, k, top, chi", [(3, 4, 24, 24), (2, 4, 16, 0), (3, 2, 12, 12), (1, 4, 8, 0)]
    )
    def test_chi_is_printed_only_when_the_cap_reaches_the_top(self, capsys, m, k, top, chi):
        # chi(F(CP^m, k)) is the falling factorial (m+1) m ... (m+2-k); the
        # quotient algebra ends in degree 2mk, and no class lies above it
        below = run_json(capsys, "kriz", "--m", str(m), "--k", str(k), "--cap", str(top - 1))
        assert below["complete"] is False
        assert below["euler_characteristic"] is None
        at = run_json(capsys, "kriz", "--m", str(m), "--k", str(k), "--cap", str(top))
        assert at["complete"] is True
        assert at["euler_characteristic"] == chi
        assert at["ranks"][:top] == below["ranks"]

    def test_default_caps_no_longer_print_a_wrong_chi(self, capsys):
        # the alternating sums through cap 10 read 46 and -7
        for m, k in ((3, 4), (2, 5)):
            payload = run_json(capsys, "kriz", "--m", str(m), "--k", str(k))
            assert payload["degree_cap"] == 10
            assert (payload["complete"], payload["euler_characteristic"]) == (False, None)

    def test_window_frames_are_built_only_on_request(self):
        # cohomology_ranks builds frames through cap + 1 and no further
        D = kriz_model(KrizParams(2, 3), degree_cap=12)
        cohomology_ranks(D)
        assert max(D.algebra._frames) == 13
        assert complete_through_cap(D)
        assert max(D.algebra._frames) == 15

    def test_cap_flag(self, capsys):
        payload = run_json(capsys, "kriz", "--m", "1", "--k", "2", "--cap", "5")
        assert payload["degree_cap"] == 5
        assert payload["ranks"] == [1, 0, 1, 0, 0, 0]
        assert payload["complete"] is True
        assert payload["euler_characteristic"] == 2

    @pytest.mark.parametrize("cap", ["0", "1", "-3"])
    def test_cap_below_two_rejected(self, capsys, cap):
        code, out, err = run(capsys, "kriz", "--m", "1", "--k", "2", "--cap", cap)
        assert code == 2
        assert out == ""
        assert "--cap" in err

    def test_huge_m_exits_two_before_any_model(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "kriz_model", lambda *a, **k: pytest.fail("a model was built"))
        code, out, err = run(capsys, "kriz", "--m", "1000000", "--k", "3")
        assert code == 2
        assert out == ""
        assert err == "error: complex dimension m must be <= 4096, got 1000000\n"


class TestFrozenPayloads:
    def test_every_iemb_row_and_kriz_case_is_frozen(self):
        assert set(PAYLOADS) == {
            f"model cohomology --n {n} --chamber {c} --json" for n, c in IEMB_ROWS
        } | {f"kriz --m {m} --k {k} --json" for m in (1, 2, 3) for k in (2, 3, 4)}

    @pytest.mark.parametrize("command", sorted(PAYLOADS))
    def test_stdout_byte_identical(self, capsys, command):
        code, out, err = run(capsys, *command.split())
        assert code == 0, err
        assert out == PAYLOADS[command]


class TestConfPayloads:
    def test_cases_cover_every_kind(self):
        payloads = [json.loads(entry["json"]) for entry in CONF["stratify"].values()]
        labels = {(len(p["points"]), p["stratum"]) for p in payloads}
        assert labels == {(3, "F_0"), (3, "F_123")} | {
            (4, s) for s in ("F_0", "F_123", "F_124", "F_134", "F_234", "F_1234")
        }
        ratios = {p["cross_ratio"] for p in payloads if "cross_ratio" in p}
        assert {"1/2", "4/3", "-1", "16/81", "-35/3"} <= ratios
        assert any("/" in pt for p in payloads for pt in p["points"])

    @pytest.mark.parametrize("points", sorted(CONF["stratify"]))
    def test_stdout_byte_identical(self, capsys, tmp_path, points):
        config = tmp_path / "text.json"
        config.write_text('{"format": "text"}')
        for key, extra in (("json", ["--json"]), ("text", ["--config", str(config)])):
            code, out, err = run(capsys, "conf", "stratify", "--points", points, *extra)
            assert code == 0, err
            assert out == CONF["stratify"][points][key]

    def test_demo_stdout_byte_identical(self, capsys):
        demo = Path(__file__).parents[1] / "demos" / "stratify_configurations.py"
        runpy.run_path(str(demo), run_name="__main__")
        assert capsys.readouterr().out == DEMO_STDOUT["stratify_configurations"]


class TestConfStratify:
    def test_generic_four_points(self, capsys):
        payload = run_json(
            capsys, "conf", "stratify", "--points", "1:0:0,0:1:0,0:0:1,1:1:1"
        )
        assert payload["stratum"] == "F_0"
        assert payload["collinear_triples"] == []
        assert "cross_ratio" not in payload

    def test_one_collinear_triple(self, capsys):
        payload = run_json(
            capsys, "conf", "stratify", "--points", "1:0:0,0:1:0,0:0:1,1:1:0"
        )
        assert payload["stratum"] == "F_124"
        assert payload["collinear_triples"] == [[1, 2, 4]]

    def test_fully_collinear_reports_cross_ratio(self, capsys):
        payload = run_json(
            capsys, "conf", "stratify", "--points", "1:0:0,0:1:0,1:1:0,1:2:0"
        )
        assert payload["stratum"] == "F_1234"
        assert payload["cross_ratio"] == "1/2"

    def test_points_are_canonicalized(self, capsys):
        payload = run_json(
            capsys, "conf", "stratify", "--points", "2:0:0,0:3:0,0:0:5"
        )
        assert payload["points"] == ["1:0:0", "0:1:0", "0:0:1"]

    def test_duplicate_points_exit_two(self, capsys):
        code, _, err = run(
            capsys, "conf", "stratify", "--points", "1:0:0,1:0:0,0:0:1"
        )
        assert code == 2

    def test_zero_denominator_exit_two(self, capsys):
        code, out, err = run(
            capsys, "conf", "stratify", "--points", "1/0:1:1,0:1:0,0:0:1,1:1:1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: coordinate '1/0' of point '1/0:1:1' has a zero denominator\n"

    def test_non_rational_coordinate_named(self, capsys):
        code, out, err = run(capsys, "conf", "stratify", "--points", "1:x:0,0:1:0,0:0:1")
        assert code == 2
        assert out == ""
        assert err == "error: coordinate 'x' of point '1:x:0' is not a rational\n"

    def test_exponent_notation_exit_two(self, capsys):
        code, out, err = run(capsys, "conf", "stratify", "--points", "1e-30000000:1:0,0:1:0,0:0:1")
        assert code == 2
        assert out == ""
        assert err == "error: coordinate '1e-30000000' of point '1e-30000000:1:0' is in exponent notation\n"


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "ab-iso")
        assert code == 0
        assert "[pass] ab-iso:" in out
        assert "4/4 checks passed" in out

    def test_json_report_shape(self, capsys):
        # each suite run alone, with no report shared, gives its entry of
        # the whole run's payload
        assert set(VERIFY_ALL["suites"]) == set(verify.SUITES)
        for suite in sorted(verify.SUITES):
            code, out, err = run(capsys, "verify", suite, "--json")
            assert code == 0
            payload = json.loads(out)
            assert "checks passed" in err
            assert payload["pass"] is True
            assert set(payload["suites"]) == {suite}
            assert "timings" in payload
            assert payload["suites"][suite] == VERIFY_ALL["suites"][suite]

    def test_each_distinct_dga_is_solved_once_per_run(self, monkeypatch):
        keys = []
        original = verify.cohomology_ranks

        def counted(D):
            keys.append((D.table, D.algebra.relations, tuple(sorted(D.values.items())), D.degree_cap))
            return original(D)

        monkeypatch.setattr(verify, "cohomology_ranks", counted)
        reports = verify.run_suites("all")
        # 42 solves of these 34 DGAs when each suite solved its own
        assert len(keys) == len(set(keys)) == 34
        assert all(r.passed for r in reports)
        verify.run_suites("all")  # nothing is kept across runs
        assert len(keys) == 68

    def test_a_failed_solve_is_not_kept(self, monkeypatch):
        calls = []

        def broken(D):
            calls.append(D)
            raise RuntimeError("no ranks today")

        monkeypatch.setattr(verify, "cohomology_ranks", broken)
        rec = verify.Recorder()
        D = kriz_model(KrizParams(1, 1))
        for _ in range(2):
            rec.check("ranks", [1], lambda: rec.ranks(D).rank_list(0))
        assert len(calls) == 2 and not rec.reports
        assert {c.computed for c in rec.checks} == {"error: RuntimeError: no ranks today"}

    def test_same_ranks_stops_at_the_first_difference(self, monkeypatch):
        # CP^1 twice, then CP^2, whose H^4 differs, then CP^3, never built
        built, solved = [], []
        original = verify.cohomology_ranks

        def counted(D):
            solved.append(D)
            return original(D)

        def models():
            for m in (1, 1, 2, 3):
                built.append(m)
                yield kriz_model(KrizParams(m, 1), degree_cap=6)

        monkeypatch.setattr(verify, "cohomology_ranks", counted)
        rec = verify.Recorder()
        assert rec.same_ranks(models()) is False
        assert built == [1, 1, 2]
        assert len(solved) == len(rec.reports) == 2  # the second CP^1 is read from the run's reports
        assert rec.same_ranks(kriz_model(KrizParams(1, 1), degree_cap=6) for _ in range(3)) is True
        assert len(solved) == 2

    def test_ab_iso_check_runs_once_per_suite(self, monkeypatch):
        calls = []
        original = ballmodels.ab_isomorphism_check

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ballmodels, "ab_isomorphism_check", counted)
        assert verify.run_suite("ab-iso").passed
        assert len(calls) == 1
        assert verify.run_suite("ab-iso").passed  # nothing is kept across runs
        assert len(calls) == 2

    def test_eq75_model_is_solved_once_per_suite(self, monkeypatch):
        calls = []
        original = verify.kriz_model

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "kriz_model", counted)
        assert verify.run_suite("eq75").passed
        assert len(calls) == 1

    def test_three_point_model_is_solved_once_per_suite(self, monkeypatch):
        calls = []
        original = verify.kriz_model

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "kriz_model", counted)
        assert verify.run_suite("kriz").passed
        assert calls.count(((KrizParams(2, 3),), {})) == 1

    def test_eq71_builds_each_presentation_once(self, monkeypatch):
        # one algebra per check, all degrees read from it: 2 algebras and
        # 15 + 8 frames (23 algebras and 156 frames when each degree was
        # read from a fresh algebra)
        algebras, frames = [], []
        real_init, real_frame = PresentedAlgebra.__init__, PresentedAlgebra._build_frame

        def counting_init(algebra, *args, **kwargs):
            algebras.append(algebra)
            real_init(algebra, *args, **kwargs)

        def counting_frame(algebra, q):
            frames.append(q)
            return real_frame(algebra, q)

        monkeypatch.setattr(PresentedAlgebra, "__init__", counting_init)
        monkeypatch.setattr(PresentedAlgebra, "_build_frame", counting_frame)
        report = verify.run_suite("eq71")
        assert report.passed
        assert [c.name for c in report.checks] == [
            "four-ball stabilizer dims through degree 14",
            "stabilizer presentation served for (4, C_5)",
        ]
        assert (len(algebras), len(frames)) == (2, 23)
        assert frames == [*range(15), *range(8)]

    def test_failing_shared_value_gives_every_check_the_same_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no ring today")

        monkeypatch.setattr(ballmodels, "ab_isomorphism_check", broken)
        report = verify.run_suite("ab-iso")
        assert len(report.checks) == 4
        assert not any(c.passed for c in report.checks)
        assert {c.computed for c in report.checks} == {"error: RuntimeError: no ring today"}

    def test_report_deterministic_modulo_timings(self, capsys, tmp_path):
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        run(capsys, "verify", "ab-iso", "--out", str(a_path))
        run(capsys, "verify", "ab-iso", "--out", str(b_path))
        a = json.loads(a_path.read_text())
        b = json.loads(b_path.read_text())
        del a["timings"], b["timings"]
        assert a == b

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2


class TestOutputPlumbing:
    def test_out_writes_canonical_json(self, capsys, tmp_path):
        dest = tmp_path / "payload.json"
        run(capsys, "kriz", "--m", "1", "--k", "1", "--out", str(dest))
        text = dest.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["ranks"][:3] == [1, 0, 1]

    def test_text_format_for_classify(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"format": "text"}')
        code, out, _ = run(
            capsys,
            "chamber", "classify", "--capacities", "1/3,1/3,1/3", "--config", str(p),
        )
        assert code == 0
        assert "chamber big" in out

    def test_json_flag_beats_text_config(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"format": "text"}')
        code, out, _ = run(
            capsys,
            "chamber", "classify", "--capacities", "1/3,1/3,1/3",
            "--config", str(p), "--json",
        )
        assert code == 0
        assert json.loads(out)["label"] == "big"
