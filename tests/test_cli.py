"""Command-line interface: parsing, payload shapes, exit codes."""

import json
import time
from pathlib import Path

import pytest

from cpstrata import ballmodels, chambers, verify
from cpstrata.cli import RunConfig, canonical_json, main, parse_weights
from cpstrata.kriz import KrizParams
from cpstrata.verify import IEMB_ROWS

# stdout of each command, frozen before the monomial kernel replaced the
# per-product polynomial path
PAYLOADS = json.loads((Path(__file__).parent / "data" / "cli_payloads.json").read_text())
# stdout of chamber classify in JSON and text form per capacity list, frozen
# while admissibility and wall signs were still evaluated in Fractions
CLASSIFY = json.loads((Path(__file__).parent / "data" / "classify_payloads.json").read_text())
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
        code, _, err = run(capsys, "chamber", "classify", "--capacities", "1/2,oops")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text,bad", [("1/0", "'1/0'"), ("1/2,3/0", "'3/0'")])
    def test_zero_denominator_exit_two(self, capsys, text, bad):
        code, out, err = run(capsys, "chamber", "classify", "--capacities", text)
        assert code == 2
        assert out == ""
        assert err == f"error: capacity {bad} has a zero denominator\n"


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
        # admissible, inadmissible on a class, inadmissible on the volume
        passes = []
        real = chambers.is_admissible

        def counting(caps):
            passes.append(caps)
            return real(caps)

        monkeypatch.setattr(chambers, "is_admissible", counting)
        for capacities in ("1/3,1/3,1/3,1/3", "1/2,1/2,1/2", "11/10"):
            run_json(capsys, "chamber", "classify", "--capacities", capacities, "--json")
        assert len(passes) == 3

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
        assert payload["euler_characteristic"] == 6

    def test_cap_flag(self, capsys):
        payload = run_json(capsys, "kriz", "--m", "1", "--k", "2", "--cap", "5")
        assert payload["degree_cap"] == 5
        assert payload["ranks"] == [1, 0, 1, 0, 0, 0]
        assert payload["euler_characteristic"] == 2

    @pytest.mark.parametrize("cap", ["0", "1", "-3"])
    def test_cap_below_two_rejected(self, capsys, cap):
        code, out, err = run(capsys, "kriz", "--m", "1", "--k", "2", "--cap", cap)
        assert code == 2
        assert out == ""
        assert "--cap" in err


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


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "ab-iso")
        assert code == 0
        assert "[pass] ab-iso:" in out
        assert "4/4 checks passed" in out

    def test_json_report_shape(self, capsys):
        for suite in ("eq75", "ab-iso"):
            code, out, err = run(capsys, "verify", suite, "--json")
            assert code == 0
            payload = json.loads(out)
            assert "checks passed" in err
            assert payload["pass"] is True
            assert set(payload["suites"]) == {suite}
            assert "timings" in payload
            assert payload["suites"][suite] == VERIFY_ALL["suites"][suite]

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
