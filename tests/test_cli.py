import argparse
import io
import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

from parkfun import ParkingPreference, cli, core, cycle, cyclic, friendship, structure
from parkfun.cli import main
from parkfun.report import validate_report

# A report whose elapsed time is the JSON text `number`.
NUMBER_REPORT = '{"command": "x", "inputs": {}, "result": {}, "elapsed_ms": %s}'


def _word(*parts) -> str:
    """The comma-separated word of the values in `parts`, in order."""
    return ",".join(str(v) for part in parts for v in part)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1, f"JSON mode must emit exactly one object, got: {out!r}"
    report = json.loads(lines[0])
    validate_report(report)
    return code, report


class TestPark:
    def test_classical_worked_example(self, capsys):
        code, out, _ = run(capsys, "park", "classical", "-p", "3,1,1,2")
        assert code == 0
        assert "outcome: 2,3,1,4" in out
        assert "displacement: 0,0,1,2" in out
        assert "total displacement: 3" in out

    def test_friendship_failure_exit_code(self, capsys):
        code, out, _ = run(capsys, "park", "friendship", "-g", "cycle:4", "-p", "4,2,2,1")
        assert code == 1
        assert "car 3 failed to park" in out

    def test_usage_error_bad_entry(self, capsys):
        code, _, err = run(capsys, "park", "classical", "-p", "0,1")
        assert code == 2
        assert "error" in err

    def test_usage_error_missing_graph(self, capsys):
        code, _, err = run(capsys, "park", "friendship", "-p", "1,2")
        assert code == 2

    def test_usage_error_graph_in_classical_mode(self, capsys):
        code, _, err = run(capsys, "park", "classical", "-p", "1,2", "-g", "cycle:3")
        assert code == 2

    def test_usage_error_size_mismatch(self, capsys):
        code, _, err = run(capsys, "park", "friendship", "-g", "cycle:4", "-p", "1,2,3")
        assert code == 2

    def test_json_success(self, capsys):
        code, report = run_json(capsys, "park", "classical", "-p", "3,1,1,2")
        assert code == 0
        assert report["command"] == "park"
        assert report["result"] == {
            "status": "success",
            "outcome": [2, 3, 1, 4],
            "displacement": [0, 0, 1, 2],
            "total_displacement": 3,
        }

    def test_json_failure(self, capsys):
        code, report = run_json(capsys, "park", "friendship", "-g", "cycle:4", "-p", "4,2,2,1")
        assert code == 1
        assert report["result"] == {"status": "failure", "car": 3}


class TestFibre:
    def test_count_worked_example(self, capsys):
        code, out, _ = run(capsys, "fibre", "-g", "fig4", "-o", "87152463", "--count")
        assert code == 0
        assert "fibre size: 240" in out

    def test_sets_worked_example(self, capsys):
        code, out, _ = run(capsys, "fibre", "-g", "fig4", "-o", "87152463", "--sets")
        assert code == 0
        assert "S_1 = {3}" in out
        assert "S_2 = {2..5}" in out
        assert "S_4 = {2..6}" in out
        assert "S_8 = {1}" in out

    def test_cycle_identity_count(self, capsys):
        code, out, _ = run(capsys, "fibre", "-g", "cycle:4", "-o", "1234", "--count")
        assert code == 0
        assert "fibre size: 24" in out

    def test_not_hamiltonian(self, capsys):
        code, out, _ = run(capsys, "fibre", "-g", "cycle:4", "-o", "1324")
        assert code == 1
        assert "not a Hamiltonian path" in out

    def test_list_mode(self, capsys):
        code, out, _ = run(capsys, "fibre", "-g", "cycle:4", "-o", "4123", "--list")
        assert code == 0
        assert "2,3,1,1" in out
        assert "count: 8" in out

    def test_list_refused_over_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "10")
        code, out, err = run(capsys, "fibre", "-g", "complete:9", "-o", "123456789", "--list")
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1
        assert "search space of 362880" in err and "--force" in err
        assert "362880 preferences" in err

    def test_list_forced_over_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "7")
        code, out, _ = run(capsys, "fibre", "-g", "cycle:4", "-o", "4123", "--list", "--force")
        assert code == 0
        assert "2,3,1,1" in out
        assert "count: 8" in out

    @pytest.mark.parametrize("mode", ["--sets", "--count", "--list"])
    def test_characterises_once(self, capsys, monkeypatch, mode):
        calls = []
        real = structure.fibre_characterisation

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(structure, "fibre_characterisation", counting)
        code, _, _ = run(capsys, "fibre", "-g", "fig4", "-o", "87152463", mode)
        assert code == 0
        assert len(calls) == 1

    def test_graph_from_file(self, capsys, tmp_path):
        path = tmp_path / "square.graph"
        path.write_text("# four-cycle\nn 4\n1 2\n2 3\n3 4\n4 1\n")
        code, out, _ = run(capsys, "fibre", "-g", f"file:{path}", "-o", "2143", "--count")
        assert code == 0
        assert "fibre size: 12" in out

    def test_undecodable_graph_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.graph"
        path.write_bytes(b"n 2\n\xc0\x80\n")
        code, out, err = run(capsys, "fibre", "-g", f"file:{path}", "-o", "12", "--count")
        # Under a UTF-8 locale: "cannot read graph file: 'utf-8' codec can't decode ..."
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1



class TestHostileSize:
    """The vertex count is read from the spec or the file header and held to
    the input or the cap before any graph is built."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["park", "friendship", "-g", "complete:2000", "-p", "1,1"],
             "preference has 2 cars but the graph has 2000 vertices"),
            (["park", "friendship", "-g", "FILE", "-p", "1,1"],
             "preference has 2 cars but the graph has 3000000 vertices"),
            (["fibre", "-g", "path:3000000", "-o", "2,1"],
             "outcome has 2 entries but the graph has 3000000 vertices"),
            (["fibre", "-g", "FILE", "-o", "2,1", "--count"],
             "outcome has 2 entries but the graph has 3000000 vertices"),
            (["count", "fpf", "-g", "complete:2000", "--brute"], "exceeds the cap"),
            (["count", "fpf", "-g", "path:2000000", "--both"], "exceeds the cap"),
            (["count", "fpf", "-g", "FILE", "--brute", "--list"], "exceeds the cap"),
        ],
    )
    def test_refused_before_the_graph_is_built(self, capsys, monkeypatch, tmp_path, argv, message):
        def no_graph(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(core, "make_graph", no_graph)
        path = tmp_path / "huge.graph"
        path.write_text("# header only\nn 3000000\n")
        argv = [f"file:{path}" if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1
        assert message in err

    @pytest.mark.parametrize(
        "argv, cap, length, context",
        [
            (["park", "friendship", "-g", "FILE", "-p", "1,1,1"], None, 1_000_000, "bad graph file: line 2: "),
            (["park", "classical", "-p", "1," + "9" * 5000], None, 5000, "bad preference: "),
            (["park", "friendship", "-g", "cycle:" + "9" * 5000, "-p", "1,1,1"], None, 5000, "bad graph spec"),
            (["count", "fpf", "-g", "cycle:4", "--brute"], "9" * 5000, 5000, "PARKFUN_BRUTE_CAP: "),
            (["park", "friendship", "-g", "HEADER", "-p", "1,1,1"], None, 5000, "bad graph file: line 1: "),
            (["verify", "cycle", "--n", "9" * 5000], None, 5000, "bad range: "),
        ],
        ids=["graph-file-vertex", "preference-entry", "graph-spec", "brute-cap", "graph-file-header", "verify-range"],
    )
    def test_number_past_the_digit_limit_is_refused_by_its_length(
        self, capsys, monkeypatch, tmp_path, argv, cap, length, context
    ):
        """A number of more than 4,300 digits is refused before int() reads
        it, which takes time quadratic in its length, and the refusal names
        the length, after the context of the number, instead of repeating
        the digits."""
        if cap is not None:
            monkeypatch.setenv("PARKFUN_BRUTE_CAP", cap)
        files = {"FILE": "n 3\n1 " + "7" * 1_000_000 + "\n", "HEADER": "n " + "7" * 5000 + "\n"}
        for name in files.keys() & argv:
            path = tmp_path / "long.graph"
            path.write_text(files[name])
            argv = [f"file:{path}" if a == name else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        assert f"a number of {length} characters is past the 4300-digit limit" in err
        assert err.startswith(f"error: {context}")

    @pytest.mark.parametrize(
        "argv, text, length",
        [
            (["park", "friendship", "-g", "FILE", "-p", "1,1,1"], "n 3\n1 2 " + "x" * 1_000_000, 1_000_004),
            (["park", "friendship", "-g", "FILE", "-p", "1,1,1"], "x" * 1_000_000, 1_000_000),
            (["park", "friendship", "-g", "x" * 100_000 + ":3", "-p", "1,1,1"], None, 100_000),
            (["count", "cyclic", "-n", "9" * 5000], None, 5000),
            (["bijection", "psi-inverse", "--perm", "21", "--start", "9" * 5000], None, 5000),
            (["park", "classical", "-p", "9" * 4999 + "0"], None, 5000),
        ],
        ids=["graph-file-edge", "graph-file-header", "graph-family", "count-n", "bijection-start", "compact-word"],
    )
    def test_refusal_quotes_outside_text_to_a_bound(self, capsys, tmp_path, argv, text, length):
        """A refusal names long outside text by its start and its length,
        and never repeats it in full."""
        if text is not None:
            path = tmp_path / "long.graph"
            path.write_text(text + "\n")
            argv = [f"file:{path}" if a == "FILE" else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses an option's value itself
            code = e.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1000
        assert f"{length} characters" in err

    @pytest.mark.parametrize(
        "argv, stdin, code, text, cap",
        [
            (["bijection", "psi-inverse", "--perm", ",".join(["1"] * 50_000), "--start", "1"], "", 2, None, None),
            (["verify", "cycle", "--n", "0" * 4000 + "1.." + "0" * 4000 + "2"], "", 2, None, None),
            (["validate-report"], NUMBER_REPORT % ("1" * 100_000 + "e999"), 1, None, None),
            (["validate-report"], NUMBER_REPORT % ("-" + "7" * 2_000_000), 1, None, None),
            # A number of 4,300 digits, which the digit limit lets through,
            # repeated by a refusal; each is refused before a graph is built.
            (["park", "classical", "-p", "1," + "9" * 4300], "", 2, None, None),
            (["park", "friendship", "-p", "1,1,1", "-g", "FILE"], "", 2, "n 3\n1 " + "9" * 4300, None),
            (["park", "friendship", "-p", "1,1,1", "-g", "FILE"], "", 2, "n " + "9" * 4300, None),
            (["fibre", "-g", "cycle:" + "9" * 4300, "-o", "123"], "", 2, None, None),
            (["count", "fpf", "-g", "FILE"], "", 2, "n {0}\n{0} {0}".format("9" * 4300), None),
            (["count", "fpf", "-g", "cycle:4", "--brute"], "", 2, None, "-" + "9" * 4299),
        ],
        ids=[
            "refused-word", "verify-leading-zeros", "report-number-literal", "report-schema-message",
            "long-entry", "long-edge-vertex", "long-header-count", "long-cycle-size", "long-self-loop",
            "negative-long-cap",
        ],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_refusal_bounds_words_ranges_and_report_messages(
        self, capsys, monkeypatch, tmp_path, argv, stdin, code, text, cap, json_flag
    ):
        """A refused word is named by its start and its number of values, an
        empty `--n` range by the numbers it holds, a report's error and a
        number a refusal repeats by its start and its length: none repeats its
        input in full."""
        if text is not None:
            path = tmp_path / "long.graph"
            path.write_text(text + "\n")
            argv = [f"file:{path}" if a == "FILE" else a for a in argv]
        if cap is not None:
            monkeypatch.setenv("PARKFUN_BRUTE_CAP", cap)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        got, out, err = run(capsys, *argv, *json_flag)
        assert got == code
        assert (out + err).count("\n") == 1
        assert len((out + err).encode()) < 1000

    @pytest.mark.parametrize(
        "argv",
        [
            ["fibre", "-g", "path:20000", "-o", _word([1, 3, 2], range(4, 20_001)), "--count"],
            ["bijection", "psi", "-p", _word([2, 1], range(3, 20_001))],
            ["bijection", "psi-inverse", "--perm", _word(range(1, 6), [7, 6], range(8, 20_001)), "--start", "7"],
            ["bijection", "psi-inverse", "--perm", "21", "--start", "9" * 4300],
        ],
        ids=["not-a-hamiltonian-path", "not-an-increasing-cycle", "no-component-start", "long-start"],
    )
    def test_failure_bounds_the_word_it_names(self, capsys, argv):
        """An exit-1 failure names a long word, or a long list of component
        starts, by its start and its number of values, and a long `--start`
        by its start and its length."""
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert out.count("\n") == 1 and len(out.encode()) < 1000
        # The report's inputs repeat the word by design; its error does not.
        code, report = run_json(capsys, *argv)
        assert code == 1
        assert len(report["result"]["error"]) < 1000


class TestCount:
    def test_cyclic_formula(self, capsys):
        code, out, _ = run(capsys, "count", "cyclic", "-n", "5", "--formula")
        assert code == 0
        assert "formula: 192" in out

    def test_fpf_both_agree(self, capsys):
        code, out, _ = run(capsys, "count", "fpf", "-g", "cycle:4", "--both")
        assert code == 0
        assert "formula: 65" in out
        assert "brute: 65" in out
        assert "match: yes" in out

    def test_search_space_printed(self, capsys):
        code, out, _ = run(capsys, "count", "fpf", "-g", "cycle:4", "--brute")
        assert "search space: 4^4 = 256 preferences" in out

    def test_cap_refused(self, capsys):
        code, out, err = run(capsys, "count", "fpf", "-g", "cycle:12", "--brute")
        assert code == 2
        assert "exceeds the cap" in err
        assert out == ""

    @pytest.mark.parametrize("spec", [["cyclic", "-n", "1500"], ["fpf", "-g", "cycle:1600"]])
    def test_cap_refused_past_the_int_digit_limit(self, capsys, spec):
        # n^n has over 4,300 digits, more than Python prints by default.
        code, out, err = run(capsys, "count", *spec, "--brute")
        assert code == 2
        assert "exceeds the cap" in err
        assert out == ""

    @pytest.mark.parametrize(
        "spec, total",
        [
            (["cyclic", "-n", "1600"], lambda: cyclic.cyclic_total_count(1600)),
            (["fpf", "-g", "cycle:1700"], lambda: cycle.cycle_total_count(1700)),
        ],
    )
    def test_totals_past_the_int_digit_limit_print_in_full(self, capsys, monkeypatch, spec, total):
        # Decimal converts exactly and without Python's 4,300-digit int <-> str limit.
        want = Decimal(total())
        assert len(str(want)) > 4300
        code, out, _ = run(capsys, "count", *spec, "--formula")
        assert code == 0
        assert out == f"formula: {want}\n"
        code, out, _ = run(capsys, "count", *spec, "--formula", "--json")
        assert code == 0
        assert json.loads(out, parse_int=Decimal)["result"]["formula"] == want
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, "validate-report")
        assert (code, out) == (0, "ok\n")

    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "100")
        code, _, err = run(capsys, "count", "fpf", "-g", "cycle:4", "--brute")
        assert code == 2
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "300")
        code, out, _ = run(capsys, "count", "fpf", "-g", "cycle:4", "--brute")
        assert code == 0

    def test_cap_setting_takes_ascii_digits_only(self, capsys, monkeypatch):
        # int() alone would read "１０" as a cap of 10.
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "１０")
        code, out, err = run(capsys, "count", "fpf", "-g", "cycle:4", "--brute")
        assert (code, out, err) == (2, "", "error: PARKFUN_BRUTE_CAP must be an integer, got '１０'\n")

    def test_force_overrides_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "100")
        code, out, _ = run(capsys, "count", "fpf", "-g", "cycle:4", "--brute", "--force")
        assert code == 0
        assert "brute: 65" in out

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_cap_setting_is_a_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", raw)
        code, out, err = run(capsys, "count", "fpf", "-g", "cycle:4", "--brute")
        assert code == 2
        assert err.startswith("error: PARKFUN_BRUTE_CAP must be")
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("graph, raw", [("cycle:12", None), ("cycle:4", "abc")])
    def test_both_refused_before_formula(self, capsys, monkeypatch, graph, raw):
        if raw is not None:
            monkeypatch.setenv("PARKFUN_BRUTE_CAP", raw)
        code, out, err = run(capsys, "count", "fpf", "-g", graph, "--both")
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1

    def test_cyclic_brute_and_formula(self, capsys):
        code, out, _ = run(capsys, "count", "cyclic", "-n", "5", "--both")
        assert code == 0
        assert "match: yes" in out

    def test_non_cycle_graph_formula(self, capsys):
        code, out, _ = run(capsys, "count", "fpf", "-g", "path:4", "--both")
        assert code == 0
        assert "match: yes" in out

    def test_cycle_file_uses_cycle_closed_form(self, capsys, tmp_path, monkeypatch):
        n = 12
        path = tmp_path / "cycle.graph"
        path.write_text(f"n {n}\n" + "".join(f"{v % n + 1} {v}\n" for v in range(1, n + 1)))

        def general_sum(graph):
            raise AssertionError("the cycle graph has a closed form")

        monkeypatch.setattr(structure, "total_fpf_count", general_sum)
        code, by_spec, _ = run(capsys, "count", "fpf", "-g", f"cycle:{n}")
        assert code == 0
        code, by_file, _ = run(capsys, "count", "fpf", "-g", f"file:{path}")
        assert code == 0
        assert by_file == by_spec == f"formula: {cycle.cycle_total_count(n)}\n"

    def test_cyclic_list_honours_workers(self, capsys):
        code, report = run_json(capsys, "count", "cyclic", "-n", "3", "--brute", "--list", "--workers", "2")
        assert code == 0
        assert report["inputs"]["workers"] == 2
        assert report["result"]["brute"] == len(report["result"]["preferences"]) == 10

    def test_workers_below_one_refused(self, capsys):
        code, _, err = run(capsys, "count", "fpf", "-g", "cycle:4", "--brute", "--workers", "0")
        assert code == 2
        assert "--workers" in err

    def test_list_requires_brute(self, capsys):
        code, _, err = run(capsys, "count", "fpf", "-g", "cycle:4", "--formula", "--list")
        assert code == 2

    def test_json_result(self, capsys):
        code, report = run_json(capsys, "count", "fpf", "-g", "cycle:4", "--both")
        assert code == 0
        assert report["result"]["formula"] == 65
        assert report["result"]["brute"] == 65
        assert report["result"]["match"] is True


class TestListPreferences:
    """The one --list printer behind `count` and `fibre`."""

    def listing(self, lines, n):
        for k in range(n):
            # Every earlier preference is already printed when the next is drawn.
            assert len(lines) == k
            yield ParkingPreference((1,) * (k + 1))

    def test_text_mode_streams_and_keeps_nothing(self):
        lines, result = [], {}
        count = cli._list_preferences(
            self.listing(lines, 3), argparse.Namespace(json=False), lines.append, result
        )
        assert count == 3
        assert lines == ["1", "1,1", "1,1,1"]
        assert result == {}

    def test_json_mode_keeps_the_listing(self):
        lines, result = [], {}
        count = cli._list_preferences(
            self.listing(lines, 2), argparse.Namespace(json=True), lines.append, result
        )
        assert count == 2
        assert result == {"preferences": [[1], [1, 1]]}


class TestBijection:
    def test_psi_simulates_once(self, capsys, monkeypatch):
        calls = []
        real = friendship._run

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(friendship, "_run", counting)
        code, out, _ = run(capsys, "bijection", "psi", "-p", "4,4,6,6,7,9,7,1,2,1")
        assert code == 0
        assert "component: (10)89" in out
        assert len(calls) == 1

    def test_psi_decomposes_once(self, capsys, monkeypatch):
        calls = []
        real = cyclic.components

        def counting(perm):
            calls.append(perm)
            return real(perm)

        monkeypatch.setattr(cyclic, "components", counting)
        code, out, _ = run(capsys, "bijection", "psi", "-p", "4,4,6,6,7,9,7,1,2,1")
        assert code == 0
        assert "host permutation: 21/47536/(10)89" in out
        assert len(calls) == 1

    def test_psi_inverse_reads_the_inversions_once(self, capsys, monkeypatch):
        calls = []
        real = cyclic.inv_seq

        def counting(perm):
            calls.append(perm)
            return real(perm)

        monkeypatch.setattr(cyclic, "inv_seq", counting)
        code, out, _ = run(
            capsys, "bijection", "psi-inverse", "--perm", "341278659", "--start", "5"
        )
        assert code == 0
        assert "inversion sequence: 0,0,2,2,0,1,2,2,0" in out
        assert "preference: 6,7,6,7,1,1,1,2,5" in out
        assert len(calls) == 1

    def test_psi_worked_example(self, capsys):
        code, out, _ = run(capsys, "bijection", "psi", "-p", "4,4,6,6,7,9,7,1,2,1")
        assert code == 0
        assert "host permutation: 21/47536/(10)89" in out
        assert "component: (10)89" in out

    def test_psi_inverse_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "psi-inverse", "--perm", "341278659", "--start", "5"
        )
        assert code == 0
        assert "preference: 6,7,6,7,1,1,1,2,5" in out
        assert "3412/[7865]/9" in out

    def test_psi_non_cyclic(self, capsys):
        code, out, _ = run(capsys, "bijection", "psi", "-p", "2,1,2,2")
        assert code == 1
        assert "outcome 2134 is not an increasing cycle" in out

    def test_psi_inverse_bad_start(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "psi-inverse", "--perm", "341278659", "--start", "2"
        )
        assert code == 1
        assert "no component starts at position 2" in out

    def test_json_psi(self, capsys):
        code, report = run_json(capsys, "bijection", "psi", "-p", "4,4,6,6,7,9,7,1,2,1")
        assert code == 0
        assert report["result"]["component"] == {"start": 8, "end": 10, "word": [10, 8, 9]}


class TestVerify:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "verify", "table1")
        assert code == 0
        assert "PASS" in out
        assert "1/1 checks passed" in out

    def test_cycle_range(self, capsys):
        code, out, _ = run(capsys, "verify", "cycle", "--n", "3..4")
        assert code == 0
        assert "FAIL" not in out

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "cycle", "--n", "6..3")
        assert code == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_range_with_no_checks_is_a_usage_error(self, capsys, json_flag):
        code, out, err = run(capsys, "verify", "cycle", "--n", "2", *json_flag)
        assert code == 2
        assert out == ""
        assert err == "error: suite 'cycle' has no checks for n = 2; its smallest n is 3\n"

    @pytest.mark.parametrize(
        "suite, n_range, total", [("cycle", "1..3", 4), ("all", "1..2", 23)]
    )
    def test_range_below_a_suite_runs_what_applies(self, capsys, suite, n_range, total):
        code, out, _ = run(capsys, "verify", suite, "--n", n_range)
        assert code == 0
        assert out.endswith(f"{total}/{total} checks passed\n")

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_cap_setting_is_a_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", raw)
        code, out, err = run(capsys, "verify", "props", "--n", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: PARKFUN_BRUTE_CAP must be")
        assert err.count("\n") == 1

    def test_huge_range_refused_at_its_first_n_past_the_cap(self, capsys, monkeypatch):
        # The range is never built as a list: n = 3 already exceeds the cap.
        monkeypatch.setenv("PARKFUN_BRUTE_CAP", "10")
        code, out, err = run(capsys, "verify", "cycle", "--n", "1..99999999999999")
        assert code == 2
        assert out == ""
        assert err.startswith("error: search space of 27 preferences exceeds the cap of 10; ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "suite, checks",
        [
            (
                "props",
                [
                    f"{check} n={n}"
                    for n in range(1, 5)
                    for check in (
                        "friendship-implies-classical",
                        "nonempty-iff-hamiltonian",
                        "classical-hamiltonian-outcome-transfers",
                        "fibre-box-partition",
                        "complete-graph-is-classical",
                    )
                ]
                + ["friendship-beyond-hamiltonian-outcomes C_4"],
            ),
            (
                "cycle",
                [
                    "cycle-hamiltonian-paths n=3",
                    "cycle-count-closed-form n=3",
                    "cycle-fibre-closed-forms n=3",
                    "three-cycle-replacement",
                ]
                + [
                    f"{check} n={n}"
                    for n in range(4, 7)
                    for check in (
                        "cycle-hamiltonian-paths",
                        "cycle-count-closed-form",
                        "cycle-fibre-closed-forms",
                        "cycle-blocking-run-shapes",
                    )
                ],
            ),
            (
                "bijection",
                [
                    f"{check} n={n}"
                    for n in range(1, 6)
                    for check in (
                        "inversion-sequence-bijection",
                        "component-decomposition",
                        "cyclic-count",
                        "component-bijection-round-trip",
                        "cyclic-fibre-sizes",
                        "displacement-fibres",
                    )
                ],
            ),
        ],
    )
    def test_default_sizes(self, capsys, monkeypatch, suite, checks):
        """Without --n each suite runs its own sizes: props n=1..4, cycle
        n=3..6, bijection n=1..5."""
        monkeypatch.delenv("PARKFUN_BRUTE_CAP", raising=False)
        code, report = run_json(capsys, "verify", suite)
        assert code == 0
        assert report["inputs"]["n"] is None
        assert [c["name"] for c in report["result"]["checks"]] == checks
        assert report["result"]["passed"] is True

    def test_json(self, capsys):
        code, report = run_json(capsys, "verify", "table1")
        assert code == 0
        assert report["result"]["passed"] is True

    def test_hostile_n_refused_before_any_work(self):
        # At n = 2,000,000, building n ** n alone would take many seconds.
        env = dict(os.environ)
        env.pop("PARKFUN_BRUTE_CAP", None)
        errors = {}
        for suite in ("cycle", "bijection", "props"):
            proc = subprocess.run(
                [sys.executable, "-m", "parkfun", "verify", suite, "--n", "2000000"],
                env=env, capture_output=True, text=True, timeout=20,
            )
            assert proc.returncode == 2 and proc.stdout == "", suite
            errors[suite] = proc.stderr
        assert errors["cycle"].startswith("error: search space of more than 10^")
        assert errors["bijection"] == errors["props"] == errors["cycle"]


def test_cli_module_run_as_a_script_exits_2_on_a_usage_error():
    """`python -m parkfun.cli` reports a usage error like `parkfun` does,
    not as a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "parkfun.cli", "count", "cyclic"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: count cyclic needs -n\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_exits_1_without_a_traceback(json_flag):
    """A reader that stops early, as `parkfun ... | head -1` does, ends the
    call with exit 1 and nothing on stderr. The listing, 645 kB as text and
    1 MB as JSON, outgrows any pipe buffer, so the call writes after the
    reader has gone."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "parkfun", "fibre", "-g", "complete:8", "-o", "12345678", "--list", *json_flag],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_failed_stdout_write_exits_1_with_one_error_line(json_flag):
    """A write to stdout that fails for another reason than a closed pipe,
    here a full device, is named on stderr in one line, not a traceback."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "parkfun", "park", "classical", "-p", "1", *json_flag],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")


class TestValidateReport:
    def test_pipe_round_trip(self, capsys, monkeypatch):
        code, report = run_json(capsys, "count", "cyclic", "-n", "4", "--formula")
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(report)))
        code, out, _ = run(capsys, "validate-report")
        assert code == 0
        assert "ok" in out

    def test_reads_a_long_integer_in_linear_time(self):
        """int() reads an integer in time quadratic in its digits: 2,000,000
        of them took over 15 s on a 2-core machine. A Decimal reads them in
        milliseconds."""
        report = '{"command": "count", "inputs": {}, "result": {"formula": %s}, "elapsed_ms": 0.5}'
        proc = subprocess.run(
            [sys.executable, "-m", "parkfun", "validate-report"],
            input=report % ("7" * 2_000_000), capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")

    def test_rejects_invalid(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"command": "x"}'))
        code, out, _ = run(capsys, "validate-report")
        assert code == 1

    @pytest.mark.parametrize(
        "report, message",
        [
            (
                NUMBER_REPORT % '1, "extra": 2',
                "Additional properties are not allowed ('extra' was unexpected)",
            ),
            (
                NUMBER_REPORT % f'1, "{"k" * 2_000_000}": 2, "b": 3',
                "Additional properties are not allowed ('b', 'kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk..."
                " (2000007 characters) were unexpected)",
            ),
            (
                NUMBER_REPORT % ("-" + "7" * 2_000_000),
                "Decimal('-" + "7" * 30 + "... (2000012 characters) is less than the minimum of 0",
            ),
        ],
        ids=["extra-name", "long-extra-name", "long-negative-number"],
    )
    def test_schema_message_clips_only_the_repeated_value(self, capsys, monkeypatch, report, message):
        """The checker's wording stays whole; only the outside text it repeats
        is clipped to its start and its length."""
        monkeypatch.setattr("sys.stdin", io.StringIO(report))
        code, out, _ = run(capsys, "validate-report")
        assert (code, out) == (1, f"error: {message}\n")
        assert len(out.encode()) < 1000

    def test_rejects_non_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
        code, out, _ = run(capsys, "validate-report")
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 200_000, id="deep"),
            *(
                pytest.param(NUMBER_REPORT % number, id=number)
                for number in ("NaN", "Infinity", "-Infinity", "1e999")
            ),
        ],
    )
    def test_rejects_hostile_json(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "validate-report")
        assert code == 1
        assert out.startswith("error: not JSON: ") and out.count("\n") == 1
        assert err == ""
