"""Exact CLI output: stdout, stderr and exit code of short commands covering
every subcommand and the usage errors, in text and --json mode.

The --json reports are pinned with elapsed_ms masked, since it is the one
field that changes from run to run. argparse's own help and errors, which
end in SystemExit before --json is read, are pinned in text mode only, at a
terminal width of 80 columns.
"""

import io
import math
import re
import sys
from typing import NamedTuple

import pytest

from parkfun.cli import main

# Graph files for the malformed-file cases; "{dir}" in a command names
# the directory that holds them.
GRAPH_FILES = {
    "bad-edge.txt": "n 3\n1 2\n2 x\n",
    "bad-header.txt": "size 3\n",
    "wide-edge.txt": "n 3\n1 2\n2 ３\n",
    "wide-header.txt": "n ３\n",
}

ELAPSED = re.compile(r'"elapsed_ms": [^,}]+')


class Case(NamedTuple):
    command: str
    code: int
    out: str = ""
    json: str = ""
    err: str = ""
    stdin: str = ""


GOLDEN = [
    Case(
        "park classical -p 3,1,1,2",
        code=0,
        out=(
            "outcome: 2,3,1,4\n"
            "displacement: 0,0,1,2\n"
            "total displacement: 3\n"
        ),
        json=(
            '{"command": "park", "inputs": {"mode": "classical", "preference": [3, 1, 1, '
            '2], "graph": null}, "result": {"status": "success", "outcome": [2, 3, 1, '
            '4], "displacement": [0, 0, 1, 2], "total_displacement": 3}, "elapsed_ms": '
            "0}\n"
        ),
    ),
    Case(
        "park friendship -g complete:3 -p 1,1,1",
        code=0,
        out=(
            "outcome: 1,2,3\n"
            "displacement: 0,1,2\n"
            "total displacement: 3\n"
        ),
        json=(
            '{"command": "park", "inputs": {"mode": "friendship", "preference": [1, 1, '
            '1], "graph": "complete:3"}, "result": {"status": "success", "outcome": [1, '
            '2, 3], "displacement": [0, 1, 2], "total_displacement": 3}, "elapsed_ms": '
            "0}\n"
        ),
    ),
    Case(
        "park friendship -g cycle:4 -p 4,2,2,1",
        code=1,
        out="car 3 failed to park\n",
        json=(
            '{"command": "park", "inputs": {"mode": "friendship", "preference": [4, 2, '
            '2, 1], "graph": "cycle:4"}, "result": {"status": "failure", "car": 3}, '
            '"elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "park classical -p 0,1",
        code=2,
        err="error: bad preference: entry 0 at position 1 is outside [1, 2]\n",
    ),
    Case(
        "park classical -p 1,１",
        code=2,
        err="error: bad preference: '１' is not an integer\n",
    ),
    Case(
        "park friendship -g cycle:x -p 1,2",
        code=2,
        err=(
            "error: bad graph spec 'cycle:x': invalid literal for int() with base 10: "
            "'x'\n"
        ),
    ),
    Case(
        "park friendship -g nope -p 1,2",
        code=2,
        err=(
            "error: graph spec 'nope' must be cycle:<n>, complete:<n>, path:<n>, fig4 or "
            "file:<path>\n"
        ),
    ),
    Case(
        "park friendship -g cycle:2 -p 1,2",
        code=2,
        err="error: bad graph spec 'cycle:2': cycle graphs need at least 3 vertices\n",
    ),
    Case(
        "park friendship -g file:/nonexistent -p 1,2",
        code=2,
        err=(
            "error: cannot read graph file: [Errno 2] No such file or directory: "
            "'/nonexistent'\n"
        ),
    ),
    Case(
        "park friendship -g file:{dir}/bad-edge.txt -p 1,2,3",
        code=2,
        err="error: bad graph file: line 3: edge endpoints must be integers, got '2 x'\n",
    ),
    Case(
        "park friendship -g file:{dir}/bad-header.txt -p 1,2,3",
        code=2,
        err="error: bad graph file: line 1: expected header 'n <count>', got 'size 3'\n",
    ),
    # Every number from outside takes ASCII digits only; int() alone would
    # read "３" as 3.
    Case(
        "count fpf -g cycle:４",
        code=2,
        err=(
            "error: bad graph spec 'cycle:４': invalid literal for int() with base 10: "
            "'４'\n"
        ),
    ),
    Case(
        "count fpf -g file:{dir}/wide-header.txt",
        code=2,
        err="error: bad graph file: line 1: vertex count '３' is not an integer\n",
    ),
    Case(
        "count fpf -g file:{dir}/wide-edge.txt",
        code=2,
        err="error: bad graph file: line 3: edge endpoints must be integers, got '2 ３'\n",
    ),
    Case(
        "verify cycle --n ３",
        code=2,
        err="error: bad range '３'; use a single n or lo..hi\n",
    ),
    Case(
        "verify cycle --n 3..６",
        code=2,
        err="error: bad range '3..６'; use a single n or lo..hi\n",
    ),
    Case(
        "fibre -g fig4 -o 87152463 --count",
        code=0,
        out="fibre size: 240\n",
        json=(
            '{"command": "fibre", "inputs": {"graph": "fig4", "outcome": [8, 7, 1, 5, 2, '
            '4, 6, 3], "mode": "count", "force": false}, "result": {"fibre_size": 240}, '
            '"elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "fibre -g cycle:4 -o 2,3,4,1",
        code=0,
        out=(
            "S_1 = {4}\n"
            "S_2 = {1}\n"
            "S_3 = {1..2}\n"
            "S_4 = {1..3}\n"
        ),
        json=(
            '{"command": "fibre", "inputs": {"graph": "cycle:4", "outcome": [2, 3, 4, '
            '1], "mode": "sets", "force": false}, "result": {"spot_sets": [[4, 4], [1, '
            '1], [1, 2], [1, 3]]}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "fibre -g cycle:4 -o 1,2,3,5 --sets",
        code=2,
        err="error: bad permutation: (1, 2, 3, 5) is not a permutation of [1, 4]\n",
    ),
    Case(
        "fibre -g cycle:4 -o 1,3,2,4",
        code=1,
        out="error: (1, 3, 2, 4) is not a Hamiltonian path of the graph\n",
        json=(
            '{"command": "fibre", "inputs": {"graph": "cycle:4", "outcome": [1, 3, 2, '
            '4], "mode": "sets", "force": false}, "result": {"error": "(1, 3, 2, 4) is '
            'not a Hamiltonian path of the graph"}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "fibre -g path:3 -o 1,2,3 --list",
        code=0,
        out=(
            "1,1,1\n"
            "1,1,2\n"
            "1,1,3\n"
            "1,2,1\n"
            "1,2,2\n"
            "1,2,3\n"
            "count: 6\n"
        ),
        json=(
            '{"command": "fibre", "inputs": {"graph": "path:3", "outcome": [1, 2, 3], '
            '"mode": "list", "force": false}, "result": {"preferences": [[1, 1, 1], [1, '
            '1, 2], [1, 1, 3], [1, 2, 1], [1, 2, 2], [1, 2, 3]], "count": 6}, '
            '"elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "count cyclic -n 4 --both",
        code=0,
        out=(
            "formula: 40\n"
            "search space: 4^4 = 256 preferences\n"
            "brute: 40\n"
            "match: yes\n"
        ),
        json=(
            '{"command": "count", "inputs": {"target": "cyclic", "graph": null, "n": 4, '
            '"mode": "both", "list": false, "workers": 1, "force": false}, "result": '
            '{"formula": 40, "search_space": 256, "brute": 40, "match": true}, '
            '"elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "count cyclic -n 0",
        code=2,
        err="error: -n must be positive\n",
    ),
    Case(
        "count cyclic",
        code=2,
        err="error: count cyclic needs -n\n",
    ),
    Case(
        "count fpf -g cycle:5",
        code=0,
        out="formula: 256\n",
        json=(
            '{"command": "count", "inputs": {"target": "fpf", "graph": "cycle:5", "n": '
            '5, "mode": "formula", "list": false, "workers": 1, "force": false}, '
            '"result": {"formula": 256}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "count fpf -g fig4",
        code=0,
        out="formula: 20228\n",
        json=(
            '{"command": "count", "inputs": {"target": "fpf", "graph": "fig4", "n": 8, '
            '"mode": "formula", "list": false, "workers": 1, "force": false}, "result": '
            '{"formula": 20228}, "elapsed_ms": 0}\n'
        ),
    ),
    # The path graph's two Hamiltonian paths have fibres of n! and 1.
    Case(
        "count fpf -g path:300",
        code=0,
        out=f"formula: {math.factorial(300) + 1}\n",
        json=(
            '{"command": "count", "inputs": {"target": "fpf", "graph": "path:300", "n": 300, '
            '"mode": "formula", "list": false, "workers": 1, "force": false}, "result": '
            f'{{"formula": {math.factorial(300) + 1}}}, "elapsed_ms": 0}}\n'
        ),
    ),
    Case(
        "count fpf -g path:3 --both --list",
        code=0,
        out=(
            "formula: 7\n"
            "search space: 3^3 = 27 preferences\n"
            "1,1,1\n"
            "1,1,2\n"
            "1,1,3\n"
            "1,2,1\n"
            "1,2,2\n"
            "1,2,3\n"
            "3,2,1\n"
            "brute: 7\n"
            "match: yes\n"
        ),
        json=(
            '{"command": "count", "inputs": {"target": "fpf", "graph": "path:3", "n": 3, '
            '"mode": "both", "list": true, "workers": 1, "force": false}, "result": '
            '{"formula": 7, "search_space": 27, "preferences": [[1, 1, 1], [1, 1, 2], '
            '[1, 1, 3], [1, 2, 1], [1, 2, 2], [1, 2, 3], [3, 2, 1]], "brute": 7, '
            '"match": true}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "count fpf -g cycle:4 --brute --workers 0",
        code=2,
        err="error: --workers must be at least 1\n",
    ),
    Case(
        "count fpf -g complete:9 --brute",
        code=2,
        err=(
            "error: search space of 387420489 preferences exceeds the cap of 16777216; "
            "force the run or raise PARKFUN_BRUTE_CAP (CLI: --force)\n"
        ),
    ),
    Case(
        "count fpf -n 3",
        code=2,
        err="error: count fpf needs a graph (-g)\n",
    ),
    Case(
        "count fpf -g cycle:5 -n 3",
        code=2,
        err="error: count fpf takes no -n\n",
    ),
    Case(
        "count cyclic -n 5 -g cycle:5",
        code=2,
        err="error: count cyclic takes no graph (-g)\n",
    ),
    Case(
        "bijection psi -p 1,1,2",
        code=0,
        out=(
            "outcome: 1,2,3 (increasing cycle from 1)\n"
            "displacement: 0,1,1\n"
            "host permutation: 231\n"
            "marked: [231]\n"
            "component: 231 (positions 1..3)\n"
        ),
        json=(
            '{"command": "bijection", "inputs": {"direction": "psi", "preference": [1, '
            '1, 2]}, "result": {"outcome": [1, 2, 3], "start": 1, "displacement": [0, 1, '
            '1], "host": [2, 3, 1], "component": {"start": 1, "end": 3, "word": [2, 3, '
            '1]}}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "bijection psi -p 2,2,2",
        code=1,
        out="error: car 3 cannot park; not a parking function\n",
        json=(
            '{"command": "bijection", "inputs": {"direction": "psi", "preference": [2, '
            '2, 2]}, "result": {"error": "car 3 cannot park; not a parking function"}, '
            '"elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "bijection psi-inverse --perm 3,1,2,4 --start 4",
        code=0,
        out=(
            "host permutation: 312/[4]\n"
            "inversion sequence: 0,0,2,0\n"
            "start value: 4\n"
            "preference: 2,3,2,1\n"
        ),
        json=(
            '{"command": "bijection", "inputs": {"direction": "psi-inverse", "perm": [3, '
            '1, 2, 4], "start": 4}, "result": {"preference": [2, 3, 2, 1], '
            '"inversion_sequence": [0, 0, 2, 0], "start_value": 4, "component": '
            '{"start": 4, "end": 4, "word": [4]}}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "bijection psi-inverse --perm 3,1,2,5 --start 1",
        code=2,
        err="error: bad permutation: (3, 1, 2, 5) is not a permutation of [1, 4]\n",
    ),
    Case(
        "bijection psi",
        code=2,
        err="error: bijection psi needs a preference (-p)\n",
    ),
    Case(
        "bijection psi-inverse --perm 21",
        code=2,
        err="error: bijection psi-inverse needs --perm and --start\n",
    ),
    Case(
        "bijection psi -p 1,1,2 --perm 21 --start 1",
        code=2,
        err="error: bijection psi takes no --perm or --start\n",
    ),
    Case(
        "bijection psi-inverse --perm 21 --start 1 -p 1,1",
        code=2,
        err="error: bijection psi-inverse takes no preference (-p)\n",
    ),
    Case(
        "verify table1",
        code=0,
        out=(
            "PASS  three-car-reference-table: 10 rows regenerated\n"
            "1/1 checks passed\n"
        ),
        json=(
            '{"command": "verify", "inputs": {"suite": "table1", "n": null, "force": '
            'false}, "result": {"suite": "table1", "checks": [{"name": '
            '"three-car-reference-table", "passed": true, "detail": "10 rows '
            'regenerated"}], "passed": true}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "verify cycle --n 2",
        code=2,
        err="error: suite 'cycle' has no checks for n = 2; its smallest n is 3\n",
    ),
    Case(
        "verify cycle --n x",
        code=2,
        err="error: bad range 'x'; use a single n or lo..hi\n",
    ),
    Case(
        "verify all --n 1..2",
        code=0,
        out=(
            "PASS  three-car-reference-table: 10 rows regenerated\n"
            "PASS  friendship-implies-classical n=1: all 1 labelled graphs, 1 "
            "preferences each\n"
            "PASS  nonempty-iff-hamiltonian n=1: all 1 labelled graphs, 1 preferences "
            "each\n"
            "PASS  classical-hamiltonian-outcome-transfers n=1: all 1 labelled graphs, 1 "
            "preferences each\n"
            "PASS  fibre-box-partition n=1: all 1 labelled graphs, 1 preferences each\n"
            "PASS  complete-graph-is-classical n=1: 1 preferences on K_1, (n+1)^(n-1) = "
            "1, outcomes as classical\n"
            "PASS  friendship-implies-classical n=2: all 2 labelled graphs, 4 "
            "preferences each\n"
            "PASS  nonempty-iff-hamiltonian n=2: all 2 labelled graphs, 4 preferences "
            "each\n"
            "PASS  classical-hamiltonian-outcome-transfers n=2: all 2 labelled graphs, 4 "
            "preferences each\n"
            "PASS  fibre-box-partition n=2: all 2 labelled graphs, 4 preferences each\n"
            "PASS  complete-graph-is-classical n=2: 3 preferences on K_2, (n+1)^(n-1) = "
            "3, outcomes as classical\n"
            "PASS  inversion-sequence-bijection n=1: 1 permutations both ways\n"
            "PASS  component-decomposition n=1: greedy cuts match minimal blocks on 1 "
            "permutations\n"
            "PASS  cyclic-count n=1: brute 1, formula 1, components 1\n"
            "PASS  component-bijection-round-trip n=1: 1 preferences <-> 1 components\n"
            "PASS  cyclic-fibre-sizes n=1: all 1 rotation fibres match the factorial "
            "product\n"
            "PASS  displacement-fibres n=1: 1 displacement vectors\n"
            "PASS  inversion-sequence-bijection n=2: 2 permutations both ways\n"
            "PASS  component-decomposition n=2: greedy cuts match minimal blocks on 2 "
            "permutations\n"
            "PASS  cyclic-count n=2: brute 3, formula 3, components 3\n"
            "PASS  component-bijection-round-trip n=2: 3 preferences <-> 3 components\n"
            "PASS  cyclic-fibre-sizes n=2: all 2 rotation fibres match the factorial "
            "product\n"
            "PASS  displacement-fibres n=2: 2 displacement vectors\n"
            "23/23 checks passed\n"
        ),
        json=(
            '{"command": "verify", "inputs": {"suite": "all", "n": "1..2", "force": '
            'false}, "result": {"suite": "all", "checks": [{"name": '
            '"three-car-reference-table", "passed": true, "detail": "10 rows '
            'regenerated"}, {"name": "friendship-implies-classical n=1", "passed": true, '
            '"detail": "all 1 labelled graphs, 1 preferences each"}, {"name": '
            '"nonempty-iff-hamiltonian n=1", "passed": true, "detail": "all 1 labelled '
            'graphs, 1 preferences each"}, {"name": '
            '"classical-hamiltonian-outcome-transfers n=1", "passed": true, "detail": '
            '"all 1 labelled graphs, 1 preferences each"}, {"name": "fibre-box-partition '
            'n=1", "passed": true, "detail": "all 1 labelled graphs, 1 preferences '
            'each"}, {"name": "complete-graph-is-classical n=1", "passed": true, '
            '"detail": "1 preferences on K_1, (n+1)^(n-1) = 1, outcomes as classical"}, '
            '{"name": "friendship-implies-classical n=2", "passed": true, "detail": "all '
            '2 labelled graphs, 4 preferences each"}, {"name": "nonempty-iff-hamiltonian '
            'n=2", "passed": true, "detail": "all 2 labelled graphs, 4 preferences '
            'each"}, {"name": "classical-hamiltonian-outcome-transfers n=2", "passed": '
            'true, "detail": "all 2 labelled graphs, 4 preferences each"}, {"name": '
            '"fibre-box-partition n=2", "passed": true, "detail": "all 2 labelled '
            'graphs, 4 preferences each"}, {"name": "complete-graph-is-classical n=2", '
            '"passed": true, "detail": "3 preferences on K_2, (n+1)^(n-1) = 3, outcomes '
            'as classical"}, {"name": "inversion-sequence-bijection n=1", "passed": '
            'true, "detail": "1 permutations both ways"}, {"name": '
            '"component-decomposition n=1", "passed": true, "detail": "greedy cuts match '
            'minimal blocks on 1 permutations"}, {"name": "cyclic-count n=1", "passed": '
            'true, "detail": "brute 1, formula 1, components 1"}, {"name": '
            '"component-bijection-round-trip n=1", "passed": true, "detail": "1 '
            'preferences <-> 1 components"}, {"name": "cyclic-fibre-sizes n=1", '
            '"passed": true, "detail": "all 1 rotation fibres match the factorial '
            'product"}, {"name": "displacement-fibres n=1", "passed": true, "detail": "1 '
            'displacement vectors"}, {"name": "inversion-sequence-bijection n=2", '
            '"passed": true, "detail": "2 permutations both ways"}, {"name": '
            '"component-decomposition n=2", "passed": true, "detail": "greedy cuts match '
            'minimal blocks on 2 permutations"}, {"name": "cyclic-count n=2", "passed": '
            'true, "detail": "brute 3, formula 3, components 3"}, {"name": '
            '"component-bijection-round-trip n=2", "passed": true, "detail": "3 '
            'preferences <-> 3 components"}, {"name": "cyclic-fibre-sizes n=2", '
            '"passed": true, "detail": "all 2 rotation fibres match the factorial '
            'product"}, {"name": "displacement-fibres n=2", "passed": true, "detail": "2 '
            'displacement vectors"}], "passed": true}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "validate-report",
        stdin='{"command": "park", "inputs": {}, "result": {}, "elapsed_ms": 1.5}',
        code=0,
        out="ok\n",
        json=(
            '{"command": "validate-report", "inputs": {"source": "stdin"}, "result": '
            '{"valid": true}, "elapsed_ms": 0}\n'
        ),
    ),
    Case(
        "validate-report",
        stdin='{"command": 3}',
        code=1,
        out="error: 'inputs' is a required property\n",
        json=(
            '{"command": "validate-report", "inputs": {"source": "stdin"}, "result": '
            '{"valid": false, "error": "\'inputs\' is a required property"}, "elapsed_ms": '
            "0}\n"
        ),
    ),
    Case(
        "validate-report",
        stdin="nope",
        code=1,
        out="error: not JSON: Expecting value: line 1 column 1 (char 0)\n",
        json=(
            '{"command": "validate-report", "inputs": {"source": "stdin"}, "result": '
            '{"valid": false, "error": "Expecting value: line 1 column 1 (char 0)"}, '
            '"elapsed_ms": 0}\n'
        ),
    ),
]


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "case", GOLDEN, ids=lambda c: f"{c.command} <{c.stdin}" if c.stdin else c.command
)
def test_cli_output_is_pinned(case, json_mode, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PARKFUN_BRUTE_CAP", raising=False)
    for name, text in GRAPH_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(case.stdin))
    argv = [arg.format(dir=tmp_path) for arg in case.command.split()]
    code = main(argv + ["--json"] if json_mode else argv)
    captured = capsys.readouterr()
    out = ELAPSED.sub('"elapsed_ms": 0', captured.out)
    assert (code, out, captured.err) == (case.code, case.json if json_mode else case.out, case.err)


class Usage(NamedTuple):
    command: str
    code: int
    out: str = ""
    err: str = ""


USAGE = [
    Usage(
        "--help",
        code=0,
        out=(
            "usage: parkfun [-h] {park,fibre,count,bijection,verify,validate-report} "
            "...\n"
            "\n"
            "Classical, friendship and cyclic parking functions.\n"
            "\n"
            "positional arguments:\n"
            "  {park,fibre,count,bijection,verify,validate-report}\n"
            "    park                run a parking process on one preference\n"
            "    fibre               characterise the preferences behind one outcome\n"
            "    count               count friendship or cyclic parking functions\n"
            "    bijection           map cyclic preferences to permutation components\n"
            "    verify              run the cross-verification suites\n"
            "    validate-report     validate a RunReport JSON object from stdin\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
    ),
    Usage(
        "park --help",
        code=0,
        out=(
            "usage: parkfun park [-h] [--json] -p PREFERENCE [-g GRAPH]\n"
            "                    {classical,friendship}\n"
            "\n"
            "positional arguments:\n"
            "  {classical,friendship}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --json                emit a RunReport object\n"
            "  -p PREFERENCE, --preference PREFERENCE\n"
            "                        e.g. 3,1,1,2\n"
            "  -g GRAPH, --graph GRAPH\n"
            "                        cycle:<n>, complete:<n>, path:<n>, fig4, "
            "file:<path>\n"
        ),
    ),
    Usage(
        "fibre --help",
        code=0,
        out=(
            "usage: parkfun fibre [-h] [--json] -g GRAPH -o OUTCOME\n"
            "                     [--count | --sets | --list] [--force]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --json                emit a RunReport object\n"
            "  -g GRAPH, --graph GRAPH\n"
            "  -o OUTCOME, --outcome OUTCOME\n"
            "                        outcome permutation\n"
            "  --count               print the fibre size\n"
            "  --sets                print the per-car spot sets (default)\n"
            "  --list                list the whole fibre\n"
            "  --force               ignore the search-space cap (--list)\n"
        ),
    ),
    Usage(
        "count --help",
        code=0,
        out=(
            "usage: parkfun count [-h] [--json] [-g GRAPH] [-n N]\n"
            "                     [--formula | --brute | --both] [--list]\n"
            "                     [--workers WORKERS] [--force]\n"
            "                     {fpf,cyclic}\n"
            "\n"
            "positional arguments:\n"
            "  {fpf,cyclic}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --json                emit a RunReport object\n"
            "  -g GRAPH, --graph GRAPH\n"
            "  -n N                  number of cars (cyclic target)\n"
            "  --formula             closed form only (default)\n"
            "  --brute               exhaustive simulation only\n"
            "  --both                closed form and brute force; exit 1 on mismatch\n"
            "  --list                list preferences found by the sweep\n"
            "  --workers WORKERS     accepted and ignored: the sweep is serial\n"
            "  --force               ignore the search-space cap\n"
        ),
    ),
    Usage(
        "bijection --help",
        code=0,
        out=(
            "usage: parkfun bijection [-h] [--json] [-p PREFERENCE] [--perm PERM]\n"
            "                         [--start START]\n"
            "                         {psi,psi-inverse}\n"
            "\n"
            "positional arguments:\n"
            "  {psi,psi-inverse}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --json                emit a RunReport object\n"
            "  -p PREFERENCE, --preference PREFERENCE\n"
            "  --perm PERM           host permutation (psi-inverse)\n"
            "  --start START         start position of the component (psi-inverse)\n"
        ),
    ),
    Usage(
        "verify --help",
        code=0,
        out=(
            "usage: parkfun verify [-h] [--json] [--n N] [--force]\n"
            "                      {props,table1,cycle,bijection,all}\n"
            "\n"
            "positional arguments:\n"
            "  {props,table1,cycle,bijection,all}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --json                emit a RunReport object\n"
            "  --n N                 range of sizes, e.g. 3..6 or 5\n"
            "  --force               ignore the search-space cap\n"
        ),
    ),
    Usage(
        "validate-report --help",
        code=0,
        out=(
            "usage: parkfun validate-report [-h] [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit a RunReport object\n"
        ),
    ),
    Usage(
        "",
        code=2,
        err=(
            "usage: parkfun [-h] {park,fibre,count,bijection,verify,validate-report} "
            "...\n"
            "parkfun: error: the following arguments are required: command\n"
        ),
    ),
    Usage(
        "park classical",
        code=2,
        err=(
            "usage: parkfun park [-h] [--json] -p PREFERENCE [-g GRAPH]\n"
            "                    {classical,friendship}\n"
            "parkfun park: error: the following arguments are required: -p/--preference\n"
        ),
    ),
    Usage(
        "nosuch",
        code=2,
        err=(
            "usage: parkfun [-h] {park,fibre,count,bijection,verify,validate-report} "
            "...\n"
            "parkfun: error: argument command: invalid choice: 'nosuch' (choose from "
            "'park', 'fibre', 'count', 'bijection', 'verify', 'validate-report')\n"
        ),
    ),
    Usage(
        "park sideways",
        code=2,
        err=(
            "usage: parkfun park [-h] [--json] -p PREFERENCE [-g GRAPH]\n"
            "                    {classical,friendship}\n"
            "parkfun park: error: argument mode: invalid choice: 'sideways' (choose "
            "from 'classical', 'friendship')\n"
        ),
    ),
    Usage(
        "verify nosuch",
        code=2,
        err=(
            "usage: parkfun verify [-h] [--json] [--n N] [--force]\n"
            "                      {props,table1,cycle,bijection,all}\n"
            "parkfun verify: error: argument suite: invalid choice: 'nosuch' (choose "
            "from 'props', 'table1', 'cycle', 'bijection', 'all')\n"
        ),
    ),
    Usage(
        "fibre -g fig4 -o 87152463 --count --list",
        code=2,
        err=(
            "usage: parkfun fibre [-h] [--json] -g GRAPH -o OUTCOME\n"
            "                     [--count | --sets | --list] [--force]\n"
            "parkfun fibre: error: argument --list: not allowed with argument --count\n"
        ),
    ),
    Usage(
        "count cyclic -n x",
        code=2,
        err=(
            "usage: parkfun count [-h] [--json] [-g GRAPH] [-n N]\n"
            "                     [--formula | --brute | --both] [--list]\n"
            "                     [--workers WORKERS] [--force]\n"
            "                     {fpf,cyclic}\n"
            "parkfun count: error: argument -n: invalid int value: 'x'\n"
        ),
    ),
    Usage(
        "count cyclic -n ５",
        code=2,
        err=(
            "usage: parkfun count [-h] [--json] [-g GRAPH] [-n N]\n"
            "                     [--formula | --brute | --both] [--list]\n"
            "                     [--workers WORKERS] [--force]\n"
            "                     {fpf,cyclic}\n"
            "parkfun count: error: argument -n: invalid int value: '５'\n"
        ),
    ),
    Usage(
        "count fpf -g cycle:4 --brute --workers ２",
        code=2,
        err=(
            "usage: parkfun count [-h] [--json] [-g GRAPH] [-n N]\n"
            "                     [--formula | --brute | --both] [--list]\n"
            "                     [--workers WORKERS] [--force]\n"
            "                     {fpf,cyclic}\n"
            "parkfun count: error: argument --workers: invalid int value: '２'\n"
        ),
    ),
    Usage(
        "bijection psi-inverse --perm 21 --start ２",
        code=2,
        err=(
            "usage: parkfun bijection [-h] [--json] [-p PREFERENCE] [--perm PERM]\n"
            "                         [--start START]\n"
            "                         {psi,psi-inverse}\n"
            "parkfun bijection: error: argument --start: invalid int value: '２'\n"
        ),
    ),
    Usage(
        "--json park classical -p 1",
        code=2,
        err=(
            "usage: parkfun [-h] {park,fibre,count,bijection,verify,validate-report} "
            "...\n"
            "parkfun: error: unrecognized arguments: --json\n"
        ),
    ),
]

# Python 3.13's argparse names an option's metavar once ("-p, --preference
# PREFERENCE") and wraps a usage line inside an exclusive group. These cases
# read so there; the rest read the same on 3.10 to 3.13.
FIBRE_USAGE_3_13 = (
    "usage: parkfun fibre [-h] [--json] -g GRAPH -o OUTCOME [--count | --sets |\n"
    "                     --list] [--force]\n"
)
COUNT_USAGE_3_13 = (
    "usage: parkfun count [-h] [--json] [-g GRAPH] [-n N] [--formula | --brute |\n"
    "                     --both] [--list] [--workers WORKERS] [--force]\n"
    "                     {fpf,cyclic}\n"
)
USAGE_3_13 = {
    case.command: case
    for case in [
        Usage(
            "park --help",
            code=0,
            out=(
                "usage: parkfun park [-h] [--json] -p PREFERENCE [-g GRAPH]\n"
                "                    {classical,friendship}\n"
                "\n"
                "positional arguments:\n"
                "  {classical,friendship}\n"
                "\n"
                "options:\n"
                "  -h, --help            show this help message and exit\n"
                "  --json                emit a RunReport object\n"
                "  -p, --preference PREFERENCE\n"
                "                        e.g. 3,1,1,2\n"
                "  -g, --graph GRAPH     cycle:<n>, complete:<n>, path:<n>, fig4, file:<path>\n"
            ),
        ),
        Usage(
            "fibre --help",
            code=0,
            out=FIBRE_USAGE_3_13 + (
                "\n"
                "options:\n"
                "  -h, --help            show this help message and exit\n"
                "  --json                emit a RunReport object\n"
                "  -g, --graph GRAPH\n"
                "  -o, --outcome OUTCOME\n"
                "                        outcome permutation\n"
                "  --count               print the fibre size\n"
                "  --sets                print the per-car spot sets (default)\n"
                "  --list                list the whole fibre\n"
                "  --force               ignore the search-space cap (--list)\n"
            ),
        ),
        Usage(
            "count --help",
            code=0,
            out=COUNT_USAGE_3_13 + (
                "\n"
                "positional arguments:\n"
                "  {fpf,cyclic}\n"
                "\n"
                "options:\n"
                "  -h, --help         show this help message and exit\n"
                "  --json             emit a RunReport object\n"
                "  -g, --graph GRAPH\n"
                "  -n N               number of cars (cyclic target)\n"
                "  --formula          closed form only (default)\n"
                "  --brute            exhaustive simulation only\n"
                "  --both             closed form and brute force; exit 1 on mismatch\n"
                "  --list             list preferences found by the sweep\n"
                "  --workers WORKERS  accepted and ignored: the sweep is serial\n"
                "  --force            ignore the search-space cap\n"
            ),
        ),
        Usage(
            "bijection --help",
            code=0,
            out=(
                "usage: parkfun bijection [-h] [--json] [-p PREFERENCE] [--perm PERM]\n"
                "                         [--start START]\n"
                "                         {psi,psi-inverse}\n"
                "\n"
                "positional arguments:\n"
                "  {psi,psi-inverse}\n"
                "\n"
                "options:\n"
                "  -h, --help            show this help message and exit\n"
                "  --json                emit a RunReport object\n"
                "  -p, --preference PREFERENCE\n"
                "  --perm PERM           host permutation (psi-inverse)\n"
                "  --start START         start position of the component (psi-inverse)\n"
            ),
        ),
        Usage(
            "fibre -g fig4 -o 87152463 --count --list",
            code=2,
            err=FIBRE_USAGE_3_13
            + "parkfun fibre: error: argument --list: not allowed with argument --count\n",
        ),
        Usage(
            "count cyclic -n x",
            code=2,
            err=COUNT_USAGE_3_13 + "parkfun count: error: argument -n: invalid int value: 'x'\n",
        ),
        Usage(
            "count cyclic -n ５",
            code=2,
            err=COUNT_USAGE_3_13 + "parkfun count: error: argument -n: invalid int value: '５'\n",
        ),
        Usage(
            "count fpf -g cycle:4 --brute --workers ２",
            code=2,
            err=COUNT_USAGE_3_13
            + "parkfun count: error: argument --workers: invalid int value: '２'\n",
        ),
    ]
}


@pytest.mark.parametrize("case", USAGE, ids=lambda c: c.command or "(no arguments)")
def test_argparse_output_is_pinned(case, monkeypatch, capsys):
    if sys.version_info >= (3, 13):
        case = USAGE_3_13.get(case.command, case)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(case.command.split())
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out, captured.err) == (case.code, case.out, case.err)
