import json

import pytest

from graphperiod import catalog
from graphperiod.cli import build_parser, main, render_text


def test_analyze_builtin_json(capsys):
    code = main(["analyze", "--builtin", "k5", "--json"])
    out = capsys.readouterr()
    assert code == 0
    doc = json.loads(out.out)
    assert doc["period"] == {"lower": 5, "upper": 5, "resolved": True}
    assert doc["index"]["upper"] == 5
    assert out.err == ""


def test_analyze_text_and_json_agree(capsys):
    main(["analyze", "--builtin", "doubled-k4", "--json"])
    doc = json.loads(capsys.readouterr().out)
    main(["analyze", "--builtin", "doubled-k4"])
    text = capsys.readouterr().out
    assert f"period: lower {doc['period']['lower']}  upper {doc['period']['upper']}" in text
    assert f"index: lower {doc['index']['lower']}  upper {doc['index']['upper']}" in text


def test_analyze_missing_file(capsys):
    code = main(["analyze", "missing.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert "missing.json" in err


def test_analyze_invalid_graph(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "path",
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "ends": ["a", "b"]}],
    }))
    code = main(["analyze", str(path)])
    assert code == 1
    assert "invalid input" in capsys.readouterr().err


def test_analyze_deeply_nested_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "Traceback" not in err


def test_analyze_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}:")


def test_analyze_needs_exactly_one_source(capsys):
    assert main(["analyze"]) == 1
    assert main(["analyze", "x.json", "--builtin", "k5"]) == 1
    capsys.readouterr()


def test_examples_list(capsys):
    code = main(["examples", "list"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.strip()]
    assert len(lines) == 6
    assert any("soccer-doubled" in l and "30..60" in l for l in lines)


def test_examples_emit_and_analyze(tmp_path, capsys):
    path = tmp_path / "k34.json"
    assert main(["examples", "emit", "k34", str(path)]) == 0
    capsys.readouterr()
    code = main(["analyze", str(path), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["period"] == {"lower": 1, "upper": 1, "resolved": True}
    assert doc["index"]["resolved"]


def test_examples_emit_unknown(tmp_path, capsys):
    code = main(["examples", "emit", "nope", str(tmp_path / "x.json")])
    assert code == 1
    assert "unknown builtin" in capsys.readouterr().err


def test_seed_flag_deterministic(capsys):
    main(["analyze", "--builtin", "doubled-k4", "--json", "--seed", "5"])
    first = capsys.readouterr().out
    main(["analyze", "--builtin", "doubled-k4", "--json", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_render_text_contains_certificates():
    from graphperiod.bounds import analyze
    from graphperiod.config import Config

    report = analyze(catalog.builtin("k5"), Config())
    text = render_text(report)
    assert "LoopSummand" in text
    assert "graph: k5" in text


def test_invalid_cap_is_input_error(capsys):
    code = main(["analyze", "--builtin", "k5", "--bar-cap", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "bar_cap must be >= 1" in err


def test_soundness_error_has_its_own_exit_code(monkeypatch, capsys):
    from graphperiod import cli
    from graphperiod.bounds import SoundnessError

    def broken(graph, config):
        raise SoundnessError("lower bound 4 does not divide upper 6")

    monkeypatch.setattr(cli, "analyze", broken)
    code = main(["analyze", "--builtin", "k5"])
    err = capsys.readouterr().err
    assert code == 4
    assert "bug" in err and "does not divide" in err


def test_internal_assertion_exits_4_not_2(monkeypatch, capsys):
    # an internal AssertionError is a bug, not a failed analysis (exit 2)
    from graphperiod import cli

    def broken(graph, config):
        raise AssertionError("cocycle order exceeded |H|; not a cocycle?")

    monkeypatch.setattr(cli, "analyze", broken)
    code = main(["analyze", "--builtin", "k5"])
    err = capsys.readouterr().err
    assert code == 4
    assert "bug" in err and "cocycle order exceeded" in err



def test_an_open_fundamental_cycle_exits_4(monkeypatch, capsys):
    # a wrong tree path leaves a basis cycle open; the check that catches it
    # raises, so it also holds under python -O
    from graphperiod import homology

    monkeypatch.setattr(homology, "tree_path", lambda g, start, goal: {})
    code = main(["analyze", "--builtin", "k5"])
    err = capsys.readouterr().err
    assert code == 4
    assert "fundamental cycle must be closed" in err


def test_no_check_in_the_library_is_an_assert_statement():
    """python -O strips assert statements, so every internal check in the
    library raises AssertionError explicitly."""
    import ast
    from pathlib import Path

    import graphperiod

    package = Path(graphperiod.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_other_analysis_exception_exits_2(monkeypatch, capsys):
    from graphperiod import cli

    def exhausted(graph, config):
        raise MemoryError("cannot allocate the element list")

    monkeypatch.setattr(cli, "analyze", exhausted)
    code = main(["analyze", "--builtin", "k5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "analysis failed" in err and "cannot allocate" in err

def test_oracle_takes_only_the_seed_flag(capsys):
    assert build_parser().parse_args(["oracle", "--seed", "3"]).seed == 3
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["oracle", "--bar-cap", "8"])
    assert exc.value.code == 2
    assert "--bar-cap" in capsys.readouterr().err
