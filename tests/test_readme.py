"""The README's library quickstart and command-line block run, and their
trailing values are right."""

import ast
import io
import json
import re
import shlex
import tokenize
from pathlib import Path

from blockperm import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library quickstart\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library quickstart'"
    return match.group(1)


def _comments(source):
    """Line number -> text of the comment on that line."""
    return {tok.start[0]: tok.string.lstrip("#").strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT}


def _leading_literal(comment):
    """The longest run of leading words of comment that is a Python literal,
    trailing , ; or : dropped as punctuation, as a 1-tuple; () if none."""
    words = comment.split()
    for i in range(len(words), 0, -1):
        try:
            return (ast.literal_eval(" ".join(words[:i]).rstrip(",;:")),)
        except (ValueError, SyntaxError):
            pass
    return ()


def test_quickstart_runs_and_its_values_hold():
    source = _quickstart()
    comments = _comments(source)
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README", "eval")
            values[stmt.lineno] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    checked = same = 0
    previous = None
    for line, value in values.items():
        comment = comments.get(line, "")
        literal = _leading_literal(comment)
        if literal:
            assert value == literal[0], (line, comment)
            checked += 1
        elif comment.startswith("the same"):
            assert value == values[previous], (line, comment)
            same += 1
        previous = line
    assert (checked, same) == (8, 1)


def _command_lines():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Command line\n\n.*?^```\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no code block under '## Command line'"
    return match.group(1).splitlines()


def test_command_line_block_runs_and_its_values_hold(capsys, monkeypatch, tmp_path):
    """Each line runs through ``cli.main`` in an empty directory; ``verify``
    reads the code file that the ``construct --method even`` line prints.
    A comment "-> v" is the whole output, and a comment that is a JSON
    object, its closing "..." dropped, is part of the JSON printed."""
    monkeypatch.chdir(tmp_path)
    checked = 0
    for line in _command_lines():
        command, _, comment = line.partition("  #")
        prog, *argv = shlex.split(command)
        assert prog == "blockperm"
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == (2 if argv in (["bounds", "--table1"], ["selftest"]) else 0), line
        if argv[:3] == ["construct", "--method", "even"]:
            (tmp_path / "code.txt").write_text(out, encoding="utf-8")
        comment = comment.strip()
        if comment.startswith("->"):
            assert out.strip() == comment[2:].strip(), line
            checked += 1
        elif comment.startswith("{"):
            printed, literal = json.loads(out), json.loads(comment.replace(", ...}", "}"))
            assert printed.items() >= literal.items() if "..." in comment else printed == literal
            checked += 1
    assert checked == 3
