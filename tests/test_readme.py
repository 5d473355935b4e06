"""The README's library quickstart runs, and its trailing values are right."""

import ast
import io
import re
import tokenize
from pathlib import Path

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
