"""The package's public names, and the code-line count of its modules."""

import importlib.util
import os

import elegant


def test_every_export_resolves():
    assert len(set(elegant.__all__)) == len(elegant.__all__)
    for name in elegant.__all__:
        assert getattr(elegant, name).__module__.startswith("elegant."), name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from elegant import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(elegant.__all__)


def _code_lines_tool():
    spec = importlib.util.spec_from_file_location("code_lines", os.path.join(os.path.dirname(__file__), "..", "tools", "code_lines.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_skip_blanks_comments_and_docstrings():
    tool = _code_lines_tool()
    source = '''"""Module docstring,
on two lines."""

# a comment
import os  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return text
'''
    # import, class, def, the string's two lines and return
    assert tool.code_lines(source) == 6


def test_code_lines_print_each_top_level_class_under_its_module(tmp_path, capsys):
    tool = _code_lines_tool()
    source = '''"""Module docstring."""
import dataclasses


@dataclasses.dataclass
class A:
    """Class docstring."""

    x: int = 0  # a comment

    class Inner:
        y = 1


def f():
    class Local:
        pass
    return Local


class B:
    z = 2
'''
    # the decorator and the nested class count in A; a class in a function is not top-level
    assert tool.class_lines(source) == {"A": 5, "B": 2}
    package = tmp_path / "elegant"
    package.mkdir()
    (package / "m.py").write_text(source)
    (package / "n.py").write_text("x = 1\n")
    assert tool.main(["--src", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["    12 m.py", "     5   m.py:A", "     2   m.py:B", "     1 n.py", "    13 total"]
