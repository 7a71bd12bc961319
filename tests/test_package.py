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


def test_code_lines_skip_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", os.path.join(os.path.dirname(__file__), "..", "tools", "code_lines.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
