"""tools/count_code_lines.py, loaded by path: ROADMAP.md and CHANGES.md quote
its per-module, total and runtime counts."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """a multi-line string
that is no docstring
"""
        return text


async def waiter():
    """Async docstring."""
    return os.sep
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tool):
    # import, class, def, the three lines of the string, return, async def
    # and its return
    assert tool.code_lines(SOURCE) == 9
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    # a string that opens no body is an expression, not a docstring
    assert tool.code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_runtime_modules_follow_relative_imports_from_init_and_cli(tool):
    sources = {
        "__init__": "from .numeric import Scalar\nfrom . import regress\n",
        "cli": "import json\nfrom .partitions import Exponents\n",
        "numeric": "from .symfunc import schur\n",
        "regress": "from .numeric import Scalar\n",
        "partitions": "x = 1\n",
        "symfunc": "y = 2\n",
        # only the tests import this one; it imports runtime modules itself
        "reference": "from .symfunc import schur\nfrom . import numeric\n",
    }
    assert tool.runtime_modules(sources) == {"__init__", "cli", "numeric", "regress", "partitions", "symfunc"}
    # a name imported but absent from the sources is skipped
    assert tool.runtime_modules({"__init__": "from .gone import x\n"}) == {"__init__"}


def test_main_prints_each_module_the_total_and_the_runtime(tool, tmp_path, capsys):
    (tmp_path / "__init__.py").write_text('"""Package."""\nfrom .core import run\n')
    (tmp_path / "cli.py").write_text("from . import core\n\n\ndef main():\n    return core.run()\n")
    (tmp_path / "core.py").write_text("def run():\n    # nothing yet\n    return 0\n")
    (tmp_path / "checks.py").write_text("from .core import run\n\nassert run() == 0\n")
    tool.main(["count_code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     1 __init__.py",
        "     2 checks.py",
        "     3 cli.py",
        "     2 core.py",
        "     8 total",
        "     6 runtime",
    ]
