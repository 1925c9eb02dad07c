import ast
import inspect
import re
from pathlib import Path

import gfenum
import gfenum.transforms as transforms
from gfenum.generators import BetaTable, h_series

README = Path(__file__).resolve().parent.parent / "README.md"


class TestPublicSurface:
    def test_no_test_only_entry_points_or_options(self):
        removed = {"expand_exponents_uni", "expand_exponents_bi"}
        assert not removed & set(gfenum.__all__)
        assert not any(hasattr(transforms, name) for name in removed)
        assert {"euler_expand", "peel_uni", "peel_bi"} <= set(gfenum.__all__)
        assert not hasattr(BetaTable, "primitive_count")
        assert list(inspect.signature(h_series).parameters) == ["j", "trunc_order"]


class TestReadme:
    def test_the_library_use_block_gives_the_values_it_documents(self):
        section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
        source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        lines = source.splitlines()
        namespace = {}
        checked = []
        for statement in ast.parse(source).body:
            documented = re.search(r"#\s*(-?\d+)\b", lines[statement.end_lineno - 1])
            if documented:
                expression = ast.Expression(statement.value)
                value = eval(compile(expression, "README.md", "eval"), namespace)
                checked.append((value, int(documented.group(1))))
            else:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
        assert len(checked) == 4
        assert [value for value, _ in checked] == [documented for _, documented in checked]
