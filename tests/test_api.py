import ast
import importlib
import re
from pathlib import Path

import pytest

import gfenum
import gfenum.transforms as transforms
from gfenum import mzv
from gfenum.asymptotics import AsymptoticReport
from gfenum.cli import OutputTable
from gfenum.generators import BetaTable
from gfenum.mzv import MzvCounts
from gfenum.series import BiSeries, UniSeries, _Frozen, _Record
from gfenum.verify import ClaimResult, ReferenceEntry, VerificationReport

README = Path(__file__).resolve().parent.parent / "README.md"

# gfenum.__all__: the public names, sorted, then the version
PUBLIC = [
    "AsymptoticReport", "BetaTable", "BiSeries", "CrossCheckError", "IndexOutOfRange",
    "MzvCounts", "NegativeExponent", "NonIntegerExponent", "NonUnitConstant", "ReferenceEntry",
    "UniSeries", "UnsupportedDiagonal", "VerificationReport", "asymptotic_report", "beta_table",
    "build_b", "build_mzv_rhs", "euler_expand", "floor_formula_col0", "floor_formula_diag1",
    "floor_formula_diag2", "g_series", "growth_constant", "growth_constant_from_series",
    "growth_root", "max_ratio_degree", "mzv_counts", "p_closed", "p_from_b", "primitive_counts",
    "ratio_table", "run_all", "__version__",
]


class TestPublicSurface:
    def test_the_public_surface_is_exactly_these_names(self):
        # an addition to the surface must be made here too, on purpose
        assert gfenum.__all__ == PUBLIC

    def test_no_test_only_entry_points_or_options(self):
        removed = {
            "expand_exponents_uni", "expand_exponents_bi", "peel_uni", "peel_bi",
            "PRODUCT_OF_INVERSES", "PRODUCT_PLAIN", "_FORMS", "_sign", "Monomial",
        }
        assert not removed & set(gfenum.__all__)
        assert not any(hasattr(transforms, name) for name in removed)
        assert not hasattr(mzv, "build_eul_rhs") and not hasattr(MzvCounts, "grid")
        assert not hasattr(BiSeries, "nonzero_terms")
        assert not hasattr(BetaTable, "primitive_count")
        assert not hasattr(BiSeries, "substitute_x")
        assert not hasattr(BiSeries, "truncate")  # no memo cuts a BiSeries
        assert "WeightMismatch" not in gfenum.__all__
        assert not {"h_series", "UnsupportedColumn"} & set(gfenum.__all__)


class TestLazyPackage:
    def test_every_public_name_is_its_module_object(self):
        for module, names in gfenum._EXPORTS.items():
            defining = importlib.import_module(f"gfenum.{module}")
            for name in names:
                assert getattr(gfenum, name) is getattr(defining, name), name
        assert set(gfenum.__all__) == set(gfenum._MODULE_OF) | {"__version__"}

    def test_dir_lists_the_public_names_and_an_unknown_name_raises(self):
        assert set(gfenum.__all__) <= set(dir(gfenum))
        with pytest.raises(AttributeError, match="no_such_name"):
            gfenum.no_such_name


# Each container, built twice from equal fields, with one of its fields
_FROZEN = [
    (lambda: UniSeries(2, (1, 2, 3)), "coeffs"),
    (lambda: BiSeries(2, 1, 2, ((1, 2, 3), (4,))), "max_weight"),
    (lambda: BetaTable(1, ((1,), (0, 1))), "rows"),
    (lambda: MzvCounts(3, {(3, 1): 1}, {(3, 1): 1}), "mzv"),
    (lambda: AsymptoticReport(1.5, 1.0, 0.0, 0.0, ((1, 0.5),)), "root"),
    (lambda: ReferenceEntry("seq:P", "x", "sequence", "1"), "payload"),
    (lambda: ClaimResult("seq:P", True, "1", "1"), "ok"),
]
_MUTABLE = [
    (lambda: VerificationReport([ClaimResult("seq:P", True, "1", "1")]), "results"),
    (lambda: OutputTable(["m"], [[1]]), "rows"),
]


class TestContainers:
    @pytest.mark.parametrize("make, field", _FROZEN)
    def test_a_frozen_container_rejects_assignment(self, make, field):
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert make() == value

    @pytest.mark.parametrize("make, field", _FROZEN + _MUTABLE)
    def test_equality_is_field_wise_within_one_class(self, make, field):
        value = make()
        assert value == make() and not value != make()
        assert value != tuple(vars(value).values())
        other = make()
        other.__dict__[field] = "changed"
        assert value != other

    @pytest.mark.parametrize("make, field", _FROZEN)
    def test_a_frozen_container_hashes_its_fields(self, make, field):
        value = make()
        if isinstance(value, MzvCounts):  # mapping fields, unhashable
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(make())
            assert {value, make()} == {value}

    @pytest.mark.parametrize("make, field", _MUTABLE)
    def test_a_mutable_container_is_unhashable_and_assignable(self, make, field):
        value = make()
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, field, [])
        assert getattr(value, field) == []

    def test_defaults_and_the_cached_entries(self):
        assert VerificationReport([]).notes == []
        assert (OutputTable(["m"], []).notes, OutputTable(["m"], []).code) == ([], 0)
        assert VerificationReport([]).notes is not VerificationReport([]).notes
        table = BetaTable(1, ((1,), (0, 1)))
        assert table.entries is table.entries == {(0, 0): 1, (1, 0): 0, (1, 2): 1}
        assert table == BetaTable(1, ((1,), (0, 1)))

    def test_every_record_class_is_in_a_container_table(self):
        for module in gfenum._EXPORTS:
            importlib.import_module(f"gfenum.{module}")
        importlib.import_module("gfenum.cli")
        records, stack = set(), [_Record]
        while stack:
            for cls in stack.pop().__subclasses__():
                stack.append(cls)
                records.add(cls)
        tabled = {type(make()) for make, _ in _FROZEN + _MUTABLE}
        assert records - {_Frozen} == tabled

    @pytest.mark.parametrize("record", [ReferenceEntry, ClaimResult, AsymptoticReport])
    def test_a_record_takes_exactly_one_value_per_field(self, record):
        values = range(len(record._fields))
        assert record(*values) == record(*values)
        with pytest.raises(TypeError):
            record(*values, None)
        with pytest.raises(TypeError):
            record(*values[1:])

    def test_a_series_checks_its_shape_at_construction(self):
        for make in (
            lambda: UniSeries(-1, ()),
            lambda: UniSeries(2, (1, 2)),
            lambda: BiSeries(0, 1, 2, ((1, 2, 3), (4,))),
            lambda: BiSeries(2, 1, -1, ()),
            lambda: BiSeries(2, 1, 2, ((1, 2, 3),)),
            lambda: BiSeries(2, 1, 2, ((1, 2), (4,))),
            lambda: BetaTable(1, ((1,), (0,))),
            lambda: BetaTable(2, ((1,),)),
        ):
            with pytest.raises(ValueError):
                make()


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
