"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
assertions carry the details.
"""

import random
from contextlib import contextmanager

from gfenum.asymptotics import growth_constant, growth_root
from gfenum.cli import main
from gfenum.generators import (
    beta_table,
    floor_formula_col0,
    floor_formula_diag1,
    floor_formula_diag2,
    p_closed,
    p_from_b,
    primitive_counts,
)
from gfenum.mzv import build_mzv_rhs, mzv_counts
from gfenum.transforms import (
    PRODUCT_OF_INVERSES,
    PRODUCT_PLAIN,
    euler_expand,
    peel_uni,
)
from gfenum.verify import default_data_path, run_all

from literals import F20, P20, TABLE1, TALLIES, V20, table1_cells
from oracles import bi_x0_row, multiset_oracle, uni_from_terms


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {description}: FAIL", flush=True)
        raise
    print(f"[criterion {number:02d}] {description}: PASS", flush=True)


def test_criterion_01_dimension_grid(capsys):
    with criterion(1, "published dimension grid reproduced exactly"):
        assert main(["beta", "--max-degree", "14"]) == 0
        out = capsys.readouterr().out
        rows = [line.split("\t") for line in out.splitlines()]
        header, body = rows[0], rows[1:]
        grid = {}
        for row in body:
            m = int(row[0])
            for name, cell in zip(header[1:], row[1:]):
                if cell != "":
                    grid[(m, int(name.removeprefix("u=")))] = int(cell)
        checked = 0
        for m, u, value in table1_cells():
            assert grid[(m, u)] == value, (m, u)
            checked += 1
        assert checked == sum(len(r) for r in TABLE1.values()) >= 64
        # nothing extra inside the published range either
        assert len([k for k in grid if k[0] <= 14]) == checked


def test_criterion_02_primitive_sequence():
    with criterion(2, "primitive counts through degree twenty"):
        assert primitive_counts(20) == P20


def test_criterion_03_tally_decompositions():
    with criterion(3, "predicted tallies reproduced term by term"):
        table = beta_table(20)
        for m, terms in TALLIES.items():
            assert table.tally_terms(m) == terms, m
            assert sum(terms) == P20[m - 1]


def test_criterion_04_dual_route_identity():
    with criterion(4, "generator route equals closed form through degree forty"):
        assert p_from_b(40) == p_closed(40)


def test_criterion_05_knot_and_framed_sequences():
    with criterion(5, "knot and framed-knot counts and their difference identity"):
        exponents = {m + 1: p for m, p in enumerate(primitive_counts(20))}
        v = euler_expand(exponents, 2, 20)
        f = euler_expand(exponents, 1, 20)
        assert [v[m] for m in range(1, 21)] == V20
        assert [f[m] for m in range(1, 21)] == F20
        for m in range(1, 20):
            assert v[m + 1] == f[m + 1] - f[m]


def test_criterion_06_oracle_equivalence():
    with criterion(6, "multiset oracle agreement and peel/expand roundtrips"):
        exponents = {m + 1: p for m, p in enumerate(primitive_counts(12))}
        for min_degree in (1, 2):
            series = euler_expand(exponents, min_degree, 12)
            for target in range(13):
                assert multiset_oracle(exponents, min_degree, target) == series[target]
        rng = random.Random(20517)
        for _ in range(200):
            sample = {
                m: rng.randint(0, 5)
                for m in rng.sample(range(1, 13), rng.randint(0, 8))
            }
            sample = {m: e for m, e in sample.items() if e}
            series = euler_expand(sample, 1, 12)
            assert peel_uni(series, PRODUCT_OF_INVERSES) == sample


def test_criterion_07_mzv_checks():
    with criterion(7, "irreducible-count checks by weight and depth"):
        counts = mzv_counts(36)
        for w in range(3, 22, 2):
            assert counts.mzv_count(w, 1) == 1
        assert counts.mzv_count(23, 7) == 4
        quadrinacci = uni_from_terms(12, {0: 1, 1: -1, 4: -1})
        assert bi_x0_row(build_mzv_rhs(23)) == quadrinacci.truncate(7)
        diagonal = peel_uni(quadrinacci, PRODUCT_PLAIN)
        for d in range(1, 8):
            assert counts.mzv_count(3 * d, d) == diagonal.get(d, 0)
        for d in range(8, 13):  # consistent extension beyond the checked range
            assert counts.mzv_count(3 * d, d) == diagonal.get(d, 0)
        differing_weights = sorted(
            w for w, d in counts.grid() if counts.mzv_count(w, d) != counts.euler_count(w, d)
        )
        assert differing_weights[0] == 12
        assert counts.mzv_count(12, 4) == 1
        assert counts.euler_count(12, 4) == 0


def test_criterion_08_closed_form_families():
    with criterion(8, "floor-formula families agree over their full ranges"):
        table = beta_table(20)
        for j in range(10):  # 2j + 1 <= 20
            assert table.get(2 * j + 1, 2 * j) == floor_formula_diag1(j)
        for j in range(10):  # 2j + 2 <= 20
            assert table.get(2 * j + 2, 2 * j) == floor_formula_diag2(j)
        for m in range(21):
            assert table.get(m, 0) == floor_formula_col0(m)


def test_criterion_09_asymptotics():
    with criterion(9, "growth root and limit constant at stated tolerances"):
        r = growth_root()
        assert abs(r - 1.38027756909761) < 1e-12
        assert abs(r ** 4 - r ** 3 - 1.0) < 1e-13
        c = growth_constant()
        assert abs(c - 1.06260548918755) < 1e-11
        p40 = p_closed(40)[40] + 1
        assert abs(p40 / r ** 40 - c) < 1e-3


def test_criterion_10_verification_gate(capsys, tmp_path):
    with criterion(10, "reference replay passes and single mutations are caught"):
        assert main(["verify"]) == 0
        capsys.readouterr()

        lines = default_data_path().read_text(encoding="utf-8").splitlines()
        claim_rows = [
            (i, line.split("\t")) for i, line in enumerate(lines)
            if line and not line.startswith("#")
        ]
        target = tmp_path / "mutated.tsv"
        for index, fields in claim_rows:
            head, sep, tail = fields[3].partition(",")
            bumped = (
                f"{float(head) + 1.0}{sep}{tail}"
                if any(ch in head for ch in ".eE")
                else f"{int(head) + 1}{sep}{tail}"
            )
            mutated = list(lines)
            mutated[index] = "\t".join(fields[:3] + [bumped])
            target.write_text("\n".join(mutated) + "\n", encoding="utf-8")
            report = run_all(target)
            assert [r.claim_id for r in report.results if not r.ok] == [fields[0]], fields[0]

        assert main(["verify", "--data", str(target)]) == 1
        capsys.readouterr()
