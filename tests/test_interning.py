"""Interned bitset flow sets must be invisible in every result.

The tentpole property: running any analysis with the interned
:class:`~repro.analysis.interning.ValueTable` produces an
:class:`~repro.analysis.results.AnalysisResult` *identical* to the
pre-interning object domain (the tests' :class:`~plain_domain.
PlainTable` oracle, swapped in by :func:`~plain_domain.plain_values`)
— same decoded stores, same call graphs, same environments.  Checked
across the §6 suite, the Van Horn–Mairson worst-case ladder, random
programs and the FJ examples, plus unit tests of the table protocol
itself.
"""

from __future__ import annotations

import pytest

from plain_domain import SCHEDULING_KEYS, PlainTable, plain_values

from repro.analysis import (
    analyze_kcfa, analyze_kcfa_gc, analyze_kcfa_naive, analyze_mcfa,
    analyze_poly_kcfa, analyze_zerocfa,
)
from repro.analysis.domains import (
    AConst, APair, AbsStore, BASIC, EMPTY_BENV, KClo,
)
from repro.analysis.interning import ValueTable
from repro.benchsuite.programs import BY_NAME
from repro.generators.random_programs import random_program
from repro.generators.worstcase import worst_case_program


def assert_same_analysis(interned, plain):
    """Two AnalysisResults must agree on every semantic quantity."""
    assert interned.store.as_dict() == plain.store.as_dict()
    assert interned.callees == plain.callees
    assert interned.entries == plain.entries
    assert interned.halt_values == plain.halt_values
    assert interned.unknown_operator == plain.unknown_operator
    assert interned.configs == plain.configs
    assert interned.config_count == plain.config_count
    assert interned.state_count == plain.state_count
    summary_a = {key: value for key, value
                 in interned.summary().items()
                 if key not in SCHEDULING_KEYS}
    summary_b = {key: value for key, value
                 in plain.summary().items()
                 if key not in SCHEDULING_KEYS}
    assert summary_a == summary_b


def both_domains(run, program):
    """*run* over *program* interned, then over the frozenset
    oracle."""
    interned = run(program)
    with plain_values():
        plain = run(program)
    return interned, plain


SCHEME_ANALYZERS = {
    "kcfa1": lambda p: analyze_kcfa(p, 1),
    "mcfa1": lambda p: analyze_mcfa(p, 1),
    "poly1": lambda p: analyze_poly_kcfa(p, 1),
    "zero": lambda p: analyze_zerocfa(p),
}


class TestSuiteEquivalence:
    @pytest.mark.parametrize("bench_name", sorted(BY_NAME))
    @pytest.mark.parametrize("analyzer", sorted(SCHEME_ANALYZERS))
    def test_suite_program(self, bench_name, analyzer):
        program = BY_NAME[bench_name].compile()
        assert_same_analysis(
            *both_domains(SCHEME_ANALYZERS[analyzer], program))


class TestWorstCaseEquivalence:
    @pytest.mark.parametrize("depth", [2, 4, 6, 8])
    def test_kcfa_ladder(self, depth):
        program = worst_case_program(depth)
        assert_same_analysis(
            *both_domains(SCHEME_ANALYZERS["kcfa1"], program))

    @pytest.mark.parametrize("depth", [2, 4, 6, 8])
    def test_mcfa_ladder(self, depth):
        program = worst_case_program(depth)
        assert_same_analysis(
            *both_domains(SCHEME_ANALYZERS["mcfa1"], program))


class TestRandomProgramEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_kcfa(self, seed):
        program = random_program(seed, 4)
        assert_same_analysis(
            *both_domains(SCHEME_ANALYZERS["kcfa1"], program))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_naive_and_gc(self, seed):
        """The naive per-state-store drivers agree too."""
        program = random_program(seed, 3)
        assert_same_analysis(*both_domains(
            lambda p: analyze_kcfa_naive(p, 0), program))
        assert_same_analysis(*both_domains(
            lambda p: analyze_kcfa_gc(p, 0), program))


class TestFJEquivalence:
    @pytest.mark.parametrize("example", ["pairs", "dispatch"])
    def test_fj_machines(self, example):
        from repro.fj import analyze_fj_kcfa, parse_fj
        from repro.fj.examples import ALL_EXAMPLES
        from repro.fj.poly import analyze_fj_poly
        program = parse_fj(ALL_EXAMPLES[example])
        for analyze in (analyze_fj_kcfa, analyze_fj_poly):
            interned, plain = both_domains(
                lambda p: analyze(p, 1), program)
            assert interned.store.as_dict() == plain.store.as_dict()
            assert interned.invoke_targets == plain.invoke_targets
            assert interned.method_contexts == plain.method_contexts
            assert interned.objects == plain.objects
            assert interned.halt_values == plain.halt_values
            assert interned.configs == plain.configs


class TestValueTable:
    def test_bit_for_is_stable(self):
        table = ValueTable()
        bit = table.bit_for(BASIC)
        assert table.bit_for(BASIC) == bit
        assert bit == 1  # first interned value gets bit 0

    def test_distinct_values_get_distinct_bits(self):
        table = ValueTable()
        bits = {table.bit_for(AConst(n)) for n in range(10)}
        assert len(bits) == 10

    def test_encode_decode_roundtrip(self):
        table = ValueTable()
        values = frozenset({BASIC, AConst(1), AConst("x"),
                            APair(("car@1", ()), ("cdr@1", ()))})
        assert table.decode(table.encode(values)) == values

    def test_decode_iter_matches_decode(self):
        table = ValueTable()
        mask = table.encode({AConst(n) for n in range(5)})
        assert frozenset(table.decode_iter(mask)) == table.decode(mask)

    def test_mask_len(self):
        table = ValueTable()
        mask = table.encode({AConst(1), AConst(2), BASIC})
        assert table.mask_len(mask) == 3

    def test_join_is_bitwise_or(self):
        table = ValueTable()
        one = table.encode({AConst(1)})
        two = table.encode({AConst(2)})
        assert table.decode(one | two) == {AConst(1), AConst(2)}

    def test_truthiness_masks(self):
        table = ValueTable()
        true_bit = table.bit_for(AConst(True))
        false_bit = table.bit_for(AConst(False))
        basic_bit = table.bit_for(BASIC)
        assert table.any_truthy(true_bit)
        assert not table.any_falsy(true_bit)
        assert table.any_falsy(false_bit)
        assert not table.any_truthy(false_bit)
        assert table.any_truthy(basic_bit)
        assert table.any_falsy(basic_bit)

    def test_bool_and_int_constants_are_distinct(self):
        """The regression the first interning draft hit: Python says
        True == 1 and False == 0, so a naive hash-consing table hands
        #f the bit of 0 — whose truthiness is different — and whole
        else-branches vanish."""
        table = ValueTable()
        zero_bit = table.bit_for(AConst(0))  # interned first
        false_bit = table.bit_for(AConst(False))
        assert zero_bit != false_bit
        assert table.any_falsy(false_bit)
        assert not table.any_falsy(zero_bit)
        assert AConst(True) != AConst(1)
        assert AConst(False) != AConst(0)

    def test_empty_mask(self):
        table = ValueTable()
        assert table.empty == 0
        assert table.decode(table.empty) == frozenset()


class TestPlainTable:
    def test_masks_are_frozensets(self):
        table = PlainTable()
        mask = table.bit_for(BASIC)
        assert mask == frozenset({BASIC})
        assert table.decode(mask) is mask

    def test_union_and_truthiness(self):
        table = PlainTable()
        mask = table.bit_for(AConst(False)) | table.bit_for(AConst(3))
        assert table.mask_len(mask) == 2
        assert table.any_truthy(mask)
        assert table.any_falsy(mask)

    def test_oracle_swaps_the_store_table(self, small_programs):
        """The equivalence checks above are only as good as the swap:
        inside ``plain_values`` every run's store holds frozensets,
        and outside it ints again."""
        program = small_programs["adders"][1]
        interned, plain = both_domains(SCHEME_ANALYZERS["kcfa1"],
                                       program)
        assert isinstance(plain.store.table, PlainTable)
        assert isinstance(interned.store.table, ValueTable)
        assert all(isinstance(mask, frozenset)
                   for _addr, mask in plain.store.mask_items())
        assert isinstance(AbsStore().table, ValueTable)


class TestStoreMaskAPI:
    def test_get_decodes_to_values(self):
        from repro.analysis.domains import AbsStore
        store = AbsStore()
        store.join(("x", ()), {AConst(1), BASIC})
        assert store.get(("x", ())) == {AConst(1), BASIC}
        mask = store.get_mask(("x", ()))
        assert store.table.decode(mask) == {AConst(1), BASIC}

    def test_join_mask_growth_detection(self):
        from repro.analysis.domains import AbsStore
        store = AbsStore()
        one = store.table.encode({AConst(1)})
        both = store.table.encode({AConst(1), AConst(2)})
        assert store.join_mask(("x", ()), one) is True
        assert store.join_mask(("x", ()), one) is False
        assert store.join_mask(("x", ()), both) is True

    def test_interning_shrinks_nothing_observable(self):
        """KClo identity is preserved through a store round-trip."""
        from repro.analysis.domains import AbsStore
        from repro.cps.syntax import HaltCall, Lam, LamKind, Ref
        lam = Lam(LamKind.USER, ("x",), HaltCall(Ref("x"), 0), 1)
        clo = KClo(lam, EMPTY_BENV)
        store = AbsStore()
        store.join(("f", ()), {clo})
        (stored,) = store.get(("f", ()))
        assert stored is clo
