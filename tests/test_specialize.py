"""Differential suite: the engine tiers, byte for byte.

Every engine tier (:data:`repro.analysis.engine.TIERS`: generic,
specialized, codegen) promises more than equal fixpoints — it
promises the *same trajectory*: identical rendered reports, identical
step counts and identical reachable-configuration sets, across every
registered analysis and both value domains: the program's interned
bitsets and the tests' frozenset oracle (``tests/plain_domain.py``).
The tier is picked by
the call site (one-shot runs take ``specialized``, warm fleet workers
``codegen``), so the suite selects it through the run functions'
``tier`` keyword.

The harness here is the enforcement: ``run_both`` executes one
analysis twice (generic, then specialized), ``run_codegen_both``
(specialized, then codegen), and ``assert_identical`` compares
everything observable.  A staged machine that diverges fails this
suite — the impostor test proves the harness actually catches one.
The last section pins which tier each call site gets.
"""

from __future__ import annotations

import pytest

from plain_domain import VALUE_MODES, value_domain
from shared_corpus import EXPLODES, small_sources

from repro.analysis.registry import registry
from repro.errors import UsageError
from repro.scheme.cps_transform import compile_program
from repro.service.jobs import render_fj_reports, render_reports

SCHEME_SPECS = registry().specs("scheme")
FJ_SPECS = registry().specs("fj")

#: Engine paths per analysis and context depth, as
#: ``(default tier, codegen tier)`` — pinned so a refactor cannot
#: silently stop staging an analysis while this suite vacuously
#: passes.  The default (one-shot) tier never generates source.
EXPECTED_PATHS = {
    ("zero", 0): ("generic", "codegen:flat"),
    ("mcfa", 0): ("generic", "codegen:flat"),
    ("poly", 0): ("generic", "codegen:flat"),
    ("mcfa", 1): ("generic", "codegen:flat"),
    ("poly", 1): ("generic", "codegen:flat"),
    ("kcfa", 1): ("specialized:shared", "specialized:shared"),
    ("kcfa-naive", 1): ("generic", "generic"),
    ("kcfa-gc", 1): ("generic", "generic"),
    ("pushdown", 0): ("generic", "generic"),
    ("pushdown", 1): ("generic", "generic"),
    ("fj-poly", 0): ("generic", "generic"),
    ("fj-poly", 1): ("generic", "generic"),
    ("fj-mcfa", 1): ("generic", "generic"),
    ("fj-kcfa", 0): ("generic", "generic"),
}

#: What the codegen-covered cells run one tier down, where codegen is
#: off: the generic kernel — pinned so codegen cannot silently become
#: load-bearing.  fj-poly(0) runs the one flat FJ machine at every
#: tier.
EXPECTED_NOCODEGEN_PATHS = {
    ("zero", 0): "generic",
    ("mcfa", 1): "generic",
    ("fj-poly", 0): "generic",
}


def test_uncovered_specs_register_the_knob_off():
    """Specs the specializer cannot cover must say so: the analyses
    listing advertises ``specialized`` truthfully."""
    for name in ("kcfa-gc", "kcfa-naive", "fj-kcfa-gc", "fj-kcfa",
                 "pushdown", "mcfa", "poly", "zero", "fj-poly",
                 "fj-mcfa", "fj-hybrid", "fj-obj"):
        assert registry().get(name).specialized is False, name
    covered = {spec.name for spec in registry().specs()
               if spec.specialized}
    assert covered == {"kcfa"}


def run_both(spec, program, parameter, obj_depth=None):
    generic = spec.run(program, parameter, tier="generic",
                       obj_depth=obj_depth)
    special = spec.run(program, parameter, tier="specialized",
                       obj_depth=obj_depth)
    return generic, special


def assert_identical(generic, special, render, context=""):
    """Everything observable must match: the rendered report bytes,
    the trajectory (steps) and the reachable configurations."""
    assert render(generic) == render(special), \
        f"report bytes diverged {context}"
    assert generic.steps == special.steps, \
        f"trajectories diverged {context}"
    assert generic.configs == special.configs, \
        f"reachable configurations diverged {context}"


# -- Scheme ---------------------------------------------------------------


SCHEME_CASES = [
    (name, spec, context, values)
    for name in sorted(small_sources())
    for spec in SCHEME_SPECS
    for context in ((0, 1) if spec.name in ("mcfa", "poly") else (1,))
    for values in VALUE_MODES
    if (name, spec.name) not in EXPLODES
]


@pytest.mark.parametrize(
    "name,spec,context,values", SCHEME_CASES,
    ids=lambda value: getattr(value, "name", value))
def test_scheme_specialized_byte_identical(name, spec, context,
                                           values):
    program = compile_program(small_sources()[name])
    with value_domain(values):
        generic, special = run_both(spec, program, context)
    assert_identical(
        generic, special,
        lambda result: render_reports(program, result),
        context=f"({name}, {spec.name}, n={context}, {values})")
    assert generic.engine_path == "generic"


# -- Featherweight Java ---------------------------------------------------


FJ_CASES = [
    (name, spec, context, values)
    for name in ("pairs", "dispatch", "linked_list", "oo_identity")
    for spec in FJ_SPECS
    for context in (0, 1)
    for values in VALUE_MODES
]


@pytest.mark.parametrize(
    "name,spec,context,values", FJ_CASES,
    ids=lambda value: getattr(value, "name", value))
def test_fj_specialized_byte_identical(name, spec, context, values):
    from repro.fj import parse_fj
    from repro.fj.examples import ALL_EXAMPLES
    program = parse_fj(ALL_EXAMPLES[name])
    with value_domain(values):
        generic, special = run_both(spec, program, context)
    assert_identical(
        generic, special,
        lambda result: render_fj_reports(program, result),
        context=f"({name}, {spec.name}, n={context}, {values})")


def test_fj_hybrid_obj_depth_axis_identical():
    from repro.fj import parse_fj
    from repro.fj.examples import ALL_EXAMPLES
    spec = registry().get("fj-hybrid")
    program = parse_fj(ALL_EXAMPLES["oo_identity"])
    for obj_depth in (0, 1, 2):
        generic, special = run_both(spec, program, 1,
                                    obj_depth=obj_depth)
        assert_identical(
            generic, special,
            lambda result: render_fj_reports(program, result),
            context=f"(oo_identity, fj-hybrid, obj={obj_depth})")


# -- random programs ------------------------------------------------------


@pytest.mark.parametrize("seed", (5, 23, 71, 104))
def test_random_scheme_programs_identical(seed):
    from repro.generators.random_programs import random_program
    program = random_program(seed, 4)
    for spec in SCHEME_SPECS:
        if spec.engine != "single-store":
            continue  # naive drivers can explode on random terms
        for context in (0, 1):
            generic, special = run_both(spec, program, context)
            assert_identical(
                generic, special,
                lambda result: render_reports(program, result),
                context=f"(seed {seed}, {spec.name}, n={context})")


# -- which path ran -------------------------------------------------------


def _tiny_program(spec):
    if spec.language == "fj":
        from repro.fj import parse_fj
        from repro.fj.examples import ALL_EXAMPLES
        return parse_fj(ALL_EXAMPLES["pairs"])
    return compile_program("((lambda (x) x) 1)")


@pytest.mark.parametrize("key", sorted(EXPECTED_PATHS),
                         ids=lambda key: f"{key[0]}-{key[1]}")
def test_expected_engine_path(key):
    name, context = key
    spec = registry().get(name)
    program = _tiny_program(spec)
    default, generated = EXPECTED_PATHS[key]
    assert spec.run(program, context).engine_path == default
    assert spec.run(program, context, tier="codegen").engine_path \
        == generated


def test_escape_hatch_forces_generic():
    program = compile_program("((lambda (x) x) 1)")
    result = registry().get("kcfa").run(program, 1, tier="generic")
    assert result.engine_path == "generic"


def test_unknown_tier_rejected():
    program = compile_program("((lambda (x) x) 1)")
    with pytest.raises(ValueError, match="unknown engine tier"):
        registry().get("zero").run(program, 0, tier="compiled")


@pytest.mark.parametrize("key", sorted(EXPECTED_NOCODEGEN_PATHS),
                         ids=lambda key: f"{key[0]}-{key[1]}")
def test_codegen_escape_hatch_runs_compiled_loops(key):
    name, context = key
    spec = registry().get(name)
    result = spec.run(_tiny_program(spec), context, tier="specialized")
    assert result.engine_path == EXPECTED_NOCODEGEN_PATHS[key]


def test_obj_depth_rejected_off_the_ladder():
    program = compile_program("((lambda (x) x) 1)")
    with pytest.raises(UsageError, match="no obj-depth axis"):
        registry().get("zero").run(program, 0, obj_depth=2)


# -- the harness catches impostors ----------------------------------------


def test_diverging_specialization_fails(monkeypatch):
    """A machine that claims to be a specialization but drops joins
    must fail the differential harness — proving the suite would catch
    a spec registered ``specialized=True`` that diverges."""
    from repro.analysis import specialize as specialize_module
    from repro.analysis.specialize import specialize_machine

    class Diverging:
        specialization = "diverging"

        def __init__(self, inner):
            self._inner = inner

        def boot(self, store):
            return self._inner.boot(store)

        def step(self, config, store, reads, recorder):
            succs = self._inner.step(config, store, reads, recorder)
            # Drop every join: the store never grows, so the "result"
            # is an empty flow everywhere.
            return [(succ, ()) for succ, _joins in succs]

    def broken(machine):
        inner = specialize_machine(machine)
        return Diverging(inner or machine)

    monkeypatch.setattr(specialize_module, "specialize_machine",
                        broken)
    program = compile_program(small_sources()["eta"])
    spec = registry().get("zero")
    generic, special = run_both(spec, program, 0)
    assert special.engine_path == "specialized:diverging"
    with pytest.raises(AssertionError, match="diverged"):
        assert_identical(
            generic, special,
            lambda result: render_reports(program, result))


# -- the codegen tier -----------------------------------------------------
#
# The generated-source stage (:mod:`repro.analysis.codegen`) makes the
# same trajectory promise one rung further up: per-node emitted step
# functions with bit-parallel transfer must be byte- and
# trajectory-identical to the tier below (the generic kernel of the
# flat Scheme policies), and hence, transitively, to the generic
# engine the suite above pins.


CODEGEN_SCHEME_SPECS = [spec for spec in SCHEME_SPECS if spec.codegen]


def run_codegen_both(spec, program, parameter, values="interned"):
    """One analysis twice: the specialized tier, in the *values*
    domain, vs. generated source.  Generated steps work on the bits
    themselves, so they always run interned: a ``plain`` pair holds
    them to the frozenset oracle directly."""
    with value_domain(values):
        compiled = spec.run(program, parameter, tier="specialized")
    generated = spec.run(program, parameter, tier="codegen")
    return compiled, generated


def assert_codegen_identical(compiled, generated, render, values,
                             context):
    """:func:`assert_identical`, but across domains the trajectory is
    not comparable (see ``plain_domain.SCHEDULING_KEYS``): a
    ``plain`` pair must match on everything else."""
    if values == "interned":
        assert_identical(compiled, generated, render, context)
        return
    assert render(compiled) == render(generated), \
        f"report bytes diverged {context}"
    assert compiled.configs == generated.configs, \
        f"reachable configurations diverged {context}"


CODEGEN_SCHEME_CASES = [
    (name, spec, context, values)
    for name in sorted(small_sources())
    for spec in CODEGEN_SCHEME_SPECS
    for context in ((0, 1) if spec.name in ("mcfa", "poly") else (0,))
    for values in VALUE_MODES
    if (name, spec.name) not in EXPLODES
]


@pytest.mark.parametrize(
    "name,spec,context,values", CODEGEN_SCHEME_CASES,
    ids=lambda value: getattr(value, "name", value))
def test_scheme_codegen_byte_identical(name, spec, context, values):
    program = compile_program(small_sources()[name])
    compiled, generated = run_codegen_both(spec, program, context,
                                           values)
    assert_codegen_identical(
        compiled, generated,
        lambda result: render_reports(program, result), values,
        context=f"({name}, {spec.name}, n={context}, {values})")
    assert generated.engine_path.startswith("codegen:")
    assert compiled.engine_path == "generic"


@pytest.mark.parametrize("seed", (5, 23, 71, 104))
def test_random_scheme_codegen_identical(seed):
    from repro.generators.random_programs import random_program
    program = random_program(seed, 4)
    for spec in CODEGEN_SCHEME_SPECS:
        for context in (0, 1):
            compiled, generated = run_codegen_both(spec, program,
                                                   context)
            assert_identical(
                compiled, generated,
                lambda result: render_reports(program, result),
                context=f"(seed {seed}, {spec.name}, n={context})")


def test_codegen_covered_specs_advertise_the_knob():
    """``codegen=True`` in the registry must mean "this suite covers
    it" — and opted-out specs must say no (the analyses table reads
    these)."""
    covered = {spec.name for spec in registry().specs()
               if spec.codegen}
    assert covered == {"zero", "mcfa", "poly"}
    for name in ("kcfa", "pushdown", "kcfa-gc", "kcfa-naive",
                 "fj-kcfa", "fj-kcfa-gc", "fj-poly", "fj-mcfa",
                 "fj-hybrid", "fj-obj"):
        assert registry().get(name).codegen is False, name


# -- the codegen cache: honest invalidation -------------------------------


def _disk_codegen_cache(tmp_path):
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    cache = CodegenCache(tmp_path / "codegen")
    set_default_codegen_cache(cache)
    return cache


def _sole_module_file(cache):
    files = sorted(cache.directory.glob("*.py"))
    assert len(files) == 1, files
    return files[0]


def test_codegen_cache_hits_across_processes_worth_of_state(
        tmp_path):
    """A fresh in-memory cache over the same directory serves the
    module from disk (one miss, then hits)."""
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    program = compile_program(small_sources()["eta"])
    spec = registry().get("zero")
    cache = _disk_codegen_cache(tmp_path)
    try:
        first = spec.run(program, 0, tier="codegen")
        assert cache.stats.misses == 1 and cache.stats.writes == 1
        rewarmed = CodegenCache(tmp_path / "codegen")
        set_default_codegen_cache(rewarmed)
        second = spec.run(program, 0, tier="codegen")
        assert rewarmed.stats.hits == 1
        assert rewarmed.stats.misses == 0
        assert render_reports(program, first) \
            == render_reports(program, second)
        assert first.steps == second.steps
    finally:
        set_default_codegen_cache(None)


def test_flat_policies_share_one_module_per_program():
    """0CFA, m-CFA and poly-k-CFA at any depth run one generated
    module per program: the allocator is called at run time, so the
    key covers the program alone."""
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    program = compile_program(small_sources()["eta"])
    cache = CodegenCache()
    set_default_codegen_cache(cache)
    try:
        for name, context in (("zero", 1), ("mcfa", 1), ("poly", 1),
                              ("mcfa", 0)):
            result = registry().get(name).run(program, context,
                                              tier="codegen")
            assert result.engine_path == "codegen:flat"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3
    finally:
        set_default_codegen_cache(None)


def test_stale_schema_module_is_regenerated_not_served(tmp_path):
    """A cached module whose embedded SCHEMA predates the current one
    must be rejected and regenerated in place — the invalidation
    regression for any future emitter change."""
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    program = compile_program(small_sources()["eta"])
    spec = registry().get("zero")
    cache = _disk_codegen_cache(tmp_path)
    try:
        baseline = spec.run(program, 0, tier="codegen")
        path = _sole_module_file(cache)
        text = path.read_text(encoding="utf-8")
        assert "SCHEMA = " in text
        path.write_text(text.replace("SCHEMA = ", "SCHEMA = -",
                                     1), encoding="utf-8")
        stale = CodegenCache(tmp_path / "codegen")
        set_default_codegen_cache(stale)
        rerun = spec.run(program, 0, tier="codegen")
        assert stale.stats.rejected == 1
        assert stale.stats.writes == 1  # regenerated in place
        assert rerun.engine_path == "codegen:flat"
        assert render_reports(program, rerun) \
            == render_reports(program, baseline)
        # The rewritten entry is valid again.
        assert "SCHEMA = -" not in path.read_text(encoding="utf-8")
    finally:
        set_default_codegen_cache(None)


def test_corrupt_cached_module_is_regenerated_not_a_crash(tmp_path):
    from repro.analysis.codegen import set_default_codegen_cache
    from repro.cache import CodegenCache
    program = compile_program(small_sources()["eta"])
    spec = registry().get("zero")
    cache = _disk_codegen_cache(tmp_path)
    try:
        baseline = spec.run(program, 0, tier="codegen")
        path = _sole_module_file(cache)
        path.write_text("def (broken syntax", encoding="utf-8")
        corrupt = CodegenCache(tmp_path / "codegen")
        set_default_codegen_cache(corrupt)
        rerun = spec.run(program, 0, tier="codegen")
        assert corrupt.stats.rejected == 1
        assert rerun.engine_path == "codegen:flat"
        assert render_reports(program, rerun) \
            == render_reports(program, baseline)
    finally:
        set_default_codegen_cache(None)


def test_codegen_prune_drops_stale_schema_entries(tmp_path,
                                                  monkeypatch):
    program = compile_program(small_sources()["eta"])
    spec = registry().get("zero")
    from repro.analysis.codegen import set_default_codegen_cache
    cache = _disk_codegen_cache(tmp_path)
    try:
        spec.run(program, 0, tier="codegen")
        path = _sole_module_file(cache)
        monkeypatch.setattr("repro.cache.CODEGEN_SCHEMA_VERSION",
                            9999)
        removed = cache.prune()
        assert removed == 1
        assert not path.exists()
    finally:
        set_default_codegen_cache(None)


def test_failed_module_write_is_not_a_failed_run(tmp_path,
                                                  monkeypatch):
    """A full disk loses only the disk copy: the generated module
    still runs from memory and the temporary file is cleaned up."""
    from repro.analysis.codegen import set_default_codegen_cache
    program = compile_program(small_sources()["eta"])
    spec = registry().get("zero")
    cache = _disk_codegen_cache(tmp_path)

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")
    try:
        monkeypatch.setattr("repro.cache.os.replace", full_disk)
        result = spec.run(program, 0, tier="codegen")
        monkeypatch.undo()
        assert result.engine_path == "codegen:flat"
        assert cache.stats.writes == 0
        assert cache.stats.failed == 1
        assert not list(cache.directory.iterdir())
        reference = spec.run(program, 0, tier="generic")
        assert render_reports(program, result) \
            == render_reports(program, reference)
    finally:
        set_default_codegen_cache(None)


# -- which tier a call site gets ------------------------------------------
#
# Generating and compiling a step module costs far more than a one-shot
# fixpoint of the cheap analyses, so only a warm worker (run_job with
# its ProgramCache) runs the codegen tier.  One-shot jobs and
# ``analyze`` must never reach the emitter or the module cache.

ONE_SHOT_CELLS = [("mcfa", 1), ("poly", 1), ("zero", 1), ("fj-poly", 0)]


def _cell_source_and_reference(analysis, context):
    """The cell's source and its expected report: the golden file for
    the Scheme cells, the generic tier's report for fj-poly(0)."""
    from pathlib import Path
    if analysis == "fj-poly":
        from repro.fj import parse_fj
        from repro.fj.examples import ALL_EXAMPLES
        from repro.service.jobs import run_fj_analysis
        source = ALL_EXAMPLES["pairs"]
        program = parse_fj(source)
        result = run_fj_analysis(program, analysis, context,
                                 tier="generic")
        return source, render_fj_reports(program, result)
    golden = Path(__file__).resolve().parent / "goldens" / \
        f"eta.{analysis}.{context}.interned.txt"
    return small_sources()["eta"], golden.read_text(encoding="utf-8")


@pytest.fixture
def codegen_raises(monkeypatch):
    """Make any use of the emitter or the module cache fail loudly."""
    from repro.cache import CodegenCache

    def boom(*args, **kwargs):
        raise AssertionError("a one-shot run reached the codegen tier")
    monkeypatch.setattr("repro.analysis.codegen.generate_source", boom)
    monkeypatch.setattr(CodegenCache, "module_for", boom)


@pytest.mark.parametrize("analysis,context", ONE_SHOT_CELLS)
def test_one_shot_job_never_generates_source(analysis, context,
                                             codegen_raises):
    from repro.service.jobs import JobSpec, run_job
    source, reference = _cell_source_and_reference(analysis, context)
    row = run_job(JobSpec(source=source, analysis=analysis,
                          context=context))
    assert row["status"] == "ok", row.get("error")
    assert row["stdout"] == reference
    assert not row["engine_path"].startswith("codegen:")


@pytest.mark.parametrize("analysis,context", ONE_SHOT_CELLS)
def test_analyze_cli_never_generates_source(analysis, context,
                                            codegen_raises, tmp_path,
                                            capsys):
    from repro.__main__ import main
    source, reference = _cell_source_and_reference(analysis, context)
    path = tmp_path / ("prog.java" if analysis == "fj-poly"
                       else "prog.scm")
    path.write_text(source, encoding="utf-8")
    code = main(["analyze", str(path), "--analysis", analysis,
                 "-n", str(context),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert capsys.readouterr().out == reference
    assert not (tmp_path / "cache" / "codegen").exists()


@pytest.mark.parametrize("analysis,context", ONE_SHOT_CELLS)
def test_worker_job_runs_codegen(analysis, context):
    """A warm worker asks for the codegen tier: the flat Scheme cells
    get the one generated kind, and fj-poly(0), which has no emitter,
    falls back to the flat FJ machine."""
    from repro.cache import ProgramCache
    from repro.service.jobs import JobSpec, run_job
    source, reference = _cell_source_and_reference(analysis, context)
    row = run_job(JobSpec(source=source, analysis=analysis,
                          context=context), programs=ProgramCache())
    assert row["status"] == "ok", row.get("error")
    assert row["engine_path"] == ("generic" if analysis == "fj-poly"
                                  else "codegen:flat")
    assert row["stdout"] == reference
