"""Tests for the AnalysisResult API and benchsuite integration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_kcfa, analyze_mcfa
from repro.benchsuite import BY_NAME, SUITE
from repro.scheme.cps_transform import compile_program


class TestFlowQueries:
    def test_flow_of_joins_contexts(self):
        program = compile_program(
            "(define (id x) x) (cons (id 1) (id 2))")
        result = analyze_kcfa(program, 1)
        x_name = next(name for name in program.variables
                      if name.startswith("x"))
        from repro.analysis import AConst
        assert result.flow_of(x_name) == {AConst(1), AConst(2)}

    def test_lambdas_of_filters_closures(self):
        program = compile_program(
            "(let ((f (lambda (v) v))) (f f))")
        result = analyze_kcfa(program, 1)
        f_name = next(name for name in program.variables
                      if name.startswith("f"))
        lams = result.lambdas_of(f_name)
        assert len(lams) == 1
        assert next(iter(lams)).is_user


class TestInliningMetric:
    def test_cont_sites_excluded_by_default(self):
        program = compile_program("(let ((x 1)) x)")
        result = analyze_mcfa(program, 1)
        # all calls here are continuation applications
        assert result.supported_inlinings() == 0
        assert result.supported_inlinings(include_cont=True) > 0

    def test_unknown_operator_blocks_inlining(self):
        # car of quoted data gives basic-top; calling it is unknown
        program = compile_program("((car '(1)) 2)")
        result = analyze_mcfa(program, 1)
        assert result.supported_inlinings() == 0

    def test_polymorphic_site_not_inlinable(self):
        program = compile_program("""
            (define (call f) (f 0))
            (cons (call (lambda (a) a)) (call (lambda (b) b)))
        """)
        result = analyze_mcfa(program, 0)
        # the (f 0) site sees two lambdas under 0CFA
        sites = result.inlinable_call_sites()
        f_sites = [label for label, callees in result.callees.items()
                   if len(callees) == 2]
        assert f_sites
        assert all(label not in sites for label in f_sites)


class TestEnvironmentCounts:
    def test_counts_match_entries(self):
        program = compile_program(
            "(define (id x) x) (cons (id 1) (id 2))")
        result = analyze_kcfa(program, 1)
        id_lam = next(lam for lam in program.user_lams)
        assert result.environment_count(id_lam) == 2
        assert result.environment_counts()[id_lam.label] == 2

    def test_total_environments_sums(self):
        program = compile_program("((lambda (x) x) 1)")
        result = analyze_kcfa(program, 1)
        assert result.total_environments() == \
            sum(result.environment_counts().values())


class TestCallGraph:
    def test_graph_nodes_are_lambda_labels(self):
        program = compile_program(
            "(define (f x) x) (define (g y) (f y)) (g 2)")
        result = analyze_kcfa(program, 1)
        graph = result.call_graph()
        labels = {lam.label for lam in program.lams}
        for source, target in graph.edges():
            assert target in labels
            assert source in labels or source == "<toplevel>"

    def test_toplevel_edges_exist(self):
        program = compile_program("((lambda (x) x) 1)")
        result = analyze_kcfa(program, 1)
        graph = result.call_graph()
        assert any(source == "<toplevel>"
                   for source, _t in graph.edges())


#: Runs in a fresh interpreter: a Scheme job, an FJ job and a
#: call-graph query, one-shot and through a worker's program cache,
#: then prints which networkx modules got imported.
_JOBS_SCRIPT = """
import sys
from repro.analysis.codegen import set_default_codegen_cache
from repro.cache import CodegenCache, ProgramCache
from repro.fj.examples import PAIRS
from repro.service.jobs import JobSpec, run_job
set_default_codegen_cache(CodegenCache())  # memory-only
scheme = "(define (id x) x)\\n(+ (id 3) (id 4))\\n"
jobs = [JobSpec(source=scheme, analysis="kcfa"),
        JobSpec(source=PAIRS, analysis="fj-kcfa"),
        JobSpec(source=scheme, analysis="mcfa",
                query_kind="call-graph")]
for programs in (None, ProgramCache()):
    for job in jobs:
        row = run_job(job, programs=programs)
        assert row["status"] == "ok", row
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "networkx"))
"""


class TestNetworkxStaysLazy:
    def test_jobs_never_import_networkx(self, tmp_path):
        """Only :meth:`AnalysisResult.call_graph` needs networkx, so
        no job path — including the call-graph client pass — may
        pay for importing it."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        result = subprocess.run(
            [sys.executable, "-c", _JOBS_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestBenchsuiteIntegration:
    def test_suite_has_seven_programs(self):
        assert len(SUITE) == 7
        assert set(BY_NAME) == {
            "eta", "map", "sat", "regex", "interp", "scm2java",
            "scm2c"}

    def test_every_program_compiles(self, suite_compiled):
        for name, program in suite_compiled.items():
            assert program.term_count() > 100, name

    def test_descriptions_present(self):
        for bench in SUITE:
            assert bench.description

    @pytest.mark.parametrize("bench_name", list(BY_NAME))
    def test_analyzable_by_mcfa(self, bench_name, suite_compiled):
        result = analyze_mcfa(suite_compiled[bench_name], 1)
        assert result.halt_values
        assert result.supported_inlinings() > 0
