"""Automatic distribution choice — the "automatic generation" extension.

The paper assumes Fortran-D-style directives; this bench shows the
compiler deriving them itself for every application: candidate loops are
legality-checked by dependence analysis and ranked by shape, movement
payload, nesting depth, and cost coverage.
"""

from _util import once, save_series

from repro.apps.adaptive import adaptive_program
from repro.apps.lu import lu_program
from repro.apps.matmul import matmul_program
from repro.apps.sor import sor_program
from repro.compiler.autodistribute import choose_distribution
from repro.experiments.common import ExperimentSeries


def _run():
    series = ExperimentSeries(
        name="Automatic distribution choice (no directives)",
        headers=("app", "chosen_loop", "distributed_arrays", "rejected_loops"),
        expected=(
            "MM distributes rows (reduction/repetition loops rejected); "
            "LU distributes the update columns (pivot loop covers too "
            "little cost); SOR distributes a grid dimension as a pipeline"
        ),
    )
    cases = (
        (matmul_program(), {"n": 500, "reps": 1}),
        (sor_program(), {"n": 2000, "maxiter": 15}),
        (lu_program(), {"n": 600}),
        (adaptive_program(), {"n": 400, "reps": 3}),
    )
    picks = {}
    for prog, params in cases:
        directive, choices = choose_distribution(prog, params)
        rejected = ",".join(c.loop_var for c in choices if not c.legal) or "-"
        arrays = ",".join(f"{a}[{d}]" for a, d in directive.distributed_arrays)
        series.add(prog.name, directive.distribute, arrays, rejected)
        picks[prog.name] = directive
    return series, picks


def test_compiler_chooses_distributions(benchmark):
    series, picks = once(benchmark, _run)
    save_series("autodistribute", series)

    assert picks["matmul"].distribute == "i"
    assert picks["lu"].distribute == "j"
    assert picks["sor"].distribute in ("i", "j")
    assert picks["adaptive"].distribute == "cell"
    # The hand-written directives used throughout the reproduction agree
    # with the automatic choice for MM and LU.
    assert dict(picks["matmul"].distributed_arrays) == {"a": 0, "c": 0}
    assert dict(picks["lu"].distributed_arrays) == {"a": 1}
