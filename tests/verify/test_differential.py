"""Differential runner and shrinker behaviour (fast, non-fuzzing tests)."""

from repro.sched.candidates import ScheduleLevel
from repro.verify import generate_program, run_differential, shrink_program
from repro.verify.differential import ComboResult, DiffResult
from repro.verify.fuzz import derive_seed, fuzz, reproduce
from repro.verify.generator import GenFunction, GenProgram, Line


def test_matrix_shape_and_pass():
    program = generate_program(3)
    result = run_differential(program, machines=("rs6k", "scalar"))
    assert result.ok, result.format_failures()
    assert len(result.combos) == 2 * 3  # machines x levels
    assert all(c.error is None for c in result.combos)
    # cycle counts are recorded for every combo
    assert result.cycles("rs6k", ScheduleLevel.NONE) > 0


def test_observations_identical_across_matrix():
    program = generate_program(11)
    result = run_differential(program)
    baseline = result.combos[0]
    for combo in result.combos[1:]:
        assert combo.observation == baseline.observation


def test_differential_flags_divergent_observation():
    """A fabricated divergence must be reported (guards the comparator
    itself, not the compiler)."""
    program = generate_program(5)
    result = run_differential(program)
    assert result.ok
    result.combos[3].return_value = (result.combos[0].return_value or 0) + 1
    rebuilt = DiffResult(program=program, combos=result.combos)
    _recompare(rebuilt)
    assert not rebuilt.ok


def _recompare(result: DiffResult) -> None:
    baseline = result.combos[0]
    for combo in result.combos[1:]:
        if combo.observation != baseline.observation:
            result.failures.append("diverged")


def _tiny_program(body_lines, ret="return a0;"):
    fn = GenFunction("test", [("int", "a0")],
                     [Line(t) for t in body_lines], final_return=ret)
    return GenProgram(seed=0, functions=[fn], entry="test", entry_args=[7])


def test_shrink_removes_irrelevant_statements():
    """Predicate: 'the program still contains the marker statement'.
    Everything else must shrink away."""
    program = _tiny_program([
        "int v1 = a0 + 1;",
        "int v2 = a0 * 3;",
        "int marker = 42;",
        "int v3 = v2 - 2;",
    ])

    def still_fails(candidate):
        return "marker" in candidate.source

    small = shrink_program(program, still_fails)
    assert "marker" in small.source
    body = small.functions[0].body
    assert len(body) == 1  # only the marker survived


def test_shrink_rejects_broken_variants():
    """Deleting the decl a later statement uses must not stick: the
    predicate (which compiles) throws, the variant is discarded."""
    from repro.compiler import compile_c

    program = _tiny_program([
        "int v1 = a0 + 1;",
        "int v2 = v1 * v1;",
    ], ret="return v2;")

    def still_fails(candidate):
        compile_c(candidate.source)  # raises on dangling references
        return "v2" in candidate.source

    small = shrink_program(program, still_fails)
    compile_c(small.source)
    assert "v2" in small.source


def test_fuzz_campaign_is_deterministic_and_reproducible():
    report_a = fuzz(4, seed=99, machines=("rs6k",), shrink=False)
    report_b = fuzz(4, seed=99, machines=("rs6k",), shrink=False)
    assert report_a.attempted == report_b.attempted == 4
    assert report_a.ok and report_b.ok
    # reproduce() regenerates the identical program
    program = reproduce(99, 2, machines=("rs6k",))
    assert program.seed == derive_seed(99, 2)
    assert program.source == generate_program(derive_seed(99, 2)).source


def test_combo_result_observation_tuple():
    combo = ComboResult(machine="rs6k", level=ScheduleLevel.NONE,
                        return_value=4, arrays=[[1]], calls=[("f", (2,))])
    assert combo.observation == (4, [[1]], [("f", (2,))])


# -- the front end runs once per program


def test_front_end_runs_once_per_program(monkeypatch):
    import repro.compiler as compiler

    calls = {"parse_c": 0, "lower_program": 0}
    for name in calls:
        def counted(*args, _real=getattr(compiler, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(compiler, name, counted)
    result = run_differential(generate_program(3))
    assert result.ok, result.format_failures()
    assert len(result.combos) == 9
    assert calls == {"parse_c": 1, "lower_program": 1}


def test_each_combo_schedules_what_compile_c_would(monkeypatch):
    import repro.verify.differential as differential
    from repro.compiler import compile_c
    from repro.machine.configs import CONFIGS
    from repro.xform.pipeline import PipelineConfig

    program = generate_program(derive_seed(1991, 3))  # loops, two functions
    real = differential.schedule_lowered
    compiled = []

    def spy(lowered, machine, config):
        compiled.append(real(lowered, machine, config))
        return compiled[-1]

    monkeypatch.setattr(differential, "schedule_lowered", spy)
    result = run_differential(program)
    assert result.ok, result.format_failures()
    assert len(compiled) == len(result.combos) == 9
    for combo, unit in zip(result.combos, compiled):
        level = combo.level
        fresh = compile_c(program.source, machine=CONFIGS[combo.machine](),
                          level=level,
                          config=PipelineConfig(level=level, verify=True))
        assert ({name: u.assembly() for name, u in unit.units.items()}
                == {name: u.assembly() for name, u in fresh.units.items()})


def test_rejected_source_fails_every_combo_as_compile_c_did():
    program = _tiny_program(["int v1 = a0 + ;"], ret="return v1;")
    result = run_differential(program)
    error = "CParseError(\"line 3: expected an expression (at ';')\")"
    assert result.failures == [
        f"[{machine}/{level}] compilation crashed: {error}"
        for machine in ("rs6k", "scalar", "ss2")
        for level in ("none", "useful", "speculative")
    ]
    assert [c.error for c in result.combos] == [f"compile: {error}"] * 9


# -- strength reduction runs once per lowered function


def test_strength_reduction_runs_once_per_function(monkeypatch):
    import repro.xform.pipeline as pipeline

    program = generate_program(derive_seed(1991, 3))  # loops, two functions
    reduced = []

    def counted(func, *, live_at_exit, _real=pipeline.strength_reduce):
        reduced.append(func.name)
        return _real(func, live_at_exit=live_at_exit)

    monkeypatch.setattr(pipeline, "strength_reduce", counted)
    result = run_differential(program)
    assert result.ok, result.format_failures()
    assert len(result.combos) == 9
    assert sorted(reduced) == sorted(f.name for f in program.functions)


def test_failing_reduction_fails_every_combo_with_one_line(monkeypatch):
    """The reduction runs before any combo, so one failure fails all
    nine, as a front-end error does."""
    import repro.xform.pipeline as pipeline

    state = {"raised": False}

    def fails_once(func, *, live_at_exit, _real=pipeline.strength_reduce):
        if not state["raised"]:
            state["raised"] = True
            raise RuntimeError("reducer bug")
        return _real(func, live_at_exit=live_at_exit)

    monkeypatch.setattr(pipeline, "strength_reduce", fails_once)
    result = run_differential(generate_program(3))
    error = "RuntimeError('reducer bug')"
    assert result.failures == [
        f"[{machine}/{level}] compilation crashed: {error}"
        for machine in ("rs6k", "scalar", "ss2")
        for level in ("none", "useful", "speculative")
    ]
    assert [c.error for c in result.combos] == [f"compile: {error}"] * 9
