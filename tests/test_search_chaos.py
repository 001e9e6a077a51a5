"""Every chaos invariant fires on a row that breaks it — no searches run.

Each scenario of :data:`repro.search.chaos.SCENARIOS` gets a healthy
synthetic row set that must check clean.  Then, once per invariant, one
row of that set is broken in exactly the way the invariant guards
against, and :func:`repro.search.chaos.check` must report exactly one
problem, naming that row's ``level``.  A dropped or mistyped invariant
therefore fails here instead of passing silently on healthy runs.
"""

import dataclasses

import pytest

from repro.search import chaos


def search_row(level, method, **columns):
    """A healthy row of a search scenario (faults, numeric, proc)."""
    row = {"level": level, "method": method, "evaluations": 18,
           "best_reward": 0.40, "finite_best": True, "failed_evals": 0,
           "failed_agents": 0, "unaccounted_agents": 0}
    row.update(columns)
    return row


def fault_row(method, level, best):
    return search_row(f"faults/{method}/{level}", method, best_reward=best,
                      node_failures=2, job_restarts=3,
                      mean_utilization=0.73)


def crashpoint_row(backend, replay_loaded):
    return {"level": f"crashpoint/a3c/{backend}", "journal_records": 53,
            "baseline_evals": 24, "kill_points": [13, 26, 39],
            "kills_landed": 3, "replay_loaded": replay_loaded,
            "fingerprint_mismatches": 0, "reevaluations": 0,
            "replay_leftover": 0, "direct_reexec": 0}


#: profile -> factory of fresh healthy rows.  The faults set holds two
#: methods whose fault-free bests differ by far more than the tolerance,
#: so a drop measured against any baseline but the same method's would
#: fire; in the crashpoint set only the first cell loaded a replay entry.
HEALTHY = {
    "faults": lambda: [fault_row("a3c", "none", 0.40),
                       fault_row("a3c", "heavy", 0.39),
                       fault_row("a2c", "none", 0.30),
                       fault_row("a2c", "heavy", 0.295)],
    "numeric": lambda: [search_row("numeric/a3c", "a3c", rollbacks=4,
                                   restarts=1, numeric_faults=7,
                                   rejected_deltas=2)],
    "proc": lambda: [search_row("proc/a3c", "a3c", external_kills=4,
                                worker_crashes=8, worker_timeouts=1,
                                worker_faults=9, respawns=9, quarantined=3,
                                inline_evals=0, events_ok=True)],
    "crashpoint": lambda: [crashpoint_row("serial", 6),
                           crashpoint_row("thread", 0)],
}


#: (profile, invariant, index of the row to break, columns to set) —
#: one case per invariant
VIOLATIONS = [
    ("faults", "agent lost", 3, {"failed_agents": 1}),
    ("faults", "no evaluations", 3, {"evaluations": 0}),
    ("faults", "best-reward drop over tolerance", 3, {"best_reward": 0.25}),
    ("faults", "unaccounted agent", 2, {"unaccounted_agents": 1}),
    ("numeric", "no evaluations", 0, {"evaluations": 0}),
    ("numeric", "non-finite best", 0, {"best_reward": float("nan"),
                                       "finite_best": False}),
    ("numeric", "no numeric fault fired", 0, {"numeric_faults": 0}),
    ("numeric", "no rollback", 0, {"rollbacks": 0}),
    ("numeric", "no resurrection", 0, {"restarts": 0}),
    ("numeric", "agent lost", 0, {"failed_agents": 1}),
    ("numeric", "unaccounted agent", 0, {"unaccounted_agents": 2}),
    ("proc", "no evaluations", 0, {"evaluations": 0}),
    ("proc", "agent lost", 0, {"failed_agents": 2}),
    ("proc", "no worker crash or timeout", 0, {"worker_crashes": 0,
                                               "worker_timeouts": 0,
                                               "worker_faults": 0}),
    ("proc", "no respawn", 0, {"respawns": 0}),
    ("proc", "no quarantine", 0, {"quarantined": 0}),
    ("proc", "events missing", 0, {"events_ok": False}),
    ("proc", "unaccounted agent", 0, {"unaccounted_agents": 1}),
    ("crashpoint", "fingerprint mismatch", 1, {"fingerprint_mismatches": 1}),
    ("crashpoint", "re-evaluation", 1, {"reevaluations": 2}),
    ("crashpoint", "call beyond the journal deficit", 1,
     {"direct_reexec": 1}),
    ("crashpoint", "unconsumed replay entry", 1, {"replay_leftover": 1}),
    ("crashpoint", "no kill landed", 1, {"kills_landed": 0}),
    ("crashpoint", "no row loaded a replay entry", 0, {"replay_loaded": 0}),
]


def violate(profile, index, columns):
    rows = HEALTHY[profile]()
    rows[index].update(columns)
    return rows, rows[index]["level"]


def test_one_case_per_invariant():
    assert len(VIOLATIONS) == 24
    for profile, scenario in chaos.SCENARIOS.items():
        invariants = (len(scenario.zero) + len(scenario.fire)
                      + (scenario.across is not None))
        assert invariants == sum(1 for v in VIOLATIONS if v[0] == profile)


@pytest.mark.parametrize("profile", list(chaos.SCENARIOS))
def test_healthy_rows_pass(profile):
    assert chaos.check(profile, HEALTHY[profile]()) == []


@pytest.mark.parametrize(
    "profile,index,columns",
    [v[:1] + v[2:] for v in VIOLATIONS],
    ids=[f"{v[0]}-{v[1].replace(' ', '_')}" for v in VIOLATIONS])
def test_violation_fires_once_naming_the_row(profile, index, columns):
    rows, level = violate(profile, index, columns)
    problems = chaos.check(profile, rows)
    assert len(problems) == 1, problems
    assert level in problems[0]


def test_each_invariant_has_its_own_message():
    messages = set()
    for profile, _name, index, columns in VIOLATIONS:
        rows, level = violate(profile, index, columns)
        messages.add((profile,
                      chaos.check(profile, rows)[0].replace(level, "<row>")))
    assert len(messages) == len(VIOLATIONS)


def test_reward_drop_honours_tolerance():
    rows, _level = violate("faults", 3, {"best_reward": 0.25})
    assert chaos.check("faults", rows, tolerance=0.5) == []


@pytest.mark.parametrize("profile", list(chaos.SCENARIOS))
def test_report_prints_header_and_one_line_per_row(profile, capsys):
    rows = HEALTHY[profile]()
    chaos.report(rows, chaos.SCENARIOS[profile].columns)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(rows)
    assert lines[0].split() == ["level", *chaos.SCENARIOS[profile].columns]
    for line, row in zip(lines[1:], rows):
        assert line.startswith(row["level"])


class TestMain:
    """``main`` over the table, with every cell runner swapped for one
    that records its call and returns healthy rows."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for profile, scenario in list(chaos.SCENARIOS.items()):
            def cell(method, profile=profile, **options):
                calls.append((profile, method, options))
                return HEALTHY[profile]()
            monkeypatch.setitem(chaos.SCENARIOS, profile,
                                dataclasses.replace(scenario, cell=cell))
        return calls

    def test_defaults_per_scenario(self, calls, capsys):
        assert chaos.main(["--profile", "all"]) == 0
        assert [(p, m) for p, m, _ in calls] == [
            ("faults", "a3c"), ("numeric", "a3c"), ("numeric", "a2c"),
            ("proc", "a3c"), ("crashpoint", "a3c"), ("crashpoint", "a2c"),
            ("crashpoint", "rdm")]
        options = {p: o for p, _, o in calls}
        assert options["faults"] == {"minutes": 45.0, "seed": 1}
        assert options["proc"] == {"seed": 1}
        assert options["crashpoint"] == {
            "seed": 3, "points": 3,
            "backends": ("serial", "thread", "process")}
        assert "all profiles within tolerance" in capsys.readouterr().out

    def test_methods_flag_reaches_every_scenario(self, calls):
        assert chaos.main(["--profile", "all", "--methods", "a2c,rdm"]) == 0
        for profile in chaos.SCENARIOS:
            assert [m for p, m, _ in calls if p == profile] == ["a2c", "rdm"]

    def test_violation_fails_the_run(self, calls, monkeypatch, capsys):
        rows, _level = violate("numeric", 0, {"rollbacks": 0})
        monkeypatch.setitem(chaos.SCENARIOS, "numeric", dataclasses.replace(
            chaos.SCENARIOS["numeric"], cell=lambda method, **_: rows))
        assert chaos.main(["--profile", "numeric"]) == 1
        assert "chaos: FAIL — numeric/a3c" in capsys.readouterr().out

    def test_single_method_flag_is_gone(self, calls):
        with pytest.raises(SystemExit):
            chaos.main(["--method", "a3c"])
        assert calls == []
