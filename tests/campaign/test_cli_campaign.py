"""CLI smoke tests for the campaign flags (--jobs / --store / --resume)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, campaign_from_args, main

FIGURE1_ARGS = [
    "figure1", "--benchmarks", "canrdr", "--runs", "1", "--scale", "0.05",
    "--quiet",
]


def _store_lines(path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def test_figure1_jobs_flag_produces_identical_output(capsys):
    assert main([*FIGURE1_ARGS, "--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert main([*FIGURE1_ARGS, "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == serial_out
    assert "Figure 1 headline numbers" in serial_out


def test_figure1_resume_skips_finished_jobs(tmp_path, capsys):
    store = tmp_path / "figure1.jsonl"
    args = [*FIGURE1_ARGS, "--store", str(store)]

    assert main(args) == 0
    first_out = capsys.readouterr().out
    lines_after_first = _store_lines(store)
    assert lines_after_first > 0

    # Second invocation resumes: same output, nothing re-run, nothing appended.
    assert main([*args, "--resume"]) == 0
    second_out = capsys.readouterr().out
    assert second_out == first_out
    assert _store_lines(store) == lines_after_first


def test_mbpta_store_and_resume_roundtrip(tmp_path, capsys):
    store = tmp_path / "mbpta.jsonl"
    args = [
        "mbpta", "canrdr", "--runs", "20", "--scale", "0.05", "--quiet",
        "--store", str(store),
    ]
    assert main(args) == 0
    first_out = capsys.readouterr().out
    lines = _store_lines(store)

    assert main([*args, "--resume"]) == 0
    assert capsys.readouterr().out == first_out
    assert _store_lines(store) == lines


def test_table1_runs_through_the_campaign_engine(tmp_path, capsys):
    store = tmp_path / "table1.jsonl"
    args = ["table1", "--tua-requests", "5", "--rows", "3", "--quiet",
            "--store", str(store)]
    assert main(args) == 0
    first_out = capsys.readouterr().out

    # Resume rebuilds the full table from the stored payload alone.
    assert main([*args, "--resume"]) == 0
    assert capsys.readouterr().out == first_out


def test_resume_without_store_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*FIGURE1_ARGS, "--resume"])
    assert excinfo.value.code == 2
    assert "--resume requires --store" in capsys.readouterr().err


def test_retries_flag_changes_no_output_on_a_clean_run(capsys):
    assert main([*FIGURE1_ARGS, "--jobs", "2"]) == 0
    plain_out = capsys.readouterr().out
    assert main([*FIGURE1_ARGS, "--jobs", "2", "--retries", "2",
                 "--job-timeout", "120"]) == 0
    assert capsys.readouterr().out == plain_out


def test_negative_retries_is_a_user_error(capsys):
    assert main([*FIGURE1_ARGS, "--retries", "-1"]) == 2
    assert "--retries cannot be negative" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_non_positive_job_timeout_is_a_user_error(capsys, timeout):
    assert main([*FIGURE1_ARGS, "--jobs", "2", "--job-timeout", timeout]) == 2
    assert "job_timeout must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_resilience_flags_configure_the_executor(jobs):
    args = build_parser().parse_args(
        [*FIGURE1_ARGS, "--jobs", jobs, "--retries", "3", "--job-timeout", "9"]
    )
    executor = campaign_from_args(args).executor
    assert executor.retries == 3
    assert executor.job_timeout == (9.0 if jobs == "2" else None)


def test_campaign_command_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "chaos"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'campaign'" in capsys.readouterr().err


def test_strict_store_flag_turns_corruption_into_an_error(tmp_path, capsys):
    store = tmp_path / "figure1.jsonl"
    args = [*FIGURE1_ARGS, "--store", str(store)]
    assert main(args) == 0
    capsys.readouterr()
    lines = store.read_text().splitlines()
    lines.insert(0, "not json at all")
    store.write_text("\n".join(lines) + "\n")

    # Default: the corrupt line quarantines and the campaign resumes fine.
    assert main([*args, "--resume"]) == 0
    capsys.readouterr()
    # Strict: the same store is now a hard error.
    assert main([*args, "--resume", "--strict-store"]) == 2
    assert "corrupt record" in capsys.readouterr().err

