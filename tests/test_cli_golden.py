"""Golden outputs of every CLI subcommand, run in-process through
`cli.main`: stdout, stderr, the exit code and the `--log` record of each
argv in CASES, compared with `data/cli_golden.json`.

The record is compared without its timestamp and without the config keys
of flags that a command registered but never read (`_unread`); the parser
no longer registers those flags, so a record carries them or not depending
on the version that wrote it.  Temporary paths read as "{tmp}".

Regenerate the golden file (after a deliberate output change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

IETS = {
    "half.iet": "top = A B\nbottom = B A\nlengths = 1/2 1/2\n",
    "third.iet": "top = A B\nbottom = B A\nlengths = 2/3 1/3\n",
}

CASES = [
    "iet eval --x 1/3 --n 3",
    "iet eval --x 1/3 --log {tmp}/missing/log.jsonl",
    "iet keane --depth 50",
    "iet keane --depth 10 --iet {tmp}/third.iet",
    "rv induct --steps 6",
    "rv induct --steps 3 --iet {tmp}/half.iet",
    "rv towers --at 5",
    "rv accel --steps 20 --lbar-max 4",
    "zip backward --steps 3",
    "zip backward --steps 40",
    "flow orbit --t 2.5 --x 1/3",
    "flow birkhoff --x 1/3 --r 40",
    "flow birkhoff --x 1/3 --r 40 --derivative",
    "bs growth --r-grid 50,150 --points 2 --steps 30 --seed 2",
    "bs growth --r-grid 50,150 --points 2 --steps 30 --seed 2 --csv",
    "bs sigma-sets --l-max 4 --steps 20",
    "bs sigma-sets --l-max 4 --steps 20 --csv",
    "bs sigma-sets --l-max 2 --iet {tmp}/half.iet",
    "bs sigma-sets --l-max 2 --tau 2",
    "dc mixing --depth 5 --steps 20",
    "dc mixing --depth 5 --steps 20 --csv",
    "dc mixing --depth 40 --steps 10 --csv",
    "dc mixing --depth 5 --tau 2",
    "dc mixing --depth 5 --nope",
    "dc mixing --steps 20",
    "dc mixing --depth 5 --iet {tmp}/half.iet",
    "dc mixing --depth 0 --steps 20",
    "dc mixing --depth -3 --steps 20",
    "dc ratner --depth 4 --steps 20",
    "dc ratner --depth 4 --steps 20 --csv",
    "dc ratner --depth 0 --steps 8",
    "dc ratner --depth -1 --steps 8",
    "dc summability --depth 4 --steps 30 --window-len 0",
    "dc summability --depth -2 --steps 30 --window-len 0",
    "dc summability --depth 4 --steps 30 --window-len 0 --csv",
    "ratner witness --eps 0.2 --pairs 2 --seed 3 --rate-floor 0.5 "
    "--steps 30",
    "ratner forbac --l-range 6..6 --grid 5 --steps 30",
    "ratner forbac --l-range 6..6 --grid 5 --steps 30 --csv",
    "ratner forbac --l-range 0..1 --grid 5 --steps 30",
    "ratner forbac --l-range 5..3 --grid 5 --steps 30",
    "mix correlate --t 1.0 --samples 2000 --seed 1",
    "nope",
]

_CSV = {"bs growth", "bs sigma-sets", "dc mixing", "dc ratner",
        "dc summability", "ratner forbac"}


def _unread(command: str) -> set:
    keys = set() if command in _CSV else {"csv"}
    if command.startswith("bs "):
        keys |= {"tau", "eta", "xi", "lbar", "d", "window"}
    return keys


def _outcome(case: str, tmp: Path, read) -> dict:
    """Run one case with `--log` (unless it names its own); `read()`
    returns the (stdout, stderr) written since its last call."""
    from ietflow import cli

    log = tmp / "log.jsonl"
    argv = case.format(tmp=tmp).split()
    if "--log" not in argv:
        argv += ["--log", str(log)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = "SystemExit(%s)" % exc.code
    out, err = read()
    records = []
    if log.exists():
        for line in log.read_text().splitlines():
            record = json.loads(line)
            del record["timestamp"]
            for key in _unread(record["command"]):
                record["config"].pop(key, None)
            records.append(record)
        log.unlink()
    result = {"argv": case, "code": code, "stdout": out, "stderr": err,
              "log": records}
    return json.loads(json.dumps(result).replace(str(tmp), "{tmp}"))


def _write_iets(tmp: Path):
    for name, text in IETS.items():
        (tmp / name).write_text(text)


@pytest.fixture(scope="module")
def golden():
    return {case["argv"]: case
            for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(case, golden, tmp_path, capsys, monkeypatch):
    # argparse wraps its usage lines at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    _write_iets(tmp_path)

    def read():
        captured = capsys.readouterr()
        return captured.out, captured.err

    assert _outcome(case, tmp_path, read) == golden[case]


def test_golden_covers_every_subcommand(golden):
    from ietflow import cli

    parser = cli.build_parser()
    commands = {(g, c) for g, sub in parser._subparsers._group_actions[0]
                .choices.items()
                for c in sub._subparsers._group_actions[0].choices}
    assert len(commands) == 16
    run = {tuple(case.split()[:2]) for case in golden}
    assert commands <= run


def _record():
    import tempfile

    os.environ["COLUMNS"] = "80"
    cases = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _write_iets(tmp)
        for case in CASES:
            out, err = io.StringIO(), io.StringIO()

            def read():
                values = out.getvalue(), err.getvalue()
                for buf in (out, err):
                    buf.seek(0)
                    buf.truncate()
                return values

            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                outcome = _outcome(case, tmp, read)
            cases.append(outcome)
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False)
                      + "\n")


if __name__ == "__main__":
    sys.exit(_record())
