"""The CLI's verb dispatch against a full argparse parse, argv by argv.

`cli.main` parses an argv that starts with a verb with that verb's parser
alone, and anything else with `build_parser()`. For every argv below the
two must agree: the same namespace (NaN-aware, in the same order), or the
same exit code, stdout and stderr.

The module imports neither numpy nor pytest, so it also runs as a plain
script on interpreters that have neither:

    PYTHONPATH=src python tests/test_cli_dispatch.py
"""

import contextlib
import io
import sys

from qkdcoex import cli

_SCENARIO = ["--preset", "smf"]

# Parsed by the verb's parser alone.
ONE_PASS = [
    ["sweep", *_SCENARIO],
    ["sweep", "--scenario", "x.ini", "--from-km", "0", "--to-km", "10",
     "--step-km", "0.5", "--format", "json", "--out", "rows.json"],
    ["sweep", *_SCENARIO, "--to-km", "nan"],
    ["max-distance", *_SCENARIO],
    ["max-distance", "--scenario", "x.ini", "--from-km", "5", "--to-km", "200",
     "--ignore-classical-budget", "--format", "json", "--out", "d.json"],
    ["max-distance", "--preset=smf", "--to-km=200", "--format=json"],
    ["max-distance", "--pre", "smf", "--ign"],
    ["max-distance", *_SCENARIO, "--from-km", "-5"],
    ["max-distance", *_SCENARIO, "--from-km=-5"],
    ["max-distance", "--preset", ""],
    ["max-distance", *_SCENARIO, "--out", ""],
    ["calibrate"],
    ["calibrate", "--format", "json", "--out", "fit.json"],
    ["fit-raman", "--measurements", "m.csv", "--alpha-db-per-km", "0.2"],
    ["fit-raman", "--alpha-db-per-km", "-0.5", "--measurements", "m.csv",
     "--format", "json"],
    ["presets", "list"],
]

# Help, usage errors and argvs that do not start with a verb.
OTHER = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["--version"],
    ["bogus"],
    ["max"],
    ["max", *_SCENARIO],
    ["-h", "max-distance"],
    ["--", "max-distance", *_SCENARIO],
    *[[verb, flag] for verb in ("sweep", "max-distance", "calibrate",
                                "fit-raman", "presets")
      for flag in ("-h", "--help")],
    ["max-distance", *_SCENARIO, "-h", "bogus"],
    ["max-distance", *_SCENARIO, "--bogus"],
    ["max-distance", *_SCENARIO, "bogus"],
    ["max-distance", *_SCENARIO, "--bogus", "bogus"],
    ["calibrate", "bogus"],
    ["presets", "list", "extra"],
    ["presets"],
    ["presets", "lst"],
    ["max-distance", "--", *_SCENARIO],
    ["max-distance", *_SCENARIO, "--"],
    ["max-distance", *_SCENARIO, "--", "--to-km", "5"],
    ["presets", "--", "list"],
    ["sweep"],
    ["max-distance", "--to-km", "5"],
    ["max-distance", *_SCENARIO, "--scenario", "x.ini"],
    ["sweep", *_SCENARIO, "--format", "xml"],
    ["max-distance", *_SCENARIO, "--format", "csv"],
    ["max-distance", *_SCENARIO, "--to-km", "far"],
    ["sweep", *_SCENARIO, "--f", "1"],
    ["fit-raman", "--measurements", "m.csv"],
    ["sweep", "--preset"],
]


def _outcome(parse, argv):
    """What `parse(argv)` gives: its namespace as (name, type, repr) items,
    or its exit code; with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    else:
        result = ("namespace", [(name, type(value).__name__, repr(value))
                                for name, value in vars(args).items()])
    return result, out.getvalue(), err.getvalue()


def mismatches():
    """Each argv whose dispatch differs from a full parse, or that ONE_PASS
    lists but reaches the top-level parser, with what each side gave."""
    full = cli._shared_parsers()[0]
    passes = []

    def counted(argv):
        passes.append(argv)
        return type(full).parse_args(full, argv)

    full.parse_args = counted
    try:
        found = []
        for argv in ONE_PASS + OTHER:
            passes.clear()
            got = _outcome(cli._parse_args, argv)
            want = _outcome(lambda a: cli.build_parser().parse_args(a), argv)
            if got != want:
                found.append((argv, got, want))
            elif passes and argv in ONE_PASS:
                found.append((argv, "reached the top-level parser", got))
        return found
    finally:
        del full.parse_args


def test_dispatch_matches_full_parse():
    assert mismatches() == []


def test_corpus_reaches_every_kind_of_outcome():
    kinds = [_outcome(cli._parse_args, argv)[0][0] for argv in ONE_PASS]
    assert kinds == ["namespace"] * len(ONE_PASS)
    results = [_outcome(cli._parse_args, argv)[0] for argv in OTHER]
    assert ("exit", 0) in results and ("exit", 1) in results


if __name__ == "__main__":
    found = mismatches()
    for argv, got, want in found:
        print(f"MISMATCH {argv!r}\n  dispatch: {got!r}\n  full:     {want!r}")
    print(f"Python {sys.version.split()[0]}: "
          f"{len(ONE_PASS) + len(OTHER) - len(found)} of "
          f"{len(ONE_PASS) + len(OTHER)} argvs agree")
    sys.exit(1 if found else 0)
