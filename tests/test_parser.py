"""The command line's parser against the argparse parser it replaced (``argparse_reference``).

On seeded argument vectors both give the same exit code, stderr and parsed values, or the help of the same
subcommand.  A vector that holds one of the deliberate differences (an abbreviated option, a value attached to a
short option, a number that argparse's pattern misses, or ``--``) is left to the named tests, one a rule."""

import contextlib
import io
import random
import re

import pytest

import argparse_reference
from stepcalc import cli

NEW, OLD = cli.build_parser(), argparse_reference.build_parser()
ARGPARSE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # the words argparse reads as negative numbers

VALUES = ["1", "0", "2.5", "-1", "-1.5", "-.5", "-1e-05", "-inf", "-1.", "nan", "abc", "1/3", "3/7", "1,2", "",
          "-", "x^2", "-(1 + x)", "- x", "a b", "t", "1e9999999", "euler", "rk4", "taylor", "ode", "relative", "-x"]
WORDS = ["--", "-h", "--help", "--help=1", "-h1", "-n", "-n4", "-n=3", "--bogus", "-x"]


def outcome(parser, argv: list[str]) -> tuple:
    """``parser.parse_args(argv)``'s exit code (None when it returns), stdout, stderr and values, shown by repr."""
    out, err = io.StringIO(), io.StringIO()
    values, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values = repr(sorted(vars(parser.parse_args(argv)).items()))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), values


def vector(rng: random.Random) -> list[str]:
    """A seeded argument vector: mostly a subcommand's options and values, right or wrong, in any order."""
    if rng.random() < 0.05:
        words = ["--help", "-h", "frobnicate", "de", "-x", "-1", "--bogus"]
        return [rng.choice(words) for _ in range(rng.randint(0, 3))]
    name = rng.choice(list(NEW.commands))
    options = [option for option in NEW.commands[name].named if option.startswith("--")]
    argv = [rng.choice(["-h", "--bogus", "-1"])] if rng.random() < 0.1 else []
    argv.append(name)
    for _ in range(rng.randint(0, 7)):
        draw = rng.random()
        if draw < 0.35:
            argv += [rng.choice(options), rng.choice(VALUES)][:rng.choice((1, 2, 2, 2))]
        elif draw < 0.45:
            argv.append(f"{rng.choice(options)}={rng.choice(VALUES)}")
        elif draw < 0.55:
            option = rng.choice(options)
            argv += [option[:rng.randint(2, len(option))], rng.choice(VALUES)]
        elif draw < 0.8:
            argv.append(rng.choice(VALUES))
        else:
            argv.append(rng.choice(WORDS))
    return argv


def differences(argv: list[str]) -> set[str]:
    """The deliberate differences that ``argv`` holds."""
    found, parser = set(), NEW
    for word in argv:
        if word == "--":
            return found | {"--"}
        if parser.commands and word in parser.commands:
            parser = parser.commands[word]
        name = word.partition("=")[0]
        if word[:1] != "-" or word == "-" or name in parser.named:
            continue
        if name.startswith("--") and any(option.startswith(name) for option in parser.named):
            found.add("abbreviation")
        elif not name.startswith("--") and word[:2] in parser.named:
            found.add("attached short value")
        elif " " not in word and not ARGPARSE_NUMBER.match(word):
            with contextlib.suppress(ValueError):
                float(word)
                found.add("number")
    return found


def test_seeded_vectors_parse_as_argparse_parsed_them():
    rng, compared = random.Random(20261021), 0
    for _ in range(4000):
        argv = vector(rng)
        if differences(argv):
            continue
        compared += 1
        old, new = outcome(OLD, argv), outcome(NEW, argv)
        if old[0] == 0 and old[1]:  # help: the same subcommand's, each in its own layout
            assert new[0] == 0 and new[1].split()[:3] == old[1].split()[:3], argv
        else:
            assert new == old, argv
    assert compared > 2000


def test_the_differences_are_found_where_they_are():
    assert differences(["pendulum", "--the", "1"]) == {"abbreviation"}
    assert differences(["deriv", "--h"]) == {"abbreviation"}  # argparse read it as --help
    assert differences(["rectify", "-n4"]) == {"attached short value"}
    assert differences(["pi", "-h1"]) == {"attached short value"}
    assert differences(["fn", "exp", "-1e-05"]) == {"number"}
    assert differences(["fn", "exp", "-1.5", "--h", "-1", "--k=-1e-05"]) == set()
    assert differences(["pi", "--", "--terms"]) == {"--"}
    assert differences(["deriv", "-(1 + x)", "--at=1", "--out", "-"]) == set()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_an_option_is_named_in_full(capsys):
    # argparse took a unique prefix (--the for --theta0, --h for --help in deriv); here it names no option
    assert outcome(OLD, ["pendulum", "--the", "1"])[3] is not None
    assert run(capsys, "pendulum", "--the", "1") == (
        2, "", "stepcalc pendulum: usage error: the following arguments are required: --theta0\n")
    assert run(capsys, "pendulum", "--theta0", "1", "--len", "2") == (
        2, "", "stepcalc: usage error: unrecognized arguments: --len 2\n")


def test_an_ambiguous_prefix_is_not_an_option(capsys):
    lox = ["lox", "--lat1", "10", "--lon1", "0", "--lat2", "20", "--lon2", "5"]
    assert "ambiguous option: --l could match" in outcome(OLD, [*lox, "--l", "5"])[2]
    assert run(capsys, *lox, "--l", "5") == (2, "", "stepcalc: usage error: unrecognized arguments: --l 5\n")


def test_values_attach_by_equals_sign_only(capsys):
    assert NEW.parse_args(["pi", "--terms=7"]) == NEW.parse_args(["pi", "--terms", "7"])
    assert NEW.parse_args(["rectify", "-n=4"]).segments == NEW.parse_args(["rectify", "-n", "4"]).segments == 4
    assert NEW.parse_args(["deriv", "x", "--at=-3"]).at == -3
    # argparse read -n4 as -n 4; here a short option takes no attached value
    assert OLD.parse_args(["rectify", "-n4"]).segments == 4
    assert run(capsys, "rectify", "-n4") == (2, "", "stepcalc: usage error: unrecognized arguments: -n4\n")
    assert run(capsys, "pi", "-h1") == (2, "", "stepcalc: usage error: unrecognized arguments: -h1\n")


@pytest.mark.parametrize("text", ["-1", "-1.5", "-.5", "-1e-05", "-1.", "-inf"])
def test_a_negative_number_is_a_value(text):
    assert NEW.parse_args(["pendulum", "--theta0", text]).theta0 == float(text)
    assert NEW.parse_args(["fn", "exp", text]).x == float(text)
    # argparse 3.11's pattern took only -1, -1.5 and -.5, and read the others as options ("expected one argument")


def test_a_dash_led_word_with_a_space_is_a_value(capsys):
    assert NEW.parse_args(["deriv", "-(4/3 * x)", "--at", "1"]).expr == "-(4/3 * x)"
    assert NEW.parse_args(["rectify", "--x-expr", "-(-(t) + 1)", "--y-expr", "- t"]).y_expr == "- t"
    assert run(capsys, "deriv", "-(4/3 * x)", "--at", "1") == (0, "-4/3\n", "")
    # without a space it names an option, which the command lacks
    assert run(capsys, "rectify", "--x-expr", "-(-(t))") == (
        2, "", "stepcalc rectify: usage error: argument --x-expr: expected one argument\n")


def test_a_double_dash_ends_the_options(capsys):
    assert NEW.parse_args(["deriv", "--at", "1", "--", "-x"]).expr == "-x"
    assert NEW.parse_args(["fn", "--", "sin", "-1e-05"]).x == -1e-05
    assert run(capsys, "fn", "--", "sin", "-h") == (
        2, "", "stepcalc fn: usage error: argument x: invalid float value: '-h'\n")
    # the double dash is itself no argument (argparse 3.11 called it unrecognized), and a second one is a value
    assert run(capsys, "pi", "--") == run(capsys, "pi")
    assert run(capsys, "fn", "--", "sin", "--") == (
        2, "", "stepcalc fn: usage error: argument x: invalid float value: '--'\n")
    assert run(capsys, "--", "pi", "--terms", "1") == (0, "4\n", "")


def test_a_repeated_option_takes_its_last_value():
    for parser in (NEW, OLD):
        assert parser.parse_args(["pi", "--terms", "5", "--terms=7"]).terms == 7
        assert parser.parse_args(["pi", "--corrected", "--corrected"]).corrected is True


def test_a_flag_given_a_value_is_a_usage_error(capsys):
    assert run(capsys, "pi", "--corrected=1") == outcome(OLD, ["pi", "--corrected=1"])[:3] == (
        2, "", "stepcalc pi: usage error: argument --corrected: ignored explicit argument '1'\n")
    assert run(capsys, "pendulum", "--theta0", "1", "--sweep=") == (
        2, "", "stepcalc pendulum: usage error: argument --sweep: ignored explicit argument ''\n")
    assert run(capsys, "pi", "--help=x") == (
        2, "", "stepcalc pi: usage error: argument -h/--help: ignored explicit argument 'x'\n")


def test_help_is_written_where_it_is_read(capsys):
    help_fn = NEW.commands["fn"].format_help()
    assert run(capsys, "fn", "sin", "1", "--h", "0.1", "--help") == (0, help_fn, "")
    assert run(capsys, "fn", "--help", "sin", "x", "--bogus") == (0, help_fn, "")
    assert run(capsys, "--help", "fn") == (0, NEW.format_help(), "")
    # a word before it that fails ends the parse first, as argparse's did
    for argv in (["fn", "sin", "x", "--help"], ["deriv", "x", "--at", "abc", "-h"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == outcome(OLD, argv)[:3] and code == 2
