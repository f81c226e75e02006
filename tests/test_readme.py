"""README.md against the code: its commands parse, its flag lists are the
parser's options, and its import block is ``fairboost.__all__``."""

import argparse
import re
import shlex
from pathlib import Path

import fairboost
from fairboost.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMAND_LINE = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
[SUBPARSERS] = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
OPTIONS = {c: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")] for c, p in SUBPARSERS.items()}


def test_command_line_examples_parse():
    block = COMMAND_LINE.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("fairboost ")]
    assert sorted(build_parser().parse_args(argv).command for argv in argvs) == sorted(SUBPARSERS)
    for command, *rest in argvs:  # whole names: argparse would take a prefix such as --bin
        assert {t for t in rest if t.startswith("--")} <= set(OPTIONS[command]), command


def test_flag_lists_are_the_parsers_options():
    listed = re.findall(r"`(\w+)` flags: `([^`]*)`", " ".join(COMMAND_LINE.split()))
    assert {command: re.findall(r"--[\w-]+", flags) for command, flags in listed} == OPTIONS


def test_library_surface_lists_all_exports():
    block = README.split("from fairboost import (", 1)[1].split(")", 1)[0]
    names = [n.strip() for line in block.splitlines() for n in line.split("#")[0].split(",") if n.strip()]
    assert sorted(names) == sorted(set(fairboost.__all__) - {"__version__"})
