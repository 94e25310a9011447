import subprocess
import sys
import textwrap
from pathlib import Path

import settable_values

MODULE = textwrap.dedent('''
    from dataclasses import dataclass, field
    from typing import ClassVar, NamedTuple


    @dataclass(frozen=True)
    class Plan:                      # 3 fields; ClassVar and __post_init__ not counted
        a: int
        b: float = 1.0
        c: list = field(default_factory=list)
        kind: ClassVar[str] = "plan"

        def __post_init__(self):
            pass

        def scaled(self, by, *, clip=None):  # 2 parameters
            return self.b * by


    class Pair(NamedTuple):          # NamedTuple fields not counted
        x: float
        y: float


    class _Hidden:                   # a private class: __init__ 2, public method 1
        size: int

        def __init__(self, size, name="h"):
            self.size = size

        def grow(self, step):
            return self.size + step

        def _private(self, anything):
            if anything is None:
                raise ValueError("anything")  # counted
            return anything

        @classmethod
        def make(cls, *args, **kwargs):  # 2 parameters
            return cls(*args, **kwargs)


    def run(plan, db=None, /, *extra, strict=True):  # 4 parameters
        def inner(unseen):
            return unseen
        try:
            return inner(plan)
        except TypeError:
            raise                    # a bare re-raise is not counted


    def _helper(a, b, c):            # private function not counted
        return a
''')


def test_counts_fields_and_public_parameters():
    assert settable_values.count_source(MODULE) == (3, 2 + 2 + 1 + 2 + 4)
    assert settable_values.count_raises(MODULE) == 1


def test_command_line_sums_every_module(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("def f(x, y):\n    return x\n")
    script = Path(settable_values.__file__)
    out = subprocess.run([sys.executable, str(script), str(tmp_path / "pkg")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "16 settable values (3 dataclass fields, 13 parameters)\n1 raise statements\n"


# The settable values of vlcloc itself may not grow unnoticed: a change that
# adds one raises this ceiling and says why in CHANGES.md.
SETTABLE_CEILING = 116


# Nor may its raise statements: validation happens once, where input enters
# (the CLI and config, the plan dataclasses, the DB and run_experiment's DB
# check), and components trust it. A change that adds a raise raises this
# ceiling and says why in CHANGES.md.
RAISE_CEILING = 59

SRC = Path(__file__).resolve().parent.parent / "src" / "vlcloc"


def test_vlcloc_stays_under_its_settable_value_ceiling():
    fields, params = settable_values.count_package(SRC)
    assert fields + params <= SETTABLE_CEILING, (fields, params)


def test_vlcloc_stays_under_its_raise_ceiling():
    assert settable_values.package_raises(SRC) <= RAISE_CEILING
