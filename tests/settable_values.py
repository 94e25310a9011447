"""Count the independently settable values of a Python package.

Usage: python tests/settable_values.py src/vlcloc

The count is the sum of
- the fields of every dataclass (NamedTuple fields are not counted), and
- the parameters, without `self` / `cls`, of every public module-level
  function and of every public method and `__init__` of every class,
  private classes included.

A name is public when it does not start with an underscore. The script
prints the total, then the two parts, and on a second line the number of
`raise` statements that raise an exception (a bare `raise`, which re-raises
the one being handled, checks nothing and is not counted).
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_class_var(annotation: ast.expr) -> bool:
    return "ClassVar" in ast.unparse(annotation)


def _parameters(fn: ast.FunctionDef, method: bool) -> int:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    if method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return len(names)


def count_source(source: str) -> tuple[int, int]:
    """(dataclass fields, parameters) of one module's source."""
    fields = params = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                params += _parameters(node, method=False)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields += sum(1 for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name)
                              and not _is_class_var(item.annotation))
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and (item.name == "__init__" or not item.name.startswith("_"))):
                    params += _parameters(item, method=True)
    return fields, params


def count_raises(source: str) -> int:
    """`raise X` statements of one module's source; a bare `raise` is not one."""
    return sum(isinstance(node, ast.Raise) and node.exc is not None
               for node in ast.walk(ast.parse(source)))


def count_package(root) -> tuple[int, int]:
    """(dataclass fields, parameters) summed over every .py file under root."""
    fields = params = 0
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        f, p = count_source(path.read_text())
        fields += f
        params += p
    return fields, params


def package_raises(root) -> int:
    """`raise X` statements summed over every .py file under root."""
    return sum(count_raises(path.read_text()) for path in pathlib.Path(root).rglob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/settable_values.py PACKAGE_DIR", file=sys.stderr)
        return 2
    fields, params = count_package(argv[0])
    print(f"{fields + params} settable values ({fields} dataclass fields, {params} parameters)")
    print(f"{package_raises(argv[0])} raise statements")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
