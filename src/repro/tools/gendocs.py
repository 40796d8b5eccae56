"""Generate docs/API.md from the package docstrings.

Usage::

    python -m repro.tools.gendocs [output-path]

Walks every module under ``repro`` and emits a markdown reference: the
module docstring, then each public class (with its docstring and public
method signatures) and function.  Kept deliberately simple — the
docstrings are the documentation; this just collates them.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from typing import List

import repro

__all__ = ["generate", "main"]


#: `` at 0x7f...`` in a default's repr: differs per process, so dropped.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _signature(obj) -> str:
    try:
        return _ADDRESS.sub("", str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def _first_paragraph(doc: str) -> str:
    return doc.strip().split("\n\n")[0]


def _module_section(module_name: str) -> str:
    module = importlib.import_module(module_name)
    lines: List[str] = [f"## `{module_name}`", ""]
    if module.__doc__:
        lines += [module.__doc__.strip(), ""]
    for name in sorted(vars(module)):
        obj = vars(module)[name]
        if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
            continue
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{_signature(obj)}`")
            lines.append("")
            doc = inspect.getdoc(obj)
            if doc:
                lines += [_first_paragraph(doc), ""]
            for method_name in sorted(vars(obj)):
                method = vars(obj)[method_name]
                if method_name.startswith("_") or not inspect.isfunction(method):
                    continue
                method_doc = inspect.getdoc(method) or ""
                lines.append(
                    f"- `{method_name}{_signature(method)}` — "
                    f"{_first_paragraph(method_doc).splitlines()[0] if method_doc else ''}"
                )
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{_signature(obj)}`")
            lines.append("")
            doc = inspect.getdoc(obj)
            if doc:
                lines += [_first_paragraph(doc), ""]
    return "\n".join(lines)


def generate() -> str:
    """Build the full API reference as one markdown string."""
    parts = [
        "# API reference",
        "",
        "_Generated from docstrings by `python -m repro.tools.gendocs`._",
        "",
    ]
    for module_info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda info: info.name,
    ):
        if module_info.ispkg:
            continue
        parts.append(_module_section(module_info.name))
    return "\n".join(parts)


def main(argv=None) -> int:
    """CLI entry point: write the reference to the given path."""
    argv = list(sys.argv[1:] if argv is None else argv)
    target = argv[0] if argv else "docs/API.md"
    import os

    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    content = generate()
    with open(target, "w") as handle:
        handle.write(content)
    print(f"wrote {target} ({len(content)} bytes)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
