"""Source check: a backend wrapper that answers single calls also answers batches, or says why not.

A wrapper without ``next_token_distributions`` makes every batch sent through it go one
context at a time, so the requests behind it are never in flight together.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BACKENDS = sorted((SRC / "ctxlens" / "backends").glob("*.py"))

#: Wrappers that serve batches one context at a time on purpose, with the reason.
ONE_AT_A_TIME = {
    "FlakyBackend": "its attempt counter is per context, so its failures fall where single calls put them",
}


def classes():
    """Each class defined in ``ctxlens.backends``: its base names and the names its body defines."""
    out = {}
    for path in BACKENDS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
                methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                sets_inner = any(
                    isinstance(target, ast.Attribute) and target.attr == "inner"
                    for item in ast.walk(node) if isinstance(item, ast.Assign) for target in item.targets
                )
                out[node.name] = (bases, methods, sets_inner)
    return out


def wrappers():
    """The classes that wrap another backend: they set ``inner`` or derive from a class that does."""
    found = classes()
    wrapping = {name for name, (_, _, sets_inner) in found.items() if sets_inner}
    grew = True
    while grew:
        more = {name for name, (bases, _, _) in found.items() if bases & wrapping} - wrapping
        wrapping |= more
        grew = bool(more)
    return {name: found[name][1] for name in wrapping}


def test_every_wrapper_with_a_single_call_has_the_batch_member():
    found = wrappers()
    assert {"BackendWrapper", "CachedBackend", "DelayedBackend", "FlakyBackend"} <= set(found)
    missing = sorted(
        name for name, methods in found.items()
        if "next_token_distribution" in methods and "next_token_distributions" not in methods
    )
    assert missing == sorted(ONE_AT_A_TIME)

