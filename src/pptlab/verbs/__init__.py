"""The bodies of the ``pptlab`` verbs, one module per verb.

:mod:`pptlab.cli` parses the command line and then imports only the module
of the verb it runs, whose ``run(args)`` returns the exit code: a process
compiles its verb and what that verb imports, and nothing of the others.
This package holds what the verbs share: the exit codes, :func:`_parse`
and the :class:`InputError` it raises, :func:`_emit` and :func:`_write`;
a verb reads its state through :mod:`pptlab.verbs.states`.  No module here
imports :mod:`pptlab.cli`: ``python -m pptlab.cli`` runs the CLI as
``__main__``, so importing it back would compile it a second time.
"""

from __future__ import annotations

import json

from ..errors import PptlabError

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2


class InputError(PptlabError):
    """Command-line input that does not parse (exit 2)."""


# what reading a file, JSON text (nested too deeply, too) or a number raises
# on malformed input
_PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError,
                 RecursionError)


def _parse(parse, *args):
    """``parse(*args)``, with the exceptions of malformed input raised as
    :class:`InputError`.  Only input parsing goes through here, so the same
    exceptions from the computation itself keep their tracebacks."""
    try:
        return parse(*args)
    except FileNotFoundError as exc:
        raise InputError(str(exc)) from exc
    except _PARSE_ERRORS as exc:
        raise InputError(f"{type(exc).__name__}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; failing to open, write or close it is input (exit 2)."""
    def write():
        with open(path, "w") as fh:
            fh.write(text)
    _parse(write)


def _emit(args, payload: dict, text: str) -> None:
    """Write the JSON payload, encoded once and refused if it holds a NaN, to
    ``--out`` when given, and print it under ``--json``; else print ``text``."""
    encoded = json.dumps(payload, indent=2, allow_nan=False) if args.out or args.json else None
    if args.out:
        _write(args.out, encoded + "\n")
    print(encoded if args.json else text)
