"""The bodies of the ``pptlab`` verbs, one module per verb.

:mod:`pptlab.cli` parses the command line and then imports only the module
of the verb it runs, whose ``run(args)`` returns the exit code: a process
compiles its verb and what that verb imports, and nothing of the others.
This package holds what the verbs share: the exit codes, :func:`_parse`
and the :class:`InputError` it raises, and :func:`_emit`; a verb that
reads a state takes it from :mod:`pptlab.verbs.states`.  No module here
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


# what reading a file, JSON text or a number raises on malformed input
_PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError)


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


def _emit(args, payload: dict, text: str) -> None:
    """Write the JSON payload to ``--out`` when given, and print it under
    ``--json``; otherwise print ``text``.  The payload is encoded once."""
    path = args.out
    encoded = json.dumps(payload, indent=2) if path or args.json else None
    if path:
        with open(path, "w") as fh:
            fh.write(encoded + "\n")
    print(encoded if args.json else text)
