"""Error taxonomy shared by the whole package.

Three kinds of failure are distinguished everywhere:

* ``InputError``: the caller handed us something malformed (bad vertex
  indices, an edge set that is not a set of non-edges, a file that does
  not parse).  CLI exit code 2.
* ``ConsistencyError``: the input parses but cannot have come from the
  mathematical object it claims to encode (an essential range that is not
  a covering-family member, a constant tuple request for a formula missing
  from some coordinate graph).  A subclass of ``InputError``; exit code 2.
* ``CapabilityError``: the request is well formed but outside the
  documented bounds of an operation (enumeration past the size cap,
  ultrafilter-style operations over a non-principal family).  Exit code 3.

``read_text`` reads the command line's input files, so a file that
cannot be read or decoded is an ``InputError`` too.  ``content_lines``
and ``parse_number`` read the lines and number tokens of every format.
"""


class InputError(ValueError):
    pass


class ConsistencyError(InputError):
    pass


class CapabilityError(RuntimeError):
    pass


def read_text(path):
    """The text of a UTF-8 file; InputError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError("cannot read %s: %s" % (path, err))


def content_lines(text):
    """The stripped lines of a text, less blank lines and ``#`` comments."""
    return (line for line in map(str.strip, text.splitlines())
            if line and not line.startswith("#"))


def parse_number(tok):
    """The integer a number token spells, or None if ``tok`` is none.  A
    number token is an optional ``-`` and ASCII digits; ``int()`` reads
    more (a ``+``, ``_`` separators, spaces, other scripts' digits)."""
    if tok.isascii() and (tok.isdigit()
                          or tok[:1] == "-" and tok[1:].isdigit()):
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            pass
    return None
