"""A plain line-by-line reader of the graph text format, from bytes: the
reference that ``graphs.read_graph`` is checked against.

It takes one line at a time, in file order (a line ends at "\n" only),
and checks each thing as it meets it: the UTF-8 of each line, then blank
and ``#`` lines, the header, the number of body lines, and on each body
line first a token that is no integer, then the count of neighbours.
The graph is built through the package's constructors, which check its
invariants.
"""

from cyclefactor.errors import ParseError
from cyclefactor.graphs import RegularDigraph, UndirectedRegularGraph


def reference_read_graph(data: bytes):
    # A UTF-8 sequence never holds the byte of "\n", so each line decodes
    # on its own; the "\n" it ends with names the fault as the whole file
    # would (a cut sequence before it is an invalid continuation byte).
    pieces = data.split(b"\n")
    for lineno, piece in enumerate(pieces, start=1):
        try:
            piece.decode("utf-8") if lineno == len(pieces) else (piece + b"\n").decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(lineno, f"not UTF-8 text: {e.reason}") from None
    header = None
    body = []
    for lineno, line in enumerate(data.decode("utf-8").split("\n"), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if header is not None:
            body.append((lineno, line, tokens))
            continue
        if len(tokens) != 3 or tokens[0] not in ("digraph", "graph"):
            raise ParseError(lineno, f"bad header {line.strip()!r}")
        try:
            header = (lineno, tokens[0], int(tokens[1]), int(tokens[2]))
        except ValueError:
            raise ParseError(lineno, f"non-integer header fields in {line.strip()!r}") from None
    if header is None:
        raise ParseError(1, "empty file")
    head_no, kind, n, d = header
    if len(body) != n:
        raise ParseError(head_no, f"expected {n} adjacency lines, found {len(body)}")
    rows = []
    for lineno, line, tokens in body:
        try:
            row = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex in {line.strip()!r}") from None
        if len(row) != d:
            raise ParseError(lineno, f"expected {d} neighbours, found {len(row)}")
        rows.append(tuple(sorted(row)))
    cls = RegularDigraph if kind == "digraph" else UndirectedRegularGraph
    return cls(n, d, tuple(rows))
