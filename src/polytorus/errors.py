"""Exception types shared across the package.

Every structural error carries the offending witness (simplex, vertex,
parameter value) so callers and test suites can report something concrete.
"""


class PolytorusError(Exception):
    """Base class for all package errors."""


# -- combinatorial surface errors -------------------------------------------

class DuplicateFace(PolytorusError):
    def __init__(self, face):
        self.face = tuple(face)
        super().__init__(f"duplicate face {self.face}")


class NonManifoldEdge(PolytorusError):
    def __init__(self, edge, count):
        self.edge = tuple(edge)
        self.count = count
        super().__init__(f"edge {self.edge} lies in {count} faces (expected 2)")


class BadVertexLink(PolytorusError):
    def __init__(self, vertex, reason=""):
        self.vertex = vertex
        msg = f"link of vertex {vertex} is not a single cycle"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class NotACycle(PolytorusError):
    def __init__(self, reason):
        super().__init__(reason)


# -- homology / type errors --------------------------------------------------

class NotGenusOne(PolytorusError):
    def __init__(self, leftover):
        self.leftover = leftover
        super().__init__(
            f"tree-cotree decomposition left {leftover} edges (genus-1 needs 2)")


class SeparatingMark(PolytorusError):
    def __init__(self, cycle):
        self.cycle = cycle
        super().__init__(f"marking cycle {tuple(cycle)} is separating")


class MarkNotShortest(PolytorusError):
    def __init__(self, length, minimum):
        self.length = length
        self.minimum = minimum
        super().__init__(
            f"mark has length {length} but shortest non-separating cycle has {minimum}")


class InvalidType(PolytorusError):
    def __init__(self, m, k):
        self.m = m
        self.k = k
        super().__init__(f"invalid torus type {m}x{k}: need 3 <= m <= k")


# -- generator / census errors -----------------------------------------------

class InvalidK(PolytorusError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"k must be >= 3, got {k}")


class OutOfRange(PolytorusError):
    def __init__(self, n, lo, hi, name="n"):
        self.n = n
        super().__init__(f"census supports {lo} <= {name} <= {hi}, got {n}")


# -- geometry errors -----------------------------------------------------------

class ParseError(PolytorusError):
    def __init__(self, line_no, text):
        self.line_no = line_no
        self.text = text
        super().__init__(f"line {line_no}: cannot parse {text!r}")


def read_input(path) -> str:
    """Text of an input file, newlines read as in text mode; bytes that are
    not UTF-8 raise ParseError with their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, data.split(b"\n")[line_no - 1]) from None


class DegenerateKnot(PolytorusError):
    def __init__(self, reason):
        super().__init__(reason)


class DegenerateFace(PolytorusError):
    def __init__(self, face):
        self.face = tuple(face)
        super().__init__(f"degenerate face {self.face}")


class EpsilonTooLarge(PolytorusError):
    def __init__(self, detail):
        super().__init__(detail)


class EnclosureFailure(PolytorusError):
    def __init__(self, detail):
        super().__init__(detail)


class FaceNotInPolytope(PolytorusError):
    def __init__(self, face):
        self.face = tuple(face)
        super().__init__(f"triangle {self.face} is not a face of the cyclic polytope")


# -- knot diagram errors --------------------------------------------------------

class NonGenericDirection(PolytorusError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"projection direction not generic: {witness}")


class IntersectingCurves(PolytorusError):
    def __init__(self, detail):
        super().__init__(detail)


class SeparatingCycle(PolytorusError):
    def __init__(self, cycle):
        self.cycle = cycle
        super().__init__(f"cycle {tuple(cycle)} is separating")


class MissingProvenance(PolytorusError):
    def __init__(self, what):
        super().__init__(f"mesh carries no {what} provenance")
