"""Namespace IRIs for the vocabularies this package understands."""

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SH_NS = "http://www.w3.org/ns/shacl#"

RDF_TYPE = RDF_NS + "type"
RDF_FIRST = RDF_NS + "first"
RDF_REST = RDF_NS + "rest"
RDF_NIL = RDF_NS + "nil"
RDF_LANGSTRING = RDF_NS + "langString"

XSD_STRING = XSD_NS + "string"
XSD_BOOLEAN = XSD_NS + "boolean"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_DOUBLE = XSD_NS + "double"
XSD_FLOAT = XSD_NS + "float"
XSD_DATETIME = XSD_NS + "dateTime"

# Bounded integer datatypes with their value ranges.
XSD_INTEGER_RANGES = {
    XSD_NS + "byte": (-128, 127),
    XSD_NS + "short": (-32768, 32767),
    XSD_NS + "int": (-2147483648, 2147483647),
    XSD_NS + "long": (-9223372036854775808, 9223372036854775807),
    XSD_NS + "unsignedByte": (0, 255),
    XSD_NS + "unsignedShort": (0, 65535),
    XSD_NS + "unsignedInt": (0, 4294967295),
    XSD_NS + "unsignedLong": (0, 18446744073709551615),
    XSD_NS + "negativeInteger": (None, -1),
    XSD_NS + "nonPositiveInteger": (None, 0),
    XSD_NS + "nonNegativeInteger": (0, None),
    XSD_NS + "positiveInteger": (1, None),
    XSD_INTEGER: (None, None),
}

# Every datatype whose value space is (a subset of) the rationals.
NUMERIC_DATATYPES = frozenset(XSD_INTEGER_RANGES) | {
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
}


def _sh(name: str) -> str:
    return SH_NS + name


SH_NODE_SHAPE = _sh("NodeShape")
SH_PROPERTY_SHAPE = _sh("PropertyShape")

SH_TARGET_NODE = _sh("targetNode")
SH_TARGET_CLASS = _sh("targetClass")
SH_TARGET_SUBJECTS_OF = _sh("targetSubjectsOf")
SH_TARGET_OBJECTS_OF = _sh("targetObjectsOf")

SH_PATH = _sh("path")
SH_INVERSE_PATH = _sh("inversePath")
SH_ALTERNATIVE_PATH = _sh("alternativePath")
SH_ZERO_OR_MORE_PATH = _sh("zeroOrMorePath")
SH_ONE_OR_MORE_PATH = _sh("oneOrMorePath")
SH_ZERO_OR_ONE_PATH = _sh("zeroOrOnePath")

SH_HAS_VALUE = _sh("hasValue")
SH_IN = _sh("in")
SH_CLASS = _sh("class")
SH_DATATYPE = _sh("datatype")
SH_NODE_KIND = _sh("nodeKind")
SH_MIN_EXCLUSIVE = _sh("minExclusive")
SH_MIN_INCLUSIVE = _sh("minInclusive")
SH_MAX_EXCLUSIVE = _sh("maxExclusive")
SH_MAX_INCLUSIVE = _sh("maxInclusive")
SH_MIN_LENGTH = _sh("minLength")
SH_MAX_LENGTH = _sh("maxLength")
SH_PATTERN = _sh("pattern")
SH_LANGUAGE_IN = _sh("languageIn")
SH_UNIQUE_LANG = _sh("uniqueLang")
SH_NOT = _sh("not")
SH_AND = _sh("and")
SH_OR = _sh("or")
SH_XONE = _sh("xone")
SH_NODE = _sh("node")
SH_PROPERTY = _sh("property")
SH_MIN_COUNT = _sh("minCount")
SH_MAX_COUNT = _sh("maxCount")
SH_EQUALS = _sh("equals")
SH_DISJOINT = _sh("disjoint")
SH_LESS_THAN = _sh("lessThan")
SH_LESS_THAN_OR_EQUALS = _sh("lessThanOrEquals")
SH_QUALIFIED_VALUE_SHAPE = _sh("qualifiedValueShape")
SH_QUALIFIED_MIN_COUNT = _sh("qualifiedMinCount")
SH_QUALIFIED_MAX_COUNT = _sh("qualifiedMaxCount")
SH_QUALIFIED_DISJOINT = _sh("qualifiedValueShapesDisjoint")
SH_CLOSED = _sh("closed")
SH_IGNORED_PROPERTIES = _sh("ignoredProperties")

SH_NK_IRI = _sh("IRI")
SH_NK_LITERAL = _sh("Literal")
SH_NK_BLANK = _sh("BlankNode")
SH_NK_BLANK_OR_IRI = _sh("BlankNodeOrIRI")
SH_NK_BLANK_OR_LITERAL = _sh("BlankNodeOrLiteral")
SH_NK_IRI_OR_LITERAL = _sh("IRIOrLiteral")
# the six instances of sh:NodeKind, the only values sh:nodeKind may take
SH_NODE_KINDS = frozenset((SH_NK_IRI, SH_NK_LITERAL, SH_NK_BLANK,
                           SH_NK_BLANK_OR_IRI, SH_NK_BLANK_OR_LITERAL, SH_NK_IRI_OR_LITERAL))

# Namespace for deterministic names this package generates itself.
GEN_NS = "urn:shaclsat:"
