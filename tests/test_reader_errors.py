import pytest

from bitblast.errors import ReadError
from bitblast.reader import read_one_value, read_values

# (text, message, line, column); a tab and a CR each count as one
# column, and only LF starts a new line
ERRORS = [
    ("(foo\n  (bar", "unterminated list", 2, 3),
    ("\t)", "unexpected )", 1, 2),
    ("(a . )", "dot needs exactly one trailing value", 1, 1),
    ("\n ( . a)", "dot at start of list", 2, 4),
    ("(a . b c)", "expected ) after dotted tail", 1, 1),
    ("  .", "unexpected .", 1, 3),
    ("x\r\n  '", "nothing after quote", 2, 3),
    ("(a `", "nothing after quasiquote", 1, 4),
    ('"a\nb" "open', "unterminated string", 2, 4),
    ('"ends in \\', "unterminated string", 1, 1),
    ("; a ( comment\n  1/0", "zero denominator in 1/0", 2, 3),
    ("; tail\n\t#", "dangling #", 2, 2),
    ("a #q", "unsupported # syntax", 1, 3),
    ("\t#\\", "dangling character literal", 1, 2),
    ("\r#\\bogus", "unknown character name #\\bogus", 1, 2),
    ("(#xZZ)", "bad radix-16 literal #xZZ", 1, 2),
    ('"x\n\n" #b2', "bad radix-2 literal #b2", 3, 3),
    ("#O9", "bad radix-8 literal #O9", 1, 1),
    ("\r(a\r b", "unterminated list", 1, 2),
]


@pytest.mark.parametrize("text,message,line,column", ERRORS)
def test_reader_error_message_and_position(text, message, line, column):
    with pytest.raises(ReadError) as e:
        read_values(text)
    assert (str(e.value), e.value.line, e.value.column) == \
        ("%d:%d: %s" % (line, column, message), line, column)


def test_read_one_value_wants_exactly_one():
    with pytest.raises(ReadError) as e:
        read_one_value("1 2")
    assert str(e.value) == "1:1: expected exactly one value"
