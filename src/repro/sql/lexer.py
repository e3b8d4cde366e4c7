"""SQL lexer.

Tokenizes the SQL dialect used by smart contracts and provenance queries:
identifiers, quoted identifiers, string/number literals, parameters
(``$1`` positional or ``:name`` named), operators and punctuation.
Keywords are recognized case-insensitively and normalized to upper case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import SQLSyntaxError

KEYWORDS = frozenset("""
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET
    INSERT INTO VALUES UPDATE SET DELETE
    CREATE TABLE INDEX UNIQUE PRIMARY KEY NOT NULL DEFAULT CHECK REFERENCES
    DROP ALTER FUNCTION RETURNS RETURN
    JOIN INNER LEFT RIGHT FULL OUTER CROSS ON USING AS
    AND OR IN IS BETWEEN LIKE EXISTS
    DISTINCT ALL ANY CASE WHEN THEN ELSE END
    TRUE FALSE
    BEGIN COMMIT ROLLBACK DECLARE IF ELSIF RAISE NOTICE EXCEPTION
    INT INTEGER BIGINT FLOAT DOUBLE PRECISION NUMERIC DECIMAL TEXT VARCHAR
    CHAR BOOLEAN TIMESTAMP SERIAL
    INTERVAL NOW PROVENANCE GRANT REVOKE TO EXPLAIN
    COUNT SUM AVG MIN MAX
    FOR LOOP WHILE PERFORM INTO LANGUAGE CALLED REPLACE
    OF BLOCK LATEST
""".split())

# Multi-character operators, longest first.
_OPERATORS = ["<>", "!=", "<=", ">=", "||", "::", "=", "<", ">", "+", "-",
              "*", "/", "%"]
_PUNCT = {"(", ")", ",", ";", "."}


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str      # KEYWORD, IDENT, NUMBER, STRING, OP, PUNCT, PARAM, EOF
    value: str
    position: int
    line: int


class Lexer:
    """Single-pass tokenizer."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1

    def error(self, message: str) -> SQLSyntaxError:
        return SQLSyntaxError(f"line {self.line}: {message}",
                              position=self.pos, line=self.line)

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch == "\n":
                self.line += 1
                self.pos += 1
                continue
            if ch in " \t\r":
                self.pos += 1
                continue
            if ch == "-" and text.startswith("--", self.pos):
                end = text.find("\n", self.pos)
                self.pos = n if end == -1 else end
                continue
            if ch == "/" and text.startswith("/*", self.pos):
                end = text.find("*/", self.pos + 2)
                if end == -1:
                    raise self.error("unterminated block comment")
                self.line += text.count("\n", self.pos, end)
                self.pos = end + 2
                continue
            if ch == "'":
                tokens.append(self._string())
                continue
            if ch == '"':
                tokens.append(self._quoted_ident())
                continue
            if ch == "$" and self.pos + 1 < n and text[self.pos + 1] == "$":
                tokens.append(self._dollar_quoted())
                continue
            if ch.isdigit() or (ch == "." and self.pos + 1 < n
                                and text[self.pos + 1].isdigit()):
                tokens.append(self._number())
                continue
            if ch == "$":
                tokens.append(self._positional_param())
                continue
            if ch == ":" and self.pos + 1 < n and (
                    text[self.pos + 1].isalpha() or text[self.pos + 1] == "_"):
                tokens.append(self._named_param())
                continue
            if ch.isalpha() or ch == "_":
                tokens.append(self._identifier())
                continue
            op = next((o for o in _OPERATORS
                       if text.startswith(o, self.pos)), None)
            if op:
                tokens.append(Token("OP", op, self.pos, self.line))
                self.pos += len(op)
                continue
            if ch in _PUNCT:
                tokens.append(Token("PUNCT", ch, self.pos, self.line))
                self.pos += 1
                continue
            raise self.error(f"unexpected character {ch!r}")
        tokens.append(Token("EOF", "", self.pos, self.line))
        return tokens

    def _string(self) -> Token:
        start = self.pos
        self.pos += 1
        chunks: List[str] = []
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch == "'":
                if self.pos + 1 < n and text[self.pos + 1] == "'":
                    chunks.append("'")
                    self.pos += 2
                    continue
                self.pos += 1
                return Token("STRING", "".join(chunks), start, self.line)
            if ch == "\n":
                self.line += 1
            chunks.append(ch)
            self.pos += 1
        raise self.error("unterminated string literal")

    def _quoted_ident(self) -> Token:
        start = self.pos
        end = self.text.find('"', self.pos + 1)
        if end == -1:
            raise self.error("unterminated quoted identifier")
        value = self.text[self.pos + 1:end]
        self.pos = end + 1
        return Token("IDENT", value, start, self.line)

    def _dollar_quoted(self) -> Token:
        """$$ ... $$ bodies (CREATE FUNCTION)."""
        start = self.pos
        end = self.text.find("$$", self.pos + 2)
        if end == -1:
            raise self.error("unterminated $$ body")
        value = self.text[self.pos + 2:end]
        self.line += self.text.count("\n", self.pos, end)
        self.pos = end + 2
        return Token("STRING", value, start, self.line)

    def _number(self) -> Token:
        start = self.pos
        text, n = self.text, len(self.text)
        seen_dot = False
        seen_exp = False
        while self.pos < n:
            ch = text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and not seen_dot and not seen_exp:
                seen_dot = True
                self.pos += 1
            elif ch in "eE" and not seen_exp and self.pos > start:
                seen_exp = True
                self.pos += 1
                if self.pos < n and text[self.pos] in "+-":
                    self.pos += 1
            else:
                break
        return Token("NUMBER", text[start:self.pos], start, self.line)

    def _positional_param(self) -> Token:
        start = self.pos
        self.pos += 1
        digits_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_start:
            raise self.error("expected digits after '$'")
        return Token("PARAM", self.text[start:self.pos], start, self.line)

    def _named_param(self) -> Token:
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return Token("PARAM", self.text[start:self.pos], start, self.line)

    def _identifier(self) -> Token:
        start = self.pos
        text, n = self.text, len(self.text)
        while self.pos < n and (text[self.pos].isalnum()
                                or text[self.pos] == "_"):
            self.pos += 1
        word = text[start:self.pos]
        upper = word.upper()
        if upper in KEYWORDS:
            return Token("KEYWORD", upper, start, self.line)
        return Token("IDENT", word, start, self.line)


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into a list ending with an EOF token.

    Not memoized: the only callers are the parser's two entry points,
    and both memoize their parse tree on the same text, so a cached
    token list would never be read again."""
    return Lexer(text).tokenize()
