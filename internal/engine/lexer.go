package engine

import (
	"fmt"
	"strings"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokHex
	tokParam // @name
	tokOp    // operators and punctuation
)

type token struct {
	kind tokKind
	text string // keywords upper-cased; idents original
	pos  int
}

// keywords recognized by the parser. Everything else is an identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "INSERT": true,
	"INTO": true, "VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "INDEX": true, "UNIQUE": true, "ON": true,
	"PRIMARY": true, "KEY": true, "NOT": true, "NULL": true, "IS": true,
	"LIKE": true, "BETWEEN": true, "LIMIT": true, "JOIN": true, "INNER": true,
	"COLUMN": true, "MASTER": true, "ENCRYPTION": true, "WITH": true,
	"ENCRYPTED": true, "ALTER": true, "ALGORITHM": true, "ENCRYPTION_TYPE": true,
	"COLUMN_ENCRYPTION_KEY": true, "COLUMN_MASTER_KEY": true,
	"KEY_STORE_PROVIDER_NAME": true, "KEY_PATH": true, "ENCLAVE_COMPUTATIONS": true,
	"SIGNATURE": true, "ENCRYPTED_VALUE": true, "BEGIN": true, "COMMIT": true,
	"ROLLBACK": true, "TRANSACTION": true, "COUNT": true, "MIN": true,
	"MAX": true, "SUM": true, "DISTINCT": true, "RANDOMIZED": true,
	"DETERMINISTIC": true, "CLUSTERED": true, "NONCLUSTERED": true, "AS": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the statement.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '@':
			if err := l.lexParam(); err != nil {
				return nil, err
			}
		case c == 'N' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'':
			l.pos++ // N'...' national string literal
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X'):
			l.lexHex()
		case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		default:
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.emit(token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("engine: unterminated string literal at %d", start)
}

func (l *lexer) lexParam() error {
	start := l.pos
	l.pos++ // @
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	if l.pos == start+1 {
		return fmt.Errorf("engine: parameter without a name at %d", start)
	}
	l.emit(token{kind: tokParam, text: l.src[start+1 : l.pos], pos: start})
	return nil
}

func (l *lexer) lexHex() {
	start := l.pos
	l.pos += 2
	for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
		l.pos++
	}
	l.emit(token{kind: tokHex, text: l.src[start+2 : l.pos], pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	l.emit(token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		l.emit(token{kind: tokKeyword, text: upper, pos: start})
	} else {
		l.emit(token{kind: tokIdent, text: text, pos: start})
	}
}

func (l *lexer) lexOp() error {
	start := l.pos
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		if two == "!=" {
			two = "<>"
		}
		l.emit(token{kind: tokOp, text: two, pos: start})
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '(', ')', ',', '*', '.', '+', '-', ';':
		l.pos++
		l.emit(token{kind: tokOp, text: string(c), pos: start})
		return nil
	}
	return fmt.Errorf("engine: unexpected character %q at %d", c, start)
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool   { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentChar(c byte) bool  { return isIdentStart(c) || isDigit(c) }
