// Package sqllex tokenizes the SQL / I-SQL dialect: keywords, identifiers
// (bare or double-quoted), single-quoted string literals with ” escapes,
// integer and float literals, operators and punctuation, and -- comments.
//
// The lexer is case-preserving for identifiers and strings; keyword
// recognition happens in the parser via ASCII case-insensitive matching, so
// any keyword can also be used as a quoted identifier. A bare identifier is
// a Unicode letter or '_', then letters, digits, '_' and '$'; invalid UTF-8
// is a lex error everywhere but inside a string literal.
package sqllex

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ErrLex is wrapped by all lexing errors.
var ErrLex = errors.New("lex error")

// Kind classifies tokens.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	QuotedIdent
	String
	Number
	Symbol
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case QuotedIdent:
		return "quoted identifier"
	case String:
		return "string"
	case Number:
		return "number"
	case Symbol:
		return "symbol"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Token is one lexical element. Text is the decoded content: for strings
// the unescaped body, for quoted identifiers the identifier without quotes.
type Token struct {
	Kind Kind
	Text string
	Pos  int // byte offset in the input
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == EOF {
		return "end of input"
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}

// IsKeyword reports whether the token is a bare identifier that equals the
// keyword kw, given in lower-case letters, ignoring ASCII case only. Quoted
// identifiers never match keywords.
func (t Token) IsKeyword(kw string) bool {
	if t.Kind != Ident || len(t.Text) != len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		if t.Text[i]|0x20 != kw[i] { // |0x20 lower-cases an ASCII letter
			return false
		}
	}
	return true
}

// IsSymbol reports whether the token is the given symbol.
func (t Token) IsSymbol(s string) bool {
	return t.Kind == Symbol && t.Text == s
}

// Lex tokenizes the input completely, returning the token stream without the
// trailing EOF token appended (callers index past the end to mean EOF —
// Tokenizer below handles that).
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		r, size := utf8.DecodeRuneInString(input[i:])
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			start := i
			for i < n && input[i] != '\n' {
				i++
			}
			if !utf8.ValidString(input[start:i]) {
				return nil, fmt.Errorf("%w: invalid UTF-8 in the comment at offset %d", ErrLex, start)
			}
		case c == '\'':
			tok, next, err := lexString(input, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = next
		case c == '"':
			tok, next, err := lexQuotedIdent(input, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = next
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			tok, next := lexNumber(input, i)
			toks = append(toks, tok)
			i = next
		case isIdentStart(r):
			start := i
			for i < n {
				r, size := utf8.DecodeRuneInString(input[i:])
				if !isIdentCont(r) {
					break // an invalid byte fails as the next token
				}
				i += size
			}
			toks = append(toks, Token{Kind: Ident, Text: input[start:i], Pos: start})
		case r == utf8.RuneError && size == 1:
			return nil, fmt.Errorf("%w: invalid UTF-8 at offset %d", ErrLex, i)
		default:
			tok, next, err := lexSymbol(input, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
			i = next
		}
	}
	return toks, nil
}

func lexString(input string, start int) (Token, int, error) {
	var b strings.Builder
	i := start + 1
	n := len(input)
	for i < n {
		if input[i] == '\'' {
			if i+1 < n && input[i+1] == '\'' {
				b.WriteByte('\'')
				i += 2
				continue
			}
			return Token{Kind: String, Text: b.String(), Pos: start}, i + 1, nil
		}
		b.WriteByte(input[i])
		i++
	}
	return Token{}, 0, fmt.Errorf("%w: unterminated string starting at offset %d", ErrLex, start)
}

func lexQuotedIdent(input string, start int) (Token, int, error) {
	var b strings.Builder
	i := start + 1
	n := len(input)
	for i < n {
		if input[i] == '"' {
			if i+1 < n && input[i+1] == '"' {
				b.WriteByte('"')
				i += 2
				continue
			}
			if b.Len() == 0 {
				return Token{}, 0, fmt.Errorf("%w: empty quoted identifier at offset %d", ErrLex, start)
			}
			if !utf8.ValidString(b.String()) {
				return Token{}, 0, fmt.Errorf("%w: invalid UTF-8 in the quoted identifier at offset %d", ErrLex, start)
			}
			return Token{Kind: QuotedIdent, Text: b.String(), Pos: start}, i + 1, nil
		}
		b.WriteByte(input[i])
		i++
	}
	return Token{}, 0, fmt.Errorf("%w: unterminated quoted identifier starting at offset %d", ErrLex, start)
}

func lexNumber(input string, start int) (Token, int) {
	i := start
	n := len(input)
	for i < n && isDigit(input[i]) {
		i++
	}
	if i < n && input[i] == '.' {
		i++
		for i < n && isDigit(input[i]) {
			i++
		}
	}
	if i < n && (input[i] == 'e' || input[i] == 'E') {
		j := i + 1
		if j < n && (input[j] == '+' || input[j] == '-') {
			j++
		}
		if j < n && isDigit(input[j]) {
			i = j
			for i < n && isDigit(input[i]) {
				i++
			}
		}
	}
	return Token{Kind: Number, Text: input[start:i], Pos: start}, i
}

var twoCharSymbols = map[string]bool{
	"<>": true, "<=": true, ">=": true, "!=": true, "||": true,
}

var oneCharSymbols = "(),.*=<>+-/%;"

func lexSymbol(input string, start int) (Token, int, error) {
	if start+1 < len(input) {
		two := input[start : start+2]
		if twoCharSymbols[two] {
			return Token{Kind: Symbol, Text: two, Pos: start}, start + 2, nil
		}
	}
	one := input[start : start+1]
	if strings.ContainsAny(one, oneCharSymbols) {
		return Token{Kind: Symbol, Text: one, Pos: start}, start + 1, nil
	}
	return Token{}, 0, fmt.Errorf("%w: unexpected character %q at offset %d", ErrLex, one, start)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Tokenizer is a cursor over a token stream with lookahead, shared by the
// parser.
type Tokenizer struct {
	toks []Token
	pos  int
	end  int // EOF position for error messages
}

// NewTokenizer lexes the input and positions a cursor at the first token.
func NewTokenizer(input string) (*Tokenizer, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	return &Tokenizer{toks: toks, end: len(input)}, nil
}

// Peek returns the token at offset ahead of the cursor without consuming.
func (tz *Tokenizer) Peek(ahead int) Token {
	i := tz.pos + ahead
	if i >= len(tz.toks) {
		return Token{Kind: EOF, Pos: tz.end}
	}
	return tz.toks[i]
}

// Cur returns the current token.
func (tz *Tokenizer) Cur() Token { return tz.Peek(0) }

// Advance consumes and returns the current token.
func (tz *Tokenizer) Advance() Token {
	t := tz.Cur()
	if tz.pos < len(tz.toks) {
		tz.pos++
	}
	return t
}

// MatchKeyword consumes the current token if it is the given keyword.
func (tz *Tokenizer) MatchKeyword(kw string) bool {
	if tz.Cur().IsKeyword(kw) {
		tz.pos++
		return true
	}
	return false
}

// MatchKeywords consumes a sequence of keywords if all match.
func (tz *Tokenizer) MatchKeywords(kws ...string) bool {
	for i, kw := range kws {
		if !tz.Peek(i).IsKeyword(kw) {
			return false
		}
	}
	tz.pos += len(kws)
	return true
}

// MatchSymbol consumes the current token if it is the given symbol.
func (tz *Tokenizer) MatchSymbol(s string) bool {
	if tz.Cur().IsSymbol(s) {
		tz.pos++
		return true
	}
	return false
}

// ExpectKeyword consumes the given keyword or returns an error.
func (tz *Tokenizer) ExpectKeyword(kw string) error {
	if tz.MatchKeyword(kw) {
		return nil
	}
	return fmt.Errorf("expected %s, found %s at offset %d", strings.ToUpper(kw), tz.Cur(), tz.Cur().Pos)
}

// ExpectSymbol consumes the given symbol or returns an error.
func (tz *Tokenizer) ExpectSymbol(s string) error {
	if tz.MatchSymbol(s) {
		return nil
	}
	return fmt.Errorf("expected %q, found %s at offset %d", s, tz.Cur(), tz.Cur().Pos)
}

// ExpectIdent consumes and returns an identifier (bare or quoted).
func (tz *Tokenizer) ExpectIdent() (string, error) {
	t := tz.Cur()
	if t.Kind == Ident || t.Kind == QuotedIdent {
		tz.pos++
		return t.Text, nil
	}
	return "", fmt.Errorf("expected identifier, found %s at offset %d", t, t.Pos)
}

// AtEOF reports whether the cursor is exhausted.
func (tz *Tokenizer) AtEOF() bool { return tz.Cur().Kind == EOF }
