package sqllex

import (
	"strings"
	"testing"
)

func lexAll(t *testing.T, in string) []Token {
	t.Helper()
	toks, err := Lex(in)
	if err != nil {
		t.Fatalf("Lex(%q): %v", in, err)
	}
	return toks
}

func TestBasicTokens(t *testing.T) {
	toks := lexAll(t, "select A, B from R where A = 'a3';")
	kinds := []Kind{Ident, Ident, Symbol, Ident, Ident, Ident, Ident, Ident, Symbol, String, Symbol}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want kind %v", i, toks[i], k)
		}
	}
	if toks[9].Text != "a3" {
		t.Errorf("string content = %q", toks[9].Text)
	}
}

func TestStringEscapes(t *testing.T) {
	toks := lexAll(t, "'o''brien'")
	if len(toks) != 1 || toks[0].Text != "o'brien" {
		t.Errorf("escape = %v", toks)
	}
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	toks := lexAll(t, `select "SSN'", "TEL'" from S`)
	if toks[1].Kind != QuotedIdent || toks[1].Text != "SSN'" {
		t.Errorf("quoted ident = %v", toks[1])
	}
	if _, err := Lex(`"unterminated`); err == nil {
		t.Error("unterminated quoted ident must error")
	}
	if _, err := Lex(`""`); err == nil {
		t.Error("empty quoted ident must error")
	}
	toks = lexAll(t, `"a""b"`)
	if toks[0].Text != `a"b` {
		t.Errorf("doubled quote escape = %q", toks[0].Text)
	}
}

func TestNumbers(t *testing.T) {
	toks := lexAll(t, "42 2.5 .5 1e3 1.5E-2 7.")
	wants := []string{"42", "2.5", ".5", "1e3", "1.5E-2", "7."}
	if len(toks) != len(wants) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range wants {
		if toks[i].Kind != Number || toks[i].Text != w {
			t.Errorf("number %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestComments(t *testing.T) {
	toks := lexAll(t, "select -- comment here\n1")
	if len(toks) != 2 || toks[1].Text != "1" {
		t.Errorf("comment not skipped: %v", toks)
	}
}

func TestSymbols(t *testing.T) {
	toks := lexAll(t, "<> <= >= != || ( ) , . * = < > + - / % ;")
	wants := []string{"<>", "<=", ">=", "!=", "||", "(", ")", ",", ".", "*", "=", "<", ">", "+", "-", "/", "%", ";"}
	if len(toks) != len(wants) {
		t.Fatalf("got %d symbols", len(toks))
	}
	for i, w := range wants {
		if !toks[i].IsSymbol(w) {
			t.Errorf("symbol %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	if _, err := Lex("select @"); err == nil {
		t.Error("@ must be rejected")
	}
	if _, err := Lex("a # b"); err == nil {
		t.Error("# must be rejected")
	}
}

func TestKeywordMatching(t *testing.T) {
	toks := lexAll(t, `SeLeCt "select" ſelect`)
	if !toks[0].IsKeyword("select") {
		t.Error("keyword match must be case-insensitive")
	}
	if toks[1].IsKeyword("select") {
		t.Error("quoted identifier must not match keywords")
	}
	if toks[2].IsKeyword("select") {
		t.Error("keyword match must fold ASCII case only (ſ is not s)")
	}
}

// TestUTF8: identifiers are Unicode letters read rune by rune, and invalid
// UTF-8 fails everywhere but inside a string literal.
func TestUTF8(t *testing.T) {
	if toks := lexAll(t, "select café, 'caf\xe9'"); len(toks) != 4 || toks[1].Text != "café" || toks[3].Text != "caf\xe9" {
		t.Errorf("tokens = %v", toks)
	}
	for _, in := range []string{"select \xe1()", "select caf\xe9", `select "caf` + "\xe9" + `"`, "select 1 -- caf\xe9", "select \xff"} {
		if _, err := Lex(in); err == nil || !strings.Contains(err.Error(), "invalid UTF-8") {
			t.Errorf("Lex(%q) = %v, want an invalid UTF-8 error", in, err)
		}
	}
}

func TestTokenizerCursor(t *testing.T) {
	tz, err := NewTokenizer("repair by key A weight D")
	if err != nil {
		t.Fatal(err)
	}
	if !tz.MatchKeywords("repair", "by", "key") {
		t.Fatal("MatchKeywords failed")
	}
	name, err := tz.ExpectIdent()
	if err != nil || name != "A" {
		t.Fatalf("ExpectIdent = %q, %v", name, err)
	}
	if !tz.MatchKeyword("weight") {
		t.Fatal("MatchKeyword failed")
	}
	if tz.MatchKeywords("by", "key") {
		t.Error("partial MatchKeywords must not consume")
	}
	if _, err := tz.ExpectIdent(); err != nil {
		t.Fatal(err)
	}
	if !tz.AtEOF() {
		t.Error("should be at EOF")
	}
	if tz.Cur().Kind != EOF {
		t.Error("Cur at EOF should be EOF token")
	}
	tz.Advance() // advancing past EOF is safe
	if !tz.AtEOF() {
		t.Error("still EOF")
	}
}

func TestTokenizerExpectErrors(t *testing.T) {
	tz, _ := NewTokenizer("select")
	if err := tz.ExpectKeyword("from"); err == nil {
		t.Error("ExpectKeyword mismatch must error")
	}
	if err := tz.ExpectSymbol("("); err == nil {
		t.Error("ExpectSymbol mismatch must error")
	}
	tz2, _ := NewTokenizer("123")
	if _, err := tz2.ExpectIdent(); err == nil {
		t.Error("ExpectIdent on number must error")
	}
}

func TestTokenizerLexError(t *testing.T) {
	if _, err := NewTokenizer("'oops"); err == nil {
		t.Error("NewTokenizer must surface lex errors")
	}
}

func TestTokenStringRendering(t *testing.T) {
	tok := Token{Kind: String, Text: "x"}
	if !strings.Contains(tok.String(), "string") {
		t.Errorf("token rendering = %q", tok.String())
	}
	if (Token{Kind: EOF}).String() != "end of input" {
		t.Error("EOF rendering wrong")
	}
}

func TestMixedStatement(t *testing.T) {
	in := `create table I as select A, B, C from R repair by key A weight D;`
	toks := lexAll(t, in)
	var words []string
	for _, tok := range toks {
		words = append(words, tok.Text)
	}
	joined := strings.Join(words, " ")
	if !strings.Contains(joined, "repair by key A weight D") {
		t.Errorf("token stream lost content: %s", joined)
	}
}
