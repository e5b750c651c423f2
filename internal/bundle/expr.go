package bundle

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// The discovery interface's requirement language: boolean combinations of
// comparisons over resource characterization fields.
//
//	expr   := or
//	or     := and ( "||" and )*
//	and    := unary ( "&&" unary )*
//	unary  := "!" unary | "(" expr ")" | cmp
//	cmp    := ident op literal
//	op     := "==" | "!=" | ">=" | "<=" | ">" | "<"
//	literal:= number | quoted string
//
// Example: cores >= 1024 && arch == "cray" && median_wait_s < 1800

// value is a dynamically typed literal.
type value struct {
	num   float64
	str   string
	isStr bool
}

func numVal(f float64) value { return value{num: f} }
func strVal(s string) value  { return value{str: s, isStr: true} }

// Expr is a parsed requirement expression.
type Expr interface {
	// Eval evaluates against a characterization environment.
	Eval(env map[string]value) (bool, error)
	String() string
}

type orExpr struct{ left, right Expr }

func (e orExpr) Eval(env map[string]value) (bool, error) {
	l, err := e.left.Eval(env)
	if err != nil {
		return false, err
	}
	if l {
		return true, nil
	}
	return e.right.Eval(env)
}
func (e orExpr) String() string { return fmt.Sprintf("(%s || %s)", e.left, e.right) }

type andExpr struct{ left, right Expr }

func (e andExpr) Eval(env map[string]value) (bool, error) {
	l, err := e.left.Eval(env)
	if err != nil {
		return false, err
	}
	if !l {
		return false, nil
	}
	return e.right.Eval(env)
}
func (e andExpr) String() string { return fmt.Sprintf("(%s && %s)", e.left, e.right) }

type notExpr struct{ inner Expr }

func (e notExpr) Eval(env map[string]value) (bool, error) {
	v, err := e.inner.Eval(env)
	return !v, err
}
func (e notExpr) String() string { return "!" + e.inner.String() }

type cmpExpr struct {
	field string
	op    string
	lit   value
}

func (e cmpExpr) Eval(env map[string]value) (bool, error) {
	v, ok := env[e.field]
	if !ok {
		known := slices.Sorted(maps.Keys(env))
		return false, fmt.Errorf("unknown field %q (known: %s)", e.field, strings.Join(known, ", "))
	}
	if v.isStr != e.lit.isStr {
		return false, fmt.Errorf("type mismatch comparing %q", e.field)
	}
	if v.isStr {
		switch e.op {
		case "==":
			return v.str == e.lit.str, nil
		case "!=":
			return v.str != e.lit.str, nil
		default:
			return false, fmt.Errorf("operator %q not defined for strings", e.op)
		}
	}
	switch e.op {
	case "==":
		return v.num == e.lit.num, nil
	case "!=":
		return v.num != e.lit.num, nil
	case ">=":
		return v.num >= e.lit.num, nil
	case "<=":
		return v.num <= e.lit.num, nil
	case ">":
		return v.num > e.lit.num, nil
	case "<":
		return v.num < e.lit.num, nil
	}
	return false, fmt.Errorf("unknown operator %q", e.op)
}

func (e cmpExpr) String() string {
	if e.lit.isStr {
		return fmt.Sprintf("%s %s %q", e.field, e.op, e.lit.str)
	}
	return fmt.Sprintf("%s %s %g", e.field, e.op, e.lit.num)
}

// ParseExpr parses a requirement expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("bundle: trailing input at %q", p.peek().text)
	}
	return e, nil
}

type token struct {
	kind string // ident, num, str, op, lparen, rparen, and, or, not
	text string
	num  float64
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(':
			toks = append(toks, token{kind: "lparen"})
			i++
		case c == ')':
			toks = append(toks, token{kind: "rparen"})
			i++
		case strings.HasPrefix(src[i:], "&&"):
			toks = append(toks, token{kind: "and"})
			i += 2
		case strings.HasPrefix(src[i:], "||"):
			toks = append(toks, token{kind: "or"})
			i += 2
		case strings.HasPrefix(src[i:], "==") || strings.HasPrefix(src[i:], "!=") ||
			strings.HasPrefix(src[i:], ">=") || strings.HasPrefix(src[i:], "<="):
			toks = append(toks, token{kind: "op", text: src[i : i+2]})
			i += 2
		case c == '>' || c == '<':
			toks = append(toks, token{kind: "op", text: string(c)})
			i++
		case c == '!':
			toks = append(toks, token{kind: "not"})
			i++
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			for j < len(src) && src[j] != quote {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("bundle: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: "str", text: src[i+1 : j]})
			i = j + 1
		case unicode.IsDigit(rune(c)) || c == '-' || c == '.':
			j := i + 1
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.' ||
				src[j] == 'e' || src[j] == 'E' || src[j] == '+' || src[j] == '-') {
				// Stop '-'/'+' handling unless preceded by an exponent marker.
				if (src[j] == '+' || src[j] == '-') && src[j-1] != 'e' && src[j-1] != 'E' {
					break
				}
				j++
			}
			f, err := strconv.ParseFloat(src[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("bundle: bad number %q: %w", src[i:j], err)
			}
			toks = append(toks, token{kind: "num", num: f})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i + 1
			for j < len(src) && (unicode.IsLetter(rune(src[j])) ||
				unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{kind: "ident", text: src[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("bundle: unexpected character %q at offset %d", c, i)
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.eof() {
		return token{kind: "eof", text: "<eof>"}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == "or" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orExpr{left, right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == "and" {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = andExpr{left, right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.peek().kind {
	case "not":
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{inner}, nil
	case "lparen":
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != "rparen" {
			return nil, fmt.Errorf("bundle: expected ')', got %q", p.peek().text)
		}
		p.next()
		return e, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	id := p.next()
	if id.kind != "ident" {
		return nil, fmt.Errorf("bundle: expected field name, got %q", id.text)
	}
	op := p.next()
	if op.kind != "op" {
		return nil, fmt.Errorf("bundle: expected comparison operator after %q", id.text)
	}
	lit := p.next()
	switch lit.kind {
	case "num":
		return cmpExpr{field: id.text, op: op.text, lit: numVal(lit.num)}, nil
	case "str":
		return cmpExpr{field: id.text, op: op.text, lit: strVal(lit.text)}, nil
	}
	return nil, fmt.Errorf("bundle: expected literal after %q %s", id.text, op.text)
}
