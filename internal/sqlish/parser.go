package sqlish

import (
	"strconv"
	"strings"
)

// Statement is the parsed form of a query, still unbound to any catalog.
type Statement struct {
	// Columns lists the projected columns; empty means SELECT *.
	Columns []Column
	// Relations lists the FROM clause in order.
	Relations []string
	// Selections are the range predicates.
	Selections []Selection
	// Joins are the equi-join predicates.
	Joins []Join
	// OrderBy is the optional result order; nil if absent.
	OrderBy *Column
}

// Column is a qualified attribute reference.
type Column struct {
	Rel, Attr string
	Pos       int
}

// String renders the column.
func (c Column) String() string { return c.Rel + "." + c.Attr }

// Selection is a range predicate "column <= ?var" or "column <= literal".
type Selection struct {
	Col Column
	// Variable is the host variable name; empty for a literal predicate.
	Variable string
	// Literal is the bound value when Variable is empty.
	Literal float64
}

// Join is an equi-join predicate "left = right".
type Join struct {
	Left, Right Column
}

// parser consumes tokens with one-token lookahead.
type parser struct {
	lex lexer
	tok token
}

// Parse parses one statement.
func Parse(input string) (*Statement, error) {
	p := &parser{lex: lexer{input: input}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s after end of query", p.describe(p.tok))
	}
	return st, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return (&lexer{input: p.lex.input}).errf(p.tok.pos, format, args...)
}

func (p *parser) describe(t token) string {
	if t.kind == tokIdent || t.kind == tokNumber {
		return "'" + t.text + "'"
	}
	return t.kind.String()
}

// keyword matches a case-insensitive keyword identifier.
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, found %s", strings.ToUpper(kw), p.describe(p.tok))
	}
	return p.advance()
}

func (p *parser) statement() (*Statement, error) {
	// The lists start with room for four entries, in one allocation.
	b := &struct {
		st    Statement
		cols  [4]Column
		rels  [4]string
		sels  [4]Selection
		joins [4]Join
		order Column
	}{}
	st := &b.st
	st.Columns, st.Relations, st.Selections, st.Joins = b.cols[:0], b.rels[:0], b.sels[:0], b.joins[:0]
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if p.tok.kind == tokStar {
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for {
			col, err := p.column()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		if p.tok.kind != tokIdent || p.isReserved(p.tok.text) {
			return nil, p.errf("expected relation name, found %s", p.describe(p.tok))
		}
		st.Relations = append(st.Relations, p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.keyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			if err := p.predicate(st); err != nil {
				return nil, err
			}
			if !p.keyword("and") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.keyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		col, err := p.column()
		if err != nil {
			return nil, err
		}
		b.order = col
		st.OrderBy = &b.order
	}
	return st, nil
}

// reserved are the keywords, which cannot name a relation or a column.
var reserved = [...]string{"select", "from", "where", "and", "order", "by"}

func (p *parser) isReserved(s string) bool {
	for _, kw := range reserved {
		if strings.EqualFold(s, kw) {
			return true
		}
	}
	return false
}

func (p *parser) column() (Column, error) {
	if p.tok.kind != tokIdent || p.isReserved(p.tok.text) {
		return Column{}, p.errf("expected column reference, found %s", p.describe(p.tok))
	}
	col := Column{Rel: p.tok.text, Pos: p.tok.pos}
	if err := p.advance(); err != nil {
		return Column{}, err
	}
	if p.tok.kind != tokDot {
		return Column{}, p.errf("expected '.' in qualified column, found %s", p.describe(p.tok))
	}
	if err := p.advance(); err != nil {
		return Column{}, err
	}
	if p.tok.kind != tokIdent {
		return Column{}, p.errf("expected attribute name, found %s", p.describe(p.tok))
	}
	col.Attr = p.tok.text
	return col, p.advance()
}

func (p *parser) predicate(st *Statement) error {
	left, err := p.column()
	if err != nil {
		return err
	}
	switch p.tok.kind {
	case tokLE:
		if err := p.advance(); err != nil {
			return err
		}
		switch p.tok.kind {
		case tokQMark:
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokIdent {
				return p.errf("expected host-variable name after '?', found %s", p.describe(p.tok))
			}
			st.Selections = append(st.Selections, Selection{Col: left, Variable: p.tok.text})
			return p.advance()
		case tokNumber:
			v, err := strconv.ParseFloat(p.tok.text, 64)
			if err != nil {
				return p.errf("bad numeric literal %q", p.tok.text)
			}
			st.Selections = append(st.Selections, Selection{Col: left, Literal: v})
			return p.advance()
		default:
			return p.errf("expected '?variable' or a number after '<=', found %s", p.describe(p.tok))
		}
	case tokEQ:
		if err := p.advance(); err != nil {
			return err
		}
		right, err := p.column()
		if err != nil {
			return err
		}
		st.Joins = append(st.Joins, Join{Left: left, Right: right})
		return nil
	default:
		return p.errf("expected '<=' or '=' after column, found %s", p.describe(p.tok))
	}
}
