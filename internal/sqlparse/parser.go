package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	lex *Lexer
	tok Token // lookahead
	src string
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	p := &Parser{lex: NewLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokOp && p.tok.Text == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errorf("unexpected input after statement: %q", p.tok.Text)
	}
	return st, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*Select, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*Select)
	if !ok {
		return nil, fmt.Errorf("expected a SELECT statement")
	}
	return sel, nil
}

func (p *Parser) advance() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("parse error at offset %d: %s", p.tok.Pos, fmt.Sprintf(format, args...))
}

// isKeyword reports whether the lookahead is the given keyword
// (case-insensitive).
func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *Parser) acceptKeyword(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

// expectKeyword consumes the keyword or fails.
func (p *Parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %s, got %q", strings.ToUpper(kw), p.tok.Text)
	}
	return p.advance()
}

// acceptOp consumes the operator token if present.
func (p *Parser) acceptOp(op string) (bool, error) {
	if p.tok.Kind == TokOp && p.tok.Text == op {
		return true, p.advance()
	}
	return false, nil
}

// expectOp consumes the operator or fails.
func (p *Parser) expectOp(op string) error {
	if p.tok.Kind != TokOp || p.tok.Text != op {
		return p.errorf("expected %q, got %q", op, p.tok.Text)
	}
	return p.advance()
}

// expectIdent consumes and returns an identifier.
func (p *Parser) expectIdent(what string) (string, error) {
	if p.tok.Kind != TokIdent {
		return "", p.errorf("expected %s, got %q", what, p.tok.Text)
	}
	name := p.tok.Text
	return name, p.advance()
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("select"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if !p.isKeyword("union") {
			return sel, nil
		}
		u := &Union{Terms: []*Select{sel}}
		for p.isKeyword("union") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			all, err := p.acceptKeyword("all")
			if err != nil {
				return nil, err
			}
			next, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			u.All = append(u.All, all)
			u.Terms = append(u.Terms, next)
		}
		for _, term := range u.Terms[:len(u.Terms)-1] {
			if len(term.OrderBy) > 0 || term.Limit >= 0 {
				return nil, fmt.Errorf("ORDER BY/LIMIT are only allowed on the final term of a UNION")
			}
		}
		return u, nil
	case p.isKeyword("create"):
		return p.parseCreateTable()
	case p.isKeyword("insert"):
		return p.parseInsert()
	case p.isKeyword("drop"):
		return p.parseDropTable()
	default:
		return nil, p.errorf("expected SELECT, CREATE, INSERT, or DROP, got %q", p.tok.Text)
	}
}

func (p *Parser) parseCreateTable() (*CreateTable, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnSpec
	for {
		cn, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		ct, err := p.expectIdent("column type")
		if err != nil {
			return nil, err
		}
		// Tolerate a length spec like VARCHAR(64).
		if ok, err := p.acceptOp("("); err != nil {
			return nil, err
		} else if ok {
			if p.tok.Kind != TokNumber {
				return nil, p.errorf("expected length in type, got %q", p.tok.Text)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		cols = append(cols, ColumnSpec{Name: cn, Type: ct})
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Columns: cols}, nil
}

func (p *Parser) parseDropTable() (*DropTable, error) {
	if err := p.expectKeyword("drop"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *Parser) parseInsert() (*Insert, error) {
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []types.Value
		for {
			v, err := p.parseLiteralValue()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return ins, nil
}

// parseLiteralValue parses a literal for INSERT (number, string, NULL,
// optionally negated number).
func (p *Parser) parseLiteralValue() (types.Value, error) {
	neg := false
	if ok, err := p.acceptOp("-"); err != nil {
		return types.Value{}, err
	} else if ok {
		neg = true
	}
	switch {
	case p.tok.Kind == TokNumber:
		v, err := parseNumber(p.tok.Text)
		if err != nil {
			return types.Value{}, p.errorf("%v", err)
		}
		if err := p.advance(); err != nil {
			return types.Value{}, err
		}
		if neg {
			if v.Kind == types.KindInt {
				v = types.Int(-v.I())
			} else {
				v = types.Float(-v.F())
			}
		}
		return v, nil
	case p.tok.Kind == TokString:
		if neg {
			return types.Value{}, p.errorf("cannot negate a string literal")
		}
		s := p.tok.Text
		return types.Str(s), p.advance()
	case p.isKeyword("null"):
		if neg {
			return types.Value{}, p.errorf("cannot negate NULL")
		}
		return types.Null(), p.advance()
	default:
		return types.Value{}, p.errorf("expected literal, got %q", p.tok.Text)
	}
}

func parseNumber(text string) (types.Value, error) {
	if strings.ContainsRune(text, '.') {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("bad number %q", text)
		}
		return types.Float(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return types.Value{}, fmt.Errorf("bad number %q", text)
	}
	return types.Int(n), nil
}

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	if ok, err := p.acceptKeyword("distinct"); err != nil {
		return nil, err
	} else if ok {
		sel.Distinct = true
	}
	// Projection list.
	if ok, err := p.acceptOp("*"); err != nil {
		return nil, err
	} else if ok {
		sel.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if ok, err := p.acceptKeyword("as"); err != nil {
				return nil, err
			} else if ok {
				alias, err := p.expectIdent("alias")
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.tok.Kind == TokIdent && !p.isReservedAfterItem() {
				// Bare alias: SELECT Count C
				item.Alias = p.tok.Text
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.Items = append(sel.Items, item)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	// FROM.
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		tn, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: tn}
		if p.tok.Kind == TokIdent && !p.isReservedAfterItem() {
			ref.Alias = p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		sel.From = append(sel.From, ref)
		if ok, err := p.acceptOp(","); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	// WHERE.
	if ok, err := p.acceptKeyword("where"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	// GROUP BY.
	if p.isKeyword("group") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	// ORDER BY.
	if p.isKeyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if ok, err := p.acceptKeyword("desc"); err != nil {
				return nil, err
			} else if ok {
				item.Desc = true
			} else if ok, err := p.acceptKeyword("asc"); err != nil {
				return nil, err
			} else if ok {
				// explicit ASC
				_ = ok
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if ok, err := p.acceptOp(","); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
	}
	// LIMIT.
	if ok, err := p.acceptKeyword("limit"); err != nil {
		return nil, err
	} else if ok {
		if p.tok.Kind != TokNumber {
			return nil, p.errorf("expected number after LIMIT, got %q", p.tok.Text)
		}
		n, err := strconv.Atoi(p.tok.Text)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", p.tok.Text)
		}
		sel.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// isReservedAfterItem reports whether the current identifier is a keyword
// that terminates an item list (so it must not be consumed as a bare alias).
func (p *Parser) isReservedAfterItem() bool {
	for _, kw := range [...]string{"from", "where", "group", "order", "limit", "as", "and", "or", "not", "desc", "asc", "select", "by", "union", "all", "is", "null"} {
		if strings.EqualFold(p.tok.Text, kw) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Expression parsing (precedence climbing)

// parseExpr parses a full boolean expression: OR-level.
func (p *Parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.isKeyword("not") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.isKeyword("is") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		not, err := p.acceptKeyword("not")
		if err != nil {
			return nil, err
		}
		if !p.isKeyword("null") {
			return nil, p.errorf("expected NULL after IS, got %q", p.tok.Text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &IsNull{E: left, Not: not}, nil
	}
	if p.tok.Kind == TokOp {
		switch p.tok.Text {
		case "=", "<>", "<", "<=", ">", ">=":
			op := p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOp && (p.tok.Text == "+" || p.tok.Text == "-") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOp && (p.tok.Text == "*" || p.tok.Text == "/") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.tok.Kind == TokOp && p.tok.Text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.Kind == TokNumber:
		v, err := parseNumber(p.tok.Text)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		return &Lit{Val: v}, p.advance()
	case p.tok.Kind == TokString:
		s := p.tok.Text
		return &Lit{Val: types.Str(s)}, p.advance()
	case p.isKeyword("null"):
		return &Lit{Val: types.Null()}, p.advance()
	case p.tok.Kind == TokOp && p.tok.Text == "(":
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.Kind == TokIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Aggregate function call?
		if p.tok.Kind == TokOp && p.tok.Text == "(" && aggregateNames[strings.ToUpper(name)] {
			if err := p.advance(); err != nil {
				return nil, err
			}
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if ok, err := p.acceptOp("*"); err != nil {
				return nil, err
			} else if ok {
				fc.Star = true
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = []Expr{arg}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column?
		if p.tok.Kind == TokOp && p.tok.Text == "." {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			return &Col{Table: name, Name: col}, nil
		}
		return &Col{Name: name}, nil
	default:
		return nil, p.errorf("expected expression, got %q", p.tok.Text)
	}
}
