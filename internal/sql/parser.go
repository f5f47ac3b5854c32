package sql

import (
	"fmt"
	"strconv"
	"strings"

	"dashdb/internal/types"
)

// Parser turns tokens into an AST under a given dialect.
type Parser struct {
	src     string
	toks    []Token
	pos     int
	dialect Dialect
	nparams int
}

// Parse parses a single statement (a trailing ';' is tolerated).
func Parse(src string, d Dialect) (Statement, error) {
	p, err := newParser(src, d)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.matchOp(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return st, nil
}

// ParseScript parses a ';'-separated statement list.
func ParseScript(src string, d Dialect) ([]Statement, error) {
	p, err := newParser(src, d)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for !p.atEOF() {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.matchOp(";") {
			break
		}
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return out, nil
}

func newParser(src string, d Dialect) (*Parser, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return &Parser{src: src, toks: toks, dialect: d}, nil
}

// --- token helpers ---------------------------------------------------------

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *Parser) peekN(n int) Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) advance() Token {
	t := p.cur()
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.cur().Pos)
}

// matchKw consumes the keyword if present.
func (p *Parser) matchKw(kw string) bool {
	if p.cur().Kind == TokIdent && p.cur().Text == kw {
		p.advance()
		return true
	}
	return false
}

// peekKw reports whether the current token is the keyword.
func (p *Parser) peekKw(kw string) bool {
	return p.cur().Kind == TokIdent && p.cur().Text == kw
}

func (p *Parser) expectKw(kw string) error {
	if !p.matchKw(kw) {
		return p.errf("expected %s, found %q", kw, p.cur().Text)
	}
	return nil
}

func (p *Parser) matchOp(op string) bool {
	if p.cur().Kind == TokOp && p.cur().Text == op {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) peekOp(op string) bool {
	return p.cur().Kind == TokOp && p.cur().Text == op
}

func (p *Parser) expectOp(op string) error {
	if !p.matchOp(op) {
		return p.errf("expected %q, found %q", op, p.cur().Text)
	}
	return nil
}

// ident consumes an identifier (plain or quoted).
func (p *Parser) ident() (string, error) {
	t := p.cur()
	if t.Kind == TokIdent || t.Kind == TokQuotedIdent {
		p.advance()
		return t.Text, nil
	}
	return "", p.errf("expected identifier, found %q", t.Text)
}

// --- statements ------------------------------------------------------------

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKw("SELECT") || p.peekKw("WITH"):
		return p.parseSelect()
	case p.peekKw("INSERT"):
		return p.parseInsert()
	case p.peekKw("UPDATE"):
		return p.parseUpdate()
	case p.peekKw("DELETE"):
		return p.parseDelete()
	case p.peekKw("CREATE"):
		return p.parseCreate()
	case p.peekKw("DECLARE"):
		return p.parseDeclareTemp()
	case p.peekKw("DROP"):
		return p.parseDrop()
	case p.peekKw("TRUNCATE"):
		return p.parseTruncate()
	case p.peekKw("SET"):
		return p.parseSet()
	case p.peekKw("EXPLAIN"):
		p.advance()
		analyze := p.matchKw("ANALYZE")
		target, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Target: target, Analyze: analyze}, nil
	case p.peekKw("VALUES"):
		if !p.dialect.allows("values-statement") {
			return nil, p.errf("VALUES statement requires DB2 dialect")
		}
		rows, err := p.parseValuesRows()
		if err != nil {
			return nil, err
		}
		return &ValuesStmt{Rows: rows}, nil
	case p.peekKw("CALL"):
		return p.parseCall()
	case p.peekKw("BEGIN"):
		return p.parseBeginBlock()
	}
	return nil, p.errf("unrecognized statement start %q", p.cur().Text)
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	st := &SelectStmt{Limit: -1}
	if p.matchKw("WITH") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			st.With = append(st.With, CTE{Name: name, Sub: sub})
			if !p.matchOp(",") {
				break
			}
		}
	}
	if err := p.parseSelectCore(st); err != nil {
		return nil, err
	}
	// A query expression is a left-associative chain of SELECT blocks; the
	// ORDER BY and row limit that follow belong to the whole chain.
	for last := st; p.matchKw("UNION"); last = last.Union {
		last.UnionAll = p.matchKw("ALL")
		last.Union = &SelectStmt{Limit: -1}
		if err := p.parseSelectCore(last.Union); err != nil {
			return nil, err
		}
	}
	if p.matchKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			var oi OrderItem
			if p.cur().Kind == TokNumber {
				n, err := strconv.Atoi(p.advance().Text)
				if err != nil || n < 1 {
					return nil, p.errf("bad ORDER BY ordinal")
				}
				oi.Ordinal = n
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				oi.Expr = e
			}
			if p.matchKw("DESC") {
				oi.Desc = true
			} else {
				p.matchKw("ASC")
			}
			st.OrderBy = append(st.OrderBy, oi)
			if !p.matchOp(",") {
				break
			}
		}
	}
	// LIMIT n [OFFSET m]  (Netezza/PostgreSQL)
	if p.peekKw("LIMIT") {
		if !p.dialect.allows("limit-offset") {
			return nil, p.errf("LIMIT requires Netezza/PostgreSQL dialect")
		}
		p.advance()
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		st.Limit = n
		if p.matchKw("OFFSET") {
			m, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			st.Offset = m
		}
	} else if p.matchKw("OFFSET") {
		m, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		st.Offset = m
		if p.matchKw("LIMIT") {
			n, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			st.Limit = n
		}
	} else if p.matchKw("FETCH") {
		// FETCH FIRST n ROWS ONLY (DB2 / ANSI)
		if !p.matchKw("FIRST") && !p.matchKw("NEXT") {
			return nil, p.errf("expected FIRST after FETCH")
		}
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		st.Limit = n
		if !p.matchKw("ROWS") {
			p.matchKw("ROW")
		}
		if err := p.expectKw("ONLY"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseSelectCore parses one SELECT block into st, up to and including
// HAVING.
func (p *Parser) parseSelectCore(st *SelectStmt) error {
	if err := p.expectKw("SELECT"); err != nil {
		return err
	}
	if p.matchKw("DISTINCT") {
		st.Distinct = true
	} else {
		p.matchKw("ALL")
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return err
		}
		st.Items = append(st.Items, item)
		if !p.matchOp(",") {
			break
		}
	}
	if p.matchKw("FROM") {
		for {
			fi, err := p.parseFromItem()
			if err != nil {
				return err
			}
			st.From = append(st.From, fi)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return err
		}
		st.Where = w
	}
	if p.matchKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return err
		}
		st.Having = h
	}
	return nil
}

func (p *Parser) parseInt() (int64, error) {
	if p.cur().Kind != TokNumber {
		return 0, p.errf("expected number, found %q", p.cur().Text)
	}
	n, err := strconv.ParseInt(p.advance().Text, 10, 64)
	if err != nil {
		return 0, p.errf("bad integer literal: %v", err)
	}
	return n, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// "*" or "t.*"
	if p.peekOp("*") {
		p.advance()
		return SelectItem{Expr: &Star{}}, nil
	}
	if p.cur().Kind == TokIdent && p.peekN(1).Kind == TokOp && p.peekN(1).Text == "." &&
		p.peekN(2).Kind == TokOp && p.peekN(2).Text == "*" {
		tbl := p.advance().Text
		p.advance()
		p.advance()
		return SelectItem{Expr: &Star{Table: tbl}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.matchKw("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.cur().Kind == TokIdent && !p.reservedAfterItem(p.cur().Text) {
		item.Alias = p.advance().Text
	} else if p.cur().Kind == TokQuotedIdent {
		item.Alias = p.advance().Text
	}
	return item, nil
}

// reservedAfterItem lists keywords ending a select item / table ref so
// bare aliases do not swallow them.
func (p *Parser) reservedAfterItem(kw string) bool {
	switch kw {
	case "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
		"FETCH", "UNION", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS",
		"ON", "USING", "AND", "OR", "AS", "SET", "VALUES", "DESC", "ASC",
		"WHEN", "THEN", "ELSE", "END", "INTO", "SELECT", "WITH", "CONNECT", "START":
		return true
	}
	return false
}

func (p *Parser) parseFromItem() (FromItem, error) {
	left, err := p.parseFromPrimary()
	if err != nil {
		return nil, err
	}
	for {
		joinType := ""
		switch {
		case p.peekKw("JOIN"):
			joinType = "INNER"
		case p.peekKw("INNER") && p.peekN(1).Text == "JOIN":
			p.advance()
			joinType = "INNER"
		case p.peekKw("LEFT"):
			p.advance()
			p.matchKw("OUTER")
			joinType = "LEFT"
		case p.peekKw("RIGHT"):
			p.advance()
			p.matchKw("OUTER")
			joinType = "RIGHT"
		case p.peekKw("CROSS"):
			p.advance()
			joinType = "CROSS"
		default:
			return left, nil
		}
		if err := p.expectKw("JOIN"); err != nil {
			return nil, err
		}
		right, err := p.parseFromPrimary()
		if err != nil {
			return nil, err
		}
		j := &JoinRef{Left: left, Right: right, Type: joinType}
		if joinType != "CROSS" {
			if p.matchKw("ON") {
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				j.On = on
			} else if p.matchKw("USING") {
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				for {
					c, err := p.ident()
					if err != nil {
						return nil, err
					}
					j.Using = append(j.Using, c)
					if !p.matchOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			} else {
				return nil, p.errf("JOIN requires ON or USING")
			}
		}
		left = j
	}
}

func (p *Parser) parseFromPrimary() (FromItem, error) {
	if p.matchOp("(") {
		if p.peekKw("SELECT") || p.peekKw("WITH") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			alias := ""
			p.matchKw("AS")
			if p.cur().Kind == TokIdent && !p.reservedAfterItem(p.cur().Text) {
				alias = p.advance().Text
			}
			return &SubqueryRef{Sub: sub, Alias: alias}, nil
		}
		// Parenthesized join expression.
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fi, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if name == "DUAL" && !p.dialect.allows("dual") {
		return nil, p.errf("DUAL requires Oracle dialect")
	}
	ref := &TableRef{Name: name}
	p.matchKw("AS")
	if p.cur().Kind == TokIdent && !p.reservedAfterItem(p.cur().Text) {
		ref.Alias = p.advance().Text
	} else if p.cur().Kind == TokQuotedIdent {
		ref.Alias = p.advance().Text
	}
	return ref, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.peekOp("(") {
		p.advance()
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.matchOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.peekKw("VALUES"):
		rows, err := p.parseValuesRows()
		if err != nil {
			return nil, err
		}
		st.Rows = rows
	case p.peekKw("SELECT") || p.peekKw("WITH"):
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Query = q
	default:
		return nil, p.errf("INSERT requires VALUES or SELECT")
	}
	return st, nil
}

func (p *Parser) parseValuesRows() ([][]Expr, error) {
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		var row []Expr
		if p.matchOp("(") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.matchOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			// DB2 allows VALUES 1, 2 (single-column rows).
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
		}
		rows = append(rows, row)
		if !p.matchOp(",") {
			break
		}
	}
	return rows, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, SetClause{Column: col, Expr: e})
		if !p.matchOp(",") {
			break
		}
	}
	if p.matchKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	p.matchKw("FROM")
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.matchKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *Parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	temp := false
	if p.matchKw("GLOBAL") {
		if !p.matchKw("TEMPORARY") && !p.matchKw("TEMP") {
			return nil, p.errf("expected TEMPORARY after GLOBAL")
		}
		temp = true
	} else if p.matchKw("TEMP") || p.matchKw("TEMPORARY") {
		temp = true
	}
	switch {
	case p.matchKw("TABLE"):
		return p.parseCreateTable(temp)
	case temp:
		return nil, p.errf("expected TABLE after TEMP")
	case p.matchKw("UNIQUE"):
		if err := p.expectKw("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true)
	case p.matchKw("INDEX"):
		return p.parseCreateIndex(false)
	case p.matchKw("VIEW"):
		return p.parseCreateView()
	case p.matchKw("SEQUENCE"):
		return p.parseCreateSequence()
	case p.matchKw("ALIAS"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("FOR"); err != nil {
			return nil, err
		}
		target, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &CreateAliasStmt{Name: name, Target: target}, nil
	}
	return nil, p.errf("unsupported CREATE object %q", p.cur().Text)
}

func (p *Parser) parseCreateTable(temp bool) (Statement, error) {
	st := &CreateTableStmt{Temp: temp}
	if p.matchKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.matchKw("AS") {
		if err := p.expectOp("("); err == nil {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			st.AsQuery = q
		} else {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			st.AsQuery = q
		}
		return st, nil
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		tname, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		cd := ColumnDef{Name: cname, Type: tname}
		for {
			if p.matchKw("NOT") {
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
				cd.NotNull = true
				continue
			}
			if p.matchKw("PRIMARY") {
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
				cd.NotNull = true
				continue
			}
			if p.matchKw("NULL") || p.matchKw("UNIQUE") {
				continue
			}
			break
		}
		st.Columns = append(st.Columns, cd)
		if !p.matchOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	// Storage clauses (ON COMMIT ... for temp tables) are accepted and
	// ignored.
	if p.matchKw("ON") {
		if err := p.expectKw("COMMIT"); err != nil {
			return nil, err
		}
		if !p.matchKw("PRESERVE") && !p.matchKw("DELETE") {
			return nil, p.errf("expected PRESERVE or DELETE")
		}
		if err := p.expectKw("ROWS"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseTypeName reads a type with optional (p[,s]) suffix, validating
// dialect-gated type names.
func (p *Parser) parseTypeName() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	// Two-word types.
	if name == "DOUBLE" && p.matchKw("PRECISION") {
		name = "DOUBLE"
	}
	if name == "VARCHAR2" || name == "NUMBER" {
		if p.dialect != DialectOracle {
			return "", p.errf("type %s requires Oracle dialect", name)
		}
	}
	if name == "DECFLOAT" || name == "GRAPHIC" {
		if p.dialect != DialectDB2 {
			return "", p.errf("type %s requires DB2 dialect", name)
		}
	}
	if p.matchOp("(") {
		if _, err := p.parseInt(); err != nil {
			return "", err
		}
		if p.matchOp(",") {
			if _, err := p.parseInt(); err != nil {
				return "", err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	st := &CreateIndexStmt{Name: name, Table: table, Unique: unique}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.matchOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	start := p.cur().Pos
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	end := p.cur().Pos
	if p.atEOF() {
		end = len(p.src)
	}
	return &CreateViewStmt{Name: name, SQL: strings.TrimSpace(p.src[start:end]), Sub: sub}, nil
}

func (p *Parser) parseCreateSequence() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &CreateSequenceStmt{Name: name, Start: 1, Incr: 1}
	for {
		switch {
		case p.matchKw("START"):
			p.matchKw("WITH")
			n, err := p.parseSignedInt()
			if err != nil {
				return nil, err
			}
			st.Start = n
		case p.matchKw("INCREMENT"):
			p.matchKw("BY")
			n, err := p.parseSignedInt()
			if err != nil {
				return nil, err
			}
			st.Incr = n
		default:
			return st, nil
		}
	}
}

func (p *Parser) parseSignedInt() (int64, error) {
	neg := false
	if p.matchOp("-") {
		neg = true
	}
	n, err := p.parseInt()
	if err != nil {
		return 0, err
	}
	if neg {
		n = -n
	}
	return n, nil
}

func (p *Parser) parseDeclareTemp() (Statement, error) {
	p.advance() // DECLARE
	if !p.dialect.allows("declare-temp") {
		return nil, p.errf("DECLARE GLOBAL TEMPORARY TABLE requires DB2 dialect")
	}
	if err := p.expectKw("GLOBAL"); err != nil {
		return nil, err
	}
	if !p.matchKw("TEMPORARY") && !p.matchKw("TEMP") {
		return nil, p.errf("expected TEMPORARY")
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	return p.parseCreateTable(true)
}

func (p *Parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	kind := ""
	switch {
	case p.matchKw("TABLE"):
		kind = "TABLE"
	case p.matchKw("VIEW"):
		kind = "VIEW"
	case p.matchKw("SEQUENCE"):
		kind = "SEQUENCE"
	case p.matchKw("NICKNAME"):
		kind = "NICKNAME"
	default:
		return nil, p.errf("unsupported DROP object %q", p.cur().Text)
	}
	st := &DropStmt{Kind: kind}
	if p.matchKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *Parser) parseTruncate() (Statement, error) {
	p.advance() // TRUNCATE
	p.matchKw("TABLE")
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &TruncateStmt{Table: name}, nil
}

func (p *Parser) parseSet() (Statement, error) {
	p.advance() // SET
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.matchOp("=")
	p.matchKw("TO")
	var val string
	t := p.cur()
	switch t.Kind {
	case TokString, TokIdent, TokNumber, TokQuotedIdent:
		val = p.advance().Text
	default:
		return nil, p.errf("expected SET value, found %q", t.Text)
	}
	// Byte-size values like 64KB / 16MB lex as a number followed by a
	// unit identifier; glue them back together for SET SORTHEAP et al.
	if t.Kind == TokNumber && p.cur().Kind == TokIdent {
		val += p.advance().Text
	}
	return &SetStmt{Name: name, Value: val}, nil
}

func (p *Parser) parseCall() (Statement, error) {
	p.advance() // CALL
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &CallStmt{Proc: name}
	if p.matchOp("(") {
		if !p.peekOp(")") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Args = append(st.Args, e)
				if !p.matchOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *Parser) parseBeginBlock() (Statement, error) {
	if !p.dialect.allows("anonymous-block") {
		return nil, p.errf("anonymous blocks require Oracle dialect")
	}
	p.advance() // BEGIN
	st := &BeginBlockStmt{}
	for !p.peekKw("END") {
		if p.atEOF() {
			return nil, p.errf("unterminated BEGIN block")
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		st.Body = append(st.Body, inner)
		if !p.matchOp(";") {
			break
		}
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return st, nil
}

// --- expressions -----------------------------------------------------------

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.matchKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.matchKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	if e, ok, err := p.tryParseOverlaps(); err != nil {
		return nil, err
	} else if ok {
		return e, nil
	}
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekOp("=") || p.peekOp("<>") || p.peekOp("!=") || p.peekOp("<") ||
			p.peekOp("<=") || p.peekOp(">") || p.peekOp(">="):
			op := p.advance().Text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BinaryOp{Op: op, Left: left, Right: right}
		case p.peekKw("LIKE"):
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BinaryOp{Op: "LIKE", Left: left, Right: right}
		case p.peekKw("NOT") && p.peekN(1).Text == "LIKE":
			p.advance()
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &UnaryOp{Op: "NOT", Expr: &BinaryOp{Op: "LIKE", Left: left, Right: right}}
		case p.peekKw("BETWEEN") || (p.peekKw("NOT") && p.peekN(1).Text == "BETWEEN"):
			not := p.matchKw("NOT")
			p.advance() // BETWEEN
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BetweenExpr{Expr: left, Lo: lo, Hi: hi, Not: not}
		case p.peekKw("IN") || (p.peekKw("NOT") && p.peekN(1).Text == "IN"):
			not := p.matchKw("NOT")
			p.advance() // IN
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			ie := &InExpr{Expr: left, Not: not}
			if p.peekKw("SELECT") || p.peekKw("WITH") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				ie.Sub = sub
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					ie.List = append(ie.List, e)
					if !p.matchOp(",") {
						break
					}
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			left = ie
		case p.peekKw("IS"):
			p.advance()
			not := p.matchKw("NOT")
			switch {
			case p.matchKw("NULL"):
				left = &IsNullExpr{Expr: left, Not: not}
			case p.matchKw("TRUE"):
				left = &IsBoolExpr{Expr: left, Want: true, Not: not}
			case p.matchKw("FALSE"):
				left = &IsBoolExpr{Expr: left, Want: false, Not: not}
			default:
				return nil, p.errf("expected NULL/TRUE/FALSE after IS")
			}
		case p.peekKw("ISNULL"):
			p.advance()
			left = &IsNullExpr{Expr: left}
		case p.peekKw("NOTNULL"):
			p.advance()
			left = &IsNullExpr{Expr: left, Not: true}
		case p.peekKw("ISTRUE"):
			p.advance()
			left = &IsBoolExpr{Expr: left, Want: true}
		case p.peekKw("ISFALSE"):
			p.advance()
			left = &IsBoolExpr{Expr: left, Want: false}
		default:
			return left, nil
		}
	}
}

// tryParseOverlaps handles "(s1, e1) OVERLAPS (s2, e2)". It requires
// lookahead: a '(' followed by an expression and a comma.
func (p *Parser) tryParseOverlaps() (Expr, bool, error) {
	if !p.peekOp("(") {
		return nil, false, nil
	}
	save := p.pos
	p.advance()
	s1, err := p.parseExpr()
	if err != nil || !p.matchOp(",") {
		p.pos = save
		return nil, false, nil
	}
	e1, err := p.parseExpr()
	if err != nil || !p.matchOp(")") || !p.peekKw("OVERLAPS") {
		p.pos = save
		return nil, false, nil
	}
	p.advance() // OVERLAPS
	if err := p.expectOp("("); err != nil {
		return nil, false, err
	}
	s2, err := p.parseExpr()
	if err != nil {
		return nil, false, err
	}
	if err := p.expectOp(","); err != nil {
		return nil, false, err
	}
	e2, err := p.parseExpr()
	if err != nil {
		return nil, false, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, false, err
	}
	return &OverlapsExpr{S1: s1, E1: e1, S2: s2, E2: e2}, true, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.peekOp("+"):
			op = "+"
		case p.peekOp("-"):
			op = "-"
		case p.peekOp("||"):
			op = "||"
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.peekOp("*"):
			op = "*"
		case p.peekOp("/"):
			op = "/"
		case p.peekOp("%"):
			op = "%"
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.matchOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "-", Expr: e}, nil
	}
	if p.matchOp("+") {
		return p.parseUnary()
	}
	return p.parsePostfix()
}

// parsePostfix handles ::type casts and Oracle's (+) marker.
func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekOp("::"):
			if !p.dialect.allows("cast-colon") {
				return nil, p.errf(":: cast requires Netezza/PostgreSQL dialect")
			}
			p.advance()
			tname, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			e = &CastExpr{Expr: e, Type: tname}
		case p.peekOp("(+)"):
			if !p.dialect.allows("oracle-outer-join") {
				return nil, p.errf("(+) outer join requires Oracle dialect")
			}
			p.advance()
			ref, ok := e.(*ColumnRef)
			if !ok {
				return nil, p.errf("(+) must follow a column reference")
			}
			ref.OuterJoin = true
		default:
			return e, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.advance()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{Val: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{Val: types.NewFloat(f)}, nil
		}
		return &Literal{Val: types.NewInt(i)}, nil
	case TokString:
		p.advance()
		if t.Text == "" && p.dialect.EmptyStringIsNull() {
			// Oracle VARCHAR2 semantics: '' is NULL.
			return &Literal{Val: types.NullOf(types.KindString)}, nil
		}
		return &Literal{Val: types.NewString(t.Text)}, nil
	case TokQuotedIdent:
		p.advance()
		return p.finishColumnRef(t.Text)
	case TokOp:
		if t.Text == "(" {
			p.advance()
			if p.peekKw("SELECT") || p.peekKw("WITH") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "?" {
			p.advance()
			e := &ParamExpr{Index: p.nparams}
			p.nparams++
			return e, nil
		}
	case TokIdent:
		switch t.Text {
		case "NULL":
			p.advance()
			return &Literal{Val: types.Null}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: types.NewBool(false)}, nil
		case "ROWNUM":
			if !p.dialect.allows("rownum") {
				return nil, p.errf("ROWNUM requires Oracle dialect")
			}
			p.advance()
			return &RownumExpr{}, nil
		case "DATE":
			// DATE 'YYYY-MM-DD' literal.
			if p.peekN(1).Kind == TokString {
				p.advance()
				v, err := types.ParseDate(p.advance().Text)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				return &Literal{Val: v}, nil
			}
		case "TIMESTAMP":
			if p.peekN(1).Kind == TokString {
				p.advance()
				v, err := types.ParseTimestamp(p.advance().Text)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				return &Literal{Val: v}, nil
			}
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			tname, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &CastExpr{Expr: e, Type: tname}, nil
		case "EXISTS":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Sub: sub}, nil
		case "NEXT", "PREVIOUS":
			// DB2: NEXT VALUE FOR seq / PREVIOUS VALUE FOR seq.
			if p.peekN(1).Text == "VALUE" {
				if !p.dialect.allows("next-value-for") {
					return nil, p.errf("NEXT VALUE FOR requires DB2 dialect")
				}
				next := t.Text == "NEXT"
				p.advance()
				p.advance()
				if err := p.expectKw("FOR"); err != nil {
					return nil, err
				}
				seq, err := p.ident()
				if err != nil {
					return nil, err
				}
				return &SeqValExpr{Seq: seq, Next: next}, nil
			}
		case "CURRENT_DATE", "CURRENT_TIMESTAMP", "SYSDATE", "NOW":
			// Parsed as zero-argument function calls.
			if p.peekN(1).Text != "(" {
				p.advance()
				return &FuncCall{Name: t.Text}, nil
			}
		case "CURRENT":
			// DB2 "CURRENT DATE" / "CURRENT TIMESTAMP".
			if p.peekN(1).Text == "DATE" || p.peekN(1).Text == "TIMESTAMP" {
				p.advance()
				which := p.advance().Text
				return &FuncCall{Name: "CURRENT_" + which}, nil
			}
		}
		// Function call or column reference. Reserved clause keywords
		// cannot start an expression (catches "SELECT FROM t").
		if p.reservedAfterItem(t.Text) && p.peekN(1).Text != "(" {
			return nil, p.errf("unexpected keyword %s in expression", t.Text)
		}
		p.advance()
		if p.peekOp("(") {
			return p.parseFuncCall(t.Text)
		}
		return p.finishColumnRef(t.Text)
	}
	return nil, p.errf("unexpected token %q in expression", t.Text)
}

// finishColumnRef handles "name" or "qual.name", plus Oracle's
// seq.NEXTVAL / seq.CURRVAL postfix form.
func (p *Parser) finishColumnRef(first string) (Expr, error) {
	if !p.peekOp(".") {
		return &ColumnRef{Column: first}, nil
	}
	p.advance()
	second, err := p.ident()
	if err != nil {
		return nil, err
	}
	if (second == "NEXTVAL" || second == "CURRVAL") && p.dialect.allows("seq-postfix") {
		return &SeqValExpr{Seq: first, Next: second == "NEXTVAL"}, nil
	}
	return &ColumnRef{Table: first, Column: second}, nil
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.peekOp("*") {
		p.advance()
		fc.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.matchKw("DISTINCT") {
		fc.Distinct = true
	}
	if !p.peekOp(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	// PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY x)
	if p.peekKw("WITHIN") {
		p.advance()
		if err := p.expectKw("GROUP"); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if err := p.expectKw("ORDER"); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.matchKw("ASC")
		p.matchKw("DESC")
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		fc.WithinGroupOrder = e
	}
	return fc, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.advance() // CASE
	ce := &CaseExpr{}
	if !p.peekKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.matchKw("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{When: w, Then: t})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.matchKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
