// Package sqlite implements the paper's SQLite application: an embedded
// relational database that parses a small SQL subset and persists tables
// through VFS→9PFS (§VI: seven components, no network). The Fig. 7
// workload — 10,000 single-byte inserts — runs through Exec, each insert
// appending a row record to the table file.
package sqlite

import (
	"fmt"
	"strings"

	"vampos/internal/unikernel"
)

// Dir is the database directory on the guest file system.
const Dir = "/db"

// fieldSep separates row fields in the on-disk record format.
const fieldSep = "\x1f"

// table is one loaded table: schema, row cache, and its open file.
type table struct {
	name string
	cols []string
	rows [][]string
	fd   int
}

// App is the embedded database application.
type App struct {
	// SyncWrites issues fsync after every insert, modelling SQLite's
	// durable transaction commits.
	SyncWrites bool

	tables map[string]*table

	// Stats
	Inserts, Selects, Deletes uint64
}

// New creates the database with synchronous writes enabled.
func New() *App { return &App{SyncWrites: true} }

// Name implements unikernel.App.
func (a *App) Name() string { return "sqlite" }

// Profile returns the instance profile for SQLite (paper §VI: PROCESS,
// SYSINFO, USER, TIME, VFS, 9PFS, VIRTIO — no network).
func (a *App) Profile(cfg unikernel.Config) unikernel.Config {
	cfg.FS = true
	cfg.Net = false
	cfg.Sysinfo = true
	return cfg
}

// Main implements unikernel.App: prepare the database directory and
// reload any existing tables.
func (a *App) Main(s *unikernel.Sys) error {
	a.tables = make(map[string]*table)
	if _, _, err := s.Stat(Dir); err != nil {
		if err := s.Mkdir(Dir); err != nil {
			return fmt.Errorf("sqlite: mkdir %s: %w", Dir, err)
		}
	}
	names, err := s.ReadDir(Dir)
	if err != nil {
		return nil
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tbl") {
			if err := a.loadTable(s, strings.TrimSuffix(n, ".tbl")); err != nil {
				return err
			}
		}
	}
	return nil
}

// Result is a query result: column names plus matching rows.
type Result struct {
	Cols []string
	Rows [][]string
	// Count carries COUNT(*) results and affected-row counts.
	Count int
}

// Exec parses and executes one SQL statement.
func (a *App) Exec(s *unikernel.Sys, sql string) (*Result, error) {
	toks, err := tokenize(sql)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("sqlite: empty statement")
	}
	switch strings.ToUpper(toks[0]) {
	case "CREATE":
		return a.execCreate(s, toks)
	case "INSERT":
		return a.execInsert(s, toks)
	case "SELECT":
		return a.execSelect(toks)
	case "DELETE":
		return a.execDelete(s, toks)
	case "DROP":
		return a.execDrop(s, toks)
	default:
		return nil, fmt.Errorf("sqlite: unsupported statement %q", toks[0])
	}
}

// tokenize splits SQL into tokens; quoted strings ('it”s') become
// single tokens carrying a quote marker prefix.
func tokenize(sql string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';':
			i++
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '=':
			toks = append(toks, string(c))
			i++
		case c == '\'':
			j := i + 1
			var b strings.Builder
			for {
				if j >= len(sql) {
					return nil, fmt.Errorf("sqlite: unterminated string literal")
				}
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						b.WriteByte('\'')
						j += 2
						continue
					}
					j++
					break
				}
				b.WriteByte(sql[j])
				j++
			}
			toks = append(toks, "'"+b.String())
			i = j
		default:
			j := i
			for j < len(sql) && !strings.ContainsRune(" \t\n\r();,*='", rune(sql[j])) {
				j++
			}
			toks = append(toks, sql[i:j])
			i = j
		}
	}
	return toks, nil
}

func isString(tok string) bool { return strings.HasPrefix(tok, "'") }

func literal(tok string) string {
	if isString(tok) {
		return tok[1:]
	}
	return tok
}

// expect consumes one token, case-insensitively.
func expect(toks []string, i int, want string) (int, error) {
	if i >= len(toks) || !strings.EqualFold(toks[i], want) {
		got := "<end>"
		if i < len(toks) {
			got = toks[i]
		}
		return i, fmt.Errorf("sqlite: expected %q, got %q", want, got)
	}
	return i + 1, nil
}

func (a *App) execCreate(s *unikernel.Sys, toks []string) (*Result, error) {
	i, err := expect(toks, 1, "TABLE")
	if err != nil {
		return nil, err
	}
	if i >= len(toks) {
		return nil, fmt.Errorf("sqlite: missing table name")
	}
	name := strings.ToLower(toks[i])
	i++
	if _, dup := a.tables[name]; dup {
		return nil, fmt.Errorf("sqlite: table %q already exists", name)
	}
	if i, err = expect(toks, i, "("); err != nil {
		return nil, err
	}
	var cols []string
	for i < len(toks) && toks[i] != ")" {
		if toks[i] == "," {
			i++
			continue
		}
		cols = append(cols, strings.ToLower(toks[i]))
		i++
		// Skip an optional type name (TEXT, INTEGER…).
		if i < len(toks) && toks[i] != "," && toks[i] != ")" {
			i++
		}
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqlite: table %q needs columns", name)
	}
	t := &table{name: name, cols: cols, fd: -1}
	if err := a.openTableFile(s, t, true); err != nil {
		return nil, err
	}
	// Persist the schema as the first record.
	if err := a.appendRecord(s, t, append([]string{"@schema"}, cols...)); err != nil {
		return nil, err
	}
	a.tables[name] = t
	return &Result{}, nil
}

func (a *App) openTableFile(s *unikernel.Sys, t *table, create bool) error {
	flags := unikernel.OWronly | unikernel.OAppend
	if create {
		flags |= unikernel.OCreate
	}
	fd, err := s.Open(Dir+"/"+t.name+".tbl", flags)
	if err != nil {
		return err
	}
	t.fd = fd
	return nil
}

func (a *App) appendRecord(s *unikernel.Sys, t *table, fields []string) error {
	line := strings.Join(fields, fieldSep) + "\n"
	if _, err := s.Write(t.fd, []byte(line)); err != nil {
		return err
	}
	if a.SyncWrites {
		return s.Fsync(t.fd)
	}
	return nil
}

// loadTable reads a table file back into memory (boot after restart).
func (a *App) loadTable(s *unikernel.Sys, name string) error {
	path := Dir + "/" + name + ".tbl"
	fd, err := s.Open(path, unikernel.ORdonly)
	if err != nil {
		return err
	}
	var raw []byte
	for {
		data, eof, err := s.ReadNB(fd, 1<<16)
		if err != nil {
			_ = s.Close(fd)
			return err
		}
		raw = append(raw, data...)
		if eof || len(data) == 0 {
			break
		}
	}
	if err := s.Close(fd); err != nil {
		return err
	}
	t := &table{name: name, fd: -1}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, fieldSep)
		if fields[0] == "@schema" {
			t.cols = fields[1:]
			continue
		}
		t.rows = append(t.rows, fields)
	}
	if t.cols == nil {
		return fmt.Errorf("sqlite: table file %s has no schema record", path)
	}
	if err := a.openTableFile(s, t, false); err != nil {
		return err
	}
	a.tables[name] = t
	return nil
}

func (a *App) execInsert(s *unikernel.Sys, toks []string) (*Result, error) {
	i, err := expect(toks, 1, "INTO")
	if err != nil {
		return nil, err
	}
	if i >= len(toks) {
		return nil, fmt.Errorf("sqlite: missing table name")
	}
	t, ok := a.tables[strings.ToLower(toks[i])]
	if !ok {
		return nil, fmt.Errorf("sqlite: no such table %q", toks[i])
	}
	i++
	if i, err = expect(toks, i, "VALUES"); err != nil {
		return nil, err
	}
	if i, err = expect(toks, i, "("); err != nil {
		return nil, err
	}
	var vals []string
	for i < len(toks) && toks[i] != ")" {
		if toks[i] == "," {
			i++
			continue
		}
		vals = append(vals, literal(toks[i]))
		i++
	}
	if len(vals) != len(t.cols) {
		return nil, fmt.Errorf("sqlite: table %s has %d columns, got %d values", t.name, len(t.cols), len(vals))
	}
	if err := a.appendRecord(s, t, vals); err != nil {
		return nil, err
	}
	t.rows = append(t.rows, vals)
	a.Inserts++
	return &Result{Count: 1}, nil
}

// parseWhere parses an optional "WHERE col = 'val'" clause.
func (a *App) parseWhere(t *table, toks []string, i int) (col int, val string, has bool, err error) {
	if i >= len(toks) {
		return 0, "", false, nil
	}
	if !strings.EqualFold(toks[i], "WHERE") {
		return 0, "", false, fmt.Errorf("sqlite: unexpected token %q", toks[i])
	}
	i++
	if i+2 >= len(toks) || toks[i+1] != "=" {
		return 0, "", false, fmt.Errorf("sqlite: malformed WHERE clause")
	}
	name := strings.ToLower(toks[i])
	for ci, cn := range t.cols {
		if cn == name {
			return ci, literal(toks[i+2]), true, nil
		}
	}
	return 0, "", false, fmt.Errorf("sqlite: no such column %q", name)
}

func (a *App) execSelect(toks []string) (*Result, error) {
	i := 1
	count := false
	switch {
	case i < len(toks) && toks[i] == "*":
		i++
	case i+3 < len(toks) && strings.EqualFold(toks[i], "COUNT") && toks[i+1] == "(" && toks[i+2] == "*" && toks[i+3] == ")":
		count = true
		i += 4
	default:
		return nil, fmt.Errorf("sqlite: only SELECT * and SELECT COUNT(*) are supported")
	}
	var err error
	if i, err = expect(toks, i, "FROM"); err != nil {
		return nil, err
	}
	if i >= len(toks) {
		return nil, fmt.Errorf("sqlite: missing table name")
	}
	t, ok := a.tables[strings.ToLower(toks[i])]
	if !ok {
		return nil, fmt.Errorf("sqlite: no such table %q", toks[i])
	}
	i++
	col, val, hasWhere, err := a.parseWhere(t, toks, i)
	if err != nil {
		return nil, err
	}
	a.Selects++
	res := &Result{Cols: t.cols}
	for _, row := range t.rows {
		if hasWhere && row[col] != val {
			continue
		}
		if !count {
			res.Rows = append(res.Rows, row)
		}
		res.Count++
	}
	return res, nil
}

func (a *App) execDelete(s *unikernel.Sys, toks []string) (*Result, error) {
	i, err := expect(toks, 1, "FROM")
	if err != nil {
		return nil, err
	}
	if i >= len(toks) {
		return nil, fmt.Errorf("sqlite: missing table name")
	}
	t, ok := a.tables[strings.ToLower(toks[i])]
	if !ok {
		return nil, fmt.Errorf("sqlite: no such table %q", toks[i])
	}
	i++
	col, val, hasWhere, err := a.parseWhere(t, toks, i)
	if err != nil {
		return nil, err
	}
	kept := t.rows[:0]
	removed := 0
	for _, row := range t.rows {
		if !hasWhere || row[col] == val {
			removed++
			continue
		}
		kept = append(kept, row)
	}
	t.rows = kept
	a.Deletes += uint64(removed)
	if removed > 0 {
		if err := a.rewriteTable(s, t); err != nil {
			return nil, err
		}
	}
	return &Result{Count: removed}, nil
}

// rewriteTable compacts a table file after deletions.
func (a *App) rewriteTable(s *unikernel.Sys, t *table) error {
	if t.fd >= 0 {
		if err := s.Close(t.fd); err != nil {
			return err
		}
	}
	fd, err := s.Open(Dir+"/"+t.name+".tbl", unikernel.OCreate|unikernel.OWronly|unikernel.OTrunc)
	if err != nil {
		return err
	}
	t.fd = fd
	if err := a.appendRecord(s, t, append([]string{"@schema"}, t.cols...)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := a.appendRecord(s, t, row); err != nil {
			return err
		}
	}
	return nil
}

func (a *App) execDrop(s *unikernel.Sys, toks []string) (*Result, error) {
	i, err := expect(toks, 1, "TABLE")
	if err != nil {
		return nil, err
	}
	if i >= len(toks) {
		return nil, fmt.Errorf("sqlite: missing table name")
	}
	name := strings.ToLower(toks[i])
	t, ok := a.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqlite: no such table %q", name)
	}
	if t.fd >= 0 {
		if err := s.Close(t.fd); err != nil {
			return nil, err
		}
	}
	if err := s.Unlink(Dir + "/" + name + ".tbl"); err != nil {
		return nil, err
	}
	delete(a.tables, name)
	return &Result{}, nil
}

var _ unikernel.App = (*App)(nil)
