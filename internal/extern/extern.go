// Package extern implements the paper's future-work items (§VI):
// "Improve support for Schema on Read" and "Support for Big Data
// Analytics on JSON data" (plus the spirit of "common Big Data storage
// formats"). External tables read raw CSV or JSON-lines data at query
// time — schema inferred on read, no load step — and plug into the
// engine through the same nickname mechanism as Fluid Query, so they are
// queryable with plain SQL and joinable against columnar tables.
package extern

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dashdb/internal/catalog"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

// inferKind guesses a column type from sample strings: BIGINT if every
// non-empty value parses as an integer, DOUBLE if numeric, DATE if every
// value is a date literal, else VARCHAR.
func inferKind(samples []string) types.Kind {
	allInt, allFloat, allDate := true, true, true
	seen := false
	for _, s := range samples {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		seen = true
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			allInt = false
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			allFloat = false
		}
		if _, err := types.ParseDate(s); err != nil {
			allDate = false
		}
	}
	switch {
	case !seen:
		return types.KindString
	case allInt:
		return types.KindInt
	case allFloat:
		return types.KindFloat
	case allDate:
		return types.KindDate
	default:
		return types.KindString
	}
}

// parseAs converts a raw string to a value of the inferred kind; empty
// strings become NULL (schema-on-read's lenient reading).
func parseAs(s string, k types.Kind) types.Value {
	s = strings.TrimSpace(s)
	if s == "" {
		return types.NullOf(k)
	}
	v, err := types.Coerce(types.NewString(s), k)
	if err != nil {
		return types.NullOf(k)
	}
	return v
}

// --- CSV ----------------------------------------------------------------------

// CSVTable is a schema-on-read external table over CSV text with a header
// row. It implements catalog.RemoteSource.
type CSVTable struct {
	name   string
	schema types.Schema
	rows   []types.Row
}

// inferSampleRows caps how many records type inference examines.
const inferSampleRows = 1000

// NewCSVTable parses CSV data (first record = header) and infers column
// types from the leading rows.
func NewCSVTable(name, data string) (*CSVTable, error) {
	r := csv.NewReader(strings.NewReader(data))
	r.TrimLeadingSpace = true
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("extern: csv %s: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("extern: csv %s: empty input", name)
	}
	header := records[0]
	body := records[1:]

	t := &CSVTable{name: name}
	for ci, col := range header {
		var samples []string
		for i, rec := range body {
			if i >= inferSampleRows {
				break
			}
			if ci < len(rec) {
				samples = append(samples, rec[ci])
			}
		}
		t.schema = append(t.schema, types.Column{
			Name: strings.TrimSpace(col), Kind: inferKind(samples), Nullable: true,
		})
	}
	for _, rec := range body {
		row := make(types.Row, len(t.schema))
		for ci := range t.schema {
			if ci < len(rec) {
				row[ci] = parseAs(rec[ci], t.schema[ci].Kind)
			} else {
				row[ci] = types.NullOf(t.schema[ci].Kind)
			}
		}
		t.rows = append(t.rows, row)
	}
	return t, nil
}

// Schema implements catalog.RemoteSource.
func (t *CSVTable) Schema() types.Schema { return t.schema }

// ScanAll implements catalog.RemoteSource.
func (t *CSVTable) ScanAll() ([]*vec.Batch, error) {
	return []*vec.Batch{vec.FromRows(t.schema, t.rows)}, nil
}

// --- JSON lines -----------------------------------------------------------------

// JSONTable is a schema-on-read external table over JSON-lines text: one
// JSON object per line; columns are the union of top-level keys, sorted.
// Nested objects and arrays surface as JSON text columns, queryable with
// JSON_VALUE.
type JSONTable struct {
	name   string
	schema types.Schema
	rows   []types.Row
}

// NewJSONTable parses JSON-lines data.
func NewJSONTable(name, data string) (*JSONTable, error) {
	var objs []map[string]interface{}
	dec := json.NewDecoder(strings.NewReader(data))
	for dec.More() {
		var obj map[string]interface{}
		if err := dec.Decode(&obj); err != nil {
			return nil, fmt.Errorf("extern: json %s: %w", name, err)
		}
		objs = append(objs, obj)
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("extern: json %s: no objects", name)
	}
	// Column discovery: union of keys.
	keySet := map[string]bool{}
	for _, o := range objs {
		for k := range o {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	t := &JSONTable{name: name}
	// Kind inference per key.
	for _, k := range keys {
		kind := types.KindString
		allNum, allInt, allBool := true, true, true
		seen := false
		for _, o := range objs {
			v, ok := o[k]
			if !ok || v == nil {
				continue
			}
			seen = true
			switch n := v.(type) {
			case float64:
				allBool = false
				if n != float64(int64(n)) {
					allInt = false
				}
			case bool:
				allNum, allInt = false, false
			default:
				allNum, allInt, allBool = false, false, false
			}
		}
		switch {
		case !seen:
			kind = types.KindString
		case allInt && allNum:
			kind = types.KindInt
		case allNum:
			kind = types.KindFloat
		case allBool:
			kind = types.KindBool
		}
		t.schema = append(t.schema, types.Column{Name: k, Kind: kind, Nullable: true})
	}
	for _, o := range objs {
		row := make(types.Row, len(t.schema))
		for ci, col := range t.schema {
			v, ok := o[col.Name]
			if !ok || v == nil {
				row[ci] = types.NullOf(col.Kind)
				continue
			}
			row[ci] = jsonToValue(v, col.Kind)
		}
		t.rows = append(t.rows, row)
	}
	return t, nil
}

// jsonToValue converts a decoded JSON value to the column's kind; nested
// structures re-serialize to JSON text.
func jsonToValue(v interface{}, kind types.Kind) types.Value {
	switch n := v.(type) {
	case float64:
		if kind == types.KindInt {
			return types.NewInt(int64(n))
		}
		if kind == types.KindFloat {
			return types.NewFloat(n)
		}
		return types.NewString(strconv.FormatFloat(n, 'g', -1, 64))
	case bool:
		if kind == types.KindBool {
			return types.NewBool(n)
		}
		return types.NewString(strconv.FormatBool(n))
	case string:
		return types.NewString(n)
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			return types.NullOf(kind)
		}
		return types.NewString(string(raw))
	}
}

// Schema implements catalog.RemoteSource.
func (t *JSONTable) Schema() types.Schema { return t.schema }

// ScanAll implements catalog.RemoteSource.
func (t *JSONTable) ScanAll() ([]*vec.Batch, error) {
	return []*vec.Batch{vec.FromRows(t.schema, t.rows)}, nil
}

// RegisterCSV registers CSV text as an external table nickname.
func RegisterCSV(cat *catalog.Catalog, name, data string) error {
	t, err := NewCSVTable(name, data)
	if err != nil {
		return err
	}
	return cat.CreateNickname(name, t)
}

// RegisterJSON registers JSON-lines text as an external table nickname.
func RegisterJSON(cat *catalog.Catalog, name, data string) error {
	t, err := NewJSONTable(name, data)
	if err != nil {
		return err
	}
	return cat.CreateNickname(name, t)
}
