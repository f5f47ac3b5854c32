package extern

import (
	"testing"

	"dashdb/internal/core"
	"dashdb/internal/jsonpath"
	"dashdb/internal/types"
)

const sampleCSV = `id,city,population,founded
1, springfield, 30000, 1820-05-01
2, shelbyville, 25000, 1835-07-04
3, ogdenville, , 1890-01-15
`

func TestCSVSchemaInference(t *testing.T) {
	tbl, err := NewCSVTable("cities", sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	sch := tbl.Schema()
	if len(sch) != 4 {
		t.Fatalf("schema %v", sch)
	}
	wantKinds := []types.Kind{types.KindInt, types.KindString, types.KindInt, types.KindDate}
	for i, k := range wantKinds {
		if sch[i].Kind != k {
			t.Errorf("col %s kind %v want %v", sch[i].Name, sch[i].Kind, k)
		}
	}
	rows, _ := tbl.ScanAll()
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	if !rows[2][2].IsNull() {
		t.Error("empty cell must read as NULL")
	}
	if rows[0][3].String() != "1820-05-01" {
		t.Errorf("date parse %v", rows[0][3])
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := NewCSVTable("x", ""); err == nil {
		t.Error("empty CSV must fail")
	}
	if _, err := NewCSVTable("x", "a,b\n\"unterminated"); err == nil {
		t.Error("malformed CSV must fail")
	}
}

func TestCSVThroughSQL(t *testing.T) {
	db := core.Open(core.Config{BufferPoolBytes: 4 << 20})
	if err := RegisterCSV(db.Catalog(), "cities", sampleCSV); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	r, err := sess.Exec(`SELECT city FROM cities WHERE population > 26000`)
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Str() != "springfield" {
		t.Fatalf("%v err %v", r, err)
	}
	// Aggregate over inferred types.
	r, err = sess.Exec(`SELECT SUM(population), MIN(founded) FROM cities`)
	if err != nil || r.Rows[0][0].Int() != 55000 {
		t.Fatalf("%v err %v", r, err)
	}
}

const sampleJSON = `
{"user": "ann",  "clicks": 10, "premium": true,  "tags": ["a","b"], "meta": {"ref": "ad1"}}
{"user": "bob",  "clicks": 3,  "premium": false}
{"user": "cass", "clicks": 7,  "premium": true,  "score": 1.5}
`

func TestJSONSchemaOnRead(t *testing.T) {
	tbl, err := NewJSONTable("events", sampleJSON)
	if err != nil {
		t.Fatal(err)
	}
	sch := tbl.Schema()
	// Columns: clicks, meta, premium, score, tags, user (sorted).
	if len(sch) != 6 || sch[0].Name != "clicks" || sch[5].Name != "user" {
		t.Fatalf("schema %v", sch.Names())
	}
	if sch[0].Kind != types.KindInt || sch[2].Kind != types.KindBool || sch[3].Kind != types.KindFloat {
		t.Fatalf("kinds of %v", sch)
	}
	rows, _ := tbl.ScanAll()
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	// Missing keys are NULL; nested values are JSON text.
	if !rows[1][3].IsNull() { // bob has no score
		t.Error("missing key must be NULL")
	}
	if rows[0][4].Str() != `["a","b"]` {
		t.Errorf("nested array: %v", rows[0][4])
	}
}

func TestJSONThroughSQLWithJSONValue(t *testing.T) {
	db := core.Open(core.Config{BufferPoolBytes: 4 << 20})
	if err := RegisterJSON(db.Catalog(), "events", sampleJSON); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	r, err := sess.Exec(`SELECT SUM(clicks) FROM events WHERE premium = TRUE`)
	if err != nil || r.Rows[0][0].Int() != 17 {
		t.Fatalf("%v err %v", r, err)
	}
	// JSON_VALUE over the nested column.
	r, err = sess.Exec(`SELECT JSON_VALUE(meta, '$.ref') FROM events WHERE user = 'ann'`)
	if err != nil || r.Rows[0][0].Str() != "ad1" {
		t.Fatalf("%v err %v", r, err)
	}
	r, err = sess.Exec(`SELECT JSON_VALUE(tags, '$[1]'), JSON_ARRAY_LENGTH(tags) FROM events WHERE user = 'ann'`)
	if err != nil || r.Rows[0][0].Str() != "b" || r.Rows[0][1].Int() != 2 {
		t.Fatalf("%v err %v", r, err)
	}
}

func TestJSONErrors(t *testing.T) {
	if _, err := NewJSONTable("x", ""); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := NewJSONTable("x", `{"a": `); err == nil {
		t.Error("malformed JSON must fail")
	}
}

func TestJSONPathExtract(t *testing.T) {
	var doc interface{} = map[string]interface{}{
		"a": map[string]interface{}{
			"b": []interface{}{1.0, 2.0, map[string]interface{}{"c": "deep"}},
		},
	}
	cases := []struct {
		path string
		want interface{}
		ok   bool
	}{
		{"$.a.b[0]", 1.0, true},
		{"$.a.b[2].c", "deep", true},
		{"$.a.b[9]", nil, false},
		{"$.missing", nil, false},
		{"$", doc, true},
		{"a.b[1]", 2.0, true},
	}
	for _, c := range cases {
		got, ok := jsonpath.Extract(doc, c.path)
		if ok != c.ok {
			t.Errorf("path %q ok=%v", c.path, ok)
			continue
		}
		if ok && c.path != "$" && got != c.want {
			t.Errorf("path %q got %v want %v", c.path, got, c.want)
		}
	}
}
