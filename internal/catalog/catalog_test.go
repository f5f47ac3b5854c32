package catalog

import (
	"testing"

	"dashdb/internal/columnar"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

func newTable(c *Catalog, name string) *columnar.Table {
	return columnar.NewTable(c.NextTableID(), name, types.Schema{
		{Name: "a", Kind: types.KindInt},
	}, columnar.Config{})
}

func TestTableLifecycle(t *testing.T) {
	c := New()
	tbl := newTable(c, "t1")
	if err := c.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(newTable(c, "t1")); err == nil {
		t.Fatal("duplicate create must fail")
	}
	got, ok := c.Table("T1") // case-insensitive
	if !ok || got != tbl {
		t.Fatal("lookup failed")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "t1" {
		t.Fatalf("names %v", names)
	}
	if err := c.DropTable("t1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t1"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestViewsRecordDialect(t *testing.T) {
	c := New()
	if err := c.CreateView("v", "SELECT 1", "ORACLE"); err != nil {
		t.Fatal(err)
	}
	v, ok := c.View("V")
	if !ok || v.Dialect != "ORACLE" {
		t.Fatalf("%+v", v)
	}
	if err := c.CreateView("v", "SELECT 2", "ANSI"); err == nil {
		t.Fatal("duplicate view must fail")
	}
	if err := c.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.View("v"); ok {
		t.Fatal("dropped view visible")
	}
}

func TestSequences(t *testing.T) {
	c := New()
	if err := c.CreateSequence("s", 10, 5); err != nil {
		t.Fatal(err)
	}
	s, ok := c.Sequence("S")
	if !ok {
		t.Fatal("lookup")
	}
	if _, err := s.CurrVal(); err == nil {
		t.Fatal("CURRVAL before NEXTVAL must fail (Oracle semantics)")
	}
	if v := s.NextVal(); v != 10 {
		t.Fatalf("nextval %d", v)
	}
	if v, _ := s.CurrVal(); v != 10 {
		t.Fatalf("currval %d", v)
	}
	if v := s.NextVal(); v != 15 {
		t.Fatalf("nextval 2 %d", v)
	}
	// Zero increment defaults to 1.
	c.CreateSequence("z", 0, 0)
	z, _ := c.Sequence("z")
	z.NextVal()
	if v := z.NextVal(); v != 1 {
		t.Fatalf("default incr: %d", v)
	}
	if err := c.DropSequence("s"); err != nil {
		t.Fatal(err)
	}
}

type fakeSource struct{ rows []types.Row }

func (f *fakeSource) Schema() types.Schema { return types.Schema{{Name: "x", Kind: types.KindInt}} }
func (f *fakeSource) ScanAll() ([]*vec.Batch, error) {
	return []*vec.Batch{vec.FromRows(f.Schema(), f.rows)}, nil
}

func TestNicknames(t *testing.T) {
	c := New()
	src := &fakeSource{rows: []types.Row{{types.NewInt(1)}}}
	if err := c.CreateNickname("remote", src); err != nil {
		t.Fatal(err)
	}
	n, ok := c.Nickname("REMOTE")
	if !ok || n.Source != RemoteSource(src) {
		t.Fatal("nickname lookup")
	}
	// Name collision with a table.
	if err := c.CreateTable(newTable(c, "remote")); err == nil {
		t.Fatal("nickname/table collision must fail")
	}
	if err := c.DropNickname("remote"); err != nil {
		t.Fatal(err)
	}
}

func TestAliases(t *testing.T) {
	c := New()
	c.CreateTable(newTable(c, "base"))
	if err := c.CreateAlias("syn", "base"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateAlias("bad", "ghost"); err == nil {
		t.Fatal("alias to missing target must fail")
	}
	if _, ok := c.Table("syn"); !ok {
		t.Fatal("alias resolution failed")
	}
	// Alias to alias.
	if err := c.CreateAlias("syn2", "syn"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("syn2"); !ok {
		t.Fatal("chained alias failed")
	}
}

func TestNextTableIDUnique(t *testing.T) {
	c := New()
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		id := c.NextTableID()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}
