package columnar_test

import (
	"slices"

	"dashdb/internal/columnar"
	"dashdb/internal/sql"
	"dashdb/internal/types"
	"dashdb/internal/vec"
)

func init() { columnar.SetPlacedLoad(placeAppend) }

// placeAppend appends rows as an INSERT with a column list does: the rows
// cut into three batches (vec.FromRows), each row's values in the reverse
// of the schema's order, which the statement's column list names; Place
// maps them back, and one Append takes all three, or none.
func placeAppend(tbl *columnar.Table, rows []types.Row) error {
	schema := tbl.Schema()
	stmt := &sql.InsertStmt{Table: "p"}
	for j := len(schema) - 1; j >= 0; j-- {
		stmt.Columns = append(stmt.Columns, schema[j].Name)
	}
	var bs []*vec.Batch
	step := max(1, (len(rows)+2)/3)
	for a := 0; a < len(rows); a += step {
		part := make([]types.Row, 0, step)
		for _, r := range rows[a:min(a+step, len(rows))] {
			rev := slices.Clone(r)
			slices.Reverse(rev)
			part = append(part, rev)
		}
		bs = append(bs, vec.FromRows(nil, part))
	}
	if err := stmt.Place(schema, bs); err != nil {
		return err
	}
	_, err := tbl.Append(bs...)
	return err
}
