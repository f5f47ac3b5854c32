package columnar

import "dashdb/internal/types"

// placedLoad, when the external tests set it (place_test.go), is one more
// way loadEveryWay loads a flush: as an INSERT with a column list does,
// through sql.InsertStmt.Place, which this package cannot import.
var placedLoad func(tbl *Table, rows []types.Row) error

// SetPlacedLoad sets placedLoad.
func SetPlacedLoad(load func(tbl *Table, rows []types.Row) error) { placedLoad = load }
