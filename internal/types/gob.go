package types

import "fmt"

// Value's fields are unexported, so it implements gob.GobEncoder and
// gob.GobDecoder itself: a gob Value is one cell of the codec in codec.go.
// This is what lets the MPP wire protocol gob-ship parsed statements,
// whose Literal nodes hold Values, without a SQL renderer.

// GobEncode implements gob.GobEncoder.
func (v Value) GobEncode() ([]byte, error) { return appendCells(make([]byte, 0, 12), Row{v}, nil) }

// GobDecode implements gob.GobDecoder.
func (v *Value) GobDecode(b []byte) error {
	var one [1]Value
	row, err := DecodeCells(one[:0], b, nil)
	if err == nil && len(row) != 1 {
		err = fmt.Errorf("types: gob value of %d cells", len(row))
	}
	if err == nil {
		*v = row[0]
	}
	return err
}
