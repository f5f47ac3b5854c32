package types

import "fmt"

// Value's fields are unexported, so it implements gob.GobEncoder and
// gob.GobDecoder itself: a gob Value is one cell of the codec in codec.go.
// The one gob payload that still holds Values is a dictionary encoder's
// snapshot (encoding.MarshalEncoder), which a table's saved metadata
// (columnar SaveMeta) carries.

// GobEncode implements gob.GobEncoder.
func (v Value) GobEncode() ([]byte, error) { return AppendCell(make([]byte, 0, 12), v) }

// GobDecode implements gob.GobDecoder.
func (v *Value) GobDecode(b []byte) error {
	val, n, err := DecodeCell(b)
	if err == nil && n != len(b) {
		err = fmt.Errorf("types: gob value with %d trailing bytes", len(b)-n)
	}
	if err == nil {
		*v = val
	}
	return err
}
