package encoding

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dashdb/internal/types"
)

// Encoder persistence: dictionaries and frames of reference serialize so
// a column-organized table can be closed and reopened from the clustered
// filesystem (the §II.E portability/DR story). The format is gob over a
// small DTO (values gob themselves, types/gob.go); codes are stable across
// a round trip, so existing pages stay valid.

// encSnapshot is the on-disk encoder state.
type encSnapshot struct {
	Tag   uint8 // 1 = IntFOR, 2 = Dict, 3 = FloatFOR
	Kind  uint8 // types.Kind the encoder decodes into
	Base  int64
	Limit uint64
	Scale float64
	// Dict state: partitions hold sorted values in code order; Ext holds
	// extension-region values in code order.
	Parts [][]types.Value
	Ext   []types.Value
}

// MarshalEncoder serializes any built-in encoder.
func MarshalEncoder(e Encoder) ([]byte, error) {
	var snap encSnapshot
	switch enc := e.(type) {
	case *IntFOR:
		snap = encSnapshot{Tag: 1, Kind: uint8(enc.kind), Base: enc.base, Limit: enc.limit}
	case *FloatFOR:
		snap = encSnapshot{Tag: 3, Kind: uint8(types.KindFloat), Base: enc.inner.base, Limit: enc.inner.limit, Scale: enc.scale}
	case *Dict:
		enc.mu.RLock()
		snap = encSnapshot{Tag: 2, Kind: uint8(enc.kind)}
		for i := range enc.parts {
			p := &enc.parts[i]
			vals := make([]types.Value, p.len())
			for j := range vals {
				vals[j] = p.get(j, enc.kind)
			}
			snap.Parts = append(snap.Parts, vals)
		}
		snap.Ext = append(snap.Ext, enc.extension...)
		enc.mu.RUnlock()
	default:
		return nil, fmt.Errorf("encoding: cannot marshal encoder %T", e)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalEncoder reconstructs an encoder; code assignments are
// identical to the original's, so packed pages remain decodable.
func UnmarshalEncoder(data []byte) (Encoder, error) {
	var snap encSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("encoding: unmarshal encoder: %w", err)
	}
	kind := types.Kind(snap.Kind)
	switch snap.Tag {
	case 1:
		return &IntFOR{base: snap.Base, limit: snap.Limit, width: widthForSpan(snap.Limit), kind: kind}, nil
	case 3:
		return &FloatFOR{
			inner: &IntFOR{base: snap.Base, limit: snap.Limit, width: widthForSpan(snap.Limit), kind: types.KindInt},
			scale: snap.Scale,
		}, nil
	case 2:
		d := &Dict{kind: kind, lookup: newCodeMap(kind, 0)}
		for _, part := range snap.Parts {
			d.addPartition(part)
		}
		d.extStart = d.card
		for _, v := range snap.Ext {
			d.Encode(v)
		}
		return d, nil
	default:
		return nil, fmt.Errorf("encoding: unknown encoder tag %d", snap.Tag)
	}
}
