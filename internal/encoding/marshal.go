package encoding

import (
	"encoding/binary"
	"fmt"

	"dashdb/internal/types"
)

// Encoder persistence: dictionaries and frames of reference serialize so
// a column-organized table can be closed and reopened from the clustered
// filesystem (the §II.E portability/DR story); codes are stable across a
// round trip, so existing pages stay valid. A snapshot is a types.Reader
// message behind the types.BlobEncoder header, then a tag byte and the
// kind the encoder decodes into:
//
//	IntFOR    varint base, uvarint limit
//	FloatFOR  varint base, uvarint limit, DOUBLE scale
//	Dict      its partitions as a list of typed runs of their sorted
//	          values, then the extension region's run in code order
//
// A typed run is its uvarint length and the values as their kind holds
// them: a VARCHAR's string, a DOUBLE's 8 bytes, a BOOLEAN's bool byte, any
// other kind's varint. A snapshot is self-delimiting, so a table's
// metadata (columnar SaveMeta) carries one per column inline.

const (
	tagIntFOR   = 1
	tagDict     = 2
	tagFloatFOR = 3
)

// AppendEncoder appends a snapshot of any built-in encoder to dst.
func AppendEncoder(dst []byte, e Encoder) ([]byte, error) {
	dst = types.AppendHeader(dst, types.BlobEncoder)
	switch enc := e.(type) {
	case *IntFOR:
		dst = append(dst, tagIntFOR, byte(enc.kind))
		return binary.AppendUvarint(binary.AppendVarint(dst, enc.base), enc.limit), nil
	case *FloatFOR:
		dst = append(dst, tagFloatFOR, byte(types.KindFloat))
		dst = binary.AppendUvarint(binary.AppendVarint(dst, enc.inner.base), enc.inner.limit)
		return types.AppendFloat64(dst, enc.scale), nil
	case *Dict:
		enc.mu.RLock()
		defer enc.mu.RUnlock()
		dst = append(dst, tagDict, byte(enc.kind))
		dst = binary.AppendUvarint(dst, uint64(len(enc.parts)))
		var err error
		for i := range enc.parts {
			p := &enc.parts[i]
			if dst, err = appendRun(dst, enc.kind, enc.decoded[p.start:p.start+uint64(p.len())]); err != nil {
				return dst, err
			}
		}
		return appendRun(dst, enc.kind, enc.extension)
	default:
		return dst, fmt.Errorf("encoding: cannot marshal encoder %T", e)
	}
}

// ReadEncoder reads a snapshot AppendEncoder wrote; code assignments are
// identical to the original's, so packed pages remain decodable. A
// snapshot that does not read fails r and returns nil.
func ReadEncoder(r *types.Reader) Encoder {
	r.Header(types.BlobEncoder)
	tag, kind := r.Byte(), types.Kind(r.Byte())
	switch {
	case r.Err() != nil:
		return nil
	case tag == tagIntFOR:
		base, limit := r.Varint(), r.Uvarint()
		return &IntFOR{base: base, limit: limit, width: widthForSpan(limit), kind: kind}
	case tag == tagFloatFOR:
		base, limit := r.Varint(), r.Uvarint()
		return &FloatFOR{
			inner: &IntFOR{base: base, limit: limit, width: widthForSpan(limit), kind: types.KindInt},
			scale: r.Float64(),
		}
	case tag == tagDict:
		d := &Dict{kind: kind, lookup: newCodeMap(kind, 0)}
		for n := r.Count(); n > 0; n-- {
			part := readRun(r, kind)
			for i := 1; i < len(part); i++ {
				if types.Compare(part[i-1], part[i]) > 0 {
					r.Fail(fmt.Errorf("dictionary partition out of order at %v", part[i]))
					return nil
				}
			}
			d.addPartition(part)
		}
		d.extStart = d.card
		for _, v := range readRun(r, kind) {
			d.Encode(v)
		}
		if r.Err() != nil {
			return nil
		}
		return d
	default:
		r.Fail(fmt.Errorf("unknown encoder tag %d", tag))
		return nil
	}
}

// appendRun appends vals, non-NULL values of kind, as one typed run.
func appendRun(dst []byte, kind types.Kind, vals []types.Value) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		if v.Kind() != kind || v.IsNull() {
			return dst, fmt.Errorf("encoding: cannot marshal %v of %v in a dictionary of %v", v, v.Kind(), kind)
		}
		switch kind {
		case types.KindString:
			dst = types.AppendStr(dst, v.Str())
		case types.KindFloat:
			dst = types.AppendFloat64(dst, v.Float())
		case types.KindBool:
			dst = types.AppendBool(dst, v.Bool())
		case types.KindInt, types.KindDate, types.KindTimestamp:
			dst = binary.AppendVarint(dst, v.Int())
		default:
			return dst, fmt.Errorf("encoding: cannot marshal a dictionary of %v", kind)
		}
	}
	return dst, nil
}

// readRun reads a typed run of kind's values.
func readRun(r *types.Reader, kind types.Kind) []types.Value {
	n := r.Count()
	if r.Err() != nil {
		return nil
	}
	vals := make([]types.Value, n)
	for i := range vals {
		switch kind {
		case types.KindString:
			vals[i] = types.NewString(r.Str())
		case types.KindFloat:
			vals[i] = types.NewFloat(r.Float64())
		case types.KindBool:
			vals[i] = types.NewBool(r.Bool())
		case types.KindInt:
			vals[i] = types.NewInt(r.Varint())
		case types.KindDate:
			vals[i] = types.NewDate(r.Varint())
		case types.KindTimestamp:
			vals[i] = types.NewTimestamp(r.Varint())
		default:
			r.Fail(fmt.Errorf("dictionary of %v", kind))
			return nil
		}
	}
	return vals
}
