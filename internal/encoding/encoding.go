// Package encoding implements the compression schemes of the BLU-style
// engine (paper §II.B.1) and, critically, the machinery for *operating on
// compressed data* (§II.B.2): every encoding knows how to translate a
// value-space comparison predicate into code space, so that the executor
// can evaluate predicates over bit-packed codes without decoding.
//
// Three encodings are provided:
//
//   - IntFOR: "minus encoding" (frame of reference) for high-cardinality
//     numerics: code = value − min, packed at bits(max−min).
//   - Dict: frequency-partitioned, order-preserving dictionary for strings
//     and low-cardinality columns. The hottest values form partition 0 and
//     receive the shortest codes; within every partition codes are assigned
//     in value order, so codes are binary-comparable inside a partition
//     (the paper's "order preserving codes"). Dictionary strings are stored
//     front-coded (prefix compression).
//   - Raw: fallback for incompressible data; predicates are evaluated in
//     value space (the "residual" path).
package encoding

import (
	"dashdb/internal/bitpack"
	"dashdb/internal/types"
)

// Kind identifies an encoding scheme.
type Kind uint8

const (
	// KindRaw stores values unencoded.
	KindRaw Kind = iota
	// KindIntFOR is minus / frame-of-reference encoding for integers,
	// dates and timestamps.
	KindIntFOR
	// KindDict is the frequency-partitioned order-preserving dictionary.
	KindDict
)

// String names the encoding.
func (k Kind) String() string {
	switch k {
	case KindRaw:
		return "RAW"
	case KindIntFOR:
		return "MINUS"
	case KindDict:
		return "FREQ-DICT"
	default:
		return "?"
	}
}

// CodeRange is an inclusive range [Lo, Hi] of codes.
type CodeRange struct {
	Lo, Hi uint64
}

// Predicate is a value-space comparison translated into code space. It is
// the contract between the encoding layer and the scan operator: matching
// tuples are exactly those whose code falls into one of Ranges, plus —
// only when Residual is true — those that additionally satisfy a
// value-space recheck (used for codes in the unsorted extension region).
type Predicate struct {
	// Ranges is a union of inclusive code ranges whose codes certainly
	// match the predicate.
	Ranges []CodeRange
	// Residual lists code ranges that may contain matches but require a
	// value-space recheck (decode + compare). Produced for a dictionary's
	// unsorted extension region, where codes are not order preserving.
	Residual []CodeRange
	// None short-circuits: no code can match (e.g. EQ against a value
	// absent from the dictionary).
	None bool
	// All short-circuits: every non-NULL code matches.
	All bool
}

// NonePredicate matches nothing.
func NonePredicate() Predicate { return Predicate{None: true} }

// AllPredicate matches every non-NULL value.
func AllPredicate() Predicate { return Predicate{All: true} }

// CmpOp is a value-space comparison operator.
type CmpOp uint8

const (
	// OpEQ is "=".
	OpEQ CmpOp = iota
	// OpNE is "<>".
	OpNE
	// OpLT is "<".
	OpLT
	// OpLE is "<=".
	OpLE
	// OpGT is ">".
	OpGT
	// OpGE is ">=".
	OpGE
)

// String renders the operator in SQL notation.
func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return "?"
	}
}

// Flip mirrors the operator across its operands: "5 < col" ⇔ "col > 5".
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	}
	return op // EQ/NE are symmetric
}

// Eval applies the operator in value space; the reference semantics the
// code-space translation must agree with. NULL operands yield false.
func (op CmpOp) Eval(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c := types.Compare(a, b)
	switch op {
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpGE:
		return c >= 0
	default:
		return false
	}
}

// Encoder is the common interface of all encodings. Encoders are
// append-friendly: values outside the analyzed domain are admitted into an
// extension region (dictionary growth) rather than failing, mirroring the
// paper's page-level dictionaries for post-load inserts.
type Encoder interface {
	// Kind reports the scheme.
	Kind() Kind
	// Encode maps a non-NULL value to its code, extending the encoder's
	// domain if needed. The returned width is the current code width.
	Encode(v types.Value) uint64
	// EncodeAll encodes a run of values into codes (len(vals) of them),
	// writing 0 for a NULL: the load path encodes a column a stride chunk
	// at a time. Frame-of-reference encoders require every value inside
	// their frame; dictionaries extend as Encode does.
	EncodeAll(vals []types.Value, codes []uint64)
	// Decode maps a code back to its value.
	Decode(code uint64) types.Value
	// DecodeAll decodes a run of codes into out's payload, slot k from
	// codes[k]: the scan's decode, one typed loop per encoder and no
	// boxed value per cell. A slot set in nulls (nil: none) is NULL and
	// reads as its payload's zero value, whatever its code.
	DecodeAll(codes []uint64, nulls *bitpack.Bitmap, out Decoded)
	// Width returns the current code width in bits.
	Width() uint
	// Cardinality returns the number of distinct codes in the domain.
	Cardinality() int
	// Translate converts a value-space predicate into code space.
	Translate(op CmpOp, v types.Value) Predicate
	// MemSize estimates the encoder's own memory footprint in bytes
	// (dictionary storage), for compression accounting.
	MemSize() int
}
