package shardrpc

import (
	"encoding/binary"
	"fmt"

	"dashdb/internal/types"
)

// Row block: the bulk-row payload of FrameRows, FrameInsert and
// FrameShuffleData frames and of the Spark data server's chunks; its
// format is in internal/types/codec.go. Shards build their own column
// dictionaries, so a block is its own dictionary scope and its codes are
// decodable by the receiver alone.

// EncodeRowBlock appends the block encoding of rows to dst.
func EncodeRowBlock(dst []byte, rows []types.Row) ([]byte, error) {
	counts := make(map[string]int)
	var seen []string // distinct strings in order of first occurrence
	for _, r := range rows {
		for _, v := range r {
			if v.Kind() == types.KindString && !v.IsNull() {
				n := counts[v.Str()] + 1
				if counts[v.Str()] = n; n == 1 {
					seen = append(seen, v.Str())
				}
			}
		}
	}
	dict := make(map[string]uint64)
	for _, s := range seen {
		if counts[s] > 1 {
			dict[s] = uint64(len(dict))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, s := range seen {
		if counts[s] > 1 {
			dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
		}
	}
	for _, r := range rows {
		var err error
		if dst, err = types.AppendRow(dst, r, dict); err != nil {
			return nil, fmt.Errorf("shardrpc: %w", err)
		}
	}
	return dst, nil
}

// DecodeRowBlock decodes one row block.
func DecodeRowBlock(data []byte) ([]types.Row, error) {
	pos := 0
	// count reads a uvarint counting things of at least one byte each, so
	// it cannot exceed the bytes left.
	count := func() (int, error) {
		x, n := binary.Uvarint(data[pos:])
		if n <= 0 || x > uint64(len(data)-pos-n) {
			return 0, fmt.Errorf("shardrpc: row block: bad count at byte %d of %d", pos, len(data))
		}
		pos += n
		return int(x), nil
	}
	nRows, err := count()
	if err != nil {
		return nil, err
	}
	nDict, err := count()
	if err != nil {
		return nil, err
	}
	dict := make([]string, nDict)
	for i := range dict {
		ln, err := count()
		if err != nil {
			return nil, err
		}
		dict[i], pos = string(data[pos:pos+ln]), pos+ln
	}
	rows := make([]types.Row, nRows)
	width := 0
	for i := range rows {
		row, n, err := types.DecodeRow(make(types.Row, 0, width), data[pos:], dict)
		if err != nil {
			return nil, fmt.Errorf("shardrpc: row block: %w", err)
		}
		rows[i], width, pos = row, len(row), pos+n
	}
	return rows, nil
}
