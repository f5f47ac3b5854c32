package exec

// Spill format: every spill file of the executor is a sequence of
// vec.AppendBlock blocks, each behind its uvarint byte length — a hash
// join's partitions blocks of at most ChunkSize rows, a sort's runs blocks
// of SortOp's block rows, a group-by's run one block of a partition's
// groups, however many — so a spilled value stays typed and reads back
// through the shard wire's vec.DecodeBlock.

import (
	"encoding/binary"
	"fmt"
	"io"

	"dashdb/internal/mem"
	"dashdb/internal/vec"
)

// spillRows appends rows ids of cols, in that order, to f: at most rows of
// them at a time gathered into typed vectors (codes decode there), a block
// each.
func spillRows[I int | uint32](f *mem.SpillFile, cols []*vec.Vector, ids []I, rows int) error {
	for a := 0; a < len(ids); a += rows {
		b := min(a+rows, len(ids))
		chunk := make([]*vec.Vector, len(cols))
		for c, col := range cols {
			chunk[c] = gather(col, ids, a, b)
		}
		vb := vec.NewBatch(nil, chunk, b-a)
		vb.Own()
		err := spillBlock(f, vb)
		vb.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// spillBlock appends the live rows of vb to f as one block.
func spillBlock(f *mem.SpillFile, vb *vec.Batch) error {
	block, err := vec.AppendBlock(nil, vb)
	if err == nil {
		_, err = f.Write(binary.AppendUvarint(nil, uint64(len(block))))
	}
	if err == nil {
		_, err = f.Write(block)
	}
	return err
}

// readBlock reads f's next block, after Rewind, as a batch; nil at the end
// of the file.
func readBlock(f *mem.SpillFile) (*vec.Batch, error) {
	n, err := binary.ReadUvarint(f)
	if err == io.EOF {
		return nil, nil
	}
	if err == nil && n > uint64(f.Size()) {
		err = fmt.Errorf("block of %d B in a %d B file", n, f.Size())
	}
	var vb *vec.Batch
	if err == nil {
		buf := make([]byte, n)
		if _, err = io.ReadFull(f, buf); err == nil {
			vb, err = vec.DecodeBlock(buf)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("exec: spill read: %w", err)
	}
	return vb, nil
}
