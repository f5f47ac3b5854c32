package encoding

// Spill row stream: the memory governor's spill paths (external sort runs,
// Grace join partitions, aggregate run files) write rows as the frames of
// the value codec, whose format internal/types/codec.go describes.
//
// Compressed execution (DESIGN.md §11) stores dictionary-code key cells as
// plain KindInt values, so code-carrying group and join state spills
// through this stream unchanged: the reader cannot tell a code cell from an
// ordinary int, so operators must decode codes back to values before
// results leave them.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dashdb/internal/types"
)

// RowWriter streams rows into an io.Writer in spill format.
type RowWriter struct {
	w   io.Writer
	buf []byte
}

// NewRowWriter returns a writer that appends rows to w. The caller owns
// buffering; mem.SpillFile already writes through a bufio.Writer.
func NewRowWriter(w io.Writer) *RowWriter {
	return &RowWriter{w: w, buf: make([]byte, 0, 256)}
}

// WriteRow appends one row and returns the encoded size in bytes.
func (rw *RowWriter) WriteRow(r types.Row) (int, error) {
	b, err := types.AppendRow(rw.buf[:0], r, nil)
	if err != nil {
		return 0, fmt.Errorf("encoding: spill write: %w", err)
	}
	rw.buf = b
	n, err := rw.w.Write(b)
	if err != nil {
		return n, fmt.Errorf("encoding: spill write: %w", err)
	}
	return n, nil
}

// RowReader streams rows back out of spill format.
type RowReader struct {
	r     *bufio.Reader
	frame []byte // the current row's cells, reused
	width int    // cells in the last row, the next row's capacity
}

// NewRowReader reads rows from r (wrapped in a bufio.Reader unless it
// already is one).
func NewRowReader(r io.Reader) *RowReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &RowReader{r: br, frame: make([]byte, 0, 256)}
}

// ReadRow decodes the next row, returning io.EOF cleanly at end of stream.
func (rr *RowReader) ReadRow() (types.Row, error) {
	n, err := binary.ReadUvarint(rr.r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err == nil {
		err = rr.fill(n)
	}
	var row types.Row
	if err == nil {
		row, err = types.DecodeCells(make(types.Row, 0, rr.width), rr.frame, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("encoding: spill read: %w", err)
	}
	rr.width = len(row)
	return row, nil
}

// fill reads the next n bytes into the frame buffer. The buffer grows only
// as bytes arrive, so a corrupt length cannot demand memory the stream does
// not hold.
func (rr *RowReader) fill(n uint64) error {
	buf := rr.frame[:0]
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		end := cap(buf)
		if left := n - uint64(len(buf)); left < uint64(end-len(buf)) {
			end = len(buf) + int(left)
		}
		if _, err := io.ReadFull(rr.r, buf[len(buf):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		buf = buf[:end]
	}
	rr.frame = buf
	return nil
}
