package encoding

import (
	"bytes"
	"io"
	"testing"

	"dashdb/internal/types"
)

// The round trip of the row stream is a case of TestRowBlockRoundTrip in
// internal/shardrpc, beside the block and the single cell.

func TestRowCodecTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewRowWriter(&buf)
	if _, err := w.WriteRow(types.Row{types.NewString("0123456789")}); err != nil {
		t.Fatal(err)
	}
	cut := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	rd := NewRowReader(cut)
	if _, err := rd.ReadRow(); err == nil || err == io.EOF {
		t.Fatalf("truncated row must be an error, got %v", err)
	}
}
