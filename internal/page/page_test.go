package page

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageMarshalRoundTrip(t *testing.T) {
	id := ID{Table: 7, Column: 3, Stride: 42}
	p := New(id, 11)
	rng := rand.New(rand.NewSource(5))
	var want []uint64
	for i := 0; i < 1000; i++ {
		c := rng.Uint64() & 2047
		p.Codes.Append(c)
		want = append(want, c)
		if i%17 == 0 {
			p.Nulls.Set(i)
		}
	}
	data := p.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != id {
		t.Fatalf("id %v", got.ID)
	}
	if got.Rows() != 1000 {
		t.Fatalf("rows %d", got.Rows())
	}
	for i, w := range want {
		if got.Codes.Get(i) != w {
			t.Fatalf("code %d: %d want %d", i, got.Codes.Get(i), w)
		}
		if got.Nulls.Get(i) != (i%17 == 0) {
			t.Fatalf("null bit %d wrong", i)
		}
	}
}

func TestPageChecksumDetectsCorruption(t *testing.T) {
	p := New(ID{Table: 1}, 8)
	p.Codes.AppendAll([]uint64{1, 2, 3})
	data := p.Marshal()
	data[40] ^= 0xff
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("corruption must be detected")
	}
}

func TestPageUnmarshalTruncated(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil input must error")
	}
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("short input must error")
	}
	p := New(ID{}, 8)
	p.Codes.Append(1)
	data := p.Marshal()
	if _, err := Unmarshal(data[:len(data)-20]); err == nil {
		t.Fatal("truncated body must error")
	}
}

// TestPageUnmarshalInconsistentHeader: a header whose code count the
// packed words cannot hold is an error even under a valid checksum.
func TestPageUnmarshalInconsistentHeader(t *testing.T) {
	p := New(ID{}, 8)
	p.Codes.AppendAll([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	data := p.Marshal()
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(body[14:], 100) // 100 codes in 2 words of 7
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("a code count past the packed words must error")
	}
}

func TestPageBadMagic(t *testing.T) {
	p := New(ID{}, 8)
	p.Codes.Append(1)
	data := p.Marshal()
	data[0] = 0
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("bad magic must error (and not pass checksum)")
	}
}

func TestPageMemSizeReflectsWidth(t *testing.T) {
	narrow := New(ID{}, 1)
	wide := New(ID{}, 31)
	for i := 0; i < StrideSize; i++ {
		narrow.Codes.Append(uint64(i % 2))
		wide.Codes.Append(uint64(i))
	}
	if narrow.MemSize() >= wide.MemSize() {
		t.Errorf("narrow %d must be smaller than wide %d", narrow.MemSize(), wide.MemSize())
	}
}

// Property: marshal/unmarshal is the identity for random pages.
func TestPageRoundTripProperty(t *testing.T) {
	f := func(seed int64, widthSel uint8, nSel uint16) bool {
		width := uint(widthSel%31) + 1
		n := int(nSel)%StrideSize + 1
		rng := rand.New(rand.NewSource(seed))
		p := New(ID{Table: uint32(seed)}, width)
		max := uint64(1)<<width - 1
		for i := 0; i < n; i++ {
			p.Codes.Append(rng.Uint64() & max)
			if rng.Intn(10) == 0 {
				p.Nulls.Set(i)
			}
		}
		got, err := Unmarshal(p.Marshal())
		if err != nil || got.Rows() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got.Codes.Get(i) != p.Codes.Get(i) || got.Nulls.Get(i) != p.Nulls.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
